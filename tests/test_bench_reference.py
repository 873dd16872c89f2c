"""The benchmark's workloads (``bench/workloads.py``) at the default seed,
run once in-process: every output passes the workload's checks, which
include the byte-for-byte comparison of the compare and map CSVs with
``bench/reference/seed0``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from treekv.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_match_the_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    assert main(workloads.gen_weights_command(tmp_path, seed).argv) == 0
    workload.prepare(tmp_path, seed)
    for command in workload.commands(tmp_path):
        assert main(command.argv) == 0, command.argv
        assert workloads.check_outputs(workload, command, tmp_path, seed) == [], command.name
