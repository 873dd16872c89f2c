import json
import os
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest

from treekv import load_weights, read_trace
from treekv.cli import RunConfig, load_config, main


def run_cli(*args):
    return main([str(a) for a in args])


def _decode_args(out, **overrides):
    base = {
        "policy": "treekv-left",
        "c": 4,
        "zones": "sink=0,recent=0",
        "T": 17,
        "layers": 1,
        "heads": 2,
        "d_model": 8,
        "d_head": 4,
        "seed": 3,
    }
    base.update(overrides)
    args = ["decode", "-o", out]
    for key, value in base.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_defaults_mirror_the_reference_setup():
    config = RunConfig()
    assert (config.c, config.zones) == (1024, "sink=4,recent=508")
    assert (config.T, config.levels, config.exclude) == (512, 5, 32)
    assert config.step is None  # analysis step defaults to the final step


def test_gen_weights_writes_loadable_file(tmp_path):
    out = tmp_path / "w.bin"
    assert run_cli("gen-weights", "--seed", 9, "--layers", 1, "--heads", 2,
                   "--d-model", 8, "--d-head", 4, "--vocab", 12, "-o", out) == 0
    weights = load_weights(str(out))
    assert weights.seed == 9
    assert weights.dims.vocab == 12


def test_decode_full_policy_has_no_evictions(tmp_path):
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out, policy="full", c=64)) == 0
    trace = read_trace(str(out))
    assert all(not step.events for step in trace.steps)


def test_decode_select_left_pattern_via_cli(tmp_path):
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out)) == 0
    trace = read_trace(str(out))
    for head in range(2):
        assert trace.retained[0][head] == [11, 13, 15, 16]


def test_decode_is_byte_identical_across_runs(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(*_decode_args(first)) == 0
    assert run_cli(*_decode_args(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_file_with_flag_overrides(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"policy": "full", "T": 9, "c": 16,
                                       "zones": "sink=0,recent=0",
                                       "layers": 1, "heads": 1,
                                       "d_model": 8, "d_head": 4}))
    out = tmp_path / "t.jsonl"
    assert run_cli("decode", "--config", config_path, "--T", 5, "-o", out) == 0
    trace = read_trace(str(out))
    assert trace.seq_len == 5
    assert trace.policy == "full"


def test_unknown_config_field_is_a_config_error(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"policy": "full", "window": 2}))
    assert run_cli("decode", "--config", config_path, "-o", tmp_path / "t.jsonl") == 2


def test_load_config_validates_preconditions(tmp_path):
    with pytest.raises(Exception):
        load_config(None, {"policy": "treekv", "c": 1})


def test_map_full_policy_is_all_ones(tmp_path):
    trace_path, out = tmp_path / "t.jsonl", tmp_path / "m.csv"
    assert run_cli(*_decode_args(trace_path, policy="full", c=64)) == 0
    assert run_cli("map", "--trace", trace_path, "-o", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # one row per layer
    cells = lines[0].split(",")
    assert cells[0] == "0"
    assert all(float(cell) == 1.0 for cell in cells[1:])
    assert len(cells) == 1 + 17


def test_analyze_row_count_and_header(tmp_path):
    trace_path, out = tmp_path / "t.jsonl", tmp_path / "a.csv"
    assert run_cli(*_decode_args(trace_path, policy="full", c=64, T=32)) == 0
    assert run_cli("analyze", "--trace", trace_path, "--levels", 3,
                   "--exclude", 4, "-o", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "position,band,mean_abs_magnitude"
    assert len(lines) - 1 == (32 - 2 * 4) * (3 + 1)
    assert run_cli("analyze", "--trace", trace_path, "--trace", trace_path,
                   "--levels", 3, "--exclude", 4, "-o", out) == 0


def test_analyze_level_error_is_config_exit(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(trace_path, policy="full", c=64, T=8)) == 0
    # 2**5 slots needed at the final step but only 8 present
    assert run_cli("analyze", "--trace", trace_path, "--levels", 5,
                   "--exclude", 0, "-o", tmp_path / "a.csv") == 2


def test_prefill_no_op_and_single_block(tmp_path):
    out = tmp_path / "p.jsonl"
    assert run_cli("prefill", "--policy", "treekv", "--T", 12, "--c", 16,
                   "--zones", "sink=0,recent=0", "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "--seed", 2,
                   "--block-size", 3, "--cache-blocks", 8, "-o", out) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["retained_blocks"] == [[0, 3], [3, 6], [6, 9], [9, 12]]
    assert lines[-1]["summary"]["blocks_total"] == 4

    single = tmp_path / "s.jsonl"
    assert run_cli("prefill", "--policy", "treekv", "--T", 12, "--c", 16,
                   "--zones", "sink=0,recent=0", "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "--seed", 2,
                   "--block-size", 12, "--cache-blocks", 2, "-o", single) == 0
    lines = [json.loads(line) for line in single.read_text().splitlines()]
    assert lines[0]["retained_blocks"] == [[0, 12]]


def test_prefill_token_file(tmp_path):
    prompt = tmp_path / "prompt.json"
    prompt.write_text(json.dumps(np.random.default_rng(0).normal(size=(10, 8)).tolist()))
    out = tmp_path / "p.jsonl"
    assert run_cli("prefill", "--policy", "treekv", "--c", 16,
                   "--zones", "sink=0,recent=0", "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "--block-size", 2,
                   "--cache-blocks", 2, "--prompt", prompt, "-o", out) == 0
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["prompt_len"] == 10


def test_decode_token_id_file(tmp_path):
    tokens = tmp_path / "ids.json"
    tokens.write_text(json.dumps([3, 1, 4, 1, 5, 9, 2, 6]))
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out, policy="full", c=16, vocab=12),
                   "--tokens", tokens) == 0
    trace = read_trace(str(out))
    assert trace.seq_len == 8
    assert trace.token_ids == [3, 1, 4, 1, 5, 9, 2, 6]
    # ids without an embedding table is an input error
    assert run_cli(*_decode_args(out, policy="full", c=16),
                   "--tokens", tokens) == 3


def test_compare_reference_and_overlaps(tmp_path):
    shared = {"seed": 2, "T": 32, "layers": 1, "heads": 2,
              "d_model": 8, "d_head": 4, "vocab": 16}
    full = {"policy": "full", "c": 32, "zones": "sink=0,recent=0", **shared}
    streaming = {"policy": "streaming", "c": 8, "zones": "sink=4,recent=4", **shared}
    paths = []
    for name, config in [("full", full), ("full2", full), ("streaming", streaming)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        paths.append(path)
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", *paths, "-o", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "policy,overlap,q1,q2,q3,q4,nll"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][0] == "full" and float(rows[0][1]) == 1.0
    assert float(rows[1][1]) == 1.0  # a policy compared with itself
    assert abs(float(rows[2][1]) - 8 / 32) < 1e-12  # c / T against full
    assert all(row[6] for row in rows)  # toy NLL column populated


def test_compare_rejects_mismatched_streams(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"policy": "full", "seed": 1, "T": 8, "zones": "",
                             "layers": 1, "heads": 1, "d_model": 8, "d_head": 4}))
    b.write_text(json.dumps({"policy": "full", "seed": 2, "T": 8, "zones": "",
                             "layers": 1, "heads": 1, "d_model": 8, "d_head": 4}))
    assert run_cli("compare", a, b) == 3


def test_exit_codes():
    assert run_cli("decode", "--policy", "bogus", "-o", "/tmp/never.jsonl") == 2
    assert run_cli("decode", "--policy", "treekv", "--c", 4, "-o", "/tmp/never.jsonl") == 2
    assert run_cli("map", "--trace", "/tmp/does-not-exist.jsonl") == 3


def _config_case(data):
    def build(tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(data))
        return ["decode", "--config", config_path, "-o", tmp_path / "t.jsonl"]
    return build


ANALYZE = ("analyze", "--levels", 2, "--exclude", 0)


def _trace_case(edit, line=5, command=("map",)):
    """A valid 1x2 select-left trace of 17 steps (evictions from step 5)
    with one line edited: by default step 5; line 0 is the header and line
    18 the final record."""
    def build(tmp_path):
        trace_path = tmp_path / "t.jsonl"
        assert run_cli(*_decode_args(trace_path)) == 0
        lines = trace_path.read_text().splitlines()
        lines[line] = edit(json.loads(lines[line]))
        trace_path.write_text("\n".join(lines) + "\n")
        return [*command, "--trace", trace_path]
    return build


def _first_row_cell(leaf):
    """Step 17's first attention weight replaced by ``leaf``."""
    def edit(record):
        first, second = record["rows"][0]
        return json.dumps({**record, "rows": [[[leaf] + first[1:], second]]})
    return _trace_case(edit, line=17, command=ANALYZE)


def _zero_layer_weights(tmp_path):
    """A 38-byte TKVW header that declares 0 layers and no matrices."""
    weights = tmp_path / "w.bin"
    weights.write_bytes(struct.pack("<4sHIIIIIQ", b"TKVW", 1, 0, 2, 8, 4, 0, 5))
    return ["decode", "--weights", weights, "-o", tmp_path / "t.jsonl"]


@pytest.mark.parametrize(
    "build, code",
    [
        (_config_case({"c": "12"}), 2),
        (_config_case({"T": 1.5}), 2),
        (_config_case({"zones": 5}), 2),
        (lambda tmp_path: _decode_args(tmp_path / "missing" / "t.jsonl"), 3),
        (_trace_case(lambda record: "[5]"), 3),
        (_trace_case(lambda record: json.dumps({**record, "events": [[7, 0, 0, 1]]})), 3),
        (_trace_case(lambda record: json.dumps({**record, "events": 5})), 3),
        (_trace_case(lambda record: json.dumps({**record, "retained": [[5, 6]]}), line=18), 3),
        (_trace_case(lambda record: json.dumps(
            {**record, "retained": [[[float(p) for p in cell] for cell in record["retained"][0]]]}
        ), line=18), 3),
        (_trace_case(lambda record: json.dumps({**record, "rows": [[["q"], ["q"]]]})), 3),
        (_trace_case(lambda record: json.dumps({**record, "d_head": None}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "seq_len": 17.0}), line=0), 3),
        (_first_row_cell(None), 3),
        (_first_row_cell(True), 3),
        (_first_row_cell("0.5"), 3),
        # position 15 (step 16) is among the slots step 17 attends
        (_trace_case(lambda record: json.dumps({k: v for k, v in record.items() if k != "values"}),
                     line=16, command=ANALYZE), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 1}), line=0), 3),
        (_zero_layer_weights, 3),
    ],
    ids=["c-string", "T-float", "zones-int", "unwritable-out", "step-not-object",
         "event-layer-out-of-range", "events-not-list", "retained-cell-not-list",
         "retained-float-positions", "row-cell-not-numbers", "header-dim-null",
         "header-seq-len-float", "row-cell-null", "row-cell-bool", "row-cell-string",
         "step-without-values", "format-1", "weights-zero-layers"],
)
def test_bad_inputs_exit_with_their_code_and_no_traceback(tmp_path, build, code):
    args = [str(arg) for arg in build(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-m", "treekv", *args], capture_output=True, text=True
    )
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr


def test_outputs_are_replaced_whole_or_not_at_all(tmp_path):
    def prefill(out, cache_blocks):
        return run_cli("prefill", "--T", 12, "--layers", 1, "--heads", 1, "--d-model", 8,
                       "--d-head", 4, "--block-size", 3, "--cache-blocks", cache_blocks,
                       "-o", out)

    out = tmp_path / "blocks.jsonl"
    out.write_text("old bytes\n")
    out.chmod(0o600)
    assert prefill(out, 1) == 2  # fails after the output is opened
    assert out.read_text() == "old bytes\n"
    assert os.listdir(tmp_path) == ["blocks.jsonl"]
    assert prefill(out, 2) == 0
    assert out.read_text().startswith('{"layer":0')
    assert os.listdir(tmp_path) == ["blocks.jsonl"]
    assert stat.S_IMODE(out.stat().st_mode) == 0o600  # the replaced file keeps its mode

    # A target that is not a regular file is written in place, not replaced.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert prefill(fifo, 2) == 0
        assert os.read(reader, 1 << 16) == out.read_bytes()
    finally:
        os.close(reader)
    assert fifo.is_fifo()


def test_weight_file_dims_override_the_config(tmp_path):
    weights = tmp_path / "w.bin"
    assert run_cli("gen-weights", "--seed", 4, "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "-o", weights) == 0
    out = tmp_path / "t.jsonl"
    # the config keeps its default 2x4 model of width 64
    assert run_cli("decode", "--weights", weights, "--policy", "treekv", "--c", 8,
                   "--zones", "sink=0,recent=0", "--T", 16, "-o", out) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert [header[k] for k in ("layers", "heads", "d_model", "d_head")] == [1, 1, 8, 4]
    assert len(read_trace(str(out)).retained[0][0]) == 8

    paths = []
    # the file sets the dims, so configs may differ in the ones they declare
    for policy, declared in (("full", {}), ("treekv", {"layers": 1, "d_model": 8})):
        path = tmp_path / f"{policy}.json"
        path.write_text(json.dumps({"policy": policy, "c": 8, "zones": "sink=0,recent=0",
                                    "T": 16, "weights": str(weights), **declared}))
        paths.append(path)
    summary = tmp_path / "cmp.csv"
    assert run_cli("compare", *paths, "-o", summary) == 0
    rows = [line.split(",") for line in summary.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["full", "treekv"]
    assert float(rows[1][1]) == 8 / 16  # c / T against full
