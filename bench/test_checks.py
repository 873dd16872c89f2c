"""The output checkers count corrupted outputs as failures and pass correct
ones; the tracer wraps, counts and restores; host-speed scaling samples
while a child runs and scales by the samples' mean.

Run with ``python3 -m pytest bench -q`` from the repository root.  The
correct outputs are the recorded reference outputs of the default seed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import layers
import run
from layers import METRICS, Tracer, instrument
from run import END_TO_END, HERE
from workloads import (
    DEFAULT_SEED,
    REFERENCE_DIR,
    WORKLOADS,
    Tally,
    check_outputs,
)

OUTPUTS = {
    "policy-sweep": ("compare.csv",),
    "decode-analyze": ("map.csv", "analyze.csv"),
    "prefill-long": ("prefill.jsonl",),
}


def reference(name: str) -> str:
    return (REFERENCE_DIR / name).read_text(encoding="utf-8")


def tally_of(tmp_path, workload_name, replace=None, seed=DEFAULT_SEED) -> Tally:
    """Check a workload's outputs as the benchmark does after each command."""
    workload = WORKLOADS[workload_name]
    for name in OUTPUTS[workload_name]:
        (tmp_path / name).write_text(reference(name), encoding="utf-8")
    (tmp_path / "trace.jsonl").write_text("", encoding="utf-8")
    for name, text in (replace or {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    tally = Tally()
    for command in workload.commands(tmp_path):
        tally.record(command.name, 0, check_outputs(workload, command, tmp_path, seed))
    return tally


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
def test_reference_outputs_pass(tmp_path, workload_name):
    tally = tally_of(tmp_path, workload_name)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == len(WORKLOADS[workload_name].commands(tmp_path))


def test_nonzero_exit_counts_as_failure():
    tally = Tally()
    tally.record("decode", 3, [])
    tally.record("map", 0, [])
    assert (tally.attempted, tally.failed) == (2, 1)


def _drop_line(text: str, index: int) -> str:
    lines = text.splitlines(keepends=True)
    del lines[index]
    return "".join(lines)


def test_compare_missing_row_fails(tmp_path):
    text = _drop_line(reference("compare.csv"), 3)
    assert tally_of(tmp_path, "policy-sweep", {"compare.csv": text}).failed == 1


def test_compare_full_row_must_overlap_fully(tmp_path):
    text = reference("compare.csv").replace("\nfull,1.0,", "\nfull,0.9,")
    tally = tally_of(tmp_path, "policy-sweep", {"compare.csv": text}, seed=1)
    assert tally.failed == 1, "caught without the reference"


def test_compare_bounded_rows_must_hold_c(tmp_path):
    lines = reference("compare.csv").splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[5] = str(float(cells[5]) + 1.0)  # q4 of treekv: c + 1 tokens
    lines[2] = ",".join(cells)
    tally = tally_of(tmp_path, "policy-sweep", {"compare.csv": "".join(lines)}, seed=1)
    assert tally.failed == 1


def _flip_map_position(text: str) -> str:
    """Move one head's retained position: sums and k/heads steps still hold."""
    lines = text.splitlines()
    cells = lines[0].split(",")
    kept = next(i for i in range(1, len(cells)) if float(cells[i]) > 0)
    dropped = next(i for i in range(1, len(cells)) if float(cells[i]) == 0)
    cells[kept] = str(float(cells[kept]) - 0.25)
    cells[dropped] = str(float(cells[dropped]) + 0.25)
    lines[0] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_map_flipped_position_fails_against_reference(tmp_path):
    text = _flip_map_position(reference("map.csv"))
    assert tally_of(tmp_path, "decode-analyze", {"map.csv": text}).failed == 1
    # The structural checks alone cannot see it; the reference can.
    assert tally_of(tmp_path, "decode-analyze", {"map.csv": text}, seed=1).failed == 0


def test_map_fraction_off_the_head_grid_fails(tmp_path):
    text = reference("map.csv").replace(",1.0,", ",0.9,", 1)
    assert tally_of(tmp_path, "decode-analyze", {"map.csv": text}, seed=1).failed == 1


def _scale_magnitude(text: str, factor: float) -> str:
    lines = text.splitlines()
    position, band, value = lines[10].split(",")
    lines[10] = f"{position},{band},{float(value) * factor!r}"
    return "\n".join(lines) + "\n"


def test_analyze_perturbed_magnitude_fails(tmp_path):
    text = _scale_magnitude(reference("analyze.csv"), 1 + 1e-4)
    assert tally_of(tmp_path, "decode-analyze", {"analyze.csv": text}).failed == 1


def test_analyze_change_within_tolerance_passes(tmp_path):
    text = _scale_magnitude(reference("analyze.csv"), 1 + 1e-8)
    assert tally_of(tmp_path, "decode-analyze", {"analyze.csv": text}).failed == 0


def test_analyze_missing_row_fails(tmp_path):
    text = _drop_line(reference("analyze.csv"), 7)
    assert tally_of(tmp_path, "decode-analyze", {"analyze.csv": text}, seed=1).failed == 1


def _edit_prefill(edit) -> str:
    records = [json.loads(line) for line in reference("prefill.jsonl").splitlines()]
    edit(records)
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def test_prefill_flipped_block_fails_against_reference(tmp_path):
    def flip(records):
        kept = records[0]["retained_blocks"]
        starts = {start for start, _end in kept}
        free = next(s for s in range(0, 64 * 31, 64) if s not in starts)
        kept[0] = [free, free + 64]
        kept.sort()
    text = _edit_prefill(flip)
    assert tally_of(tmp_path, "prefill-long", {"prefill.jsonl": text}).failed == 1


def test_prefill_blocks_out_of_order_fail(tmp_path):
    def swap(records):
        kept = records[1]["retained_blocks"]
        kept[0], kept[1] = kept[1], kept[0]
    text = _edit_prefill(swap)
    assert tally_of(tmp_path, "prefill-long", {"prefill.jsonl": text}, seed=1).failed == 1


def test_prefill_perturbed_score_fails(tmp_path):
    def perturb(records):
        records[2]["block_scores"][5] *= 1 + 1e-4
    text = _edit_prefill(perturb)
    assert tally_of(tmp_path, "prefill-long", {"prefill.jsonl": text}).failed == 1


def test_prefill_missing_stream_fails(tmp_path):
    text = _drop_line(reference("prefill.jsonl"), 4)
    assert tally_of(tmp_path, "prefill-long", {"prefill.jsonl": text}, seed=1).failed == 1


@pytest.mark.parametrize("workload_name, name", [
    ("policy-sweep", "compare.csv"),
    ("decode-analyze", "map.csv"),
    ("decode-analyze", "analyze.csv"),
    ("prefill-long", "prefill.jsonl"),
])
def test_garbled_output_fails_without_crashing(tmp_path, workload_name, name):
    garbled = reference(name).splitlines()[0] + "\n\nx,y\n[1]\n"
    assert tally_of(tmp_path, workload_name, {name: garbled}, seed=1).failed == 1


def test_missing_output_fails(tmp_path):
    tally = tally_of(tmp_path, "policy-sweep")
    (tmp_path / "compare.csv").unlink()
    workload = WORKLOADS["policy-sweep"]
    command = workload.commands(tmp_path)[0]
    tally.record(command.name, 0, check_outputs(workload, command, tmp_path, DEFAULT_SEED))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        for key, value in WORKLOADS[entry["name"]].params.items():
            value = ",".join(value) if isinstance(value, list) else str(value)
            assert f" {key}={value}" in entry["why"], (entry["name"], key)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _what in METRICS]
    assert sorted(name for names in OUTPUTS.values() for name in names) == sorted(
        p.name for p in REFERENCE_DIR.iterdir())


def test_all_workloads_end_in_one_result_line(monkeypatch, capsys):
    def fake_run(workload, seed, seconds, traced):
        failed = int(workload.name == "decode-analyze")
        return {"workload": workload.name}, {
            "correct": not failed, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    monkeypatch.setattr(run, "run_workload", fake_run)
    assert run.main(["--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(WORKLOADS) + 1
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 3 * len(WORKLOADS), 1)
    assert sorted(result["metrics"]) == sorted(f"{name}.wall_s" for name in WORKLOADS)


def test_host_speed_scales_by_the_mean_of_the_calibrations_around_a_region(monkeypatch):
    loop_times = iter([0.02, 0.03, 0.05, 0.05])
    monkeypatch.setattr(run, "calibrate", lambda: next(loop_times))
    speed = run.HostSpeed()
    speed.start()
    assert speed.scale(2.0) == pytest.approx(2.0 * run.REFERENCE_CALIBRATION_S / 0.025)
    speed.start()
    assert speed.scale(2.0) == pytest.approx(2.0 * run.REFERENCE_CALIBRATION_S / 0.05)
    assert speed.factors == pytest.approx([run.REFERENCE_CALIBRATION_S / 0.025,
                                           run.REFERENCE_CALIBRATION_S / 0.05])


@pytest.mark.skipif(not hasattr(run.os, "pidfd_open"), reason="needs pidfd_open")
def test_host_speed_samples_while_a_child_runs():
    speed = run.HostSpeed()
    speed.start()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.35)"])
    try:
        sampled = speed.follow(child.pid)
    finally:
        child.wait()
    assert len(speed.samples) >= 3  # one before, then about one per SAMPLE_EVERY_S
    assert sampled == pytest.approx(sum(speed.samples[1:]))


def test_instrument_counts_skips_missing_entry_points_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import treekv.cli
    import treekv.rng

    original = treekv.rng.NormalStream.normals
    monkeypatch.setattr(layers, "TARGETS", [*layers.TARGETS, ("engine", "Gone.step", "x", None)])
    tracer = Tracer()
    with instrument(tracer):
        assert treekv.cli.decode_with_policy is treekv.policies.decode_with_policy
        assert treekv.policies.decode_with_policy.__name__ == "traced"
        treekv.rng.NormalStream(1).normals(5)
    assert treekv.rng.NormalStream.normals is original
    assert treekv.cli.decode_with_policy.__name__ == "decode_with_policy"
    metrics = tracer.metrics()
    assert metrics["rng.normals_drawn"] == 5
    assert metrics["rng.normals_s"] > 0
