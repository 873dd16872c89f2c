import hashlib
import json
import os
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest

from treekv import ConfigError, load_weights, make_policy, read_trace
from treekv.cli import RunConfig, load_config, main
from treekv.engine import atomic_output

from oracles import oracle_compare_cells


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
    assert all(step.evicted is None for step in trace.steps)


def test_decode_select_left_pattern_via_cli(tmp_path):
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out)) == 0
    trace = read_trace(str(out))
    for head in range(2):
        assert trace.retained[0][head].tolist() == [11, 13, 15, 16]


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
    # load_config only parses and type-checks; each setting's own
    # precondition is checked by the code that reads it.
    config_path = tmp_path / "cfg.json"
    for data in ({"window": 2}, {"c": "12"}):
        config_path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_config(str(config_path), {})
    assert load_config(None, {"policy": "treekv", "c": 1}).c == 1
    for spec in ("treekv", "h2o"):
        with pytest.raises(ConfigError, match="c >= 2"):
            make_policy(spec, 1)


def test_a_command_ignores_config_fields_it_does_not_read(tmp_path):
    prefill = ("prefill", "--T", 12, "--layers", 1, "--heads", 1, "--d-model", 8,
               "--d-head", 4, "--block-size", 3)
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps({"c": 1, "policy": "bogus", "trace_detail": "x"}))
    plain, configured = tmp_path / "plain.jsonl", tmp_path / "configured.jsonl"
    assert run_cli(*prefill, "-o", plain) == 0
    assert run_cli(*prefill, "--config", unread, "-o", configured) == 0
    assert configured.read_bytes() == plain.read_bytes()

    trace = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(trace, policy="full", c=64, T=8)) == 0
    unread.write_text(json.dumps({"policy": "bogus", "c": 1}))
    assert run_cli(*ANALYZE, "--trace", trace, "--config", unread,
                   "-o", tmp_path / "a.csv") == 0

    # a weight file sets the dims, so the config's own are never read
    weights = tmp_path / "w.bin"
    assert run_cli("gen-weights", "--layers", 1, "--heads", 2, "--d-model", 8,
                   "--d-head", 4, "-o", weights) == 0
    unread.write_text(json.dumps({"layers": 0}))
    assert run_cli("decode", "--weights", weights, "--config", unread, "--T", 8,
                   "--zones", "sink=0,recent=0", "--c", 4, "-o", trace) == 0
    header = json.loads(trace.read_bytes().split(b"\n")[0])
    assert [header[k] for k in ("layers", "heads", "d_model", "d_head")] == [1, 2, 8, 4]


def test_decode_refuses_a_bad_policy_before_building_its_inputs(tmp_path, capsys):
    # 10**12 input rows would not fit in memory: the policy check must come first
    for flags, message in ((("--policy", "bogus"), "unknown policy"),
                           (("--c", 1), "c >= 2"), (("--zones", "sink"), "zone syntax")):
        assert run_cli("decode", *flags, "--T", 10**12, "-o", tmp_path / "t.jsonl") == 2
        assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    assert run_cli("prefill", "--T", 12, "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "--seed", 2,
                   "--block-size", 3, "--cache-blocks", 8, "-o", out) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["retained_blocks"] == [[0, 3], [3, 6], [6, 9], [9, 12]]
    assert lines[-1]["summary"]["blocks_total"] == 4

    single = tmp_path / "s.jsonl"
    assert run_cli("prefill", "--T", 12, "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "--seed", 2,
                   "--block-size", 12, "--cache-blocks", 2, "-o", single) == 0
    lines = [json.loads(line) for line in single.read_text().splitlines()]
    assert lines[0]["retained_blocks"] == [[0, 12]]


def test_prefill_token_file(tmp_path):
    prompt = tmp_path / "prompt.json"
    prompt.write_text(json.dumps(np.random.default_rng(0).normal(size=(10, 8)).tolist()))
    out = tmp_path / "p.jsonl"
    assert run_cli("prefill", "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "--block-size", 2,
                   "--cache-blocks", 2, "--prompt", prompt, "-o", out) == 0
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["prompt_len"] == 10


# Recorded from the per-stream prefill loop that the lockstep prefill
# replaced; the JSONL must stay identical byte for byte.
@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--d-head", 3, "--T", 40, "--block-size", 8, "--cache-blocks", 2],
         "36fb94a6a1434afd9a41b2a038df17115eb14cc5cadd8910485ef08856b87f26"),
        (["--d-head", 4, "--T", 50, "--block-size", 8, "--cache-blocks", 3],
         "9479b417041b4ce81e50ef75ba3c4ffcc730ef4b6ce3512f39148d871fa18b33"),
        (["--d-head", 4, "--T", 32, "--block-size", 8, "--cache-blocks", 99],
         "5e56059b783576a8b08a0ec502855549eb3d1ee132c7bf311c934d1e8b47148a"),
    ],
    ids=["odd-d-head", "short-last-block", "budget-covers-blocks"],
)
def test_prefill_is_bitwise_pinned(tmp_path, flags, expected):
    out = tmp_path / "p.jsonl"
    assert run_cli("prefill", "--layers", 2, "--heads", 3, "--d-model", 8, *flags,
                   "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


# Recorded from the step-by-step eviction replay and the signal-by-signal
# Haar loop that the whole-array passes replaced; the map and analyze CSVs
# must stay identical byte for byte.  The traces are 2x2 runs with T=40 and
# c=8, so the final step attends over 9 slots and step 7 over 7: both odd,
# so the transforms pad.
@pytest.mark.parametrize(
    "command, count, expected",
    [
        (["map"], 1,
         "edbc2d8958cff6c7f66e103db42563bb432f6af8e95975b2fa0b9e3f854210b5"),
        (["analyze", "--levels", 3, "--exclude", 2], 1,
         "1e688aefafacf3b89a7c67cee172572fd20828af72cd13caf6c76d9a05715e76"),
        (["analyze", "--levels", 2, "--exclude", 1, "--step", 7], 1,
         "6d96bf9aa6d5907a3310ccb21d9a5b7bb16b9b8072ee50fe25a8b875ad73d505"),
        (["analyze", "--levels", 3, "--exclude", 0, "--step", 23], 2,
         "8e8b7f93ee26e302e9120d9059e97d378e74a23ccad657bb98e5d03cd962219b"),
    ],
    ids=["map", "analyze-final-step", "analyze-odd-step", "analyze-two-traces"],
)
def test_analysis_is_bitwise_pinned(tmp_path, command, count, expected):
    flags = []
    for seed, policy in [(4, "treekv"), (5, "h2o")][:count]:
        trace = tmp_path / f"{policy}.jsonl"
        assert run_cli(*_decode_args(trace, policy=policy, seed=seed, T=40, c=8,
                                     zones="sink=1,recent=2", layers=2)) == 0
        flags += ["--trace", trace]
    out = tmp_path / "out.csv"
    assert run_cli(*command, *flags, "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


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


@pytest.mark.parametrize("seed", [0, 1])
def test_compare_cells_match_the_oracle(tmp_path, seed):
    # Six streams: numpy sums fewer than eight terms left to right, as the
    # oracle does, so the overlap means agree to the last bit.
    policies = ["full", "treekv", "treekv-left", "streaming", "h2o", "tova"]
    policies = policies[seed:] + policies[:seed]  # seed 1 compares against treekv
    config = {"c": 12, "zones": "sink=2,recent=4", "seed": seed, "T": 64,
              "layers": 2, "heads": 3, "d_model": 8, "d_head": 4}
    paths, finals = [], []
    for policy in policies:
        paths.append(tmp_path / f"{policy}.json")
        paths[-1].write_text(json.dumps({**config, "policy": policy}))
        trace = tmp_path / f"{policy}.jsonl"
        assert run_cli("decode", "--config", paths[-1], "--trace-detail", "light",
                       "-o", trace) == 0
        finals.append(read_trace(str(trace)).retained.tolist())
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", *paths, "-o", out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == policies
    for row, final in zip(rows, finals):
        assert row[1:6] == oracle_compare_cells(final, finals[0], config["T"]), row[0]


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


def _trace_case(edit=json.dumps, line=5, command=("map",), block=None, **overrides):
    """A valid 1x2 select-left trace of 17 steps (evictions from step 5)
    with one line edited: by default step 5; line 0 is the header and line
    18 the final record.  ``block`` maps the bytes after the final record,
    the block of inputs and weights, to the bytes written in its place."""
    def build(tmp_path):
        trace_path = tmp_path / "t.jsonl"
        assert run_cli(*_decode_args(trace_path, **overrides)) == 0
        *lines, rest = trace_path.read_bytes().split(b"\n", 19)
        lines[line] = edit(json.loads(lines[line])).encode()
        trace_path.write_bytes(b"\n".join(lines) + b"\n" + (block or bytes)(rest))
        return [*command, "--trace", trace_path]
    return build


def _block_case(*edits):
    """Values written into the block: each edit is (part, entries, value)
    with part "inputs", viewed as (step - 1, d_model), or "weights", viewed
    as (head, q/k/v, d_model, d_head); the trace goes to ``analyze``."""
    def edit(rest):
        split = 17 * 8 * 8
        parts = {"inputs": np.frombuffer(rest[:split], dtype="<f8").reshape(17, 8).copy(),
                 "weights": np.frombuffer(rest[split:], dtype="<f4").reshape(2, 3, 8, 4).copy()}
        for part, entries, value in edits:
            parts[part][entries] = value
        return parts["inputs"].tobytes() + parts["weights"].tobytes()
    return _trace_case(command=ANALYZE, block=edit)


def _token_file_case(text, **overrides):
    """decode with ``--tokens`` naming a file that holds ``text``."""
    def build(tmp_path):
        tokens = tmp_path / "tokens.json"
        tokens.write_text(text)
        return [*_decode_args(tmp_path / "t.jsonl", **overrides), "--tokens", tokens]
    return build


# Finite embedding rows whose attention logits overflow, and finite rows
# whose projections overflow.
HUGE_ROWS = json.dumps([[1e300] * 8] * 6)
OVERFLOWING_ROWS = json.dumps([[1.7e308] * 8] * 6)


def _prompt_case(text):
    """prefill with a prompt file that holds ``text``."""
    def build(tmp_path):
        prompt = tmp_path / "prompt.json"
        prompt.write_text(text)
        return ["prefill", "--prompt", prompt, "--layers", 1, "--heads", 1, "--d-model", 8,
                "--d-head", 4, "--block-size", 2, "--cache-blocks", 2,
                "-o", tmp_path / "p.jsonl"]
    return build


def _compare_case(*edits):
    """compare over one valid small config per edit, each edited as given."""
    def build(tmp_path):
        base = {"policy": "full", "T": 8, "zones": "", "layers": 1, "heads": 1,
                "d_model": 8, "d_head": 4}
        paths = []
        for index, edit in enumerate(edits):
            paths.append(tmp_path / f"c{index}.json")
            paths[-1].write_text(json.dumps({**base, **edit}))
        return ["compare", *paths, "-o", tmp_path / "cmp.csv"]
    return build


def _zero_layer_weights(tmp_path):
    """A 34-byte TKVW header that declares 0 layers and no matrices."""
    weights = tmp_path / "w.bin"
    weights.write_bytes(struct.pack("<4sHIIIIIQ", b"TKVW", 1, 0, 2, 8, 4, 0, 5))
    return ["decode", "--weights", weights, "-o", tmp_path / "t.jsonl"]


def _nan_weights(tmp_path):
    """A 1x1x8x4 TKVW file whose first W_Q entry is NaN."""
    weights = tmp_path / "w.bin"
    assert run_cli("gen-weights", "--layers", 1, "--heads", 1, "--d-model", 8,
                   "--d-head", 4, "-o", weights) == 0
    blob = bytearray(weights.read_bytes())
    blob[34:38] = struct.pack("<f", float("nan"))
    weights.write_bytes(bytes(blob))
    return ["decode", "--weights", weights, "-o", tmp_path / "t.jsonl"]


@pytest.mark.parametrize(
    "build, code",
    [
        (_config_case({"c": "12"}), 2),
        (_config_case({"T": 1.5}), 2),
        (_config_case({"zones": 5}), 2),
        (lambda tmp_path: _decode_args(tmp_path / "missing" / "t.jsonl"), 3),
        (_trace_case(lambda record: "[5]"), 3),
        (_trace_case(lambda record: json.dumps({**record, "evicted": record["evicted"] * 2})), 3),
        (_trace_case(lambda record: json.dumps({**record, "evicted": 5})), 3),
        (_trace_case(lambda record: json.dumps({**record, "retained": [[5, 6]]}), line=18), 3),
        (_trace_case(lambda record: json.dumps(
            {**record, "retained": [[[float(p) for p in cell] for cell in record["retained"][0]]]}
        ), line=18), 3),
        (_trace_case(lambda record: json.dumps({**record, "d_head": None}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "seq_len": 17.0}), line=0), 3),
        (_trace_case(block=lambda rest: rest[:-1]), 3),
        (_trace_case(block=lambda rest: rest + b"\0"), 3),
        (_trace_case(block=lambda rest: rest + bytes(8), trace_detail="light"), 3),
        (_block_case(("inputs", (16, 0), float("nan"))), 3),
        (_block_case(("weights", (0, 2, 0, 0), float("inf"))), 3),
        (_block_case(("weights", (1, 0, 3, 2), float("nan"))), 3),
        # full header dims and no block: position 15 (step 16) is among the
        # slots step 17 attends, and nothing records its input or the weights
        (_trace_case(command=ANALYZE, block=lambda rest: b""), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 1}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 2}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 3}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 4}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 5}), line=0), 3),
        (_trace_case(lambda record: json.dumps({**record, "seq_len": 10**12}), line=0,
                     trace_detail="light"), 3),
        (_trace_case(lambda record: json.dumps({**record, "layers": 2**32 - 1, "heads": 2**32 - 1,
                                                "d_head": 2**32 - 1}), line=0), 3),
        (_zero_layer_weights, 3),
        (_token_file_case("[[NaN]]", d_model=1), 3),
        (_token_file_case("[[true]]", d_model=1), 3),
        (_token_file_case("[1, 2, true]", vocab=8), 3),
        (_nan_weights, 3),
        (lambda tmp_path: ["prefill", "--T", 12, "--block-size", 0,
                           "-o", tmp_path / "p.jsonl"], 2),
        (_trace_case(json.dumps, command=("analyze", "--levels", 2, "--exclude", -1)), 2),
        (_token_file_case(HUGE_ROWS), 3),
        (_prompt_case(HUGE_ROWS), 3),
        (_token_file_case(OVERFLOWING_ROWS), 3),
        (_prompt_case(OVERFLOWING_ROWS), 3),
        (_trace_case(json.dumps, command=(*ANALYZE, "--step", 0)), 2),
        (_trace_case(json.dumps, command=(*ANALYZE, "--step", 18)), 3),
        # 2**(10**12) would not fit in memory: the level check must not build it
        (_trace_case(json.dumps, command=("analyze", "--levels", 10**12, "--exclude", 0)), 2),
        # step 17's input of 1e300: a finite query and key, overflowing logits
        (_block_case(("inputs", 16, 1e300)), 3),
        # every input 1e160: finite queries and keys, overflowing logits
        (_block_case(("inputs", slice(None), 1e160)), 3),
        # step 17's input of 1.7e308 against a column of ones: a query past float64
        (_block_case(("inputs", 16, 1.7e308), ("weights", (0, 0, slice(None), 0), 1.0)), 3),
        # values of 1.76e308 (W_V ones on inputs of 2.2e307) under uniform rows
        # (W_Q and W_K zero): finite numbers, overflowing band sums
        (_block_case(("weights", (slice(None), slice(0, 2)), 0.0),
                     ("weights", (slice(None), 2), 1.0), ("inputs", slice(None), 2.2e307)), 3),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", zones="sink=\u00b2"), 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", zones="sink=1,sink=2,recent=0"), 2),
        (_token_file_case("[1, 36893488147419103232]", vocab=8), 3),
        # 2**62 normals per matrix: more bytes than numpy can address
        (lambda tmp_path: ["gen-weights", "--d-model", 2**31, "--d-head", 2**31,
                           "-o", tmp_path / "w.bin"], 2),
        # flags of settings the command never reads are usage errors
        (lambda tmp_path: ["prefill", "--T", 12, "--c", 16, "-o", tmp_path / "p.jsonl"], 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", levels=3), 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", T=0), 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", trace_detail="ful"), 2),
        (lambda tmp_path: ["gen-weights", "--layers", 0, "-o", tmp_path / "w.bin"], 2),
        # every config's policy is checked before any decode runs
        (_compare_case({}, {"policy": "treekv", "c": 4}, {"policy": "bogus"}), 2),
        # a later config is only compared with the first
        (_compare_case({}, {"T": 0}), 3),
    ],
    ids=["c-string", "T-float", "zones-int", "unwritable-out", "step-not-object",
         "event-layer-out-of-range", "events-not-list", "retained-cell-not-list",
         "retained-float-positions", "header-dim-null", "header-seq-len-float",
         "block-short", "block-long", "block-on-light-trace", "row-cell-nan",
         "value-cell-infinity", "weights-cell-nan", "step-without-values", "format-1",
         "format-2", "format-3", "format-4", "format-5", "seq-len-huge",
         "block-length-overflows-int64", "weights-zero-layers", "embedding-nan",
         "embedding-bool", "token-id-bool", "weights-nan", "block-size-zero", "exclude-negative",
         "decode-attention-overflow", "prefill-attention-overflow",
         "decode-projection-overflow", "prefill-projection-overflow", "step-zero", "step-past-end",
         "levels-huge", "qkv-overflow", "logits-overflow", "projection-overflow",
         "profile-overflow", "zones-superscript", "zones-repeated", "token-id-huge",
         "weights-too-big", "prefill-unread-c", "decode-unread-levels", "decode-T-zero",
         "trace-detail-unknown", "gen-weights-zero-layers", "compare-last-policy-unknown",
         "compare-later-T-zero"],
)
def test_bad_inputs_exit_with_their_code_and_no_traceback(tmp_path, build, code):
    args = [str(arg) for arg in build(tmp_path)]
    inputs = sorted(os.listdir(tmp_path))
    result = subprocess.run(
        [sys.executable, "-m", "treekv", *args], capture_output=True, text=True
    )
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert "Warning" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == inputs  # no output file written


def test_trace_errors_name_the_format_and_the_missing_block(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(trace, trace_detail="light")) == 0
    assert run_cli(*ANALYZE, "--trace", trace) == 3
    assert "lacks the run's inputs and projection weights" in capsys.readouterr().err
    header, rest = trace.read_bytes().split(b"\n", 1)
    trace.write_bytes(json.dumps({**json.loads(header), "format": 5}).encode() + b"\n" + rest)
    assert run_cli("map", "--trace", trace) == 3
    assert capsys.readouterr().err == "input error: unsupported trace format 5\n"


def test_a_run_too_large_to_allocate_is_a_config_error(tmp_path, monkeypatch, capsys):
    def unable(self, count):
        raise MemoryError(f"Unable to allocate {8 * count} bytes")

    monkeypatch.setattr("treekv.rng.NormalStream.normals", unable)
    assert run_cli("gen-weights", "--d-model", 8, "--d-head", 4, "-o", tmp_path / "w.bin") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []


def test_an_unallocatable_weight_set_is_refused_before_any_draw(tmp_path, monkeypatch, capsys):
    def draw(*args):
        raise AssertionError("a matrix was drawn before the weight set was allocated")

    empty = np.empty

    def unable(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) == 3 * 65536**2:
            raise MemoryError("Unable to allocate 48.0 GiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr("treekv.engine._draw_matrix", draw)
    monkeypatch.setattr(np, "empty", unable)
    assert run_cli("gen-weights", "--layers", 65536, "--heads", 65536, "--d-model", 1,
                   "--d-head", 1, "-o", tmp_path / "w.bin") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []


def test_a_budget_above_T_decodes_as_a_budget_of_T(tmp_path):
    # The cache never holds more than T slots, so a budget past any
    # allocatable size runs exactly as c = T.
    maps = []
    for c in (2**40, 8):
        trace, csv = tmp_path / f"t{c}.jsonl", tmp_path / f"m{c}.csv"
        assert run_cli("decode", "--c", c, "--T", 8, "--zones", "sink=0,recent=0", "-o", trace) == 0
        assert run_cli("map", "--trace", trace, "-o", csv) == 0
        maps.append(csv.read_bytes())
    assert maps[0] == maps[1]


def test_outputs_are_replaced_whole_or_not_at_all(tmp_path):
    def prefill(out, cache_blocks):
        return run_cli("prefill", "--T", 12, "--layers", 1, "--heads", 1, "--d-model", 8,
                       "--d-head", 4, "--block-size", 3, "--cache-blocks", cache_blocks,
                       "-o", out)

    out = tmp_path / "blocks.jsonl"
    out.write_text("old bytes\n")
    out.chmod(0o600)
    assert prefill(out, 1) == 2  # refused before the output is opened
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


def test_a_failed_atomic_write_keeps_the_old_file(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("old bytes\n")
    out.chmod(0o600)
    with pytest.raises(RuntimeError):
        with atomic_output(str(out)) as fh:
            fh.write("partial")
            fh.flush()
            raise RuntimeError("writer failed")
    assert out.read_text() == "old bytes\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["out.txt"]  # no temporary file left behind


def test_weight_file_dims_override_the_config(tmp_path):
    weights = tmp_path / "w.bin"
    assert run_cli("gen-weights", "--seed", 4, "--layers", 1, "--heads", 1,
                   "--d-model", 8, "--d-head", 4, "-o", weights) == 0
    out = tmp_path / "t.jsonl"
    # the config keeps its default 2x4 model of width 64
    assert run_cli("decode", "--weights", weights, "--policy", "treekv", "--c", 8,
                   "--zones", "sink=0,recent=0", "--T", 16, "-o", out) == 0
    header = json.loads(out.read_bytes().split(b"\n")[0])
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
