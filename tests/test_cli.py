import hashlib
import json
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treekv import (
    ConfigError,
    InputError,
    ModelDims,
    ModelWeights,
    StreamBatch,
    decode_with_policy,
    dwt_multi,
    generate_weights,
    load_weights,
    make_policy,
    read_trace,
    save_weights,
    write_trace,
)
from treekv import cli, errors
from treekv.cli import RunConfig, load_config, main
from treekv.engine import _FORMAT_VERSION, CHUNK_ROWS, atomic_output
from treekv.trace import TRACE_FORMAT

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
                   "--d-model", 8, "--d-head", 4, "-o", out) == 0
    weights = load_weights(str(out))
    assert weights.seed == 9
    assert weights.dims == ModelDims(1, 2, 8, 4)


def test_stream_seed_is_recorded_only_when_it_drew_the_inputs(tmp_path):
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out, seed=7)) == 0
    assert read_trace(str(out)).stream_seed == 7
    tokens = tmp_path / "rows.json"
    tokens.write_text(json.dumps(np.random.default_rng(0).normal(size=(6, 8)).tolist()))
    assert run_cli(*_decode_args(out, seed=7), "--tokens", tokens) == 0
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["stream_seed"] is None
    assert read_trace(str(out)).stream_seed is None


def test_decode_full_policy_has_no_evictions(tmp_path):
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out, policy="full", c=64)) == 0
    trace = read_trace(str(out))
    assert trace.evicted.shape == (0, 1, 2)


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
    assert trace.policy.spec == "full"


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


def test_each_command_builds_each_policy_once(tmp_path, monkeypatch):
    # make_policy is the only code that turns (spec, c, zones) into a
    # policy, and the run's one object travels from there: decode builds 1,
    # a compare of k configs k, and map and analyze 1 per trace they read.
    built = []
    build = make_policy

    def spy(spec, capacity, zones=None):
        built.append(spec)
        return build(spec, capacity, zones)

    monkeypatch.setattr(cli, "make_policy", spy)
    monkeypatch.setattr("treekv.policies.make_policy", spy)
    traces = [tmp_path / "h2o.jsonl", tmp_path / "tova.jsonl"]
    for policy, trace in zip(("h2o", "tova"), traces):
        built.clear()
        assert run_cli(*_decode_args(trace, policy=policy, T=40)) == 0
        assert built == [policy]
    configs = []
    for spec in ("full", "treekv", "streaming"):
        configs.append(tmp_path / f"{spec}.json")
        configs[-1].write_text(json.dumps({
            "policy": spec, "c": 8, "zones": "sink=1,recent=1", "T": 40, "layers": 1,
            "heads": 2, "d_model": 8, "d_head": 4}))
    built.clear()
    assert run_cli("compare", *configs, "-o", tmp_path / "cmp.csv") == 0
    assert built == ["full", "treekv", "streaming"]
    built.clear()
    assert run_cli("map", "--trace", traces[0], "-o", tmp_path / "map.csv") == 0
    assert built == ["h2o"]
    built.clear()
    assert run_cli("analyze", "--trace", traces[0], "--trace", traces[1], "--levels", 1,
                   "--exclude", 1, "-o", tmp_path / "profile.csv") == 0
    assert built == ["h2o", "tova"]


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
# must stay identical byte for byte.  The traces are 2-layer runs with T=40
# and c=8, so the final step attends over 9 slots and step 7 over 7: both
# odd, so the transforms pad.  At 3 heads the map holds thirds, which
# float32 would print as 0.33333334, not 0.3333333333333333.
@pytest.mark.parametrize(
    "command, count, heads, expected",
    [
        (["map"], 1, 2,
         "edbc2d8958cff6c7f66e103db42563bb432f6af8e95975b2fa0b9e3f854210b5"),
        (["map"], 1, 3,
         "9e135a221d375e80c2bf0b8bbcf2fece571aeb2c14dc97b26ef23522312bc4e9"),
        (["analyze", "--levels", 3, "--exclude", 2], 1, 2,
         "1e688aefafacf3b89a7c67cee172572fd20828af72cd13caf6c76d9a05715e76"),
        (["analyze", "--levels", 2, "--exclude", 1, "--step", 7], 1, 2,
         "6d96bf9aa6d5907a3310ccb21d9a5b7bb16b9b8072ee50fe25a8b875ad73d505"),
        (["analyze", "--levels", 3, "--exclude", 0, "--step", 23], 2, 2,
         "8e8b7f93ee26e302e9120d9059e97d378e74a23ccad657bb98e5d03cd962219b"),
    ],
    ids=["map", "map-three-heads", "analyze-final-step", "analyze-odd-step",
         "analyze-two-traces"],
)
def test_analysis_is_bitwise_pinned(tmp_path, command, count, heads, expected):
    flags = []
    for seed, policy in [(4, "treekv"), (5, "h2o")][:count]:
        trace = tmp_path / f"{policy}.jsonl"
        assert run_cli(*_decode_args(trace, policy=policy, seed=seed, T=40, c=8,
                                     zones="sink=1,recent=2", layers=2, heads=heads)) == 0
        flags += ["--trace", trace]
    out = tmp_path / "out.csv"
    assert run_cli(*command, *flags, "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_decode_token_id_file(tmp_path, capsys):
    # A model has no vocabulary: a file of token ids is not a grid of rows.
    tokens = tmp_path / "ids.json"
    tokens.write_text(json.dumps([3, 1, 4, 1, 5, 9, 2, 6]))
    out = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(out, policy="full", c=16), "--tokens", tokens) == 3
    assert "is not a nx8 grid of finite int/float values" in capsys.readouterr().err
    assert not out.exists()


def test_compare_reference_and_overlaps(tmp_path):
    shared = {"seed": 2, "T": 32, "layers": 1, "heads": 2, "d_model": 8, "d_head": 4}
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
    assert all(row[6] == "" for row in rows)  # the nll column stays empty


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
    """decode with a config file that holds ``data``, or the text given."""
    def build(tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(data if isinstance(data, str) else json.dumps(data))
        return ["decode", "--config", config_path, "-o", tmp_path / "t.jsonl"]
    return build


ANALYZE = ("analyze", "--levels", 2, "--exclude", 0)


# the _decode_args trace's evictions, one byte each as its T is at most 256:
# steps 5-17, 2 heads
EVICTED_BYTES = 1 * 13 * 2


def _trace_case(header=json.dumps, command=("map",), evicted=None, block=None, **overrides):
    """A valid 1x2 select-left trace of 17 steps at c=4 with its parts
    edited: ``header`` maps the header record to the text written in its
    place, ``evicted`` maps the (13, 2) uint8 evictions of steps 5 to 17 to
    the bytes written in theirs, and ``block`` maps the bytes after them,
    the block of inputs and weights, to the bytes written in its place.
    Decode draws both from the seed, so its file omits them; with ``block``
    given, a full trace is first rewritten to store them, as the header
    then says, so that there is a block to edit."""
    def build(tmp_path):
        trace_path = tmp_path / "t.jsonl"
        assert run_cli(*_decode_args(trace_path, **overrides)) == 0
        line, rest = trace_path.read_bytes().split(b"\n", 1)
        record = json.loads(line)
        if block and record["inputs"] is not None:
            loaded = read_trace(str(trace_path))
            record.update(inputs="stored", weights="stored")
            rest += loaded.inputs.astype("<f8").tobytes() + loaded.weights.astype("<f4").tobytes()
        rows = np.frombuffer(rest[:EVICTED_BYTES], dtype="u1").reshape(13, 2).copy()
        trace_path.write_bytes(header(record).encode() + b"\n"
                               + (evicted or np.ndarray.tobytes)(rows)
                               + (block or bytes)(rest[EVICTED_BYTES:]))
        return [*command, "--trace", trace_path]
    return build


def _evicted_case(step, head, position, **overrides):
    """The trace with ``position`` evicted from head ``head`` at ``step``."""
    def edit(rows):
        rows[step - 5, head] = position  # row 0 is step 5
        return rows.tobytes()
    return _trace_case(evicted=edit, **overrides)


def _relabelled_case(written, read):
    """The trace ``written`` by one policy, its header naming another."""
    return _trace_case(lambda record: json.dumps({**record, "policy": read}), policy=written)


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


def _token_file_case(text, out=None, **overrides):
    """decode with ``--tokens`` naming a file that holds ``text``, writing
    to ``out`` (by default t.jsonl beside it)."""
    def build(tmp_path):
        tokens = tmp_path / "tokens.json"
        tokens.write_text(text)
        return [*_decode_args(out or tmp_path / "t.jsonl", **overrides), "--tokens", tokens]
    return build


# Finite embedding rows whose attention logits overflow, and finite rows
# whose projections overflow.
HUGE_ROWS = json.dumps([[1e300] * 8] * 6)
OVERFLOWING_ROWS = json.dumps([[1.7e308] * 8] * 6)
# Finite rows whose keys stay finite but the last, past the first chunk of
# inputs that decode projects at once.
LAST_ROW_OVERFLOWS = json.dumps([[0.5] * 8] * CHUNK_ROWS + [[1.7e308] * 8])
# JSON nested past the parser's recursion limit.
DEEP_JSON = "[" * 100000 + "]" * 100000


def _unread_attention_analyze(tmp_path):
    """analyze on the trace that select-left, whose decode attends nothing,
    writes for HUGE_ROWS: analysis derives the rows that decode skipped."""
    assert run_cli(*_token_file_case(HUGE_ROWS)(tmp_path)) == 0
    return [*ANALYZE, "--trace", tmp_path / "t.jsonl"]


def _prompt_case(text):
    """prefill with a prompt file that holds ``text``."""
    def build(tmp_path):
        prompt = tmp_path / "prompt.json"
        prompt.write_text(text)
        return ["prefill", "--prompt", prompt, "--layers", 1, "--heads", 1, "--d-model", 8,
                "--d-head", 4, "--block-size", 2, "--cache-blocks", 2,
                "-o", tmp_path / "p.jsonl"]
    return build


def _value_overflow_files(tmp_path):
    """A 1x1x4x2 weight file with W_Q = 0, W_K = 1 and W_V = 1e38, and a
    token file of six rows of four 1e300: finite queries, keys and rows,
    values past float64."""
    qkv = np.stack([np.zeros((4, 2)), np.ones((4, 2)), np.full((4, 2), 1e38)])
    weights = tmp_path / "w.bin"
    save_weights(ModelWeights(0, qkv.astype(np.float32)[None, None]), str(weights))
    tokens = tmp_path / "rows.json"
    tokens.write_text(json.dumps([[1e300] * 4] * 6))
    return weights, tokens


def _value_overflow_case(command):
    """``command`` on the value-overflow files.  decode and prefill read no
    value and succeed; they write to the null device, so no output file is
    left.  analyze derives the values of a trace that decode wrote."""
    def build(tmp_path):
        weights, tokens = _value_overflow_files(tmp_path)
        decode = ["decode", "--weights", weights, "--tokens", tokens, "--policy", "treekv",
                  "--c", 2, "--zones", "sink=0,recent=0"]
        if command == "decode":
            return [*decode, "-o", os.devnull]
        if command == "prefill":
            return ["prefill", "--weights", weights, "--prompt", tokens, "--block-size", 2,
                    "--cache-blocks", 2, "-o", os.devnull]
        trace = tmp_path / "t.jsonl"
        assert run_cli(*decode, "-o", trace) == 0
        return [*ANALYZE, "--trace", trace]
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


def _two_trace_case(first, second, *flags):
    """analyze over two _decode_args traces, each with its own overrides."""
    def build(tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path, overrides in zip(paths, (first, second)):
            assert run_cli(*_decode_args(path, **overrides)) == 0
        return [*ANALYZE, *flags, "--trace", paths[0], "--trace", paths[1]]
    return build


def _zero_layer_weights(tmp_path):
    """A 30-byte TKVW version-2 header that declares 0 layers and no matrices."""
    weights = tmp_path / "w.bin"
    weights.write_bytes(struct.pack("<4sHIIIIQ", b"TKVW", 2, 0, 2, 8, 4, 5))
    return ["decode", "--weights", weights, "-o", tmp_path / "t.jsonl"]


def _nan_weights(entry):
    """A 1x1x8x4 TKVW file whose ``entry``-th f32 (0: the first W_Q entry,
    64: the first W_V entry) is NaN, read by decode."""
    def build(tmp_path):
        weights = tmp_path / "w.bin"
        assert run_cli("gen-weights", "--layers", 1, "--heads", 1, "--d-model", 8,
                       "--d-head", 4, "-o", weights) == 0
        blob = bytearray(weights.read_bytes())
        blob[30 + 4 * entry : 34 + 4 * entry] = struct.pack("<f", float("nan"))
        weights.write_bytes(bytes(blob))
        return ["decode", "--weights", weights, "-o", tmp_path / "t.jsonl"]
    return build


def _v1_weights(tmp_path):
    """A valid version-1 TKVW file: a 34-byte header with a vocab of 0, then
    the matrices a version-2 file holds."""
    weights = tmp_path / "w.bin"
    assert run_cli("gen-weights", "--seed", 5, "--layers", 1, "--heads", 1, "--d-model", 8,
                   "--d-head", 4, "-o", weights) == 0
    matrices = weights.read_bytes()[30:]
    weights.write_bytes(struct.pack("<4sHIIIIIQ", b"TKVW", 1, 1, 1, 8, 4, 0, 5) + matrices)
    return ["decode", "--weights", weights, "-o", tmp_path / "t.jsonl"]


@pytest.mark.parametrize(
    "build, code",
    [
        (_config_case({"c": "12"}), 2),
        (_config_case({"T": 1.5}), 2),
        (_config_case({"zones": 5}), 2),
        (lambda tmp_path: _decode_args(tmp_path / "missing" / "t.jsonl"), 3),
        # evictions for two layers against a header of one
        (_trace_case(evicted=lambda rows: np.concatenate([rows, rows], axis=1).tobytes()), 3),
        (_evicted_case(5, 1, 5), 3),  # position 5 is appended at step 6
        (_evicted_case(9, 0, 255), 3),  # the largest uint8: a future position
        (_trace_case(evicted=lambda rows: np.repeat(rows[:1], 13, axis=0).tobytes()), 3),
        # held positions that the header's policy, which reads no attention,
        # does not evict
        (_relabelled_case("h2o", "streaming"), 3),
        (_relabelled_case("treekv", "treekv-left"), 3),
        # streaming evicts position 12 at step 17: position 15 is held then
        (_evicted_case(17, 1, 15, policy="streaming"), 3),
        (_trace_case(lambda record: json.dumps({**record, "d_head": None})), 3),
        (_trace_case(lambda record: json.dumps({**record, "seq_len": 17.0})), 3),
        (_trace_case(lambda record: json.dumps({**record, "seq_len": -1})), 3),
        (_trace_case(block=lambda rest: rest[:-1]), 3),
        (_trace_case(block=lambda rest: rest + b"\0"), 3),
        (_trace_case(block=lambda rest: rest + bytes(8), trace_detail="light"), 3),
        (_block_case(("inputs", (16, 0), float("nan"))), 3),
        (_block_case(("weights", (0, 2, 0, 0), float("inf"))), 3),
        (_block_case(("weights", (1, 0, 3, 2), float("nan"))), 3),
        # a light trace: position 15 (step 16) is among the slots step 17
        # attends, and nothing records its input or the weights
        (_trace_case(command=ANALYZE, trace_detail="light"), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 1})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 2})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 3})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 4})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 5})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 6})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 7})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 8})), 3),
        (_trace_case(lambda record: json.dumps({**record, "format": 9})), 3),
        # 10**12 - 4 rows of evictions missing
        (_trace_case(lambda record: json.dumps({**record, "seq_len": 10**12}),
                     trace_detail="light"), 3),
        # nothing backs the size a header-only full trace declares: it reads
        # without a replay, but its map is too large to allocate, as decode
        # --T 10**12 is
        (_trace_case(lambda record: json.dumps({**record, "policy": "full", "seq_len": 10**12}),
                     evicted=lambda rows: b"", trace_detail="light"), 2),
        # the same with a last position that no 64-bit integer holds
        (_trace_case(lambda record: json.dumps({**record, "policy": "full",
                                                "seq_len": 2**64 + 1}),
                     evicted=lambda rows: b"", trace_detail="light"), 3),
        (_trace_case(lambda record: json.dumps({**record, "layers": 2**32 - 1, "heads": 2**32 - 1,
                                                "d_head": 2**32 - 1})), 3),
        # header-only traces whose seeds would regenerate more than numpy can
        # address: a model of 3 * 2**61 float32 entries, refused when it is
        # allocated, before any draw
        (_trace_case(lambda record: json.dumps({**record, "policy": "full", "seq_len": 1,
                                                "layers": 2**20, "d_model": 2**20,
                                                "d_head": 2**20}),
                     evicted=lambda rows: b""), 2),
        # and 2**63 steps of inputs, refused when they are allocated
        (_trace_case(lambda record: json.dumps({**record, "policy": "full", "seq_len": 2**63}),
                     evicted=lambda rows: b""), 2),
        # block sources the header cannot have
        (_trace_case(lambda record: json.dumps({**record, "stream_seed": None})), 3),
        (_trace_case(lambda record: json.dumps({**record, "weights": "seed"}), block=bytes), 3),
        (_trace_case(lambda record: json.dumps({**record, "inputs": "file"})), 3),
        (_trace_case(lambda record: json.dumps({**record, "weights": None})), 3),
        (_trace_case(lambda record: json.dumps({**record, "inputs": "seed"}),
                     trace_detail="light"), 3),
        (_zero_layer_weights, 3),
        (_token_file_case("[[NaN]]", d_model=1), 3),
        (_token_file_case("[[true]]", d_model=1), 3),
        (_token_file_case("[3, 1, 4]"), 3),
        # a flat list is not a row grid, whatever ids it holds
        (_token_file_case("[1, 2, true]"), 3),
        (_nan_weights(0), 3),
        # decode projects no value, so only the weight file's own check refuses this
        (_nan_weights(64), 3),
        (_v1_weights, 3),
        (lambda tmp_path: ["prefill", "--T", 12, "--block-size", 0,
                           "-o", tmp_path / "p.jsonl"], 2),
        (_trace_case(json.dumps, command=("analyze", "--levels", 2, "--exclude", -1)), 2),
        # rejected before the margin check, which 5 slots fail at the default exclude
        (_trace_case(json.dumps, command=("analyze", "--levels", 0)), 2),
        (_token_file_case(HUGE_ROWS, policy="treekv"), 3),
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
        (_token_file_case("[1, 36893488147419103232]"), 3),
        # 2**62 normals per matrix: more bytes than numpy can address
        (lambda tmp_path: ["gen-weights", "--d-model", 2**31, "--d-head", 2**31,
                           "-o", tmp_path / "w.bin"], 2),
        # flags of settings the command never reads are usage errors
        (lambda tmp_path: ["prefill", "--T", 12, "--c", 16, "-o", tmp_path / "p.jsonl"], 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", levels=3), 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", T=0), 2),
        (lambda tmp_path: _decode_args(tmp_path / "t.jsonl", trace_detail="ful"), 2),
        (lambda tmp_path: ["gen-weights", "--layers", 0, "-o", tmp_path / "w.bin"], 2),
        # a model has no token vocabulary: vocab must be 0
        (lambda tmp_path: ["gen-weights", "--vocab", 3, "-o", tmp_path / "w.bin"], 2),
        (_compare_case({}, {"vocab": 16}), 2),
        # every config's policy is checked before any decode runs
        (_compare_case({}, {"policy": "treekv", "c": 4}, {"policy": "bogus"}), 2),
        # a later config is only compared with the first
        (_compare_case({}, {"T": 0}), 3),
        # values past float64: only a command that reads them fails
        (_value_overflow_case("decode"), 0),
        (_value_overflow_case("prefill"), 0),
        (_value_overflow_case("analyze"), 3),
        # attention past float64: only a policy that reads attention fails
        (_token_file_case(HUGE_ROWS, out=os.devnull), 0),
        (_unread_attention_analyze, 3),
        # keys past float64 under every policy that attends nothing
        (_token_file_case(OVERFLOWING_ROWS, policy="streaming"), 3),
        (_token_file_case(OVERFLOWING_ROWS, policy="full"), 3),
        (_token_file_case(LAST_ROW_OVERFLOWS), 3),
        # too deeply nested JSON is malformed JSON
        (_config_case(DEEP_JSON), 2),
        (_token_file_case(DEEP_JSON), 3),
        (_prompt_case(DEEP_JSON), 3),
        (_trace_case(lambda record: DEEP_JSON), 3),
        # header fields of the wrong JSON type
        (_trace_case(lambda record: json.dumps({**record, "capacity": "x"})), 3),
        (_trace_case(lambda record: json.dumps({**record, "policy": 5}),
                     command=ANALYZE), 3),
        (_trace_case(lambda record: json.dumps({**record, "zones": [1]})), 3),
        (_trace_case(lambda record: json.dumps({**record, "model_seed": "s"}),
                     command=ANALYZE), 3),
        (_trace_case(lambda record: json.dumps({**record, "stream_seed": 1.5})), 3),
        # header fields of the right type that no decode writes
        (_trace_case(lambda record: json.dumps({**record, "policy": "bogus"})), 3),
        (_trace_case(lambda record: json.dumps({**record, "capacity": -3})), 3),
        (_trace_case(lambda record: json.dumps({**record, "capacity": 30}),
                     command=ANALYZE), 3),
        (_trace_case(lambda record: json.dumps({**record, "zones": "garbage"})), 3),
        # every header key is required, stream_seed too, even where nothing reads it
        (_trace_case(lambda record: json.dumps({key: value for key, value in record.items()
                                                if key != "stream_seed"}),
                     trace_detail="light"), 3),
        # block budgets the tree cannot hold
        (lambda tmp_path: ["prefill", "--T", 12, "--block-size", 3, "--cache-blocks", 1,
                           "-o", tmp_path / "p.jsonl"], 2),
        (lambda tmp_path: ["prefill", "--T", 12, "--block-size", 3, "--cache-blocks", 0,
                           "-o", tmp_path / "p.jsonl"], 2),
        # analyses that no trace set supports
        (_two_trace_case({}, {"T": 20}), 3),
        (_two_trace_case({"policy": "treekv"}, {"policy": "full"}, "--step", 17), 3),
        # 5 slots at step 17, all inside margins of 3
        (_trace_case(json.dumps, command=("analyze", "--levels", 2, "--exclude", 3)), 3),
        (_trace_case(lambda record: json.dumps({**record, "policy": "full", "seq_len": 0}),
                     evicted=lambda rows: b"", trace_detail="light"), 3),
        (lambda tmp_path: ["decode", "--config", tmp_path, "-o", tmp_path / "t.jsonl"], 3),
        (_config_case([]), 2),
        (_token_file_case("[]"), 3),
        (_token_file_case("{}"), 3),
        (_compare_case({}), 2),
        # 2**64 normals of inputs: more bytes than numpy can address, refused
        # before any draw
        (lambda tmp_path: ["decode", "--T", 2**58, "-o", tmp_path / "t.jsonl"], 2),
    ],
    ids=["c-string", "T-float", "zones-int", "unwritable-out",
         "event-layer-out-of-range", "evicted-future-position", "evicted-width-max",
         "evicted-repeated", "header-policy-h2o-as-streaming",
         "header-policy-treekv-as-treekv-left", "evicted-not-streaming", "header-dim-null",
         "header-seq-len-float", "header-seq-len-negative",
         "block-short", "block-long", "block-on-light-trace", "row-cell-nan",
         "value-cell-infinity", "weights-cell-nan", "step-without-values", "format-1",
         "format-2", "format-3", "format-4", "format-5", "format-6", "format-7", "format-8",
         "format-9", "seq-len-huge", "full-seq-len-huge", "full-seq-len-past-64-bits",
         "block-length-overflows-int64", "seed-weights-unaddressable",
         "seed-inputs-unaddressable", "seed-inputs-without-stream-seed",
         "seed-weights-on-stored-weights", "source-unknown", "source-weights-null",
         "source-inputs-on-light-trace", "weights-zero-layers", "embedding-nan",
         "embedding-bool", "token-ids", "token-id-bool", "weights-nan", "weights-nan-in-w-v", "weights-version-1",
         "block-size-zero", "exclude-negative", "levels-zero",
         "decode-attention-overflow", "prefill-attention-overflow",
         "decode-projection-overflow", "prefill-projection-overflow", "step-zero", "step-past-end",
         "levels-huge", "qkv-overflow", "logits-overflow", "projection-overflow",
         "profile-overflow", "zones-superscript", "zones-repeated", "token-id-huge",
         "weights-too-big", "prefill-unread-c", "decode-unread-levels", "decode-T-zero",
         "trace-detail-unknown", "gen-weights-zero-layers", "gen-weights-vocab", "compare-vocab",
         "compare-last-policy-unknown",
         "compare-later-T-zero", "decode-value-overflow", "prefill-value-overflow",
         "analyze-value-overflow", "decode-attention-overflow-unread",
         "analyze-attention-overflow-unread", "decode-projection-overflow-streaming",
         "decode-projection-overflow-full", "decode-projection-overflow-last-row",
         "config-deep-json", "tokens-deep-json", "prompt-deep-json", "trace-deep-json",
         "header-capacity-string", "header-policy-int", "header-zones-list",
         "header-model-seed-string", "header-stream-seed-float", "header-policy-unknown",
         "header-capacity-negative",
         "header-capacity-past-width", "header-zones-garbage", "header-stream-seed-missing",
         "prefill-cache-blocks-one", "prefill-cache-blocks-zero", "analyze-seq-lens-differ",
         "analyze-slot-counts-differ", "analyze-exclude-everything", "map-no-steps",
         "config-directory", "config-array", "tokens-empty-array", "tokens-object",
         "compare-one-config", "decode-T-unaddressable"],
)
def test_bad_inputs_exit_with_their_code_and_no_traceback(tmp_path, build, code):
    args = [str(arg) for arg in build(tmp_path)]
    inputs = sorted(os.listdir(tmp_path))
    result = subprocess.run(
        [sys.executable, "-m", "treekv", *args], capture_output=True, text=True
    )
    assert result.returncode == code, result.stderr
    # one message line, after the usage that argparse prints for a bad flag
    usage = ("usage:", " ")
    lines = [line for line in result.stderr.splitlines() if not line.startswith(usage)]
    assert len(lines) == (code != 0), result.stderr
    assert "Traceback" not in result.stderr
    assert "Warning" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == inputs  # no output file written


def _small_weights():
    return generate_weights(3, ModelDims(1, 2, 8, 4))


LIBRARY_ERRORS = {
    "remove-empty": (lambda: StreamBatch(_small_weights(), 2).remove([0, 0]), 4,
                     "internal error: the stream batch holds no slot to remove"),
    "decode-d-model": (lambda: decode_with_policy(_small_weights(), np.zeros((3, 5)),
                                                  make_policy("full", 4)),
                       4, "internal error: inputs must have shape (T, 8), got (3, 5)"),
    "band-A": (lambda: dwt_multi(np.ones(8), 2).band("A"), 2,
               "config error: unknown band 'A'; valid bands: A2, D2, D1"),
    "dwt-levels": (lambda: dwt_multi(np.ones(4), 3), 2,
                   "config error: signal of length 4 supports at most 2 levels, got 3"),
}


@pytest.mark.parametrize("case", LIBRARY_ERRORS)
def test_a_library_error_exits_with_its_code_and_one_line(monkeypatch, capsys, case):
    call, code, line = LIBRARY_ERRORS[case]
    monkeypatch.setattr(cli, "cmd_map", lambda args: call())
    assert run_cli("map", "--trace", "t.jsonl") == code
    assert capsys.readouterr().err == line + "\n"


def test_the_library_raises_one_class_per_exit_code():
    classes = {name: value for name, value in vars(errors).items() if isinstance(value, type)}
    assert sorted(classes) == ["ConfigError", "InputError", "InvariantViolation", "TreeKVError"]
    for name in ("ConfigError", "InputError", "InvariantViolation"):
        assert classes[name].__bases__ == (errors.TreeKVError,), name


def _stdout_case(command, tmp_path):
    """``command``'s arguments on small inputs, ending with ``-o`` and a file."""
    trace, out = tmp_path / "t.jsonl", tmp_path / "out"
    if command == "prefill":
        return ["prefill", "--T", 12, "--layers", 1, "--heads", 2, "--d-model", 8,
                "--d-head", 4, "--block-size", 3, "--cache-blocks", 2, "-o", out]
    if command == "compare":
        return _compare_case({}, {"policy": "treekv", "c": 4, "zones": "sink=0,recent=0"})(tmp_path)
    assert run_cli(*_decode_args(trace)) == 0
    return [*(ANALYZE if command == "analyze" else ["map"]), "--trace", trace, "-o", out]


@pytest.mark.parametrize("stdout", [[], ["-o", "-"]], ids=["no-out", "out-dash"])
@pytest.mark.parametrize("command", ["map", "analyze", "prefill", "compare"])
def test_stdout_gets_the_bytes_a_file_gets(tmp_path, capsys, command, stdout):
    *args, flag, out = _stdout_case(command, tmp_path)
    assert run_cli(*args, flag, out) == 0
    capsys.readouterr()
    assert run_cli(*args, *stdout) == 0
    assert capsys.readouterr().out.encode() == Path(out).read_bytes()


def test_analyze_of_two_traces_is_the_signal_weighted_mean_of_each(tmp_path):
    """The profile averages over all signals of all traces, so two traces
    give the mean of their own profiles weighted by their signal counts
    (layers * heads * d_head: 8 and 12 here)."""
    traces = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    assert run_cli(*_decode_args(traces[0], policy="treekv", seed=3, heads=2)) == 0
    assert run_cli(*_decode_args(traces[1], policy="treekv", seed=4, heads=3)) == 0

    def profile(*paths):
        out = tmp_path / "profile.csv"
        assert run_cli(*ANALYZE, *[arg for path in paths for arg in ("--trace", path)],
                       "-o", out) == 0
        rows = [line.rsplit(",", 1) for line in out.read_text().splitlines()[1:]]
        return [key for key, _ in rows], np.array([float(value) for _, value in rows])

    (keys, first), (_, second) = map(profile, traces)
    both_keys, both = profile(*traces)
    assert both_keys == keys
    np.testing.assert_allclose(both, (8 * first + 12 * second) / 20, rtol=1e-12, atol=0)


def test_only_a_run_that_reads_values_fails_on_overflowing_values(tmp_path, capsys):
    weights_path, tokens = _value_overflow_files(tmp_path)
    weights = load_weights(str(weights_path))
    inputs = np.array(json.loads(tokens.read_text()))
    trace = decode_with_policy(weights, inputs, make_policy("treekv", 2, "sink=0,recent=0"))
    assert trace.evicted.shape == (4, 1, 1)  # steps 3 to 6 evict
    out = tmp_path / "t.jsonl"
    write_trace(trace, str(out))
    assert run_cli(*ANALYZE, "--trace", out) == 3
    assert "projections are not finite" in capsys.readouterr().err


def test_only_a_run_that_attends_fails_on_overflowing_logits(tmp_path, capsys):
    # The _decode_args model on HUGE_ROWS: finite queries and keys, logits
    # past float64.  select-left reads no attention, so its decode skips the
    # rows.
    weights = generate_weights(3, ModelDims(1, 2, 8, 4))
    inputs = np.array(json.loads(HUGE_ROWS))
    trace = decode_with_policy(weights, inputs, make_policy("treekv-left", 4, "sink=0,recent=0"))
    assert trace.evicted.shape == (2, 1, 2)  # steps 5 and 6 evict
    with pytest.raises(InputError, match="attention rows are not finite"):
        decode_with_policy(weights, inputs, make_policy("treekv", 4, "sink=0,recent=0"))
    out = tmp_path / "t.jsonl"
    write_trace(trace, str(out))
    assert run_cli(*ANALYZE, "--trace", out) == 3
    assert "attention rows are not finite" in capsys.readouterr().err


def test_trace_errors_name_the_format_and_the_missing_block(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(trace, trace_detail="light")) == 0
    assert run_cli(*ANALYZE, "--trace", trace) == 3
    assert "lacks the run's inputs and projection weights" in capsys.readouterr().err
    header, rest = trace.read_bytes().split(b"\n", 1)
    for format in (5, 7, 8, 9):
        trace.write_bytes(json.dumps({**json.loads(header), "format": format}).encode()
                          + b"\n" + rest)
        assert run_cli("map", "--trace", trace) == 3
        assert capsys.readouterr().err == f"input error: unsupported trace format {format}\n"


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


def test_a_trace_whose_model_cannot_be_allocated_is_refused_before_any_draw(
        tmp_path, monkeypatch, capsys):
    # A header-only full trace whose header asks the seeds for a 1x1x65536x65536
    # model: its weights are allocated whole, and refused, before a variate
    # of them or of the inputs is drawn.
    trace = tmp_path / "t.jsonl"
    assert run_cli(*_decode_args(trace, policy="full", T=1)) == 0
    header = json.loads(trace.read_bytes())
    assert (header["inputs"], header["weights"]) == ("seed", "seed")
    trace.write_text(json.dumps({**header, "heads": 1, "d_model": 65536, "d_head": 65536}) + "\n")

    def draw(*args):
        raise AssertionError("a variate was drawn before the weight set was allocated")

    empty = np.empty

    def unable(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) == 3 * 65536**2:
            raise MemoryError("Unable to allocate 48.0 GiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr("treekv.engine._draw_matrix", draw)
    monkeypatch.setattr("treekv.rng.NormalStream.normals", draw)
    monkeypatch.setattr(np, "empty", unable)
    assert run_cli("map", "--trace", trace, "-o", tmp_path / "m.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["t.jsonl"]


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


def test_readme_names_the_current_file_formats():
    # The format numbers in the README are written by hand; a bump must edit them.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"**Weight file** (`TKVW`, version {_FORMAT_VERSION}," in readme
    assert f"**Trace file** (format {TRACE_FORMAT})" in readme
    assert f'{{"kind":"header","format":{TRACE_FORMAT},' in readme


def test_readme_library_sketch_runs():
    # The sketch is executed as written, so a renamed function or an
    # undefined name in it fails here instead of in a reader's session.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0].split("```")[0], scope)
    assert scope["detail"].shape == scope["signals"].shape == (2, 4, 16, 129)
    assert scope["held"].shape == (2, 4, 128)
