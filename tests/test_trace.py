import dataclasses
import json
import re

import numpy as np
import pytest

from treekv import (
    POLICY_SPECS,
    DecodeTrace,
    EvictionPolicy,
    InputError,
    InvariantViolation,
    ModelDims,
    ModelWeights,
    StreamBatch,
    decode_with_policy,
    distribution_map,
    generate_weights,
    make_policy,
    read_trace,
    retained_at,
    save_weights,
    signals_at_step,
    synthesize_embeddings,
    validate_trace,
    write_trace,
)
from treekv.engine import project, stacked_weights
from treekv.cli import main
from treekv.trace import BLOCKS, RUN_FIELDS, position_dtype

from helpers import decision_margins, evictions
from oracles import oracle_retained_at


def _run(policy="treekv", capacity=5, seq_len=14, heads=2, **kwargs):
    weights = generate_weights(3, ModelDims(1, heads, 8, 4))
    inputs = synthesize_embeddings(7, seq_len, 8)
    return decode_with_policy(weights, inputs, policy, capacity, **kwargs)


def _nudged(weights, entry=0):
    """The weight set with one entry moved up by one ulp, which no seed draws."""
    qkv = weights.qkv.copy()
    qkv.flat[entry] = np.nextafter(qkv.flat[entry], np.float32(np.inf))
    return ModelWeights(weights.seed, qkv)


def test_trace_roundtrip(tmp_path):
    trace = _run()
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    loaded = read_trace(str(path))
    assert loaded.config_dict() == trace.config_dict()
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header.keys() == {"kind", "format", "policy", "capacity", "zones", "seq_len",
                             "layers", "heads", "d_model", "d_head", "model_seed",
                             "stream_seed", "inputs", "weights"}
    # no stream seed drew the inputs; model_seed draws the weights
    assert (header["inputs"], header["weights"]) == ("stored", "seed")
    assert loaded.evicted.shape == trace.evicted.shape == (14 - 5, 1, 2)
    assert np.array_equal(loaded.evicted, trace.evicted)
    assert np.array_equal(loaded.retained, trace.retained)
    assert loaded.inputs.tobytes() == trace.inputs.tobytes()
    assert loaded.weights.tobytes() == trace.weights.tobytes()
    validate_trace(loaded)


def test_decode_records_references_to_its_inputs_and_weights():
    weights = generate_weights(3, ModelDims(1, 2, 8, 4))
    inputs = synthesize_embeddings(7, 14, 8)
    trace = decode_with_policy(weights, inputs, "treekv", 5)
    assert trace.inputs is inputs and trace.weights is weights.qkv


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_qkv_block_roundtrips_bitwise(tmp_path, spec):
    # 14 steps at c=5: a header, the uint8 evictions of steps 6 to 14 (none
    # under full), then the block the queries, keys and values come from:
    # the inputs, which no stream seed drew, then the weights, which their
    # seed does not draw
    path = tmp_path / "t.jsonl"
    weights = _nudged(generate_weights(3, ModelDims(1, 2, 8, 4)), entry=37)
    for detail in (True, False):
        trace = decode_with_policy(weights, synthesize_embeddings(7, 14, 8), spec, 5,
                                   "sink=1,recent=1")
        if not detail:  # a light trace, as ``decode --trace-detail light`` writes it
            trace.inputs = trace.weights = None
        write_trace(trace, str(path))
        header, rest = path.read_bytes().split(b"\n", 1)
        sources = [json.loads(header)[name] for name in ("inputs", "weights")]
        assert sources == (["stored"] * 2 if detail else [None] * 2)
        rows = 0 if spec == "full" else 14 - 5
        assert trace.evicted.shape == (rows, 1, 2)
        assert rest[: rows * 2] == trace.evicted.astype("u1").tobytes()
        block = rest[rows * 2 :]
        loaded = read_trace(str(path))
        assert loaded.evicted.dtype == np.int64
        assert np.array_equal(loaded.evicted, trace.evicted)
        if detail:
            assert trace.inputs.shape == (14, 8) and trace.weights.shape == (1, 2, 3, 8, 4)
            assert len(block) == 8 * 14 * 8 + 4 * 1 * 2 * 3 * 8 * 4
            assert block == (trace.inputs.astype("<f8").tobytes()
                             + trace.weights.astype("<f4").tobytes())
            assert loaded.inputs.tobytes() == trace.inputs.tobytes()
            assert loaded.weights.tobytes() == trace.weights.tobytes()
        else:
            assert trace.inputs is None and trace.weights is None and block == b""
            assert loaded.inputs is None and loaded.weights is None


def test_position_width_is_the_narrowest_that_holds_the_last_position():
    widths = {0: "u1", 1: "u1", 256: "u1", 257: "<u2", 65536: "<u2", 65537: "<u4",
              2**32: "<u4", 2**32 + 1: "<u8", 2**64: "<u8"}
    for seq_len, dtype in widths.items():
        assert position_dtype(seq_len) == np.dtype(dtype), seq_len
    with pytest.raises(InputError, match="past 64 bits"):
        position_dtype(2**64 + 1)


@pytest.mark.parametrize("seq_len, dtype, other", [(256, "u1", "<u2"), (257, "<u2", "u1")])
def test_positions_roundtrip_at_the_width_boundary(tmp_path, capsys, seq_len, dtype, other):
    # One h2o stream at c=2 that evicts each step's own input: the last row
    # holds seq_len - 1, the largest position of the trace and, at 256, of
    # its width.
    trace = DecodeTrace("h2o", 2, "sink=0,recent=0", seq_len, ModelDims(1, 1, 1, 1), 0)
    trace.evicted = np.arange(2, seq_len).reshape(-1, 1, 1)
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    header, rest = path.read_bytes().split(b"\n", 1)
    assert rest == trace.evicted.astype(dtype).tobytes()
    loaded = read_trace(str(path))
    assert loaded.evicted.dtype == np.int64 and loaded.evicted[-1, 0, 0] == seq_len - 1
    assert np.array_equal(loaded.evicted, trace.evicted)
    assert loaded.retained.tolist() == [[[0, 1]]]
    # a position that the width would wrap is not written
    for position in (-1, seq_len):
        trace.evicted[-1] = position
        with pytest.raises(InvariantViolation, match="evicted positions outside"):
            write_trace(trace, str(tmp_path / "bad.jsonl"))
    assert not (tmp_path / "bad.jsonl").exists()
    trace.evicted[-1] = seq_len - 1
    # the same rows at the other width are refused by their size
    path.write_bytes(header + b"\n" + trace.evicted.astype(other).tobytes())
    assert main(["map", "--trace", str(path), "-o", str(tmp_path / "m.csv")]) == 3
    assert "bytes after its header" in capsys.readouterr().err


def _redecode(tmp_path, spec, seq_len, source):
    """Write a full trace whose blocks are all of ``source``, read it back
    and re-decode it: "stored", weights one ulp off their seed's and inputs
    no stream seed drew, both in the file; "seed", both regenerated by
    ``read_trace``."""
    weights = generate_weights(5, ModelDims(1, 2, 8, 4))
    if source == "stored":
        weights = _nudged(weights, entry=100)
    trace = decode_with_policy(weights, synthesize_embeddings(6, seq_len, 8), spec, 24,
                               "sink=2,recent=4")
    if source == "seed":
        trace.stream_seed = 6
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    width = position_dtype(seq_len).itemsize
    assert width == (1 if seq_len <= 256 else 2)
    blocks = 8 * seq_len * 8 + 4 * weights.qkv.size if source == "stored" else 0
    assert len(path.read_bytes().split(b"\n", 1)[1]) == width * trace.evicted.size + blocks
    loaded = read_trace(str(path))
    model = ModelWeights(loaded.model_seed, loaded.weights)
    again = decode_with_policy(model, loaded.inputs, loaded.policy, loaded.capacity, loaded.zones)
    assert again.evicted.shape == loaded.evicted.shape == (
        (0, 1, 2) if spec == "full" else (seq_len - 24, 1, 2))
    assert np.array_equal(again.evicted, loaded.evicted)
    assert np.array_equal(again.retained, loaded.retained)


@pytest.mark.parametrize("seq_len", [200, 300])  # a uint8 and a uint16 block
@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_a_full_trace_redecodes_to_its_own_evictions(tmp_path, spec, seq_len):
    _redecode(tmp_path, spec, seq_len, "stored")


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_a_trace_of_seed_blocks_redecodes_to_its_own_evictions(tmp_path, spec):
    _redecode(tmp_path, spec, 300, "seed")


# The source the header names for each block: weights generated from the
# seed, loaded from a file of exactly those, or from that file with one
# entry one ulp off; inputs drawn by decode from its seed, read from
# ``--tokens`` rows that equal that draw (but no stream seed drew them), or
# that draw with one entry one ulp off under a hand-set stream seed.
WEIGHT_SOURCES = {"generated": "seed", "file": "seed", "file-nudged": "stored"}
INPUT_SOURCES = {"drawn": "seed", "tokens": "stored", "seeded-nudged": "stored"}


@pytest.mark.parametrize("inputs", INPUT_SOURCES)
@pytest.mark.parametrize("weights", WEIGHT_SOURCES)
def test_a_full_trace_stores_only_the_blocks_its_seeds_cannot_regenerate(
        tmp_path, weights, inputs):
    seed, steps = 3, 20
    model = generate_weights(seed, ModelDims(1, 2, 8, 4))
    rows = synthesize_embeddings(seed, steps, 8)
    flags = ["--policy", "treekv", "--c", 6, "--zones", "sink=1,recent=1", "--seed", seed,
             "--layers", 1, "--heads", 2, "--d-model", 8, "--d-head", 4]
    if weights != "generated":
        if weights == "file-nudged":
            model = _nudged(model, entry=5)
        save_weights(model, str(tmp_path / "w.bin"))
        flags += ["--weights", tmp_path / "w.bin"]
    if inputs == "tokens":
        (tmp_path / "rows.json").write_text(json.dumps(rows.tolist()))
        flags += ["--tokens", tmp_path / "rows.json"]
    else:
        flags += ["--T", steps]
    if inputs == "seeded-nudged":
        rows = rows.copy()
        rows[4, 2] = np.nextafter(rows[4, 2], np.inf)
    trace = decode_with_policy(model, rows, "treekv", 6, "sink=1,recent=1")
    path = tmp_path / "t.jsonl"
    if inputs == "seeded-nudged":  # a library run
        trace.stream_seed = seed
        write_trace(trace, str(path))
    else:
        assert main(["decode", *map(str, flags), "-o", str(path)]) == 0
    header, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    assert (header["inputs"], header["weights"]) == (INPUT_SOURCES[inputs],
                                                     WEIGHT_SOURCES[weights])
    # the uint8 evictions of steps 7 to 20, then each stored block
    blocks = {"inputs": 8 * steps * 8, "weights": 4 * model.qkv.size}
    assert len(rest) == (steps - 6) * 2 + sum(size for name, size in blocks.items()
                                              if header[name] == "stored")
    loaded = read_trace(str(path))
    assert np.array_equal(loaded.evicted, trace.evicted)
    assert loaded.inputs.tobytes() == rows.tobytes()
    assert loaded.weights.tobytes() == model.qkv.tobytes()
    for got, want in zip(signals_at_step(loaded, steps), signals_at_step(trace, steps)):
        assert got.tobytes() == want.tobytes()


def test_a_negative_zero_is_stored_where_the_seed_draws_zero(tmp_path, monkeypatch):
    # -0.0 == 0.0, but a trace read back must hold the bits decode read
    trace = _run(seq_len=6)
    trace.stream_seed = 7
    trace.inputs = np.zeros_like(trace.inputs)
    monkeypatch.setattr("treekv.trace.synthesize_embeddings",
                        lambda seed, count, d_model: np.zeros((count, d_model)))
    path = tmp_path / "t.jsonl"
    for inputs, source in ((trace.inputs, "seed"), (-trace.inputs, "stored")):
        trace.inputs = inputs
        write_trace(trace, str(path))
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["inputs"] == source
        assert read_trace(str(path)).inputs.tobytes() == inputs.tobytes()


@pytest.mark.parametrize("spec", ["streaming", "treekv-left"])
def test_the_header_fixes_the_victims_of_a_policy_that_reads_nothing(spec):
    trace = _run(policy=spec, capacity=5, seq_len=20, heads=3, zones="sink=1,recent=1")
    validate_trace(trace)
    assert trace.retained.shape == (1, 3, 5)
    # stream (0, 2) evicts at steps 10 and 11 what the policy evicts at 11
    # and 10: each still a position the stream holds then
    first, second = trace.evicted[10 - 6 : 12 - 6, 0, 2].tolist()  # row 0 is step 6
    trace.evicted[10 - 6 : 12 - 6, 0, 2] = second, first
    assert retained_at(trace, trace.seq_len).shape == (1, 3, 5)
    with pytest.raises(InputError, match=rf"^step 10: {spec} evicts position {first}, not "
                                         rf"{second}, in stream \(0, 2\)$"):
        validate_trace(trace)
    # a policy that reads attention could have evicted either
    trace.policy = "h2o"
    validate_trace(trace)


@pytest.mark.parametrize("spec, capacity", [("full", 5), ("streaming", 20)])
def test_a_trace_without_evictions_is_read_without_a_replay(tmp_path, monkeypatch, spec,
                                                            capacity):
    # A light trace with no evictions is its header alone, and nothing in
    # it backs the seq_len + 1 indices a replay would hold, so reading it
    # must not replay: only a trace with evictions is replayed.
    trace = _run(policy=spec, capacity=capacity, seq_len=14)
    trace.inputs = trace.weights = None
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    assert path.read_bytes().count(b"\n") == 1 and path.read_bytes().endswith(b"}\n")

    def refuse(*args, **kwargs):
        raise AssertionError("replayed a trace without evictions")

    monkeypatch.setattr(EvictionPolicy, "replay", refuse)
    loaded = read_trace(str(path))
    assert loaded.evicted.shape == (0, 1, 2)
    assert loaded.retained.tolist() == [[list(range(14))] * 2]


def test_a_header_only_full_trace_is_read_without_a_seq_len_wide_allocation(tmp_path):
    # Its 216 bytes declare 10**12 steps, none of which evicts: reading it
    # checks the empty grid and allocates nothing that wide.
    trace = _run(policy="full", capacity=5)
    trace.inputs = trace.weights = None
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    header = json.loads(path.read_bytes())
    path.write_text(json.dumps({**header, "seq_len": 10**12}, separators=(",", ":")) + "\n")
    assert len(path.read_bytes()) == 216
    loaded = read_trace(str(path))
    assert loaded.seq_len == 10**12 and loaded.evicted.shape == (0, 1, 2)


def test_the_retained_set_follows_the_evictions_it_is_read_from():
    # Stream (0, 0) evicts position 0 at the last step instead of 13: still
    # a position it holds, so the trace is valid, and the final set and the
    # map are the edited run's, not the one decode ran.
    trace = _run(policy="h2o")
    assert trace.evicted[-1, 0, 0] == 13 and trace.retained[0, 0].tolist() == [0, 1, 2, 3, 4]
    trace.evicted[-1, 0, 0] = 0
    validate_trace(trace)
    assert trace.retained[0].tolist() == [[1, 2, 3, 4, 13], [0, 1, 2, 3, 4]]
    assert np.array_equal(trace.retained, retained_at(trace, trace.seq_len))
    assert distribution_map(trace)[0].tolist() == [0.5, 1, 1, 1, 1] + [0] * 8 + [0.5]


@pytest.mark.parametrize("edit, block, held", [
    (lambda trace: setattr(trace, "inputs", trace.inputs[:-1]), "inputs", (13, 8)),
    (lambda trace: setattr(trace, "weights", None), "weights", ()),
], ids=["inputs-short", "weights-missing"])
def test_a_full_trace_is_written_only_at_its_header_shapes(tmp_path, edit, block, held):
    # read_trace would refuse the file by its length, or there would be
    # no block to write: write_trace writes none.
    trace = _run()
    edit(trace)
    path = tmp_path / "t.jsonl"
    shapes = {"inputs": (14, 8), "weights": (1, 2, 3, 8, 4)}  # the header's
    with pytest.raises(InvariantViolation, match=re.escape(
            f"full trace: {block} of shape {held}, not {shapes[block]}")):
        write_trace(trace, str(path))
    assert not path.exists()


def test_a_trace_holds_only_its_header_fields_and_blocks():
    # Anything else a DecodeTrace could hold follows from these, as the
    # retained set follows from the evictions, and is derived, not stored.
    names = [field.name for field in dataclasses.fields(DecodeTrace)]
    dims = [field.name for field in dataclasses.fields(ModelDims)]
    run = list(RUN_FIELDS)
    start = run.index(dims[0])
    assert run[start : start + len(dims)] == dims
    assert names == [*run[:start], "dims", *run[start + len(dims):], "evicted", *BLOCKS]


def test_trace_replay_detects_tampering(tmp_path):
    trace = _run()
    trace.evicted = trace.evicted[:-1]  # the last step's evictions dropped
    with pytest.raises(InputError, match="evictions of shape"):
        validate_trace(trace)

    trace = _run()
    assert retained_at(trace, 0).tolist() == [[[], []]]
    trace.evicted[-1] = trace.evicted[-2]  # the same positions evicted twice
    with pytest.raises(InputError, match="not present"):
        retained_at(trace, trace.seq_len)
    with pytest.raises(InputError):
        retained_at(trace, trace.seq_len + 1)


def _oracle_replay(trace, step):
    """``oracle_retained_at`` on the trace's evictions, or its error text."""
    grids = [None] * trace.seq_len
    for at, grid, _ in evictions(trace):
        grids[at - 1] = grid.tolist()
    try:
        return oracle_retained_at(grids, trace.dims.layers, trace.dims.heads, step)
    except ValueError as exc:
        return str(exc)


def _replay(trace, step):
    """``retained_at`` as nested lists, or its error text."""
    try:
        return retained_at(trace, step).tolist()
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("zones", ["sink=2,recent=3", "sink=0,recent=0"])
@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_retained_at_matches_the_oracle_replay_at_every_step(spec, zones):
    weights = generate_weights(11, ModelDims(2, 3, 8, 4))
    trace = decode_with_policy(weights, synthesize_embeddings(12, 60, 8), spec, 9, zones)
    for step in range(trace.seq_len + 1):
        assert _replay(trace, step) == _oracle_replay(trace, step)


# (step, layer, head, position) cells written into a 2x3 treekv trace of 30
# steps with c=6, which evicts from step 7 on; every stream evicted
# position 1 at step 7.
@pytest.mark.parametrize(
    "cells",
    [
        [(12, 0, 2, 1)],  # evicted again
        [(12, 1, 1, 12)],  # a position not yet appended
        [(12, 1, 0, -1)],
        [(12, 0, 1, 99)],  # the middle stream of the first layer
        [(15, 0, 0, 40), (12, 1, 2, -1), (12, 1, 0, 35)],  # the earliest step, first stream
    ],
    ids=["repeated", "future-position", "negative", "middle-stream", "first-of-several"],
)
def test_retained_at_rejects_a_bad_eviction_as_the_oracle_does(cells):
    weights = generate_weights(11, ModelDims(2, 3, 8, 4))
    trace = decode_with_policy(weights, synthesize_embeddings(12, 30, 8), "treekv", 6,
                               "sink=0,recent=0")
    assert trace.evicted.shape == (30 - 6, 2, 3) and (trace.evicted[0] == 1).all()
    for step, layer, head, position in cells:
        trace.evicted[step - 7, layer, head] = position  # row 0 is step 7
    for step in range(trace.seq_len + 1):
        assert _replay(trace, step) == _oracle_replay(trace, step)
    message = _oracle_replay(trace, trace.seq_len)
    assert isinstance(message, str) and message.startswith(f"step {min(cells)[0]}: ")
    with pytest.raises(InputError) as caught:
        validate_trace(trace)
    assert str(caught.value) == message


def test_trace_rejects_truncation(tmp_path):
    trace = _run()  # 9 rows of evictions, 18 bytes
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    header, rest = path.read_bytes().split(b"\n", 1)
    for cut in (rest[:1], rest[:17], rest[:-1], b""):  # b"": the header line alone
        path.write_bytes(header + b"\n" + cut)
        with pytest.raises(InputError, match="bytes after its header"):
            read_trace(str(path))
    path.write_bytes(header[:-1])
    with pytest.raises(InputError, match="cannot read trace"):
        read_trace(str(path))


def test_trace_rejects_missing_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"kind":"step","step":1}\n')
    with pytest.raises(InputError):
        read_trace(str(path))


def test_distribution_map_full_policy_is_all_ones():
    trace = _run(policy="full", capacity=32)
    grid = distribution_map(trace)
    assert grid.shape == (1, 14)
    assert (grid == 1.0).all()


def test_distribution_map_single_head_is_binary():
    trace = _run(policy="streaming", capacity=5, heads=1,
                 zones="sink=1,recent=4")
    grid = distribution_map(trace)
    assert set(np.unique(grid)) <= {0.0, 1.0}
    assert grid.sum() == 5  # retained slot count at the final step


def test_distribution_map_averages_across_heads():
    trace = _run(policy="treekv", capacity=5, heads=2)
    grid = distribution_map(trace)
    final = trace.retained[0]
    both = set(final[0]) & set(final[1])
    only = set(final[0]) ^ set(final[1])
    for position in both:
        assert grid[0][position] == 1.0
    for position in only:
        assert grid[0][position] == 0.5


def test_signals_at_step_merges_the_pre_eviction_view():
    trace = _run(policy="treekv", capacity=5, seq_len=9)
    rows, values = signals_at_step(trace, 8)
    # step 8 of a capacity-5 run attends over 6 slots before evicting
    assert rows.shape == (1, 2, 6)
    assert values.shape == (1, 2, 6, 4)
    light = _run(policy="treekv", capacity=5, seq_len=9)
    light.inputs = light.weights = None
    with pytest.raises(InputError, match="inputs and projection weights"):
        signals_at_step(light, 8)


def _drive(spec, dims, capacity, zones, seq_len, seed, tmp_path):
    """Drive the engine and the policy here, as decode does, keeping at every
    step the rows ``StreamBatch.step`` returned (layers, heads, n) and the
    values of the slots it attended, every input's value projected up front
    (layers, heads, n, d_head).  Returns them with the run's trace, written
    to a file and read back."""
    weights = generate_weights(seed, dims)
    inputs = synthesize_embeddings(seed, seq_len, dims.d_model)
    values = project(inputs[:, None, :], stacked_weights(weights.qkv)[2])  # (T, S, d_head)
    policy = make_policy(spec, capacity, zones)
    batch = StreamBatch(weights, seq_len if policy.capacity is None else capacity + 1)
    trace = DecodeTrace(spec, capacity, zones, seq_len, dims, weights.seed)
    grid = (dims.layers, dims.heads)
    every = np.arange(batch.streams)[:, None]
    attended, held, evicted = [], [], []
    for x in inputs:
        rows = batch.step(x)
        attended.append(rows.reshape(*grid, -1))
        held.append(values[batch.positions[:, : batch.n], every].reshape(*grid, batch.n, -1))
        if policy.capacity is not None and batch.n > policy.capacity:
            evicted.append(policy.evict(batch, rows, len(evicted)))
    trace.evicted = np.array(evicted, dtype=np.int64).reshape(-1, *grid)
    trace.inputs, trace.weights = inputs, weights.qkv
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    return read_trace(str(path)), attended, held


def _rederive_corpus():
    """The seeded runs (spec, dims, capacity, zones, seq_len, seed) of
    test_signals_at_step_rederives_the_rows_decode_attended."""
    rng = np.random.default_rng(44)
    for case, spec in enumerate(POLICY_SPECS * 2):
        dims = ModelDims(int(rng.integers(1, 3)), int(rng.integers(1, 4)), 6,
                         int(rng.choice([1, 3, 4, 5])))
        capacity = int(rng.integers(4, 9))
        zones = "sink=1,recent=2" if case >= len(POLICY_SPECS) else "sink=0,recent=0"
        yield spec, dims, capacity, zones, 20, case


def test_signals_at_step_rederives_the_rows_decode_attended(tmp_path):
    # Every step's derived rows, read back from a trace file, bitwise
    # against the rows the step itself returned.
    for spec, dims, capacity, zones, seq_len, seed in _rederive_corpus():
        loaded, attended, _ = _drive(spec, dims, capacity, zones, seq_len, seed, tmp_path)
        for step, rows in enumerate(attended, start=1):
            derived = signals_at_step(loaded, step)[0]
            assert derived.shape == rows.shape
            assert derived.tobytes() == rows.tobytes(), (spec, dims, zones, step)


# Odd d_head, d_model 1 and d_head 1 among them: BLAS kernels differ in
# their tails, so only one (1, d_model) @ (d_model, d_head) product per row
# keeps a derived row bitwise decode's.
PROJECTION_DIMS = [(2, 4, 64, 16), (2, 3, 8, 5), (1, 2, 7, 3), (3, 2, 33, 7), (1, 1, 1, 1),
                   (1, 3, 1, 4), (2, 2, 9, 1)]


def _projection_corpus():
    """The seeded runs (spec, dims, capacity, zones, seq_len, seed) of
    test_signals_at_step_is_bitwise_what_decode_attended_and_projected."""
    rng = np.random.default_rng(45)
    for case, shape in enumerate(PROJECTION_DIMS * 2):
        spec = POLICY_SPECS[case % len(POLICY_SPECS)]
        capacity = int(rng.integers(4, 9))
        zones = "sink=1,recent=2" if case % 2 else "sink=0,recent=0"
        seq_len = int(rng.integers(capacity + 2, 3 * capacity))
        yield spec, ModelDims(*shape), capacity, zones, seq_len, case


def test_signals_at_step_is_bitwise_what_decode_attended_and_projected(tmp_path):
    # At every step, the derived rows against the rows the step returned,
    # and each held slot's derived value against decode's up-front
    # projection of its input, over dims whose BLAS tails differ.
    for spec, dims, capacity, zones, seq_len, seed in _projection_corpus():
        loaded, attended, held = _drive(spec, dims, capacity, zones, seq_len, seed, tmp_path)
        for step, want in enumerate(zip(attended, held), start=1):
            for got, expected in zip(signals_at_step(loaded, step), want):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (spec, dims, zones, step)


@pytest.mark.parametrize("spec", ["treekv", "h2o", "tova"])
def test_no_seeded_trace_corpus_decision_is_a_near_tie(spec):
    # The runs of the two seeded corpora above clear float noise by far:
    # the smallest margins are about 5.1e-3 (treekv), 4.9e-2 (h2o) and
    # 7.3e-3 (tova) on the first, and 3.6e-3, 2.6e-2 and 5.4e-3 on the
    # second.
    for corpus in (_rederive_corpus, _projection_corpus):
        for run_spec, dims, capacity, zones, seq_len, seed in corpus():
            if run_spec == spec:
                weights = generate_weights(seed, dims)
                inputs = synthesize_embeddings(seed, seq_len, dims.d_model)
                margins = decision_margins(weights, inputs, spec, capacity, zones)
                assert (margins > 1e-9).all(), (dims, capacity, zones, margins.min())


def _edited_trace(tmp_path, edit):
    """A light 1x2 treekv trace of 8 steps at c=5, whose evictions, a (3, 2)
    uint8 array for steps 6 to 8, ``edit`` maps to the bytes written in
    their place."""
    trace = _run(capacity=5, seq_len=8)
    trace.inputs = trace.weights = None
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    header, rest = path.read_bytes().split(b"\n", 1)
    evicted = np.frombuffer(rest, "u1").reshape(3, 2).copy()
    path.write_bytes(header + b"\n" + edit(evicted))
    return path


def _last_row(position, stream=0, row=-1):
    """An edit that writes ``position`` into the last step's row (or into
    ``row``)."""
    def edit(evicted):
        evicted[row, stream] = position
        return evicted.tobytes()
    return edit


@pytest.mark.parametrize(
    "event",
    [
        {"edit": lambda evicted: evicted.tobytes()[:-1]},  # one stream's eviction short
        {"edit": lambda evicted: evicted.tobytes() + bytes(1)},  # one stream too many
        {"edit": lambda evicted: evicted.tobytes() + evicted[-1].tobytes()},  # a step 9
        {"edit": _last_row(8)},  # the position of step 9
        # the largest uint8, a future position, where an int64 block was
        # edited to hold -1, a float's bits and 2**63 - 1
        {"edit": _last_row(255)},
        {"edit": _last_row(255, stream=1)},
        {"edit": _last_row(255, stream=1, row=0)},
        {"edit": lambda evicted: np.repeat(evicted[:1], 3, axis=0).tobytes()},  # repeated
    ],
)
def test_trace_rejects_events_outside_the_streams_and_steps(tmp_path, event):
    path = _edited_trace(tmp_path, event["edit"])
    with pytest.raises(InputError):
        read_trace(str(path))


@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param({8: [255, 0], 7: [0, 7]},
                     r"step 7: eviction of position 7 not present in stream \(0, 1\)",
                     id="future-position"),
        pytest.param({6: [0, 6], 8: [9, 0]},
                     r"step 6: eviction of position 6 not present in stream \(0, 1\)",
                     id="position-of-the-next-step"),
        pytest.param({8: [0, 99], 7: [255, 0]},
                     r"step 7: eviction of position 255 not present in stream \(0, 0\)",
                     id="width-max"),
    ],
)
def test_read_trace_names_the_first_bad_evicted_grid(tmp_path, rows, message):
    def edit(evicted):  # row 0 is step 6
        for step, row in rows.items():
            evicted[step - 6] = row
        return evicted.tobytes()

    with pytest.raises(InputError, match=message):
        read_trace(str(_edited_trace(tmp_path, edit)))
