import json

import numpy as np
import pytest

from treekv import (
    POLICY_SPECS,
    DecodeTrace,
    InputError,
    ModelDims,
    StepRecord,
    StreamBatch,
    decode_with_policy,
    distribution_map,
    generate_weights,
    make_policy,
    read_trace,
    retained_at,
    signals_at_step,
    synthesize_embeddings,
    validate_trace,
    write_trace,
)
from treekv.engine import project, stacked_weights
from treekv.trace import held_projections

from oracles import oracle_retained_at


def _run(policy="treekv", capacity=5, seq_len=14, heads=2, **kwargs):
    weights = generate_weights(3, ModelDims(1, heads, 8, 4))
    inputs = synthesize_embeddings(7, seq_len, 8)
    return decode_with_policy(weights, inputs, policy, capacity, **kwargs)


def test_trace_roundtrip(tmp_path):
    trace = _run()
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    loaded = read_trace(str(path))
    assert loaded.config_dict() == trace.config_dict()
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header.keys() == {"kind", "format", "policy", "capacity", "zones", "seq_len",
                             "layers", "heads", "d_model", "d_head", "model_seed",
                             "stream_seed"}
    assert len(loaded.steps) == len(trace.steps)
    last_a, last_b = trace.steps[-1], loaded.steps[-1]
    assert np.array_equal(loaded.retained, trace.retained)
    assert np.array_equal(last_a.evicted, last_b.evicted)
    assert last_a.cursor == last_b.cursor
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
    # 14 steps: a header, 14 step records and a final record, then the block
    # the queries, keys and values come from: the inputs, then the weights
    path = tmp_path / "t.jsonl"
    for detail in (True, False):
        trace = _run(policy=spec, capacity=5, zones="sink=1,recent=1")
        if not detail:  # a light trace, as ``decode --trace-detail light`` writes it
            trace.inputs = trace.weights = None
        write_trace(trace, str(path))
        block = path.read_bytes().split(b"\n", 16)[16]
        loaded = read_trace(str(path))
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


def test_trace_replay_detects_tampering(tmp_path):
    trace = _run()
    trace.retained = trace.retained[:, :, :-1]
    with pytest.raises(InputError):
        validate_trace(trace)

    trace = _run()
    assert retained_at(trace, 0).tolist() == [[[], []]]
    trace.steps[-1].evicted = trace.steps[-2].evicted  # the same positions evicted twice
    with pytest.raises(InputError, match="not present"):
        retained_at(trace, len(trace.steps))
    with pytest.raises(InputError):
        retained_at(trace, len(trace.steps) + 1)


def _oracle_replay(trace, step):
    """``oracle_retained_at`` on the trace's evictions, or its error text."""
    evictions = [None if record.evicted is None else record.evicted.tolist()
                 for record in trace.steps]
    try:
        return oracle_retained_at(evictions, trace.dims.layers, trace.dims.heads, step)
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
    for step in range(len(trace.steps) + 1):
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
    assert (trace.steps[6].evicted == 1).all() and trace.steps[5].evicted is None
    for step, layer, head, position in cells:
        record = trace.steps[step - 1]
        record.evicted = record.evicted.copy()
        record.evicted[layer, head] = position
    for step in range(len(trace.steps) + 1):
        assert _replay(trace, step) == _oracle_replay(trace, step)
    message = _oracle_replay(trace, len(trace.steps))
    assert isinstance(message, str) and message.startswith(f"step {min(cells)[0]}: ")
    with pytest.raises(InputError) as caught:
        validate_trace(trace)
    assert str(caught.value) == message


def test_trace_rejects_truncation(tmp_path):
    trace = _run()
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    lines = path.read_bytes().split(b"\n")[:16]  # the JSON records, no block
    path.write_bytes(b"\n".join(lines[:-2]) + b"\n")
    with pytest.raises(InputError):
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
    step the rows ``StreamBatch.step`` returned (layers, heads, n), a copy of
    the keys it attended and the values of those slots, every input's value
    projected up front (layers, heads, n, d_head).  Returns them with the
    run's trace, written to a file and read back."""
    weights = generate_weights(seed, dims)
    inputs = synthesize_embeddings(seed, seq_len, dims.d_model)
    values = project(inputs[:, None, :], stacked_weights(weights.qkv)[2])  # (T, S, d_head)
    policy = make_policy(spec, capacity, zones)
    batch = StreamBatch(weights, seq_len if policy.capacity is None else capacity + 1)
    trace = DecodeTrace(spec, capacity, zones, seq_len, dims, weights.seed)
    grid = (dims.layers, dims.heads)
    every = np.arange(batch.streams)[:, None]
    attended, held = [], []
    for step, x in enumerate(inputs, start=1):
        rows = batch.step(x)
        attended.append(rows.reshape(*grid, -1))
        live = batch.keys[:, : batch.n].copy(), values[batch.positions[:, : batch.n], every]
        held.append([stored.reshape(*grid, batch.n, -1) for stored in live])
        evicted = cursor = None
        if policy.capacity is not None and batch.n > policy.capacity:
            evicted, cursor = policy.evict(batch, rows)
            evicted = evicted.reshape(grid)
        trace.steps.append(StepRecord(step, evicted, cursor))
    trace.inputs, trace.weights = inputs, weights.qkv
    trace.retained = batch.positions[:, : batch.n].reshape(*grid, -1)
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    return read_trace(str(path)), attended, held


def test_signals_at_step_rederives_the_rows_decode_attended(tmp_path):
    # Every step's derived rows, read back from a trace file, bitwise
    # against the rows the step itself returned.
    rng = np.random.default_rng(44)
    for case, spec in enumerate(POLICY_SPECS * 2):
        dims = ModelDims(int(rng.integers(1, 3)), int(rng.integers(1, 4)), 6,
                         int(rng.choice([1, 3, 4, 5])))
        capacity = int(rng.integers(4, 9))
        zones = "sink=1,recent=2" if case >= len(POLICY_SPECS) else "sink=0,recent=0"
        loaded, attended, _ = _drive(spec, dims, capacity, zones, 20, case, tmp_path)
        for step, rows in enumerate(attended, start=1):
            derived = signals_at_step(loaded, step)[0]
            assert derived.shape == rows.shape
            assert derived.tobytes() == rows.tobytes(), (spec, dims, zones, step)


# Odd d_head, d_model 1 and d_head 1 among them: BLAS kernels differ in
# their tails, so only one (1, d_model) @ (d_model, d_head) product per row
# keeps a derived row bitwise decode's.
PROJECTION_DIMS = [(2, 4, 64, 16), (2, 3, 8, 5), (1, 2, 7, 3), (3, 2, 33, 7), (1, 1, 1, 1),
                   (1, 3, 1, 4), (2, 2, 9, 1)]


def test_held_projections_are_bitwise_what_decode_projected(tmp_path):
    # At every step, each held slot's derived key against the one the batch
    # held when it attended, and its derived value against decode's
    # up-front projection of its input; the derived query is checked through
    # the rows it attends (test_signals_at_step_rederives_the_rows_decode_attended).
    rng = np.random.default_rng(45)
    for case, shape in enumerate(PROJECTION_DIMS * 2):
        spec = POLICY_SPECS[case % len(POLICY_SPECS)]
        dims = ModelDims(*shape)
        capacity = int(rng.integers(4, 9))
        zones = "sink=1,recent=2" if case % 2 else "sink=0,recent=0"
        seq_len = int(rng.integers(capacity + 2, 3 * capacity))
        loaded, _, held = _drive(spec, dims, capacity, zones, seq_len, case, tmp_path)
        for step, want in enumerate(held, start=1):
            query, *derived = held_projections(loaded, step)
            assert query.shape == (dims.layers, dims.heads, dims.d_head)
            for got, stored in zip(derived, want):
                assert got.shape == stored.shape
                assert got.tobytes() == stored.tobytes(), (spec, shape, zones, step)


@pytest.mark.parametrize(
    "event",
    [
        {"evicted": [[0, 0], [0, 0]]},  # two layers
        {"evicted": [[0]]},  # one head
        {"evicted": [[8, 0]]},  # the position of step 9
        {"evicted": [[-1, 0]]},
        {"evicted": [[1.0, 0]]},
        {"evicted": [[True, 0]]},
        {"evicted": [0, 0]},  # not a grid
        {"cursor": "1"},
    ],
)
def test_trace_rejects_events_outside_the_streams_and_steps(tmp_path, event):
    trace = _run(capacity=5, seq_len=8)  # 1 layer, 2 heads, 8 steps
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    *lines, block = path.read_bytes().split(b"\n", 10)  # 10 JSON records, then the block
    record = json.loads(lines[-2])  # the last step; the final record follows it
    record.update(event)
    lines[-2] = json.dumps(record).encode()
    path.write_bytes(b"\n".join(lines) + b"\n" + block)
    with pytest.raises(InputError):
        read_trace(str(path))


@pytest.mark.parametrize(
    "grids, message",
    [
        ({6: [[1.0, 0]], 8: [[0]]}, "evicted at step 6 is not a 1x2 grid"),
        ({8: [[0]], 7: [[True, 0]]}, "evicted at step 7 is not a 1x2 grid"),
        pytest.param({8: [[-1, 0]], 7: [[0, 7]]},
                     r"step 7: eviction of position 7 not present in stream \(0, 1\)",
                     id="future-position"),
    ],
)
def test_read_trace_names_the_first_bad_evicted_grid(tmp_path, grids, message):
    trace = _run(capacity=5, seq_len=8)  # 1 layer, 2 heads, evictions at steps 6-8
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    *lines, block = path.read_bytes().split(b"\n", 10)
    for step, grid in grids.items():
        lines[step] = json.dumps({**json.loads(lines[step]), "evicted": grid}).encode()
    path.write_bytes(b"\n".join(lines) + b"\n" + block)
    with pytest.raises(InputError, match=message):
        read_trace(str(path))


@pytest.mark.parametrize(
    "retained",
    [
        [[[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]],  # in range, but not what the evictions leave
        [[[0, 1, 2, 3, 99], [0, 1, 2, 3, 99]]],  # a position past seq_len
    ],
    ids=["edited", "past-seq-len"],
)
def test_read_trace_rejects_a_final_record_its_replay_does_not_reproduce(tmp_path, retained):
    trace = _run(capacity=5, seq_len=8)  # 1 layer, 2 heads, 5 slots held at the end
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    *lines, block = path.read_bytes().split(b"\n", 10)
    lines[-1] = json.dumps({"kind": "final", "retained": retained}).encode()
    path.write_bytes(b"\n".join(lines) + b"\n" + block)
    with pytest.raises(InputError, match="diverge from the final checkpoint"):
        read_trace(str(path))
