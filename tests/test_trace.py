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
    assert loaded.fingerprint() == trace.fingerprint()
    assert len(loaded.steps) == len(trace.steps)
    last_a, last_b = trace.steps[-1], loaded.steps[-1]
    assert np.array_equal(loaded.retained, trace.retained)
    assert np.array_equal(last_a.evicted, last_b.evicted)
    assert last_a.cursor == last_b.cursor
    assert loaded.qkv.tobytes() == trace.qkv.tobytes()
    validate_trace(loaded)


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_qkv_block_roundtrips_bitwise(tmp_path, spec):
    # 14 steps: a header, 14 step records and a final record, then the block
    path = tmp_path / "t.jsonl"
    for detail in (True, False):
        trace = _run(policy=spec, capacity=5, zones="sink=1,recent=1", record_detail=detail)
        write_trace(trace, str(path))
        block = path.read_bytes().split(b"\n", 16)[16]
        loaded = read_trace(str(path)).qkv
        if detail:
            assert trace.qkv.shape == (14, 1, 2, 3, 4)
            assert block == trace.qkv.astype("<f8").tobytes()
            assert loaded.tobytes() == trace.qkv.tobytes()
        else:
            assert trace.qkv is None and loaded is None and block == b""


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
    light = _run(policy="treekv", capacity=5, seq_len=9, record_detail=False)
    with pytest.raises(InputError):
        signals_at_step(light, 8)


def test_signals_at_step_rederives_the_rows_decode_attended(tmp_path):
    # Drive the engine and the policy here, record each step's q, k and v,
    # and check every step's derived rows, read back from a trace file,
    # bitwise against the rows the step itself returned.
    rng = np.random.default_rng(44)
    for case, spec in enumerate(POLICY_SPECS * 2):
        dims = ModelDims(int(rng.integers(1, 3)), int(rng.integers(1, 4)), 6,
                         int(rng.choice([1, 3, 4, 5])))
        capacity = int(rng.integers(4, 9))
        zones = "sink=1,recent=2" if case >= len(POLICY_SPECS) else "sink=0,recent=0"
        seq_len = 20
        weights = generate_weights(case, dims)
        policy = make_policy(spec, capacity, zones)
        batch = StreamBatch(weights, seq_len if policy.capacity is None else capacity + 1)
        trace = DecodeTrace(spec, capacity, zones, seq_len, dims, weights.seed)
        grid = (dims.layers, dims.heads)
        attended, recorded = [], []
        for step, x in enumerate(synthesize_embeddings(case, seq_len, 6), start=1):
            rows, _, qkv = batch.step(x, step - 1)
            attended.append(rows.reshape(*grid, -1))
            evicted = cursor = None
            if policy.capacity is not None and batch.n > policy.capacity:
                evicted, cursor = policy.evict(batch, rows)
                evicted = evicted.reshape(grid)
            trace.steps.append(StepRecord(step, evicted, cursor))
            recorded.append(qkv.reshape(*grid, 3, -1))
        trace.qkv = np.stack(recorded)
        trace.retained = batch.positions[:, : batch.n].reshape(*grid, -1)
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        loaded = read_trace(str(path))
        for step, rows in enumerate(attended, start=1):
            derived = signals_at_step(loaded, step)[0]
            assert derived.shape == rows.shape
            assert derived.tobytes() == rows.tobytes(), (spec, dims, zones, step)


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
