import json

import numpy as np
import pytest

from treekv import (
    InputError,
    ModelDims,
    decode_with_policy,
    distribution_map,
    generate_weights,
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
    assert loaded.retained == trace.retained
    assert [(e.position, e.cursor) for e in last_a.events] == [
        (e.position, e.cursor) for e in last_b.events
    ]
    assert np.allclose(last_a.rows[0][1], last_b.rows[0][1])
    validate_trace(loaded)


def test_trace_replay_detects_tampering(tmp_path):
    trace = _run()
    trace.retained[0][0] = trace.retained[0][0][:-1]
    with pytest.raises(InputError):
        validate_trace(trace)

    trace = _run()
    assert retained_at(trace, 0) == [[[], []]]
    last = trace.steps[-1]
    last.events.append(last.events[0])  # the same position evicted twice
    with pytest.raises(InputError, match="not present"):
        retained_at(trace, len(trace.steps))
    with pytest.raises(InputError):
        retained_at(trace, len(trace.steps) + 1)


def test_trace_rejects_truncation(tmp_path):
    trace = _run()
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
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
    for layer, head, row, values in signals_at_step(trace, 8):
        # step 8 of a capacity-5 run attends over 6 slots before evicting
        assert row.shape == (6,)
        assert values.shape == (6, 4)
    light = _run(policy="treekv", capacity=5, seq_len=9, record_rows=False)
    with pytest.raises(InputError):
        signals_at_step(light, 8)


@pytest.mark.parametrize(
    "event", [[1, 0, 0, 1], [0, 2, 0, 1], [0, 0, 8, 1], [0, -1, 0, 1], [0, 0, 0, "1"]]
)
def test_trace_rejects_events_outside_the_streams_and_steps(tmp_path, event):
    trace = _run(capacity=5, seq_len=8)  # 1 layer, 2 heads, 8 steps
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[-2])  # the last step; the final record follows it
    record["events"] = [event]
    path.write_text("\n".join(lines[:-2] + [json.dumps(record), lines[-1]]) + "\n")
    with pytest.raises(InputError):
        read_trace(str(path))
