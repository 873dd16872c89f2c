import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    H2O,
    TOVA,
    ConfigError,
    DimensionError,
    InvariantViolation,
    ModelDims,
    ProtectedZones,
    StateError,
    StreamBatch,
    StreamingLLM,
    TreeKV,
    TreeKVState,
    advance_idx,
    decode_with_policy,
    generate_weights,
    make_policy,
    retained_at,
    synthesize_embeddings,
)
from treekv.policies import _averaged, argmin_victims, streaming_victims, tree_victims

from helpers import drive_policy, single_head_weights, stream_batch


# --- score tracking ----------------------------------------------------------
#
# StreamBatch.step accumulates each attention row into the statistics:
# S += row and C += 1 over the live slots.


def _two_step_batch(wq, wk):
    """Two steps of a d_model 1, d_head 2 stream on input 1.0: the second
    query is rotated by 1 rad against the first key and by 0 against its own."""
    batch = StreamBatch(single_head_weights(wq, wk), slots=2)
    first, _, _ = batch.step(np.ones(1), 0)
    second, _, _ = batch.step(np.ones(1), 1)
    return batch, first[0], second[0]


def test_update_scores_first_step():
    batch = StreamBatch(generate_weights(3, ModelDims(1, 1, 4, 2)), slots=1)
    batch.step(np.ones(4), 0)
    assert batch.scores[0, : batch.n].tolist() == [1.0]
    assert batch.counts[0, : batch.n].tolist() == [1]


def test_update_scores_two_steps():
    # logit gap ln 1.5 between the two keys gives the row [0.6, 0.4]
    b = -math.log(1.5) * math.sqrt(2.0) / (1.0 - math.cos(1.0))
    batch, first, second = _two_step_batch([[b, 0.0]], [[1.0, 0.0]])
    assert first.tolist() == [1.0]
    assert np.allclose(second, [0.6, 0.4])
    assert batch.scores[0, :2].tolist() == [1.0 + second[0], second[1]]
    assert np.allclose(batch.scores[0, :2], [1.6, 0.4])
    assert batch.counts[0, :2].tolist() == [2, 1]


def test_update_scores_zero_entry_still_counts_residency():
    # a logit gap of about 3e5 underflows the first slot's weight to 0
    batch, _, second = _two_step_batch([[1000.0, 0.0]], [[1000.0, 0.0]])
    assert second.tolist() == [0.0, 1.0]
    assert batch.scores[0, :2].tolist() == [1.0, 1.0]
    assert batch.counts[0, :2].tolist() == [2, 1]


def test_average_scores_elementwise():
    batch, _ = list(drive_policy(TreeKV(8), 8, rows=[[1.0], [0.6, 0.4]]))[-1]
    assert np.allclose(_averaged(batch.scores[:, :2], batch.counts[:, :2]), [[0.8, 0.4]])


def test_average_scores_bounds():
    rows = [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    full, _ = list(drive_policy(TreeKV(8), 8, rows=rows))[-1]
    assert (_averaged(full.scores[:, :3], full.counts[:, :3]) <= 1.0).all()
    zero, _ = list(drive_policy(TreeKV(8), 8, rows=[[0.0], [0.0, 0.0]]))[-1]
    assert _averaged(zero.scores[:, :2], zero.counts[:, :2]).tolist() == [[0.0, 0.0]]
    ones = _averaged(np.array([[3.0, 2.0]]), np.array([[3, 2]]))  # all mass every step
    assert ones.tolist() == [[1.0, 1.0]]


def test_average_scores_zero_count_is_internal_error():
    with pytest.raises(InvariantViolation):
        tree_victims(np.array([[1.0, 0.5, 0.2]]), np.array([[0, 1, 1]]),
                     TreeKVState(c=2), ProtectedZones())


# --- tree eviction step ------------------------------------------------------


def _tree_victim(scores, counts=None, **state):
    scores = np.asarray(scores, dtype=np.float64)[None]
    counts = np.ones_like(scores) if counts is None else np.asarray(counts)[None]
    return int(tree_victims(scores, counts, TreeKVState(**state), ProtectedZones())[0])


def test_tree_eviction_walkthrough_step5():
    # Five tokens in a capacity-4 cache, cursor at 1, first slot scored lower:
    # the oldest token goes and the survivors shift left.
    scores = [0.1, 0.5, 0.3, 0.4, 0.2]
    assert _tree_victim(scores, c=4) == 0
    batch = stream_batch(scores)
    assert TreeKV(4).evict(batch, None) == ([0], 1)
    assert batch.positions[0, : batch.n].tolist() == [1, 2, 3, 4]
    assert batch.scores[0, : batch.n].tolist() == [0.5, 0.3, 0.4, 0.2]


def test_tree_eviction_tie_goes_left():
    assert _tree_victim([0.4, 0.4, 0.9], c=2) == 0


def test_tree_eviction_derived_scores():
    # averaged scores 0.05 vs ~0.1667: the left slot loses
    assert _tree_victim([0.9, 0.2, 0.5, 0.7, 0.1], [5, 4, 3, 2, 1], c=4, idx=2) == 1


def test_tree_eviction_select_left_ignores_scores():
    assert _tree_victim([9.0, 0.1, 0.1], c=2, mode="select-left") == 0


def test_tree_eviction_requires_over_capacity_cache():
    with pytest.raises(StateError):
        _tree_victim([0.1, 0.2, 0.3, 0.4], c=4)


def test_tree_eviction_scale_invariance():
    scores = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
    counts = [5, 4, 3, 2, 1]
    for scale in (1.0, 7.0, 1e-3):
        assert _tree_victim(scores * scale, counts, c=4, idx=2) == 1


# --- cursor ------------------------------------------------------------------


def test_advance_idx_steps_and_wraps():
    state = TreeKVState(c=4)
    assert advance_idx(state).idx == 2
    state = TreeKVState(c=4, idx=4)
    assert advance_idx(state).idx == 1


def test_advance_idx_visits_every_slot_once():
    state = TreeKVState(c=5)
    seen = []
    for _ in range(5):
        seen.append(state.idx)
        advance_idx(state)
    assert sorted(seen) == [1, 2, 3, 4, 5]
    assert state.idx == 1


# --- baselines ---------------------------------------------------------------


def test_streaming_without_sinks_is_a_sliding_window():
    assert streaming_victims(1, 3, ProtectedZones(0, 2)).tolist() == [0]
    batch = stream_batch([0.0, 0.0, 0.0])
    assert StreamingLLM(2, ProtectedZones(0, 2)).evict(batch, None) == ([0], None)
    assert batch.positions[0, : batch.n].tolist() == [1, 2]


def test_streaming_evicts_oldest_non_sink():
    c = 8
    zones = ProtectedZones(4, c - 4)
    assert streaming_victims(1, c + 1, zones).tolist() == [4]
    batch = stream_batch(np.zeros(c + 1))
    assert StreamingLLM(c, zones).evict(batch, None) == ([4], None)
    assert 4 not in batch.positions[0, : batch.n].tolist()


def test_streaming_retains_sinks_and_recent_when_warm():
    c, n_sink = 6, 2
    policy = StreamingLLM(c, ProtectedZones(n_sink, c - n_sink))
    for t, (batch, _) in enumerate(drive_policy(policy, c, fixed_scores=np.zeros(20))):
        if t + 1 > c:
            expected = list(range(n_sink)) + list(range(t + 1 - (c - n_sink), t + 1))
            assert batch.positions[0, : batch.n].tolist() == expected


def _h2o_victim(scores, zones=None, capacity=None):
    scores = np.asarray(scores, dtype=np.float64)[None]
    capacity = scores.shape[1] - 1 if capacity is None else capacity
    return int(H2O(capacity, zones).select(scores, np.ones_like(scores), None)[0])


def test_h2o_evicts_cumulative_argmin():
    assert _h2o_victim([0.3, 0.1, 0.2]) == 1
    batch = stream_batch([0.3, 0.1, 0.2])
    assert H2O(2).evict(batch, None) == ([1], None)
    assert batch.scores[0, : batch.n].tolist() == [0.3, 0.2]


def test_h2o_tie_breaks_left():
    assert _h2o_victim([0.2, 0.2]) == 0


def test_h2o_scale_invariance():
    scores = np.array([0.3, 0.1, 0.2, 0.4])
    for scale in (1.0, 13.0, 1e-4):
        assert _h2o_victim(scores * scale) == 1


def test_h2o_respects_zones():
    assert _h2o_victim([0.9, 0.05, 0.5, 0.3, 0.2], ProtectedZones(1, 1)) == 1


def test_h2o_empty_evictable_region_is_a_config_error():
    with pytest.raises(ConfigError):
        argmin_victims(np.array([[0.1, 0.2]]), ProtectedZones(1, 2))


def _tova_victim(row, zones=None):
    row = np.asarray(row, dtype=np.float64)[None]
    return int(TOVA(row.shape[1] - 1, zones).select(None, None, row)[0])


def test_tova_uniform_row_evicts_leftmost():
    assert _tova_victim(np.full(3, 1 / 3)) == 0


def test_tova_argmin_without_zones():
    assert _tova_victim([0.7, 0.1, 0.2]) == 1


def test_tova_respects_zones():
    assert _tova_victim([0.2, 0.1, 0.05, 0.65], ProtectedZones(0, 1)) == 2


# --- the shared eviction step --------------------------------------------------


def test_evict_checks_the_policy_and_the_remaining_slots():
    with pytest.raises(InvariantViolation):  # full attention declines
        make_policy("full", 2).evict(stream_batch([0.1, 0.2, 0.3]), None)
    with pytest.raises(InvariantViolation):  # two over capacity: one eviction is short
        H2O(2).evict(stream_batch([0.1, 0.2, 0.3, 0.4]), None)


# --- policy construction ------------------------------------------------------


def test_make_policy_rejects_unknown_spec():
    with pytest.raises(ConfigError):
        make_policy("lru", 8)


def test_treekv_zones_must_leave_cyclable_slots():
    with pytest.raises(ConfigError):
        make_policy("treekv", 8, "sink=4,recent=4")
    make_policy("treekv", 9, "sink=4,recent=4")  # one cyclable slot is enough


def test_zone_parsing():
    zones = ProtectedZones.parse("sink=4,recent=508")
    assert (zones.n_sink, zones.n_recent) == (4, 508)
    assert ProtectedZones.parse("").total == 0
    with pytest.raises(ConfigError):
        ProtectedZones.parse("sink=4,window=2")
    with pytest.raises(ConfigError):
        ProtectedZones.parse("sink=-3,recent=0")


# --- decode loop ---------------------------------------------------------------


def _toy_weights(vocab=0):
    return generate_weights(5, ModelDims(1, 2, 8, 4, vocab))


def test_decode_full_capacity_never_evicts_and_matches_full_policy():
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 9, 8)
    roomy = decode_with_policy(
        weights, inputs, "treekv", 16, record_outputs=True
    )
    full = decode_with_policy(
        weights, inputs, "full", 16, record_outputs=True
    )
    assert all(not step.events for step in roomy.steps)
    for step_a, step_b in zip(roomy.steps, full.steps):
        for head in range(2):
            assert np.array_equal(step_a.outputs[0][head], step_b.outputs[0][head])


def test_decode_select_left_17_token_pattern():
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 17, 8)
    trace = decode_with_policy(weights, inputs, "treekv-left", 4)
    for head in range(2):
        # 1-based tokens {12, 14, 16, 17}
        assert trace.retained[0][head] == [11, 13, 15, 16]
    cursors = [e.cursor for s in trace.steps for e in s.events if e.head == 0]
    assert cursors == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1]


def test_decode_capacity_invariant_and_cursor_cycle():
    weights = _toy_weights()
    inputs = synthesize_embeddings(4, 40, 8)
    trace = decode_with_policy(weights, inputs, "treekv", 6)
    for step in trace.steps:
        for head in range(2):
            assert len(retained_at(trace, step.step)[0][head]) <= 6
    cursors = [e.cursor for s in trace.steps for e in s.events if e.head == 1]
    for start in range(len(cursors) - 6):
        assert sorted(cursors[start : start + 6]) == [1, 2, 3, 4, 5, 6]


def test_decode_tracker_residency_accounting():
    # Stream with no evictions: a slot appended at position p has seen
    # exactly T - p attention calls by the end.
    weights = _toy_weights()
    inputs = synthesize_embeddings(6, 7, 8)
    batch = StreamBatch(weights, slots=8)
    mass = np.zeros((2, 7))
    for position in range(7):
        rows, _, _ = batch.step(inputs[position], position)
        mass[:, : position + 1] += rows
    for stream in range(2):
        assert batch.counts[stream, :7].tolist() == [7 - p for p in range(7)]
        assert abs(batch.scores[stream, :7].sum() - 7.0) < 1e-12  # seven unit rows
    assert np.array_equal(mass, batch.scores[:, :7])
    averaged = _averaged(batch.scores[:, :7], batch.counts[:, :7])
    assert (averaged >= 0).all() and (averaged <= 1.0).all()


def test_decode_zero_scores_make_score_mode_equal_select_left():
    # Forcing all-equal importance is the ablation's control condition: the
    # strict comparison always fails and the left slot goes.
    c, seq_len = 5, 23
    rows = [np.zeros(min(t, c + 1)) for t in range(1, seq_len + 1)]
    outcomes = []
    for select_left in (False, True):
        policy = TreeKV(c, select_left=select_left)
        batch, _ = list(drive_policy(policy, c, rows=rows))[-1]
        outcomes.append(batch.positions[0, : batch.n].tolist())
    assert outcomes[0] == outcomes[1]


def test_decode_with_zones_protects_sinks_and_recent():
    weights = _toy_weights()
    c, n_sink, n_recent = 8, 2, 3
    inputs = synthesize_embeddings(8, 30, 8)
    trace = decode_with_policy(
        weights, inputs, "treekv", c, f"sink={n_sink},recent={n_recent}"
    )
    for step in trace.steps:
        t = step.step
        for head in range(2):
            retained = retained_at(trace, t)[0][head]
            assert len(retained) <= c
            if t > c:
                assert retained[:n_sink] == [0, 1]
                assert retained[-n_recent:] == [t - 3, t - 2, t - 1]
    evicted = {e.position for s in trace.steps for e in s.events if e.head == 0}
    assert not evicted & {0, 1}


def test_decode_rejects_tiny_capacity():
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 4, 8)
    with pytest.raises(ConfigError):
        decode_with_policy(weights, inputs, "treekv", 1)


def test_decode_rejects_bad_input_shape():
    weights = _toy_weights()
    with pytest.raises(DimensionError):
        decode_with_policy(weights, np.zeros((4, 5)), "full", 8)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_tree_policy_evicts_only_from_scope(capacity, seed):
    rng = np.random.default_rng(seed)
    seq_len = capacity + int(rng.integers(1, 3 * capacity))
    rows = []
    for t in range(1, seq_len + 1):
        row = rng.random(min(t, capacity + 1))
        rows.append(row / row.sum())
    policy = TreeKV(capacity)
    before = []
    for t, (batch, eviction) in enumerate(drive_policy(policy, capacity, rows=rows)):
        before.append(t)  # the slots the eviction chose from
        if eviction is not None:
            (position,), cursor = eviction
            assert policy.state.idx == cursor % capacity + 1
            assert position in (before[cursor - 1], before[cursor])
            assert batch.n == capacity
        before = batch.positions[0, : batch.n].tolist()
