import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    ConfigError,
    DimensionError,
    ImportanceTracker,
    InvariantViolation,
    KVCache,
    ModelDims,
    ProtectedZones,
    StateError,
    StreamBatch,
    TreeKV,
    TreeKVState,
    advance_idx,
    average_scores,
    decode_with_policy,
    generate_weights,
    h2o_evict,
    make_policy,
    streaming_llm_evict,
    synthesize_embeddings,
    tova_evict,
    treekv_evict_step,
    update_scores,
)

from helpers import cache_with_positions, staged_tracker


# --- score tracking ----------------------------------------------------------


def test_update_scores_first_step():
    tracker = staged_tracker([[1.0]])
    assert tracker.S.tolist() == [1.0]
    assert tracker.C.tolist() == [1]


def test_update_scores_two_steps():
    tracker = staged_tracker([[1.0], [0.6, 0.4]])
    assert np.allclose(tracker.S, [1.6, 0.4])
    assert tracker.C.tolist() == [2, 1]


def test_update_scores_zero_entry_still_counts_residency():
    tracker = staged_tracker([[1.0], [0.0, 1.0]])
    assert np.allclose(tracker.S, [1.0, 1.0])
    assert tracker.C.tolist() == [2, 1]


def test_update_scores_length_mismatch():
    tracker = staged_tracker([[1.0]])
    with pytest.raises(DimensionError):
        update_scores(tracker, np.array([0.5, 0.5]))


def test_average_scores_elementwise():
    tracker = staged_tracker([[1.0], [0.6, 0.4]])
    assert np.allclose(average_scores(tracker), [0.8, 0.4])


def test_average_scores_bounds():
    full = staged_tracker([[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])
    assert (average_scores(full) <= 1.0).all()
    zero = staged_tracker([[0.0], [0.0, 0.0]])
    assert average_scores(zero).tolist() == [0.0, 0.0]
    ones = ImportanceTracker.from_arrays([3.0, 2.0], [3, 2])  # all mass every step
    assert average_scores(ones).tolist() == [1.0, 1.0]


def test_average_scores_zero_count_is_internal_error():
    broken = ImportanceTracker.from_arrays([1.0], [0])
    with pytest.raises(InvariantViolation):
        average_scores(broken)


# --- tree eviction step ------------------------------------------------------


def test_tree_eviction_walkthrough_step5():
    # Five tokens in a capacity-4 cache, cursor at 1, first slot scored lower:
    # the oldest token goes and the survivors shift left.
    cache = cache_with_positions([0, 1, 2, 3, 4], capacity=4)
    tracker = ImportanceTracker.from_arrays([0.1, 0.5, 0.3, 0.4, 0.2])
    state = TreeKVState(c=4)
    victim = treekv_evict_step(cache, tracker, state)
    assert victim == 1
    assert cache.positions.tolist() == [1, 2, 3, 4]
    assert tracker.S.tolist() == [0.5, 0.3, 0.4, 0.2]


def test_tree_eviction_tie_goes_left():
    cache = cache_with_positions([0, 1, 2], capacity=2)
    tracker = ImportanceTracker.from_arrays([0.4, 0.4, 0.9])
    victim = treekv_evict_step(cache, tracker, TreeKVState(c=2))
    assert victim == 1


def test_tree_eviction_derived_scores():
    cache = cache_with_positions([0, 1, 2, 3, 4], capacity=4)
    tracker = ImportanceTracker.from_arrays(
        [0.9, 0.2, 0.5, 0.7, 0.1], [5, 4, 3, 2, 1]
    )
    state = TreeKVState(c=4, idx=2)
    # averaged scores 0.05 vs ~0.1667: the left slot loses
    assert treekv_evict_step(cache, tracker, state) == 2


def test_tree_eviction_select_left_ignores_scores():
    cache = cache_with_positions([0, 1, 2], capacity=2)
    tracker = ImportanceTracker.from_arrays([9.0, 0.1, 0.1])
    state = TreeKVState(c=2, mode="select-left")
    assert treekv_evict_step(cache, tracker, state) == 1


def test_tree_eviction_requires_over_capacity_cache():
    cache = cache_with_positions([0, 1, 2, 3], capacity=4)
    tracker = ImportanceTracker.from_arrays([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(StateError):
        treekv_evict_step(cache, tracker, TreeKVState(c=4))


def test_tree_eviction_scale_invariance():
    scores = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
    counts = [5, 4, 3, 2, 1]
    for scale in (1.0, 7.0, 1e-3):
        cache = cache_with_positions([0, 1, 2, 3, 4], capacity=4)
        tracker = ImportanceTracker.from_arrays(scores * scale, counts)
        assert treekv_evict_step(cache, tracker, TreeKVState(c=4, idx=2)) == 2


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
    cache = cache_with_positions([0, 1, 2], capacity=2)
    assert streaming_llm_evict(cache, ProtectedZones(0, 2)) == 1
    assert cache.positions.tolist() == [1, 2]


def test_streaming_evicts_oldest_non_sink():
    c = 8
    cache = cache_with_positions(list(range(c + 1)), capacity=c)
    victim = streaming_llm_evict(cache, ProtectedZones(4, c - 4))
    assert victim == 5
    assert 4 not in cache.positions.tolist()


def test_streaming_retains_sinks_and_recent_when_warm():
    c, n_sink = 6, 2
    zones = ProtectedZones(n_sink, c - n_sink)
    cache = KVCache(1, capacity=c)
    for t in range(20):
        cache.append([0.0], [0.0], t)
        if len(cache) > c:
            streaming_llm_evict(cache, zones)
        if t + 1 > c:
            expected = list(range(n_sink)) + list(range(t + 1 - (c - n_sink), t + 1))
            assert cache.positions.tolist() == expected


def test_h2o_evicts_cumulative_argmin():
    cache = cache_with_positions([0, 1, 2], capacity=2)
    tracker = ImportanceTracker.from_arrays([0.3, 0.1, 0.2])
    assert h2o_evict(cache, tracker) == 2
    assert tracker.S.tolist() == [0.3, 0.2]


def test_h2o_tie_breaks_left():
    cache = cache_with_positions([0, 1], capacity=1)
    tracker = ImportanceTracker.from_arrays([0.2, 0.2])
    assert h2o_evict(cache, tracker) == 1


def test_h2o_scale_invariance():
    scores = np.array([0.3, 0.1, 0.2, 0.4])
    for scale in (1.0, 13.0, 1e-4):
        cache = cache_with_positions([0, 1, 2, 3], capacity=3)
        tracker = ImportanceTracker.from_arrays(scores * scale)
        assert h2o_evict(cache, tracker) == 2


def test_h2o_respects_zones():
    cache = cache_with_positions([0, 1, 2, 3, 4], capacity=4)
    tracker = ImportanceTracker.from_arrays([0.9, 0.05, 0.5, 0.3, 0.2])
    assert h2o_evict(cache, tracker, ProtectedZones(1, 1)) == 2


def test_h2o_empty_evictable_region_is_a_config_error():
    cache = cache_with_positions([0, 1], capacity=1)
    tracker = ImportanceTracker.from_arrays([0.1, 0.2])
    with pytest.raises(ConfigError):
        h2o_evict(cache, tracker, ProtectedZones(1, 2))


def test_tova_uniform_row_evicts_leftmost():
    cache = cache_with_positions([0, 1, 2], capacity=2)
    assert tova_evict(cache, np.full(3, 1 / 3)) == 1


def test_tova_argmin_without_zones():
    cache = cache_with_positions([0, 1, 2], capacity=2)
    assert tova_evict(cache, [0.7, 0.1, 0.2]) == 2


def test_tova_respects_zones():
    cache = cache_with_positions([0, 1, 2, 3], capacity=3)
    assert tova_evict(cache, [0.2, 0.1, 0.05, 0.65], ProtectedZones(0, 1)) == 3


def test_tova_length_mismatch():
    cache = cache_with_positions([0, 1, 2], capacity=2)
    with pytest.raises(DimensionError):
        tova_evict(cache, [0.5, 0.5])


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
        assert trace.final_retained()[0][head] == [11, 13, 15, 16]
    cursors = [e.cursor for s in trace.steps for e in s.events if e.head == 0]
    assert cursors == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1]


def test_decode_capacity_invariant_and_cursor_cycle():
    weights = _toy_weights()
    inputs = synthesize_embeddings(4, 40, 8)
    trace = decode_with_policy(weights, inputs, "treekv", 6)
    for step in trace.steps:
        for head in range(2):
            assert len(step.retained[0][head]) <= 6
    cursors = [e.cursor for s in trace.steps for e in s.events if e.head == 1]
    for start in range(len(cursors) - 6):
        assert sorted(cursors[start : start + 6]) == [1, 2, 3, 4, 5, 6]


def test_decode_tracker_residency_accounting():
    # Stream with no evictions: a slot appended at position p has seen
    # exactly T - p attention calls by the end.
    weights = _toy_weights()
    inputs = synthesize_embeddings(6, 7, 8)
    batch = StreamBatch(weights, slots=8)
    tracker = ImportanceTracker()
    for position in range(7):
        rows, _, _ = batch.step(inputs[position], position)
        tracker.extend()
        update_scores(tracker, rows[0])
    for stream in range(2):
        assert batch.counts[stream, :7].tolist() == [7 - p for p in range(7)]
        assert abs(batch.scores[stream, :7].sum() - 7.0) < 1e-12  # seven unit rows
    assert np.array_equal(tracker.S, batch.scores[0, :7])
    assert tracker.C.tolist() == batch.counts[0, :7].tolist()
    averaged = average_scores(tracker)
    assert (averaged >= 0).all() and (averaged <= 1.0).all()


def test_decode_zero_scores_make_score_mode_equal_select_left():
    # Forcing all-equal importance is the ablation's control condition: the
    # strict comparison always fails and the left slot goes.
    c, seq_len = 5, 23
    outcomes = []
    for select_left in (False, True):
        cache = KVCache(1, capacity=c)
        tracker = ImportanceTracker()
        policy = TreeKV(c, select_left=select_left)
        for t in range(seq_len):
            cache.append([0.0], [0.0], t)
            tracker.extend()
            update_scores(tracker, np.zeros(len(tracker)))
            if len(cache) > c:
                policy.evict(cache, tracker, None)
        outcomes.append(cache.positions.tolist())
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
            retained = step.retained[0][head]
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
    cache = KVCache(1, capacity=capacity)
    tracker = ImportanceTracker()
    policy = TreeKV(capacity)
    for t in range(seq_len):
        cache.append([0.0], [0.0], t)
        tracker.extend()
        row = rng.random(len(tracker))
        update_scores(tracker, row / row.sum())
        if len(cache) > capacity:
            before = cache.positions.tolist()
            cursor = policy.state.idx
            record = policy.evict(cache, tracker, row)
            assert record.cursor == cursor
            assert record.position in (before[cursor - 1], before[cursor])
            assert len(cache) == capacity
            assert len(tracker) == capacity
