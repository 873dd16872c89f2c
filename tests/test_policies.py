import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    H2O,
    POLICY_SPECS,
    TOVA,
    ConfigError,
    InvariantViolation,
    ModelDims,
    ModelWeights,
    ProtectedZones,
    StreamBatch,
    StreamingLLM,
    TreeKV,
    decode_with_policy,
    generate_weights,
    make_policy,
    partition_blocks,
    retained_at,
    synthesize_embeddings,
    window_mass,
)
from treekv.engine import STATISTICS
from treekv.policies import _averaged

from helpers import (
    decision_margins,
    drive_policy,
    evicted_events,
    evictions,
    outputs_at,
    single_head_weights,
    stream_batch,
)
from oracles import oracle_decode, oracle_tree_sim

BOUNDED_SPECS = [spec for spec in POLICY_SPECS if spec != "full"]


# --- score tracking ----------------------------------------------------------
#
# StreamBatch.step accumulates each attention row into the statistics:
# S += row and C += 1 over the live slots.


def _two_step_batch(wq, wk):
    """Two steps of a d_model 1, d_head 2 stream on input 1.0: the second
    query is rotated by 1 rad against the first key and by 0 against its own."""
    batch = StreamBatch(single_head_weights(wq, wk), slots=2)
    first = batch.step(np.ones(1))
    second = batch.step(np.ones(1))
    return batch, first[0], second[0]


def test_step_statistics_first_step():
    batch = StreamBatch(generate_weights(3, ModelDims(1, 1, 4, 2)), slots=1)
    batch.step(np.ones(4))
    assert batch.scores[0, : batch.n].tolist() == [1.0]
    assert batch.counts[0, : batch.n].tolist() == [1]


def test_step_statistics_two_steps():
    # logit gap ln 1.5 between the two keys gives the row [0.6, 0.4]
    b = -math.log(1.5) * math.sqrt(2.0) / (1.0 - math.cos(1.0))
    batch, first, second = _two_step_batch([[b, 0.0]], [[1.0, 0.0]])
    assert first.tolist() == [1.0]
    assert np.allclose(second, [0.6, 0.4])
    assert batch.scores[0, :2].tolist() == [1.0 + second[0], second[1]]
    assert np.allclose(batch.scores[0, :2], [1.6, 0.4])
    assert batch.counts[0, :2].tolist() == [2, 1]


def test_step_statistics_zero_entry_still_counts_residency():
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
        TreeKV(2).select((1, 3), 0, scores=np.array([[1.0, 0.5, 0.2]]),
                         counts=np.array([[0, 1, 1]]))


# --- tree eviction step ------------------------------------------------------


def _tree_victim(scores, counts=None, *, c, cursor=1, select_left=False):
    scores = np.asarray(scores, dtype=np.float64)[None]
    counts = np.ones_like(scores) if counts is None else np.asarray(counts)[None]
    policy = TreeKV(c, select_left=select_left)
    return int(policy.select(scores.shape, cursor - 1, scores=scores, counts=counts)[0])


def test_tree_eviction_walkthrough_step5():
    # Five tokens in a capacity-4 cache, eviction 0 (cursor at 1), first
    # slot scored lower: the oldest token goes and the survivors shift left.
    scores = [0.1, 0.5, 0.3, 0.4, 0.2]
    assert _tree_victim(scores, c=4) == 0
    batch = stream_batch(scores)
    assert TreeKV(4).evict(batch, None, 0).tolist() == [0]
    assert batch.positions[0, : batch.n].tolist() == [1, 2, 3, 4]
    assert batch.scores[0, : batch.n].tolist() == [0.5, 0.3, 0.4, 0.2]


def test_tree_eviction_tie_goes_left():
    assert _tree_victim([0.4, 0.4, 0.9], c=2) == 0


def test_tree_eviction_derived_scores():
    # averaged scores 0.05 vs ~0.1667: the left slot loses
    assert _tree_victim([0.9, 0.2, 0.5, 0.7, 0.1], [5, 4, 3, 2, 1], c=4, cursor=2) == 1


def test_tree_eviction_select_left_ignores_scores():
    assert _tree_victim([9.0, 0.1, 0.1], c=2, select_left=True) == 0


def test_tree_eviction_requires_over_capacity_cache():
    with pytest.raises(InvariantViolation, match="needs exactly 5 slots .* holds 4"):
        TreeKV(4).evict(stream_batch([0.1, 0.2, 0.3, 0.4]), None, 0)


def test_tree_eviction_scale_invariance():
    scores = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
    counts = [5, 4, 3, 2, 1]
    for scale in (1.0, 7.0, 1e-3):
        assert _tree_victim(scores * scale, counts, c=4, cursor=2) == 1


# --- cursor ------------------------------------------------------------------


def _left_slot(capacity, zones, index):
    """The left slot of the pair that eviction ``index`` compares, which
    select-left evicts from a one-stream cache one over capacity."""
    policy = TreeKV(capacity, zones, select_left=True)
    return int(policy.select((1, capacity + 1), index)[0])


def test_the_cursor_steps_with_the_eviction_index_and_wraps():
    assert [_left_slot(4, ProtectedZones(), index) for index in (0, 1, 3, 4)] == [0, 1, 3, 0]
    zoned = ProtectedZones(1, 1)  # the cursor sweeps 6 - 2 = 4 slots
    assert TreeKV(6, zoned).cycle == 4
    assert [_left_slot(6, zoned, index) for index in (0, 3, 4)] == [1, 4, 1]


def test_the_cursor_visits_every_slot_once_per_cycle():
    seen = [_left_slot(5, ProtectedZones(), index) for index in range(5)]
    assert sorted(seen) == [0, 1, 2, 3, 4]
    assert _left_slot(5, ProtectedZones(), 5) == 0


# --- the tree's spacing --------------------------------------------------------
#
# Domain: select-left, no recent zone, a cycle that is a power of two, and
# the sink positions left out.  There every gap between kept positions is
# a power of two, and the gaps never grow toward the newest token.  Outside
# it the property does not hold in general (most cases at a cycle that is
# not a power of two fail it).


def _spaced_by_shrinking_powers_of_two(kept):
    gaps = np.diff(kept).tolist()
    return (all(gap & (gap - 1) == 0 for gap in gaps)
            and all(a >= b for a, b in zip(gaps, gaps[1:])))


_POWER_CYCLES = (2, 4, 8, 16, 32, 64)


def test_select_left_spacing_in_the_oracle():
    # 500 cases: c in _POWER_CYCLES, no zones, T from c + 1 to 600 in steps of 7
    cases = 0
    for c in _POWER_CYCLES:
        for seq_len in range(c + 1, 601, 7):
            kept, _ = oracle_tree_sim(c, seq_len)
            assert _spaced_by_shrinking_powers_of_two(kept), (c, seq_len)
            cases += 1
    assert cases == 500
    kept, _ = oracle_tree_sim(16, 1000)
    assert np.diff(kept).tolist() == [16, 8, 8, 4, 4, 4, 4] + [1] * 8


def test_select_left_spacing_in_decode_with_sinks():
    # 992 cases: sink 1 and 4, cycle in _POWER_CYCLES, c = cycle + sink,
    # recent 0, the positions kept after each step T from c + 1 to 600 in
    # steps of 7 of one 600-step decode (decoding is causal, so they are
    # what a decode of T inputs keeps)
    weights = generate_weights(0, ModelDims(1, 1, 2, 2))
    inputs = synthesize_embeddings(0, 600, 2)
    cases = 0
    for sink in (1, 4):
        for cycle in _POWER_CYCLES:
            c = cycle + sink
            trace = decode_with_policy(weights, inputs, "treekv-left", c,
                                       ProtectedZones(sink, 0))
            for step in range(c + 1, 601, 7):
                kept = retained_at(trace, step)[0, 0]
                assert kept[:sink].tolist() == list(range(sink))
                assert _spaced_by_shrinking_powers_of_two(kept[sink:]), (sink, c, step)
                cases += 1
    assert cases == 992


# The horizon: with select-left, no zones and c a power of two, the span
# T - oldest + 1 of the kept positions stays within 1.5 c ceil(log2 c), so
# the tree reaches back O(c log c) tokens, not O(T).  Checked up to T = 24c
# only, and not stated for other c, where the spacing property above
# already fails.


def test_select_left_horizon_is_c_log_c():
    # 5842 cases: c in 2, 4, ..., 128, no zones, every step T from c + 1 to
    # 24c of one 24c-step decode, whose one stream's evictions give the
    # oldest kept position after each step
    weights = generate_weights(0, ModelDims(1, 1, 2, 2))
    cases = 0
    for c in (2, 4, 8, 16, 32, 64, 128):
        seq_len = 24 * c
        trace = decode_with_policy(weights, synthesize_embeddings(0, seq_len, 2),
                                   "treekv-left", c)
        bound = 1.5 * c * math.ceil(math.log2(c))
        gone = np.zeros(seq_len, dtype=bool)
        oldest, spans = 0, {}
        for step, position in enumerate(trace.evicted[:, 0, 0].tolist(), c + 1):
            gone[position] = True
            while gone[oldest]:
                oldest += 1
            spans[step] = step - oldest  # T - oldest + 1, oldest 1-based
            assert spans[step] <= bound, (c, step)
            cases += 1
        # the widest span is c log2 c + 1, which meets the bound at c = 2
        assert max(spans.values()) == c * int(math.log2(c)) + 1, c
        for step in (c + 1, 5 * c + 3, seq_len):
            kept, _ = oracle_tree_sim(c, step)
            assert spans[step] == step - kept[0] + 1, (c, step)
    assert cases == 5842


# --- baselines ---------------------------------------------------------------


def test_streaming_without_sinks_is_a_sliding_window():
    assert StreamingLLM(2, ProtectedZones(0, 2)).select((1, 3)).tolist() == [0]
    batch = stream_batch([0.0, 0.0, 0.0])
    policy = StreamingLLM(2, ProtectedZones(0, 2))
    assert policy.evict(batch, None, 3).tolist() == [0]  # any eviction index
    assert batch.positions[0, : batch.n].tolist() == [1, 2]


def test_streaming_evicts_oldest_non_sink():
    c = 8
    zones = ProtectedZones(4, c - 4)
    assert StreamingLLM(c, zones).select((1, c + 1)).tolist() == [4]
    batch = stream_batch(np.zeros(c + 1))
    policy = StreamingLLM(c, zones)
    assert policy.evict(batch, None, 3).tolist() == [4]  # any eviction index
    assert 4 not in batch.positions[0, : batch.n].tolist()


def test_streaming_retains_sinks_and_recent_when_warm():
    c, n_sink = 6, 2
    policy = StreamingLLM(c, ProtectedZones(n_sink, c - n_sink))
    for t, (batch, _) in enumerate(drive_policy(policy, c, fixed_scores=np.zeros(20))):
        if t + 1 > c:
            expected = list(range(n_sink)) + list(range(t + 1 - (c - n_sink), t + 1))
            assert batch.positions[0, : batch.n].tolist() == expected


def _h2o_victim(scores, zones=ProtectedZones(), capacity=None):
    scores = np.asarray(scores, dtype=np.float64)[None]
    capacity = scores.shape[1] - 1 if capacity is None else capacity
    return int(H2O(capacity, zones).select(scores.shape, scores=scores)[0])


def test_h2o_evicts_cumulative_argmin():
    assert _h2o_victim([0.3, 0.1, 0.2]) == 1
    batch = stream_batch([0.3, 0.1, 0.2])
    policy = H2O(2)
    assert policy.evict(batch, None, 3).tolist() == [1]  # any eviction index
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
        H2O(1, ProtectedZones(1, 2))


def _tova_victim(row, zones=ProtectedZones()):
    row = np.asarray(row, dtype=np.float64)[None]
    return int(TOVA(row.shape[1] - 1, zones).select(row.shape, rows=row)[0])


def test_tova_uniform_row_evicts_leftmost():
    assert _tova_victim(np.full(3, 1 / 3)) == 0


def test_tova_argmin_without_zones():
    assert _tova_victim([0.7, 0.1, 0.2]) == 1


def test_tova_respects_zones():
    assert _tova_victim([0.2, 0.1, 0.05, 0.65], ProtectedZones(0, 1)) == 2


# --- the shared eviction step --------------------------------------------------


def test_evict_checks_the_policy_and_the_remaining_slots():
    # two over capacity: one eviction is short
    with pytest.raises(InvariantViolation, match="needs exactly 3 slots .* holds 4"):
        H2O(2).evict(stream_batch([0.1, 0.2, 0.3, 0.4]), None, 0)


@pytest.mark.parametrize("spec", BOUNDED_SPECS)
def test_evict_refuses_a_batch_not_one_over_capacity_before_removing(spec):
    c = 4
    for size in (c, c + 2):
        batch = stream_batch(np.ones(size))
        with pytest.raises(InvariantViolation, match=f"needs exactly 5 slots .* holds {size}"):
            make_policy(spec, c, ProtectedZones(1, 1)).evict(batch, np.ones((1, size)), 0)
        assert batch.n == size
        assert batch.positions[0].tolist() == list(range(size))


def test_replay_of_no_more_than_capacity_drops_nothing():
    # nothing arrives past the capacity: every index is kept, in order
    for spec in POLICY_SPECS:
        for count in (0, 1, 4):
            dropped, kept = make_policy(spec, 4).replay(count, np.zeros((3, count)))
            assert dropped.shape == (0, 3)
            assert kept.tolist() == [list(range(count))] * 3


REPLAY_ZONES = [ProtectedZones(), ProtectedZones(1, 1)]


def _replay_cases(spec, zone_settings=REPLAY_ZONES):
    """(capacity, zones, count) over c in {2, 3, 5, 8}, the zone settings
    (no zones and sink=1,recent=1) where they fit, and count in
    {0, c - 1, c, c + 1, 4c}."""
    for capacity in (2, 3, 5, 8):
        for zones in zone_settings:
            try:
                make_policy(spec, capacity, zones)
            except ConfigError:
                continue
            for count in (0, capacity - 1, capacity, capacity + 1, 4 * capacity):
                yield capacity, zones, count


def test_replay_streaming_drops_the_oldest_slot_past_the_sink():
    for capacity, zones, count in _replay_cases("streaming"):
        dropped, kept = make_policy("streaming", capacity, zones).replay(count)
        gone = range(zones.n_sink, zones.n_sink + max(0, count - capacity))
        assert dropped[:, 0].tolist() == list(gone)  # the k-th drops n_sink + k
        assert kept[0].tolist() == [p for p in range(count) if p not in gone]


def test_replay_treekv_left_keeps_what_the_oracle_keeps():
    for capacity, zones, count in _replay_cases("treekv-left", [ProtectedZones()]):
        dropped, kept = make_policy("treekv-left", capacity, zones).replay(count)
        assert kept[0].tolist() == [t - 1 for t in oracle_tree_sim(capacity, count)[0]]
        assert sorted(dropped[:, 0].tolist() + kept[0].tolist()) == list(range(count))


@pytest.mark.parametrize("spec", BOUNDED_SPECS)
def test_replay_evicts_as_evict_does_over_fixed_scores(spec):
    # Each later index fills the last column, the victim is dropped with
    # the survivors kept in order, at eviction index 0, 1, ...: the victims and
    # the final set are those of ``evict`` on a batch whose slots hold the
    # same fixed scores with counts of 1 (and, for TOVA, those scores as
    # the last row).  Scores in {0, 1, 2} on the small cases make ties
    # frequent, and both break them the same way.
    rng = np.random.default_rng(5)
    cases = [(capacity, zones, 40, rng.random(40))
             for capacity, zones, _ in _fitting_policies(spec)]
    cases += [(capacity, zones, count, rng.integers(0, 3, count).astype(np.float64))
              for capacity, zones, count in _replay_cases(spec)]
    for capacity, zones, count, scores in cases:
        steps = list(drive_policy(make_policy(spec, capacity, zones), capacity,
                                  fixed_scores=scores))
        dropped, kept = make_policy(spec, capacity, zones).replay(count, scores[None])
        assert dropped.shape == (max(0, count - capacity), 1)
        assert dropped[:, 0].tolist() == [int(e[0][0]) for _, e in steps if e is not None]
        final = [batch.positions[0, : batch.n].tolist() for batch, _ in steps[-1:]]
        assert kept.tolist() == (final or [[]])


@pytest.mark.parametrize("spec", BOUNDED_SPECS)
def test_a_replay_of_four_streams_is_four_replays_of_one(spec):
    # prefill's shape: one cursor for all streams, each with its own scores
    rng = np.random.default_rng(11)
    for capacity, zones, count in _replay_cases(spec):
        scores = rng.random((4, count))
        dropped, kept = make_policy(spec, capacity, zones).replay(count, scores)
        assert dropped.shape == (max(0, count - capacity), 4)
        assert kept.shape == (4, min(count, capacity))
        for stream in range(4):
            one = make_policy(spec, capacity, zones).replay(count, scores[stream : stream + 1])
            assert dropped[:, stream].tolist() == one[0][:, 0].tolist()
            assert kept[stream].tolist() == one[1][0].tolist()


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_a_policy_is_pure(spec):
    # Nothing a policy does changes what it selects later: one object
    # replays the same scores twice with the same results, and ``evict`` on
    # two equal batches at one eviction index removes the same slots, with
    # a replay and an eviction at another index in between.
    rng = np.random.default_rng(12)
    scores = rng.random((3, 40))
    policy = make_policy(spec, 5, "sink=1,recent=1")
    first, second = policy.replay(40, scores), policy.replay(40, scores)
    assert all(np.array_equal(a, b) for a, b in zip(first, second, strict=True))
    if policy.capacity is None:
        return  # full is never asked to evict
    shape = (3, 6)
    stats = {"scores": rng.random(shape), "counts": rng.integers(1, 10, shape),
             "rows": rng.random(shape)}
    for index in range(12):
        want = _evicted(policy, stats, index)
        policy.replay(40, scores)
        _evicted(policy, stats, index + 1)
        assert np.array_equal(_evicted(policy, stats, index), want), index


# --- policy construction ------------------------------------------------------


def test_make_policy_rejects_unknown_spec():
    with pytest.raises(ConfigError):
        make_policy("lru", 8)


def test_treekv_zones_must_leave_cyclable_slots():
    with pytest.raises(ConfigError):
        make_policy("treekv", 8, "sink=4,recent=4")
    make_policy("treekv", 9, "sink=4,recent=4")  # one cyclable slot is enough


@pytest.mark.parametrize("spec", BOUNDED_SPECS)
def test_make_policy_accepts_exactly_the_zones_that_leave_evictable_slots(spec):
    # README's zone rule: c >= sink + recent for the baselines, and
    # sink + recent < c for the tree, which needs a slot pair to compare
    tree = spec.startswith("treekv")
    for c in range(2, 10):
        for sink in range(c + 3):
            for recent in range(c + 3):
                fits = sink + recent < c if tree else sink + recent <= c
                try:
                    make_policy(spec, c, ProtectedZones(sink, recent))
                except ConfigError:
                    assert not fits, (c, sink, recent)
                else:
                    assert fits, (c, sink, recent)


def test_zone_parsing():
    zones = ProtectedZones.parse("sink=4,recent=508")
    assert (zones.n_sink, zones.n_recent) == (4, 508)
    assert ProtectedZones.parse("") == ProtectedZones(0, 0)
    with pytest.raises(ConfigError):
        ProtectedZones.parse("sink=4,window=2")
    with pytest.raises(ConfigError):
        ProtectedZones.parse("sink=-3,recent=0")
    with pytest.raises(ConfigError):  # a repeated key is refused, not overwritten
        ProtectedZones.parse("sink=1,sink=2,recent=0")


# --- decode loop ---------------------------------------------------------------


def _toy_weights():
    return generate_weights(5, ModelDims(1, 2, 8, 4))


def test_decode_full_capacity_never_evicts_and_matches_full_policy():
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 9, 8)
    roomy = decode_with_policy(weights, inputs, "treekv", 16)
    full = decode_with_policy(weights, inputs, "full", 16)
    assert roomy.evicted.shape == (0, 1, 2)
    for step in range(1, 10):
        outputs_a, outputs_b = outputs_at(roomy, step), outputs_at(full, step)
        for head in range(2):
            assert np.array_equal(outputs_a[0][head], outputs_b[0][head])


# d_head 1, odd d_head and d_model 1 among them
OUTPUT_DIMS = [(1, 2, 6, 1), (2, 2, 7, 3), (1, 3, 1, 5), (2, 1, 8, 4)]


@pytest.mark.parametrize("zones", ["sink=0,recent=0", "sink=1,recent=2"])
@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_recorded_outputs_are_bitwise_the_rows_over_the_held_values(spec, zones):
    # Every step's outputs, derived from the trace's inputs and weights as
    # the rows over the held values (``outputs_at``), against the naive
    # oracle's sums of its own rows over its own values.
    parsed = ProtectedZones.parse(zones)
    for case, shape in enumerate(OUTPUT_DIMS):
        dims = ModelDims(*shape)
        weights = generate_weights(60 + case, dims)
        inputs = synthesize_embeddings(70 + case, 22, dims.d_model)
        trace = decode_with_policy(weights, inputs, spec, 6, zones)
        expected = oracle_decode(weights, inputs, spec, 6, (parsed.n_sink, parsed.n_recent))
        assert trace.seq_len == len(expected)
        for step, want in enumerate(expected, 1):
            outputs = outputs_at(trace, step)
            assert outputs.shape == (dims.layers, dims.heads, dims.d_head)
            np.testing.assert_allclose(outputs, np.array(want["outputs"]), rtol=1e-6, atol=1e-9,
                                       err_msg=str((shape, step)))


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_evictions_never_read_the_value_matrices(spec):
    # The same run with W_V replaced by other finite numbers evicts the same
    # positions at the same steps with the same cursors, though every output
    # derived from the trace changes: no value reaches the eviction path.
    dims = ModelDims(2, 2, 6, 3)
    weights = generate_weights(80, dims)
    qkv = weights.qkv.copy()
    qkv[:, :, 2] = np.random.default_rng(81).normal(size=qkv[:, :, 2].shape) * 1e3
    other = ModelWeights(weights.seed, qkv)
    inputs = synthesize_embeddings(82, 30, dims.d_model)
    for zones in ("sink=0,recent=0", "sink=1,recent=2"):
        want = decode_with_policy(weights, inputs, spec, 6, zones)
        got = decode_with_policy(other, inputs, spec, 6, zones)
        assert np.array_equal(want.evicted, got.evicted)
        for step in range(1, 31):
            assert not np.array_equal(outputs_at(want, step), outputs_at(got, step))
        assert np.array_equal(want.retained, got.retained)


# (layers, heads, d_model, d_head): d_model 1 and odd d_head among them
SKIP_DIMS = [(1, 1, 1, 3), (2, 2, 8, 4), (1, 3, 5, 5)]
SKIP_ZONES = ["sink=0,recent=0", "sink=1,recent=2", "sink=4,recent=12"]


def _fitting_policies(spec, capacities=(2, 5, 8, 20)):
    """(capacity, zones, fresh policy) for every capacity and zone setting
    that ``make_policy`` accepts for ``spec``."""
    for capacity in capacities:
        for zones in SKIP_ZONES:
            try:
                yield capacity, zones, make_policy(spec, capacity, zones)
            except ConfigError:
                continue  # the zones do not fit this capacity


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_decoding_without_attention_evicts_as_the_attending_path(spec, monkeypatch):
    # A policy that reads no attention never attends an input, and must
    # still evict the positions that the naive oracle, which attends every
    # step, evicts at the same steps with the same cursors, and keep the
    # same final positions.
    steps = []
    step_one = StreamBatch._step_one

    def counted_step(batch, key, rotated, slot):
        steps.append(slot)
        return step_one(batch, key, rotated, slot)

    monkeypatch.setattr(StreamBatch, "_step_one", counted_step)
    runs = 0
    for seed in (0, 1, 2):
        for shape in SKIP_DIMS:
            dims = ModelDims(*shape)
            weights = generate_weights(90 + seed, dims)
            inputs = synthesize_embeddings(100 + seed, 30, dims.d_model)
            for capacity, zones, policy in _fitting_policies(spec):
                parsed = ProtectedZones.parse(zones)
                want = oracle_decode(weights, inputs, spec, capacity,
                                     (parsed.n_sink, parsed.n_recent))
                steps.clear()
                got = decode_with_policy(weights, inputs, spec, capacity, zones)
                assert len(steps) == (30 if policy.reads else 0)
                pairs = zip(want, evicted_events(got), strict=True)
                for step, (a, events) in enumerate(pairs, 1):
                    assert events == a["events"], (capacity, zones, step)
                assert got.retained.tolist() == want[-1]["retained"]
                runs += 1
    assert runs >= 3 * len(SKIP_DIMS) * 8  # every spec fits 8 of the 12 settings


_THREE_STREAMS = generate_weights(0, ModelDims(1, 3, 1, 1))


def _evicted(policy, stats, index):
    """The slots ``policy.evict`` removes at eviction ``index`` from a
    three-stream batch that holds every statistic (positions are slots);
    None for a policy without capacity, which never evicts."""
    if policy.capacity is None:
        return None
    size = stats["rows"].shape[1]
    batch = StreamBatch(_THREE_STREAMS, size)
    batch.n = size
    batch.positions[:] = np.arange(size)
    batch.scores[:], batch.counts[:] = stats["scores"], stats["counts"]
    return policy.evict(batch, stats["rows"], index)


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_reads_names_every_statistic_the_victims_depend_on(spec):
    # evict on capacity + 1 slots of constant statistics, and again with one
    # statistic replaced by seeded random numbers, at the same index.
    # Replacing a statistic the policy does not declare in ``reads`` never
    # changes its victims; for each one it declares, some input here does.
    # A declaration wrong in either direction fails one of the two checks.
    rng = np.random.default_rng(110)
    changed = dict.fromkeys(STATISTICS, 0)
    for capacity, zones, policy in _fitting_policies(spec):
        shape = (3, capacity + 1)
        constant = {"scores": np.ones(shape), "counts": np.ones(shape, dtype=np.int64),
                    "rows": np.ones(shape)}
        for index in range(2 * capacity):
            seeded = {"scores": rng.random(shape) * 10, "counts": rng.integers(1, 10, shape),
                      "rows": rng.random(shape)}
            want = _evicted(policy, constant, index)
            for name in STATISTICS:
                other = _evicted(policy, {**constant, name: seeded[name]}, index)
                same = np.array_equal(want, other)
                changed[name] += not same
                if name not in policy.reads:
                    assert same, (name, capacity, zones, index)
    assert {name for name, count in changed.items() if count} == set(policy.reads)


def _held(batch):
    """The names of the optional arrays a StreamBatch keeps."""
    assert batch.positions is not None
    return {name for name in ("keys", "encoded", "rope", "scores", "counts")
            if getattr(batch, name) is not None}


def _recorded_batches(monkeypatch):
    """A list that collects every StreamBatch built from now on."""
    built = []
    init = StreamBatch.__init__

    def recording_init(batch, *args, **kwargs):
        init(batch, *args, **kwargs)
        built.append(batch)

    monkeypatch.setattr(StreamBatch, "__init__", recording_init)
    return built


ATTENDING = {"keys", "encoded", "rope"}
DECODE_BATCHES = {
    "treekv": [ATTENDING | {"scores", "counts"}],
    "h2o": [ATTENDING | {"scores"}],
    "tova": [ATTENDING],
    # a policy that reads nothing replays positions with no batch
    "full": [],
    "streaming": [],
    "treekv-left": [],
}


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_a_decode_batch_holds_only_what_its_policy_reads(spec, monkeypatch):
    # Written out per policy rather than derived from ``reads``, so storing
    # an array again, building a batch for a policy that reads nothing, or
    # declaring a statistic wrongly, fails here.
    built = _recorded_batches(monkeypatch)
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 12, 8)
    decode_with_policy(weights, inputs, spec, 6, "sink=1,recent=2")
    assert [_held(batch) for batch in built] == DECODE_BATCHES[spec]


def test_the_prefill_batch_keeps_scores_but_no_counts(monkeypatch):
    built = _recorded_batches(monkeypatch)
    window_mass(_toy_weights(), synthesize_embeddings(3, 12, 8), partition_blocks(12, 4))
    assert [_held(batch) for batch in built] == [ATTENDING | {"scores"}]


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_the_header_fixes_every_evicting_step_and_cursor(spec, monkeypatch):
    # A trace stores neither steps nor cursors: the policy decode ran must
    # select once per step past the capacity, one trace row each, at
    # eviction index 0..E - 1 in order, which gives the cursor
    # (helpers.evictions).  Spying on ``select`` covers both ways decode
    # evicts: ``evict`` from a batch and ``replay``.
    calls = []
    build = make_policy

    def recording_make_policy(*args):
        policy = build(*args)
        select = policy.select

        def recording_select(shape, index, **stats):
            calls.append(index)
            return select(shape, index, **stats)

        policy.select = recording_select
        return policy

    monkeypatch.setattr("treekv.policies.make_policy", recording_make_policy)
    weights = generate_weights(7, ModelDims(1, 2, 4, 2))
    inputs = synthesize_embeddings(8, 200, 4)
    for capacity, zones, _ in _fitting_policies(spec, capacities=(2, 5, 16, 250)):
        calls.clear()
        trace = decode_with_policy(weights, inputs, spec, capacity, zones)
        assert calls == list(range(len(trace.evicted)))
        bounded = spec != "full" and capacity < 200
        steps = [step for step, _, _ in evictions(trace)]
        assert steps == list(range(capacity + 1, 201) if bounded else [])


@pytest.mark.parametrize("spec", ["treekv", "h2o", "tova"])
def test_no_seeded_policy_corpus_decision_is_a_near_tie(spec):
    # The decode corpora of test_recorded_outputs_are_bitwise_the_rows_over_the_held_values
    # and test_the_header_fixes_every_evicting_step_and_cursor clear float
    # noise by far: the smallest margins are about 2.3e-3 (treekv), 6.2e-3
    # (h2o) and 7.5e-4 (tova) on the first, and 1.9e-5, 3.1e-3 and 2.2e-5
    # on the second.
    for zones in ("sink=0,recent=0", "sink=1,recent=2"):
        for case, shape in enumerate(OUTPUT_DIMS):
            weights = generate_weights(60 + case, ModelDims(*shape))
            inputs = synthesize_embeddings(70 + case, 22, shape[2])
            margins = decision_margins(weights, inputs, spec, 6, zones)
            assert (margins > 1e-9).all(), (shape, zones, margins.min())
    weights = generate_weights(7, ModelDims(1, 2, 4, 2))
    inputs = synthesize_embeddings(8, 200, 4)
    for capacity, zones, _ in _fitting_policies(spec, capacities=(2, 5, 16, 250)):
        margins = decision_margins(weights, inputs, spec, capacity, zones)
        assert (margins > 1e-9).all(), (capacity, zones, margins.min())


def test_decode_select_left_17_token_pattern():
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 17, 8)
    trace = decode_with_policy(weights, inputs, "treekv-left", 4)
    for head in range(2):
        # 1-based tokens {12, 14, 16, 17}
        assert trace.retained[0][head].tolist() == [11, 13, 15, 16]
    steps, _, cursors = zip(*evictions(trace))
    assert steps == tuple(range(5, 18))
    assert list(cursors) == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1]


def test_decode_capacity_invariant_and_cursor_cycle():
    weights = _toy_weights()
    inputs = synthesize_embeddings(4, 40, 8)
    trace = decode_with_policy(weights, inputs, "treekv", 6)
    for step in range(1, 41):
        for head in range(2):
            assert len(retained_at(trace, step)[0][head]) <= 6
    cursors = [cursor for _, _, cursor in evictions(trace)]
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
        rows = batch.step(inputs[position])
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
    for t in range(1, 31):
        for head in range(2):
            retained = retained_at(trace, t)[0][head].tolist()
            assert len(retained) <= c
            if t > c:
                assert retained[:n_sink] == [0, 1]
                assert retained[-n_recent:] == [t - 3, t - 2, t - 1]
    evicted = set(trace.evicted[:, 0, 0].tolist())
    assert not evicted & {0, 1}


def test_decode_rejects_tiny_capacity():
    weights = _toy_weights()
    inputs = synthesize_embeddings(2, 4, 8)
    with pytest.raises(ConfigError):
        decode_with_policy(weights, inputs, "treekv", 1)


def test_decode_rejects_bad_input_shape():
    weights = _toy_weights()
    with pytest.raises(InvariantViolation, match=r"must have shape \(T, \d+\), got \(4, 5\)"):
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
    before, cursors = [], []
    for t, (batch, eviction) in enumerate(drive_policy(policy, capacity, rows=rows)):
        before.append(t)  # the slots the eviction chose from
        if eviction is not None:
            (position,), cursor = eviction
            assert cursor == len(cursors) % capacity + 1
            cursors.append(cursor)
            assert position in (before[cursor - 1], before[cursor])
            assert batch.n == capacity
        before = batch.positions[0, : batch.n].tolist()
