import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    POLICY_SPECS,
    DimensionError,
    InputError,
    KVCache,
    ModelDims,
    ModelWeights,
    OrderingError,
    StateError,
    StreamBatch,
    apply_positions,
    attend,
    decode_with_policy,
    encoding_positions,
    generate_weights,
    load_weights,
    observation_scores,
    partition_blocks,
    project,
    rotate_vector,
    save_weights,
    synthesize_embeddings,
    synthesize_token_ids,
    window_rows,
)

from helpers import cache_with_positions
from oracles import (
    oracle_block_scores,
    oracle_decode,
    oracle_weight_entries,
    oracle_window_rows,
)


# --- weight generation -----------------------------------------------------


def test_generate_weights_is_pure_in_seed_and_dims():
    dims = ModelDims(2, 3, 8, 4)
    first = generate_weights(7, dims)
    second = generate_weights(7, dims)
    for layer in range(dims.layers):
        for head in range(dims.heads):
            assert first.wq[layer][head].tobytes() == second.wq[layer][head].tobytes()
            assert first.wk[layer][head].tobytes() == second.wk[layer][head].tobytes()
            assert first.wv[layer][head].tobytes() == second.wv[layer][head].tobytes()


def test_distinct_seeds_give_distinct_streams():
    dims = ModelDims(1, 1, 8, 4)
    a = generate_weights(7, dims)
    b = generate_weights(8, dims)
    assert (a.wq[0][0] != b.wq[0][0]).any()


def test_weight_entries_match_independent_recurrence():
    dims = ModelDims(2, 2, 8, 4)
    weights = generate_weights(42, dims)
    # First entry of W_Q[0][0], plus a spread of other matrices.
    expected = oracle_weight_entries(42, dims.heads, 8, 4, 0, 0, 0, 1)
    assert weights.wq[0][0][0][0] == np.float32(expected[0])
    for layer, head, kind, matrix in [
        (0, 1, 1, weights.wk[0][1]),
        (1, 0, 2, weights.wv[1][0]),
    ]:
        entries = oracle_weight_entries(42, dims.heads, 8, 4, layer, head, kind, 6)
        assert matrix.flatten()[:6].tolist() == [float(np.float32(e)) for e in entries]


def test_dimension_validation():
    with pytest.raises(DimensionError):
        generate_weights(1, ModelDims(0, 1, 4, 2))
    with pytest.raises(DimensionError):
        generate_weights(1, ModelDims(1, 1, 2**32, 2))
    with pytest.raises(DimensionError):
        ModelDims(1, 1, 4, 2, vocab=-1).validate()


# --- weight file -----------------------------------------------------------


def test_weight_file_roundtrip_and_bit_identity(tmp_path):
    dims = ModelDims(2, 2, 8, 4, vocab=16)
    weights = generate_weights(7, dims)
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_weights(weights, str(path_a))
    save_weights(weights, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_bytes()[:4] == b"TKVW"

    loaded = load_weights(str(path_a))
    assert loaded.dims == dims
    assert loaded.seed == 7
    assert (loaded.wq[1][1] == weights.wq[1][1]).all()
    assert (loaded.embedding == weights.embedding).all()
    assert (loaded.output_proj == weights.output_proj).all()


def test_weight_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(InputError):
        load_weights(str(path))
    path.write_bytes(b"TK")
    with pytest.raises(InputError):
        load_weights(str(path))


def test_weight_file_rejects_truncation(tmp_path):
    dims = ModelDims(1, 1, 4, 2)
    path = tmp_path / "w.bin"
    save_weights(generate_weights(3, dims), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(InputError):
        load_weights(str(path))


# --- project ---------------------------------------------------------------


def _single_head_weights(wq, wk=None, wv=None):
    wq = np.asarray(wq, dtype=np.float32)
    wk = wq if wk is None else np.asarray(wk, dtype=np.float32)
    wv = wq if wv is None else np.asarray(wv, dtype=np.float32)
    dims = ModelDims(1, 1, wq.shape[0], wq.shape[1])
    return ModelWeights(dims, 0, [[wq]], [[wk]], [[wv]])


def test_project_zero_vector():
    weights = generate_weights(1, ModelDims(1, 1, 6, 3))
    q, k, v = project(np.zeros(6), weights, 0, 0)
    assert not q.any() and not k.any() and not v.any()


def test_project_identity_matrix():
    weights = _single_head_weights(np.eye(3))
    x = np.array([0.5, -1.0, 2.0])
    q, _, _ = project(x, weights, 0, 0)
    assert np.allclose(q, x)


def test_project_hand_example():
    weights = _single_head_weights([[0.5, 0.25], [0.5, 0.75]])
    q, _, _ = project([1.0, 1.0], weights, 0, 0)
    assert np.allclose(q, [1.0, 1.0], atol=1e-12)


def test_project_length_mismatch():
    weights = generate_weights(1, ModelDims(1, 1, 6, 3))
    with pytest.raises(DimensionError):
        project(np.zeros(5), weights, 0, 0)


# --- attend ----------------------------------------------------------------


def test_attend_single_slot():
    cache = KVCache(2).append([1.0, 0.0], [3.0, 4.0], 0)
    row, out = attend([0.2, 0.7], cache)
    assert row.tolist() == [1.0]
    assert out.tolist() == [3.0, 4.0]


def test_attend_identical_keys_split_evenly():
    cache = KVCache(2)
    cache.append([1.0, 1.0], [1.0, 0.0], 0)
    cache.append([1.0, 1.0], [0.0, 1.0], 1)
    row, out = attend([0.3, -0.2], cache)
    assert np.allclose(row, [0.5, 0.5], atol=1e-12)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_attend_two_slot_softmax_example():
    cache = KVCache(2)
    cache.append([1.0, 0.0], [1.0, 0.0], 0)
    cache.append([0.0, 1.0], [0.0, 1.0], 1)
    row, _ = attend([1.0, 0.0], cache)
    # logits are [1/sqrt(2), 0]; direct scalar softmax as the oracle
    z = 1.0 / math.sqrt(2.0)
    denominator = math.exp(z) + 1.0
    assert np.allclose(row, [math.exp(z) / denominator, 1.0 / denominator], atol=1e-12)
    assert np.allclose(row, [0.6698, 0.3302], atol=1e-4)


def test_attend_empty_cache():
    with pytest.raises(StateError):
        attend([1.0, 0.0], KVCache(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_attention_rows_are_stochastic(slots, d_head, seed):
    rng = np.random.default_rng(seed)
    cache = KVCache(d_head, reserve=slots)
    for position in range(slots):
        cache.append(rng.normal(size=d_head), rng.normal(size=d_head), position)
    row, _ = attend(rng.normal(size=d_head) * 5, cache)
    assert (row >= 0).all()
    assert abs(row.sum() - 1.0) < 1e-6


# --- append / evict ordering -----------------------------------------------


def test_append_grows_and_preserves_order():
    cache = KVCache(1)
    for position in (0, 1, 2):
        cache.append([0.0], [0.0], position)
    assert len(cache) == 3
    assert cache.positions.tolist() == [0, 1, 2]


def test_append_rejects_non_monotone_positions():
    cache = KVCache(1).append([0.0], [0.0], 5)
    with pytest.raises(OrderingError):
        cache.append([0.0], [0.0], 5)
    with pytest.raises(OrderingError):
        cache.append([0.0], [0.0], 3)


def test_append_after_eviction_keeps_order():
    cache = cache_with_positions([0, 1, 2, 3], d_head=1)
    cache.evict(2)
    cache.append([0.0], [0.0], 4)
    assert cache.positions.tolist() == [0, 1, 3, 4]


def test_append_respects_capacity_headroom():
    cache = KVCache(1, capacity=2)
    for position in range(3):  # capacity + 1 transient slots are allowed
        cache.append([0.0], [0.0], position)
    with pytest.raises(StateError):
        cache.append([0.0], [0.0], 3)


def test_append_rejects_wrong_vector_length():
    with pytest.raises(DimensionError):
        KVCache(2).append([1.0], [1.0, 2.0], 0)


# --- position re-assignment ------------------------------------------------


def test_apply_positions_worked_example():
    # Survivors {0,1,2,3,7,8,9} while decoding global token 10: keys are
    # encoded at 0..6 and the incoming query at 7.
    cache = cache_with_positions([0, 1, 2, 3, 7, 8, 9])
    assert encoding_positions(cache).tolist() == [0, 1, 2, 3, 4, 5, 6]
    q = np.arange(4, dtype=np.float64)
    keys_encoded, q_encoded = apply_positions(cache, q)
    assert np.array_equal(q_encoded, rotate_vector(q, 7))
    for slot, encoded in zip(range(7), keys_encoded):
        assert np.array_equal(encoded, rotate_vector(cache.keys()[slot], slot))


def test_apply_positions_gap_invariance():
    # Encoding depends only on slot order, never on original positions.
    gapped = cache_with_positions([0, 1, 2, 3, 7, 8, 9], seed=3)
    compact = KVCache(4, reserve=8)
    for slot in range(len(gapped)):
        compact.append(gapped.keys()[slot], gapped.values()[slot], slot)
    q = np.array([1.0, -2.0, 0.5, 0.25])
    keys_a, q_a = apply_positions(gapped, q)
    keys_b, q_b = apply_positions(compact, q)
    assert np.array_equal(keys_a, keys_b)
    assert np.array_equal(q_a, q_b)


def test_apply_positions_identity_without_evictions():
    cache = cache_with_positions([0, 1, 2, 3, 4])
    assert encoding_positions(cache).tolist() == cache.positions.tolist()


def test_rotation_at_position_zero_is_identity():
    vec = np.array([0.3, -1.2, 4.5, 0.0])
    assert np.array_equal(rotate_vector(vec, 0), vec)


def test_apply_positions_never_mutates_stored_keys():
    cache = cache_with_positions([0, 1, 2], seed=9)
    before = cache.keys().copy()
    apply_positions(cache, np.ones(4))
    assert np.array_equal(cache.keys(), before)


def test_rotation_preserves_norm():
    vec = np.array([0.3, -1.2, 4.5, 2.0])
    for position in (1, 5, 33):
        assert abs(np.linalg.norm(rotate_vector(vec, position)) - np.linalg.norm(vec)) < 1e-12


# --- streams and synthetic inputs ------------------------------------------


def test_attention_stream_runs_and_orders_positions():
    # Every stream of the batch attends over all of its slots in position
    # order, bitwise as a lone stream built from the single-stream functions.
    weights = generate_weights(5, ModelDims(2, 2, 6, 4))
    batch = StreamBatch(weights, slots=8)
    caches = [KVCache(4, reserve=8) for _ in range(4)]
    xs = synthesize_embeddings(5, 4, 6)
    for position in range(4):
        rows, outputs, values = batch.step(xs[position], position)
        assert rows.shape == (4, position + 1)
        for stream, cache in enumerate(caches):
            row = rows[stream]
            assert abs(row.sum() - 1.0) < 1e-9
            q, k, v = project(xs[position], weights, stream // 2, stream % 2)
            cache.append(k, v, position)
            keys_encoded, q_encoded = apply_positions(cache, q, query_index=position)
            logits = keys_encoded @ q_encoded / 2.0
            expected = np.exp(logits - logits.max())
            expected = expected / expected.sum()
            assert np.array_equal(row, expected)
            assert np.array_equal(values[stream], v)
            assert np.array_equal(outputs[stream], expected @ cache.values())
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 2, 3]] * 4


def test_stream_batch_remove_shifts_each_stream_past_its_victim():
    weights = generate_weights(5, ModelDims(1, 3, 6, 4))
    batch = StreamBatch(weights, slots=5)
    for position, x in enumerate(synthesize_embeddings(5, 5, 6)):
        batch.step(x, position)
    keys, scores = batch.keys.copy(), batch.scores.copy()
    assert batch.remove([0, 2, 4]) == [0, 2, 4]
    assert batch.n == 4
    assert batch.positions[:, :4].tolist() == [[1, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 3]]
    for stream, kept in enumerate([[1, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 3]]):
        assert np.array_equal(batch.keys[stream, :4], keys[stream, kept])
        assert np.array_equal(batch.scores[stream, :4], scores[stream, kept])
    with pytest.raises(StateError):
        batch.remove([0, 4, 1])  # slot 4 is gone
    with pytest.raises(StateError):
        batch.remove([0, 1])  # one victim per stream


def test_synthesize_streams_are_deterministic():
    assert np.array_equal(synthesize_embeddings(3, 5, 4), synthesize_embeddings(3, 5, 4))
    assert synthesize_token_ids(3, 16, 11) == synthesize_token_ids(3, 16, 11)
    assert synthesize_token_ids(3, 16, 11) != synthesize_token_ids(4, 16, 11)
    assert all(0 <= t < 11 for t in synthesize_token_ids(3, 64, 11))


# --- batched engine against the naive per-stream oracle ------------------------


def _decode_corpus():
    rng = np.random.default_rng(2024)
    for case in range(42):
        spec = POLICY_SPECS[case % len(POLICY_SPECS)]
        dims = ModelDims(
            int(rng.integers(1, 3)),
            int(rng.integers(1, 4)),
            int(rng.choice([3, 4, 8])),
            int(rng.integers(1, 5)),
        )
        capacity = int(rng.integers(2, 13))
        seq_len = int(rng.integers(1, 61))
        # The tree cycle needs one unprotected slot; the baselines need none.
        room = capacity - 1 if spec.startswith("treekv") else capacity
        n_sink = int(rng.integers(0, room + 1))
        n_recent = int(rng.integers(0, room - n_sink + 1))
        yield spec, dims, capacity, seq_len, (n_sink, n_recent), int(rng.integers(0, 2**31))


def test_decode_matches_naive_oracle_on_seeded_corpus():
    evicting = set()
    for spec, dims, capacity, seq_len, zones, seed in _decode_corpus():
        weights = generate_weights(seed, dims)
        inputs = synthesize_embeddings(seed + 1, seq_len, dims.d_model)
        trace = decode_with_policy(
            weights, inputs, spec, capacity, "sink={},recent={}".format(*zones),
            record_outputs=True,
        )
        expected = oracle_decode(weights, inputs, spec, capacity, zones)
        assert len(trace.steps) == len(expected)
        for record, want in zip(trace.steps, expected):
            events = [(e.layer, e.head, e.position, e.cursor) for e in record.events]
            assert events == want["events"], (spec, dims, capacity, zones, record.step)
            assert record.retained == want["retained"]
            if events:
                evicting.add(spec)
            for key in ("rows", "values", "outputs"):
                for layer in range(dims.layers):
                    for head in range(dims.heads):
                        np.testing.assert_allclose(
                            getattr(record, key)[layer][head],
                            want[key][layer][head],
                            rtol=1e-6,
                            atol=1e-9,
                        )
    assert evicting == set(POLICY_SPECS) - {"full"}


@pytest.mark.parametrize("d_head, prompt_len, block_size", [(4, 37, 8), (3, 24, 6)])
def test_window_rows_and_block_scores_match_naive_oracle(d_head, prompt_len, block_size):
    weights = generate_weights(8, ModelDims(2, 3, 8, d_head))
    inputs = synthesize_embeddings(9, prompt_len, 8)
    partition = partition_blocks(prompt_len, block_size)
    start = partition.observation_window[0]
    rows = window_rows(weights, inputs, start)
    expected = oracle_window_rows(weights, inputs, start)
    assert len(rows) == len(expected) == 6
    for got, want in zip(rows, expected):
        assert [len(row) for row in got] == list(range(start + 1, prompt_len + 1))
        for row, want_row in zip(got, want):
            np.testing.assert_allclose(row, want_row, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            observation_scores(got, partition),
            oracle_block_scores(want, prompt_len, block_size),
            rtol=1e-6,
            atol=1e-9,
        )


def _trace_digest(trace):
    """sha256 over every step's event tuples, retained lists and the float64
    bytes of each recorded row, value and output: independent of any file
    format."""
    digest = hashlib.sha256()
    for record in trace.steps:
        events = [(e.step, e.layer, e.head, e.position, e.cursor) for e in record.events]
        digest.update(repr(events).encode())
        digest.update(repr(record.retained).encode())
        for grid in (record.rows, record.values, record.outputs):
            for cells in grid:
                for cell in cells:
                    digest.update(np.asarray(cell, dtype=np.float64).tobytes())
    return digest.hexdigest()


# Recorded from the per-(layer, head) stream loop the batched engine
# replaced; the batched engine must reproduce it bit for bit.
@pytest.mark.parametrize(
    "spec, zones, expected",
    [
        ("treekv", "sink=0,recent=0",
         "7f41f011540c5f6c5e09f5ac97bda80bf6e4f09c0ee92a91377ed7dc3f7ddb3a"),
        ("h2o", "sink=1,recent=2",
         "afc7abfe088ac26b1c88ffa4536c2cb6fd85631cbae4cb02143d246bbe37500d"),
    ],
    ids=["treekv", "h2o"],
)
def test_decode_is_bitwise_pinned(spec, zones, expected):
    weights = generate_weights(21, ModelDims(2, 2, 8, 4))
    inputs = synthesize_embeddings(22, 40, 8)
    trace = decode_with_policy(weights, inputs, spec, 8, zones, record_outputs=True)
    assert _trace_digest(trace) == expected
