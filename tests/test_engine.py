import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    POLICY_SPECS,
    DimensionError,
    InputError,
    ModelDims,
    StateError,
    StreamBatch,
    decode_with_policy,
    generate_weights,
    load_weights,
    observation_scores,
    partition_blocks,
    retained_at,
    rotate_vector,
    save_weights,
    synthesize_embeddings,
    synthesize_token_ids,
    window_rows,
)
from treekv.cli import main
from treekv.engine import _attend

from helpers import single_head_weights
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


def _expected_row(q, keys):
    """Softmax of the query against the keys, the query rotated at the last
    slot and each key at its own slot, computed with rotate_vector."""
    n, d_head = keys.shape
    keys_encoded = np.stack([rotate_vector(key, slot) for slot, key in enumerate(keys)])
    logits = keys_encoded @ rotate_vector(q, n - 1) / math.sqrt(d_head)
    expected = np.exp(logits - logits.max())
    return expected / expected.sum()


def test_project_zero_vector():
    weights = generate_weights(1, ModelDims(1, 1, 6, 3))
    batch = StreamBatch(weights, slots=2)
    batch.step(np.ones(6), 0)
    rows, outputs, values = batch.step(np.zeros(6), 1)
    assert not batch.keys[0, 1].any() and not values.any()
    assert rows.tolist() == [[0.5, 0.5]]  # a zero query weighs every key alike
    assert np.array_equal(outputs, batch.values[:, 0] / 2)


def test_project_identity_matrix():
    batch = StreamBatch(single_head_weights(np.eye(3)), slots=2)
    xs = np.array([[0.3, 0.1, -0.4], [0.5, -1.0, 2.0]])
    batch.step(xs[0], 0)
    rows, _, values = batch.step(xs[1], 1)
    assert np.array_equal(batch.keys[0, :2], xs)
    assert np.array_equal(values[0], xs[1])
    assert np.allclose(rows[0], _expected_row(xs[1], xs), atol=1e-12)  # q = x


def test_project_hand_example():
    batch = StreamBatch(single_head_weights([[0.5, 0.25], [0.5, 0.75]]), slots=1)
    _, _, values = batch.step(np.array([1.0, 1.0]), 0)
    assert np.allclose(values[0], [1.0, 1.0], atol=1e-12)
    assert np.allclose(batch.keys[0, 0], [1.0, 1.0], atol=1e-12)


def test_project_length_mismatch():
    weights = generate_weights(1, ModelDims(1, 1, 6, 3))
    with pytest.raises(DimensionError):
        decode_with_policy(weights, np.zeros((3, 5)), "treekv", 4)
    with pytest.raises(DimensionError):
        decode_with_policy(weights, np.zeros(6), "treekv", 4)


# --- attend ----------------------------------------------------------------


def _attend_one(q, keys, values):
    rows, outputs = _attend(
        np.asarray(q, dtype=np.float64)[None],
        np.asarray(keys, dtype=np.float64)[None],
        np.asarray(values, dtype=np.float64)[None],
    )
    return rows[0], outputs[0]


def test_attend_single_slot():
    row, out = _attend_one([0.2, 0.7], [[1.0, 0.0]], [[3.0, 4.0]])
    assert row.tolist() == [1.0]
    assert out.tolist() == [3.0, 4.0]


def test_attend_identical_keys_split_evenly():
    row, out = _attend_one([0.3, -0.2], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(row, [0.5, 0.5], atol=1e-12)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_attend_two_slot_softmax_example():
    row, _ = _attend_one([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    # logits are [1/sqrt(2), 0]; direct scalar softmax as the oracle
    z = 1.0 / math.sqrt(2.0)
    denominator = math.exp(z) + 1.0
    assert np.allclose(row, [math.exp(z) / denominator, 1.0 / denominator], atol=1e-12)
    assert np.allclose(row, [0.6698, 0.3302], atol=1e-4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_attention_rows_are_stochastic(slots, d_head, seed):
    rng = np.random.default_rng(seed)
    row, _ = _attend_one(
        rng.normal(size=d_head) * 5,
        rng.normal(size=(slots, d_head)),
        rng.normal(size=(slots, d_head)),
    )
    assert (row >= 0).all()
    assert abs(row.sum() - 1.0) < 1e-6


# --- append / evict ordering -----------------------------------------------


def _stepped(count, slots=None, seed=0, d_head=4):
    """A two-stream batch after ``count`` steps at positions 0..count-1."""
    weights = generate_weights(seed, ModelDims(1, 2, 6, d_head))
    batch = StreamBatch(weights, slots=count + 1 if slots is None else slots)
    xs = synthesize_embeddings(seed, count + 1, 6)
    for position in range(count):
        batch.step(xs[position], position)
    return batch, xs


def test_append_grows_and_preserves_order():
    batch, _ = _stepped(3)
    assert batch.n == 3
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 2]] * 2


def test_append_after_eviction_keeps_order():
    batch, xs = _stepped(4)
    batch.remove([2, 2])
    batch.step(xs[4], 4)
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 3, 4]] * 2


def test_append_rejects_wrong_vector_length(tmp_path):
    # Appended keys and values take their width from the weights, so the
    # only way in for a wrong-length vector is an input row: it is refused.
    tokens = tmp_path / "rows.json"
    tokens.write_text(json.dumps(np.zeros((4, 5)).tolist()))
    args = ["decode", "--policy", "full", "--layers", "1", "--heads", "1",
            "--d-model", "6", "--d-head", "4", "--tokens", str(tokens),
            "-o", str(tmp_path / "t.jsonl")]
    assert main(args) == 3
    assert not (tmp_path / "t.jsonl").exists()


def test_append_respects_capacity_headroom():
    batch, xs = _stepped(3, slots=3)  # capacity + 1 transient slots for c = 2
    with pytest.raises(StateError):
        batch.step(xs[3], 3)


# --- position re-assignment ------------------------------------------------


def _survivors_then_step(count, victims, seed=0):
    """Step ``count`` inputs, remove the given slot from every stream in
    turn, then step one more input at the next position."""
    batch, _ = _stepped(count, seed=seed)
    for victim in victims:
        batch.remove([victim, victim])
    x = synthesize_embeddings(seed + 1, 1, 6)[0]
    rows, _, _ = batch.step(x, count)
    return batch, rows, x


def test_apply_positions_worked_example():
    # Survivors {0,1,2,3,7,8,9} while decoding global token 10: keys are
    # encoded at 0..6 and the incoming query at 7, its own slot.
    batch, rows, x = _survivors_then_step(10, [4, 4, 4])
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 2, 3, 7, 8, 9, 10]] * 2
    for stream in range(2):
        keys = batch.keys[stream, : batch.n]
        for slot in range(batch.n):
            assert np.array_equal(batch.encoded[stream, slot], rotate_vector(keys[slot], slot))
        q = x @ batch.wq[stream]
        assert np.array_equal(rows[stream], _expected_row(q, keys))


def test_apply_positions_gap_invariance():
    # Encoding depends only on slot order, never on original positions.
    gapped, rows_gapped, x = _survivors_then_step(10, [4, 4, 4], seed=3)
    compact = StreamBatch(generate_weights(3, ModelDims(1, 2, 6, 4)), slots=8)
    xs = synthesize_embeddings(3, 11, 6)
    for slot, position in enumerate([0, 1, 2, 3, 7, 8, 9]):
        compact.step(xs[position], slot)
    rows_compact, _, _ = compact.step(x, 7)
    assert np.array_equal(gapped.encoded[:, :8], compact.encoded[:, :8])
    assert np.array_equal(rows_gapped, rows_compact)


def test_apply_positions_identity_without_evictions():
    batch, _ = _stepped(5)
    for stream in range(2):
        for slot, position in enumerate(batch.positions[stream, : batch.n]):
            assert np.array_equal(
                batch.encoded[stream, slot], rotate_vector(batch.keys[stream, slot], position)
            )


def test_apply_positions_never_mutates_stored_keys():
    batch, xs = _stepped(3, seed=9)
    raw = np.array([[x @ batch.wk[stream] for x in xs[:3]] for stream in range(2)])
    assert np.array_equal(batch.keys[:, :3], raw)
    batch.remove([1, 0])
    batch.step(xs[3], 3)
    assert np.array_equal(batch.keys[0, :2], raw[0, [0, 2]])
    assert np.array_equal(batch.keys[1, :2], raw[1, [1, 2]])


def test_rotation_at_position_zero_is_identity():
    vec = np.array([0.3, -1.2, 4.5, 0.0])
    assert np.array_equal(rotate_vector(vec, 0), vec)


def test_rotation_preserves_norm():
    vec = np.array([0.3, -1.2, 4.5, 2.0])
    for position in (1, 5, 33):
        assert abs(np.linalg.norm(rotate_vector(vec, position)) - np.linalg.norm(vec)) < 1e-12


# --- streams and synthetic inputs ------------------------------------------


def test_attention_stream_runs_and_orders_positions():
    # Every stream of the batch attends over all of its slots in position
    # order, bitwise as a lone stream projecting with its own matrices.
    weights = generate_weights(5, ModelDims(2, 2, 6, 4))
    batch = StreamBatch(weights, slots=8)
    keys, vals = [[] for _ in range(4)], [[] for _ in range(4)]
    xs = synthesize_embeddings(5, 4, 6)
    for position in range(4):
        rows, outputs, values = batch.step(xs[position], position)
        assert rows.shape == (4, position + 1)
        for stream in range(4):
            layer, head = divmod(stream, 2)
            row = rows[stream]
            assert abs(row.sum() - 1.0) < 1e-9
            keys[stream].append(xs[position] @ weights.wk[layer][head])
            vals[stream].append(xs[position] @ weights.wv[layer][head])
            expected = _expected_row(xs[position] @ weights.wq[layer][head], np.stack(keys[stream]))
            assert np.array_equal(row, expected)
            assert np.array_equal(values[stream], vals[stream][-1])
            assert np.array_equal(outputs[stream], expected @ np.stack(vals[stream]))
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
        assert trace.retained == expected[-1]["retained"]
        for record, want in zip(trace.steps, expected):
            events = [(e.layer, e.head, e.position, e.cursor) for e in record.events]
            assert events == want["events"], (spec, dims, capacity, zones, record.step)
            assert retained_at(trace, record.step) == want["retained"]
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
    """sha256 over every step's event tuples, retained lists (replayed from
    the events) and the float64 bytes of each recorded row, value and
    output: independent of any file format."""
    digest = hashlib.sha256()
    for record in trace.steps:
        events = [(e.step, e.layer, e.head, e.position, e.cursor) for e in record.events]
        digest.update(repr(events).encode())
        digest.update(repr(retained_at(trace, record.step)).encode())
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
