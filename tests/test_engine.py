import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    POLICY_SPECS,
    InputError,
    InvariantViolation,
    ModelDims,
    ModelWeights,
    StreamBatch,
    decode_with_policy,
    generate_weights,
    load_weights,
    make_policy,
    observation_scores,
    partition_blocks,
    retained_at,
    rotate_vector,
    save_weights,
    signals_at_step,
    synthesize_embeddings,
    window_mass,
)
from treekv.cli import main
from treekv.engine import (
    CHUNK_ROWS,
    STATISTICS,
    _attention_rows,
    _lanes,
    _rope,
    _rotate,
    project,
    stacked_weights,
    write_array,
)
from treekv.rng import _CHUNK, NormalStream

from helpers import (decision_margins, evicted_events, evictions, outputs_at,
                     single_head_weights)
from oracles import (
    _OracleStream,
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



def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _pairs_in_first_chunk(seed: int) -> int:
    """Accepted polar pairs among the oracle's first _CHUNK pairs of words."""
    oracle = _OracleStream(seed)
    v = [2.0 * oracle.uniform() - 1.0 for _ in range(2 * _CHUNK)]
    return sum(0.0 < v1 * v1 + v2 * v2 < 1.0 for v1, v2 in zip(v[0::2], v[1::2]))


@pytest.mark.parametrize("seed", [0, 2**64 - 1, *np.random.default_rng(10).integers(0, 2**63, 3)])
def test_normal_stream_is_bitwise_the_scalar_oracle(seed):
    # The vectorized stream against one-at-a-time draws: each call's values
    # and the draw after it match bit for bit, whatever the call sizes, the
    # spare carried between calls, or the chunk a call ends in.
    seed = int(seed)
    pairs = _pairs_in_first_chunk(seed)
    # A fresh stream's first chunk yields 2 * pairs variates.
    for calls in ([0, 1, 0, 1, 1], [3, 5, 7, 2], [2 * pairs - 1, 2 * pairs + 1], [2 * pairs],
                  [2 * pairs + 1, 2 * pairs - 2], [2 * pairs + 2], [1, 2 * pairs], [9001]):
        stream, oracle = NormalStream(seed), _OracleStream(seed)
        for count in calls:
            assert _bits(stream.normals(count)) == _bits([oracle.normal() for _ in range(count)])
            assert _bits(stream.normals(1)) == _bits([oracle.normal()])


def test_dimension_validation():
    with pytest.raises(InvariantViolation, match="layers must be an int in .*, got 0"):
        generate_weights(1, ModelDims(0, 1, 4, 2))
    with pytest.raises(InvariantViolation, match="d_model must be an int in .*, got 4294967296"):
        generate_weights(1, ModelDims(1, 1, 2**32, 2))


@pytest.mark.parametrize("shape", [(1, 1, 3, 1, 1), (2, 4, 3, 8, 4), (3, 2, 3, 5, 3)])
def test_model_weights_read_their_dims_from_the_matrices(shape):
    qkv = np.random.default_rng(11).normal(size=shape).astype(np.float32)
    weights = ModelWeights(5, qkv)
    layers, heads, _, d_model, d_head = shape
    assert weights.dims == ModelDims(layers, heads, d_model, d_head)
    assert weights.wq.shape == weights.wk.shape == weights.wv.shape == (
        layers, heads, d_model, d_head)


@pytest.mark.parametrize("shape", [(0, 1, 3, 4, 2), (1, 0, 3, 4, 2), (1, 1, 3, 0, 2),
                                   (1, 1, 3, 4, 0)])
def test_model_weights_refuse_an_empty_axis(shape):
    with pytest.raises(InvariantViolation, match="must be an int in"):
        ModelWeights(0, np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("dims", [ModelDims(1, 1, 1, 1), ModelDims(2, 3, 8, 5)])
def test_generated_and_loaded_weights_keep_their_dims(tmp_path, dims):
    weights = generate_weights(4, dims)
    path = tmp_path / "w.bin"
    save_weights(weights, str(path))
    loaded = load_weights(str(path))
    for model in (weights, loaded):
        assert model.dims == dims
        assert all(type(value) is int for value in vars(model.dims).values())
    assert loaded.qkv.tobytes() == weights.qkv.tobytes()


# --- weight file -----------------------------------------------------------


def test_weight_file_roundtrip_and_bit_identity(tmp_path):
    dims = ModelDims(2, 2, 8, 4)
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


def test_weight_file_layout_is_the_documented_order(tmp_path):
    # Each matrix at the offset the format names, checked against the
    # recurrence rather than against load_weights.
    dims = ModelDims(2, 2, 8, 4)
    path = tmp_path / "w.bin"
    save_weights(generate_weights(7, dims), str(path))
    blob = path.read_bytes()
    size = dims.d_model * dims.d_head
    for layer in range(dims.layers):
        for head in range(dims.heads):
            for kind in range(3):
                offset = 30 + 4 * size * (3 * (layer * dims.heads + head) + kind)
                stored = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
                entries = oracle_weight_entries(7, dims.heads, 8, 4, layer, head, kind, size)
                assert stored.tolist() == [float(np.float32(e)) for e in entries]


def test_write_array_writes_row_major_bytes_and_copies_only_to_convert(tmp_path):
    big = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
    path = tmp_path / "a.bin"
    for array, dtype in [(big, "<f8"), (big[::-1], "<f8"), (big.astype(">f8"), "<f8"),
                         (big.reshape(512, 256).T, "<f8"), (big, "<f4"), (big[:0], "<f8")]:
        with open(path, "wb") as fh:
            write_array(fh, array, dtype)
        assert path.read_bytes() == array.astype(dtype).tobytes()
    with open(os.devnull, "wb") as fh:
        tracemalloc.start()
        write_array(fh, big, "<f8")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < big.nbytes // 16  # no copy of the array


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


def _values(weights, xs):
    """Values (len(xs), S, d_head) of inputs xs (len(xs), d_model), each
    its own product, as ``signals_at_step`` projects them."""
    return project(np.asarray(xs, dtype=np.float64)[:, None, :], stacked_weights(weights.qkv)[2])


def test_project_zero_vector():
    weights = generate_weights(1, ModelDims(1, 1, 6, 3))
    batch = StreamBatch(weights, slots=2)
    xs = np.array([np.ones(6), np.zeros(6)])
    batch.step(xs[0])
    rows = batch.step(xs[1])
    values = _values(weights, xs)
    assert not batch.keys[0, 1].any() and not values[1].any()
    assert rows.tolist() == [[0.5, 0.5]]  # a zero query weighs every key alike
    trace = decode_with_policy(weights, xs, make_policy("full", 2))
    assert np.array_equal(outputs_at(trace, 2)[0], values[0] / 2)


def test_project_identity_matrix():
    weights = single_head_weights(np.eye(3))
    batch = StreamBatch(weights, slots=2)
    xs = np.array([[0.3, 0.1, -0.4], [0.5, -1.0, 2.0]])
    batch.step(xs[0])
    rows = batch.step(xs[1])
    assert np.array_equal(batch.keys[0, :2], xs)
    assert np.array_equal(_values(weights, xs)[1, 0], xs[1])
    assert np.allclose(rows[0], _expected_row(xs[1], xs), atol=1e-12)  # q = x


def test_project_hand_example():
    weights = single_head_weights([[0.5, 0.25], [0.5, 0.75]])
    batch = StreamBatch(weights, slots=1)
    batch.step(np.array([1.0, 1.0]))
    assert np.allclose(_values(weights, [[1.0, 1.0]])[0, 0], [1.0, 1.0], atol=1e-12)
    assert np.allclose(batch.keys[0, 0], [1.0, 1.0], atol=1e-12)


def test_project_length_mismatch():
    weights = generate_weights(1, ModelDims(1, 1, 6, 3))
    with pytest.raises(InvariantViolation, match=r"must have shape \(T, 6\), got \(3, 5\)"):
        decode_with_policy(weights, np.zeros((3, 5)), make_policy("treekv", 4))
    with pytest.raises(InvariantViolation, match=r"must have shape \(T, 6\), got \(6,\)"):
        decode_with_policy(weights, np.zeros(6), make_policy("treekv", 4))


# --- attend ----------------------------------------------------------------


def _attend_one(q, keys, values):
    """One stream's attention row of a query over encoded keys, and that
    row's sum over the values."""
    rows = _attention_rows(
        np.asarray(q, dtype=np.float64)[None], np.asarray(keys, dtype=np.float64)[None]
    )
    return rows[0], np.matmul(rows, np.asarray(values, dtype=np.float64))[0]


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


@pytest.mark.parametrize("keys", [[[math.nan], [0.0]], [[math.inf], [0.0]],
                                  [[-math.inf], [-math.inf]]],
                         ids=["nan-logit", "inf-logit", "all-minus-inf"])
def test_attention_rows_refuse_a_row_whose_sum_is_not_finite(keys):
    # Finite logits sum to [1, n] after the max shift; each of these rows
    # sums to NaN, and a single -inf logit among finite ones is only a zero.
    with pytest.raises(InputError, match="attention rows are not finite"):
        _attention_rows(np.ones((1, 1)), np.array([keys]))
    assert _attention_rows(np.ones((1, 1)), np.array([[[-math.inf], [0.0]]])).tolist() == [[0, 1]]


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


def _assert_encoded_at_slots(batch):
    """Every live key's encoding is bitwise its raw key rotated at its slot."""
    for stream in range(batch.streams):
        for slot in range(batch.n):
            want = rotate_vector(batch.keys[stream, slot], slot)
            assert batch.encoded[stream, slot].tobytes() == want.tobytes(), (stream, slot)


def _stepped(count, slots=None, seed=0, d_head=4):
    """A two-stream batch after ``count`` steps at positions 0..count-1."""
    weights = generate_weights(seed, ModelDims(1, 2, 6, d_head))
    batch = StreamBatch(weights, slots=count + 1 if slots is None else slots)
    xs = synthesize_embeddings(seed, count + 1, 6)
    for x in xs[:count]:
        batch.step(x)
    return batch, xs


def test_append_grows_and_preserves_order():
    batch, _ = _stepped(3)
    assert batch.n == 3
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 2]] * 2


def test_append_after_eviction_keeps_order():
    batch, xs = _stepped(4)
    batch.remove([2, 2])
    batch.step(xs[4])
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
    with pytest.raises(InvariantViolation, match="slots is full at 3"):
        batch.step(xs[3])


# "keyless" is a batch that keeps no statistics; it still holds keys and attends.
@pytest.mark.parametrize("reads", [STATISTICS, ()], ids=["attending", "keyless"])
def test_stepping_a_full_batch_without_evicting_is_refused(reads):
    weights = generate_weights(5, ModelDims(1, 2, 6, 4))
    batch = StreamBatch(weights, slots=3, reads=reads)
    stepped = batch.steps(synthesize_embeddings(5, 4, 6))
    for _ in range(3):
        next(stepped)
    with pytest.raises(InvariantViolation, match="slots is full at 3"):
        next(stepped)


def test_steps_refuse_an_input_that_misses_its_rotated_slot():
    # A chunk's queries and keys are rotated before its inputs are stored,
    # each at the slot its input will take if only a full batch is evicted
    # between inputs; two removals move the next input off that slot.
    weights = generate_weights(5, ModelDims(1, 2, 6, 4))
    batch = StreamBatch(weights, slots=6)
    stepped = batch.steps(synthesize_embeddings(5, 6, 6))
    for _ in range(4):
        next(stepped)
    batch.remove([1, 1])
    batch.remove([0, 2])
    with pytest.raises(InvariantViolation, match="stored at slot 2 was rotated at slot 4"):
        next(stepped)


def _recorded_chunks(monkeypatch, module):
    """A list that collects the row count of every input chunk ``module``
    projects from now on, the failing chunk included."""
    chunks = []

    def recording_project(x, matrices):
        chunks.append(len(x))
        return project(x, matrices)

    monkeypatch.setattr(f"{module}.project", recording_project)
    return chunks


CHUNK_COUNTS = [1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3]


@pytest.mark.parametrize("count", CHUNK_COUNTS)
@pytest.mark.parametrize("reads", [STATISTICS], ids=["attending"])
def test_steps_project_every_input_a_chunk_at_a_time(count, reads, monkeypatch):
    # A chunk of inputs is projected in one call, holding at most one chunk
    # of keys, never all T; a key past float64 fails when its chunk is
    # projected.
    xs = synthesize_embeddings(7, count, 6)
    weights = generate_weights(7, ModelDims(1, 2, 6, 4))
    chunks = _recorded_chunks(monkeypatch, "treekv.engine")
    batch = StreamBatch(weights, slots=count, reads=reads)
    assert [rows.shape for rows in batch.steps(xs)] == [(2, n) for n in range(1, count + 1)]
    assert sum(chunks) == count and max(chunks) <= CHUNK_ROWS
    assert batch.n == count
    for row in (0, count - 1):  # the first and the last chunk
        bad = xs.copy()
        bad[row] = 1.7e308
        batch = StreamBatch(weights, slots=count, reads=reads)
        with pytest.raises(InputError, match="projections are not finite"):
            for _ in batch.steps(bad):
                pass
        assert batch.n == row - row % CHUNK_ROWS  # every earlier chunk was stepped


@pytest.mark.parametrize("count", CHUNK_COUNTS)
@pytest.mark.parametrize("spec", ["streaming", "full"])
def test_a_policy_that_reads_nothing_checks_every_key_a_chunk_at_a_time(count, spec,
                                                                       monkeypatch):
    # Such a decode builds no batch but still projects every input's key,
    # one chunk per call, only to check it, and a key past float64 fails
    # when its chunk is projected, after every earlier chunk was.
    xs = synthesize_embeddings(7, count, 6)
    weights = generate_weights(7, ModelDims(1, 2, 6, 4))
    chunks = _recorded_chunks(monkeypatch, "treekv.policies")
    trace = decode_with_policy(weights, xs, make_policy(spec, 4))
    assert sum(chunks) == count and max(chunks) <= CHUNK_ROWS
    assert trace.retained.shape == (1, 2, count if spec == "full" else min(count, 4))
    for row in (0, count - 1):  # the first and the last chunk
        bad = xs.copy()
        bad[row] = 1.7e308
        chunks.clear()
        with pytest.raises(InputError, match="projections are not finite"):
            decode_with_policy(weights, bad, make_policy(spec, 4))
        assert sum(chunks[:-1]) == row - row % CHUNK_ROWS  # every earlier chunk was checked
        assert chunks[-1] == min(CHUNK_ROWS, count - row + row % CHUNK_ROWS)


@pytest.mark.parametrize("dims", [ModelDims(2, 3, 8, 5), ModelDims(1, 2, 7, 3)])
@pytest.mark.parametrize("m", [0, 1, 6])
def test_append_then_step_is_bitwise_stepping_one_by_one(dims, m):
    weights = generate_weights(31, dims)
    xs = synthesize_embeddings(32, m + 1, dims.d_model)
    bulk, single = StreamBatch(weights, m + 1), StreamBatch(weights, m + 1)
    bulk.append(xs[:m, None])
    assert bulk.n == m
    _assert_encoded_at_slots(bulk)
    assert not bulk.scores[:, :m].any() and not bulk.counts[:, :m].any()
    for x in xs[:m]:
        single.step(x)
    got, want = bulk.step(xs[m]), single.step(xs[m])
    # the batch counts its inputs: the i-th one appended has position i
    assert (bulk.positions[:, : m + 1] == np.arange(m + 1)).all()
    for name in ("keys", "positions"):
        assert getattr(bulk, name).tobytes() == getattr(single, name).tobytes(), name
    assert got.tobytes() == want.tobytes()
    values, every = _values(weights, xs), np.arange(bulk.streams)[:, None]
    held = [values[batch.positions[:, : m + 1], every] for batch in (bulk, single)]
    sums = [np.matmul(row[:, None, :], stream)[:, 0, :] for row, stream in zip((got, want), held)]
    assert sums[0].tobytes() == sums[1].tobytes()
    assert bulk.scores.tobytes() == got.tobytes()  # only this step's row
    assert (bulk.counts == 1).all()
    with pytest.raises(InvariantViolation, match=f"slots is full at {m + 1}"):
        bulk.append(xs[:1, None])
    assert bulk.n == m + 1


@pytest.mark.parametrize("m", [0, 1, 6])
def test_per_stream_append_is_bitwise_each_stream_alone(m):
    # A 2x3 batch given each stream's own m inputs, then one shared input,
    # against a 1x1 batch of each stream's matrices given that stream's.
    dims = ModelDims(2, 3, 8, 5)
    weights = generate_weights(33, dims)
    xs = synthesize_embeddings(34, m * 6 + 1, dims.d_model)
    own = xs[:-1].reshape(m, 6, dims.d_model)  # (m, S, d_model): no two streams alike
    batch = StreamBatch(weights, m + 1)
    batch.append(own)
    assert batch.n == m
    _assert_encoded_at_slots(batch)
    rows = batch.step(xs[-1])
    for stream in range(batch.streams):
        layer, head = divmod(stream, dims.heads)
        qkv = weights.qkv[layer : layer + 1, head : head + 1]
        alone = StreamBatch(ModelWeights(weights.seed, qkv), m + 1)
        alone.append(own[:, stream, None])
        want = alone.step(xs[-1])
        assert rows[stream].tobytes() == want[0].tobytes(), stream
        for name in ("keys", "encoded", "positions"):
            got = getattr(batch, name)[stream, : m + 1]
            assert got.tobytes() == getattr(alone, name)[0, : m + 1].tobytes(), (name, stream)


def test_the_rotary_table_spreads_over_the_streams_at_the_first_eviction():
    # A batch that never evicts (prefill's) keeps one row per slot; the
    # first eviction spreads it over the streams for block re-encoding.
    batch, xs = _stepped(6, slots=6)
    assert batch.rope.shape == (2, 6, 1, 4)
    assert batch.keys.shape == batch.encoded.shape == (2, 6, 4)
    assert batch.encoded.base is batch.keys.base  # one slot-major array
    batch.remove([3, 1])
    assert batch.rope.shape == (2, 6, 2, 4)
    assert (batch.rope == batch.rope[:, :, :1]).all()
    batch.step(xs[6])
    _assert_encoded_at_slots(batch)


# --- position re-assignment ------------------------------------------------


def _survivors_then_step(count, victims, seed=0):
    """Step ``count`` inputs, remove the given slot from every stream in
    turn, then step one more input at the next position."""
    batch, _ = _stepped(count, seed=seed)
    for victim in victims:
        batch.remove([victim, victim])
    x = synthesize_embeddings(seed + 1, 1, 6)[0]
    rows = batch.step(x)
    return batch, rows, x


def test_keys_are_encoded_at_their_slots_worked_example():
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


def test_keys_are_encoded_at_their_slots_gap_invariance():
    # Encoding depends only on slot order, never on original positions.
    gapped, rows_gapped, x = _survivors_then_step(10, [4, 4, 4], seed=3)
    compact = StreamBatch(generate_weights(3, ModelDims(1, 2, 6, 4)), slots=8)
    xs = synthesize_embeddings(3, 11, 6)
    for position in [0, 1, 2, 3, 7, 8, 9]:
        compact.step(xs[position])
    rows_compact = compact.step(x)
    assert np.array_equal(gapped.encoded[:, :8], compact.encoded[:, :8])
    assert np.array_equal(rows_gapped, rows_compact)


def test_keys_are_encoded_at_their_slots_identity_without_evictions():
    batch, _ = _stepped(5)
    for stream in range(2):
        for slot, position in enumerate(batch.positions[stream, : batch.n]):
            assert np.array_equal(
                batch.encoded[stream, slot], rotate_vector(batch.keys[stream, slot], position)
            )


def test_keys_are_encoded_at_their_slots_never_mutates_stored_keys():
    batch, xs = _stepped(3, seed=9)
    raw = np.array([[x @ batch.wk[stream] for x in xs[:3]] for stream in range(2)])
    assert np.array_equal(batch.keys[:, :3], raw)
    batch.remove([1, 0])
    batch.step(xs[3])
    assert np.array_equal(batch.keys[0, :2], raw[0, [0, 2]])
    assert np.array_equal(batch.keys[1, :2], raw[1, [1, 2]])


def test_rotation_at_position_zero_is_identity():
    vec = np.array([0.3, -1.2, 4.5, 0.0])
    assert np.array_equal(rotate_vector(vec, 0), vec)


def test_rotation_preserves_norm():
    vec = np.array([0.3, -1.2, 4.5, 2.0])
    for position in (1, 5, 33):
        assert abs(np.linalg.norm(rotate_vector(vec, position)) - np.linalg.norm(vec)) < 1e-12


@pytest.mark.parametrize("d_head", [1, 4, 16, 17])
def test_rotary_row_does_not_depend_on_the_positions_computed_with_it(d_head):
    # A batch builds a row per slot, slot_rows n rows and rotate_vector one:
    # all three must rotate a position bitwise alike.
    tables = {n: _rope(d_head, np.arange(n)) for n in (1, 2, 64, 129, 4097)}
    for n, (cos, sin) in tables.items():
        assert cos.shape == sin.shape == (n, d_head // 2)
        assert np.array_equal(cos, tables[4097][0][:n])
        assert np.array_equal(sin, tables[4097][1][:n])
    for position in (0, 1, 2, 63, 64, 127, 128, 1000, 4096):
        cos, sin = _rope(d_head, [position])
        assert np.array_equal(cos[0], tables[4097][0][position])
        assert np.array_equal(sin[0], tables[4097][1][position])


def _pair_rotation(mat, cos, sin):
    """The rotation by lane pairs, from narrow tables (..., d // 2):
    (e, o) -> (e * c - o * s, e * s + o * c), an odd tail lane unchanged."""
    out = mat.copy()
    half = cos.shape[-1]
    even, odd = mat[..., 0 : 2 * half : 2], mat[..., 1 : 2 * half : 2]
    out[..., 0 : 2 * half : 2] = even * cos - odd * sin
    out[..., 1 : 2 * half : 2] = even * sin + odd * cos
    return out


@pytest.mark.parametrize("d_head", [1, 2, 5, 16, 17])
def test_full_width_rotation_is_bitwise_the_pair_formula(d_head):
    # Signed zeros and magnitudes from 1e-300 to 1e150, at slot positions
    # and far ones; slot-major blocks (m, S, d) as the batch re-encodes them,
    # with tables broadcast over the streams and expanded to them.
    rng = np.random.default_rng(d_head)
    positions = np.concatenate([np.arange(300), [1000, 4096, 10**6]])
    m, streams = len(positions), 3
    mat = rng.choice([-1.0, 1.0], size=(m, streams, d_head)) * 10.0 ** rng.uniform(
        -300, 150, size=(m, streams, d_head))
    mat[rng.random(mat.shape) < 0.1] = 0.0
    mat[rng.random(mat.shape) < 0.1] = -0.0
    cos, sin = _rope(d_head, positions)
    want = _pair_rotation(mat, cos[:, None], sin[:, None])
    tables = _lanes(d_head, positions)[:, :, None]
    expanded = np.repeat(tables, streams, axis=2)
    for full in (tables, expanded):
        out = np.full_like(mat, np.nan)
        assert _rotate(mat, *full, out=out) is out
        assert out.tobytes() == want.tobytes()
    for position, rows in zip(positions[::37], mat[::37]):
        cos, sin = _rope(d_head, [position])
        for vec in rows:
            want = _pair_rotation(vec, cos[0], sin[0])
            assert rotate_vector(vec, position).tobytes() == want.tobytes()


# --- streams and synthetic inputs ------------------------------------------


def test_attention_stream_runs_and_orders_positions():
    # Every stream of the batch attends over all of its slots in position
    # order, bitwise as a lone stream projecting with its own matrices.
    weights = generate_weights(5, ModelDims(2, 2, 6, 4))
    batch = StreamBatch(weights, slots=8)
    keys, vals = [[] for _ in range(4)], [[] for _ in range(4)]
    xs = synthesize_embeddings(5, 4, 6)
    values = _values(weights, xs)
    trace = decode_with_policy(weights, xs, make_policy("full", 8))
    for position in range(4):
        rows = batch.step(xs[position])
        outputs = outputs_at(trace, position + 1).reshape(4, -1)
        assert rows.shape == (4, position + 1)
        for stream in range(4):
            layer, head = divmod(stream, 2)
            row = rows[stream]
            assert abs(row.sum() - 1.0) < 1e-9
            keys[stream].append(xs[position] @ weights.wk[layer][head])
            vals[stream].append(xs[position] @ weights.wv[layer][head])
            expected = _expected_row(xs[position] @ weights.wq[layer][head], np.stack(keys[stream]))
            assert np.array_equal(row, expected)
            assert np.array_equal(values[position, stream], vals[stream][-1])
            assert np.array_equal(outputs[stream], expected @ np.stack(vals[stream]))
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 2, 3]] * 4


def test_stream_batch_remove_shifts_each_stream_past_its_victim():
    weights = generate_weights(5, ModelDims(1, 3, 6, 4))
    batch = StreamBatch(weights, slots=5)
    for x in synthesize_embeddings(5, 5, 6):
        batch.step(x)
    keys, scores = batch.keys.copy(), batch.scores.copy()
    assert batch.remove([0, 2, 4]).tolist() == [0, 2, 4]
    assert batch.n == 4
    assert batch.positions[:, :4].tolist() == [[1, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 3]]
    for stream, kept in enumerate([[1, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 3]]):
        assert np.array_equal(batch.keys[stream, :4], keys[stream, kept])
        assert np.array_equal(batch.scores[stream, :4], scores[stream, kept])
    with pytest.raises(InvariantViolation, match=r"victims \[0, 4, 1\] are not one slot"):
        batch.remove([0, 4, 1])  # slot 4 is gone
    with pytest.raises(InvariantViolation, match=r"victims \[0, 1\] are not one slot"):
        batch.remove([0, 1])  # one victim per stream



@pytest.mark.parametrize("pattern", ["equal", "adjacent", "spread", "ends"])
def test_stream_batch_remove_matches_a_per_stream_delete(pattern):
    # Seeded victim vectors against np.delete on each stream's slots.
    weights = generate_weights(8, ModelDims(2, 4, 6, 4))
    batch = StreamBatch(weights, slots=16)
    xs = iter(synthesize_embeddings(8, 200, 6))
    rng = np.random.default_rng(["equal", "adjacent", "spread", "ends"].index(pattern))
    names = ("keys", "positions", "scores", "counts")
    for _ in range(120):
        batch.step(next(xs))
        n = batch.n
        if n < 3 or (n < 16 and rng.random() < 0.5):
            continue
        if pattern == "equal":
            victims = np.full(8, rng.integers(0, n))
        elif pattern == "adjacent":
            victims = rng.integers(0, n - 1) + rng.integers(0, 2, size=8)
        else:
            victims = rng.integers(0, n, size=8)
            if pattern == "ends":
                victims[rng.permutation(8)[:2]] = 0, n - 1
        before = {name: getattr(batch, name)[:, :n].copy() for name in names}
        evicted = batch.remove(victims)
        assert evicted.tolist() == before["positions"][np.arange(8), victims].tolist()
        assert batch.n == n - 1
        _assert_encoded_at_slots(batch)
        for name in names:
            expected = [np.delete(before[name][s], victims[s], axis=0) for s in range(8)]
            assert getattr(batch, name)[:, : n - 1].tobytes() == np.stack(expected).tobytes()


REMOVALS = {
    "two-in-a-row": [[3, 1], [0, 4]],  # no step between them
    "last-slots": [[5, 5]],  # nothing moves, so nothing is encoded again
    "last-then-first": [[5, 5], [0, 0]],
}


@pytest.mark.parametrize("case", REMOVALS)
def test_every_key_stays_encoded_at_its_slot_across_removals_and_appends(case):
    # Removals with no step after them, then an append after an eviction
    # (the table spread over the streams), then a step: each call leaves
    # every live key encoded at its own slot.
    batch, xs = _stepped(6, slots=8)
    for victims in REMOVALS[case]:
        keys = batch.keys[:, : batch.n].copy()
        batch.remove(victims)
        for stream, victim in enumerate(victims):
            want = np.delete(keys[stream], victim, axis=0)
            assert batch.keys[stream, : batch.n].tobytes() == want.tobytes()
        _assert_encoded_at_slots(batch)
    assert batch.rope.shape == (2, 8, 2, 4)
    n = batch.n
    batch.append(xs[6:7, None])
    assert batch.n == n + 1
    _assert_encoded_at_slots(batch)
    rows = batch.step(synthesize_embeddings(1, 1, 6)[0])
    _assert_encoded_at_slots(batch)
    assert rows.shape == (2, n + 2)


def test_synthesize_streams_are_deterministic():
    assert np.array_equal(synthesize_embeddings(3, 5, 4), synthesize_embeddings(3, 5, 4))


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
            weights, inputs, make_policy(spec, capacity, "sink={},recent={}".format(*zones)))
        expected = oracle_decode(weights, inputs, spec, capacity, zones)
        assert trace.seq_len == len(expected)
        assert trace.retained.tolist() == expected[-1]["retained"]
        for step, (events, want) in enumerate(zip(evicted_events(trace), expected), 1):
            assert events == want["events"], (spec, dims, capacity, zones, step)
            assert retained_at(trace, step).tolist() == want["retained"]
            if events:
                evicting.add(spec)
            rows, values = signals_at_step(trace, step)
            # the last slot holds the step's own input, position step - 1
            got = {"rows": rows, "values": values[..., -1, :],
                   "outputs": outputs_at(trace, step)}
            for key in ("rows", "values", "outputs"):
                for layer in range(dims.layers):
                    for head in range(dims.heads):
                        np.testing.assert_allclose(
                            got[key][layer][head],
                            want[key][layer][head],
                            rtol=1e-6,
                            atol=1e-9,
                        )
    assert evicting == set(POLICY_SPECS) - {"full"}


# Capacities whose batch fills inside a chunk (5, 45) and at either side of a
# chunk boundary (31, 32), at lengths on and around the boundaries.
@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_decode_matches_naive_oracle_across_chunk_boundaries(spec):
    dims = ModelDims(1, 2, 6, 4)
    weights = generate_weights(40, dims)
    inputs = synthesize_embeddings(41, 67, dims.d_model)
    for capacity in (5, 31, 32, 45):
        for zones in ((0, 0), (1, 2)):
            expected = oracle_decode(weights, inputs, spec, capacity, zones)
            for seq_len in (1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 67):
                policy = make_policy(spec, capacity, "sink={},recent={}".format(*zones))
                trace = decode_with_policy(weights, inputs[:seq_len], policy)
                pairs = zip(evicted_events(trace), expected[:seq_len], strict=True)
                for step, (events, want) in enumerate(pairs, 1):
                    assert events == want["events"], (capacity, zones, step)
                    assert retained_at(trace, step).tolist() == want["retained"]
                assert trace.retained.tolist() == expected[seq_len - 1]["retained"]


# (4, 120, 40): an observation window of 40 inputs, longer than one chunk
@pytest.mark.parametrize("d_head, prompt_len, block_size", [(4, 37, 8), (3, 24, 6),
                                                            (4, 120, 40)])
def test_window_rows_and_block_scores_match_naive_oracle(d_head, prompt_len, block_size):
    weights = generate_weights(8, ModelDims(2, 3, 8, d_head))
    inputs = synthesize_embeddings(9, prompt_len, 8)
    partition = partition_blocks(prompt_len, block_size)
    expected = oracle_window_rows(weights, inputs, partition.observation_window[0])
    mass = window_mass(weights, inputs, partition)
    assert mass.shape == (6, prompt_len)
    for got, want in zip(mass, expected):
        # each token's mass sums the window rows that reach it
        want_mass = [sum(row[t] for row in want if t < len(row)) for t in range(prompt_len)]
        np.testing.assert_allclose(got, want_mass, rtol=1e-6, atol=1e-9)
    scores = observation_scores(mass, partition)
    for got, want in zip(scores, expected):
        np.testing.assert_allclose(
            got, oracle_block_scores(want, prompt_len, block_size), rtol=1e-6, atol=1e-9
        )


@pytest.mark.parametrize("rows", [0, 10, 15, 17, 32])
def test_window_mass_refuses_inputs_of_another_length(rows):
    # Fewer rows than the prompt would leave window keys unstored (10 rows
    # read as all-zero mass), more would overflow the batch (32 rows).
    weights = generate_weights(8, ModelDims(2, 4, 8, 4))
    with pytest.raises(InvariantViolation, match=r"not \(16, d_model\)"):
        window_mass(weights, synthesize_embeddings(9, rows, 8), partition_blocks(16, 4))


def _trace_digest(trace):
    """sha256 over every step's eviction tuples, retained lists (replayed
    from the evictions) and the float64 bytes of each attention row, value
    and output (all derived from the recorded inputs and weights):
    independent of any file format."""
    digest = hashlib.sha256()
    for step, events in enumerate(evicted_events(trace), 1):
        digest.update(repr([(step, *event) for event in events]).encode())
        digest.update(repr(retained_at(trace, step).tolist()).encode())
        rows, values = signals_at_step(trace, step)
        for grid in (rows, values[..., -1, :], outputs_at(trace, step)):
            for cells in grid:
                for cell in cells:
                    digest.update(np.asarray(cell, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _events_digest(trace):
    """sha256 over the event stream alone: each evicting step's number,
    evicted grid and tree cursor.  It moves only when a decision does, so a
    moved ``_trace_digest`` beside an unmoved one reads as a float-level
    change."""
    digest = hashlib.sha256()
    for step, grid, cursor in evictions(trace):
        digest.update(repr((step, grid.tolist(), cursor)).encode())
    return digest.hexdigest()


# Recorded from the per-(layer, head) stream loop the batched engine
# replaced; the batched engine must reproduce it bit for bit.  The event
# digests were recorded later, from the stream-major engine.
@pytest.mark.parametrize(
    "spec, zones, expected, events",
    [
        ("treekv", "sink=0,recent=0",
         "7f41f011540c5f6c5e09f5ac97bda80bf6e4f09c0ee92a91377ed7dc3f7ddb3a",
         "6864d3b6e0c7bca85d0d7d36b8fb31cd0f9256b7d004bc76f9379ea427d73172"),
        ("h2o", "sink=1,recent=2",
         "afc7abfe088ac26b1c88ffa4536c2cb6fd85631cbae4cb02143d246bbe37500d",
         "59aed12aaa427f3b1fc6181a612e28c4cd75bbbad0c8598e70320869694fce77"),
        # recorded from the engine that attended every step of every policy
        ("streaming", "sink=1,recent=2",
         "596e293d49c948de2b87ef7091de7076ee874cf9fd8bfe60ad035c4e02d8557f",
         "fe6e7f872f9b69b09b1e2d7f60e1a56d27d9927d116caf7aae7e6776e12a6bbd"),
        ("treekv-left", "sink=1,recent=2",
         "250858fcee0d67cdb65e78d58f841fcdf57bcac24b7145b3a05c64e810ff37bf",
         "5487bfa709a00c1c74c4557b2b002013edbb72476ebc4cc3b073e3eb4ec574cc"),
        ("tova", "sink=0,recent=0",
         "cd0d16dc988882cbf2a938ba035cf5399b53b1f72078e56290c69194c360f9bc",
         "e4ab251a390ede8d7f392714be123ff800f7c460683f14ed1c35c3f2331a4610"),
        # full evicts nothing: the digest of no bytes
        ("full", "sink=0,recent=0",
         "220b3c0636d8fa6d7b1e9a6f98449132d90de2149a50e103691fb889ab412bf0",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ],
    ids=["treekv", "h2o", "streaming", "treekv-left", "tova", "full"],
)
def test_decode_is_bitwise_pinned(spec, zones, expected, events):
    weights = generate_weights(21, ModelDims(2, 2, 8, 4))
    inputs = synthesize_embeddings(22, 40, 8)
    trace = decode_with_policy(weights, inputs, make_policy(spec, 8, zones))
    assert _events_digest(trace) == events
    assert _trace_digest(trace) == expected


@pytest.mark.parametrize("spec, zones", [("treekv", "sink=0,recent=0"),
                                         ("h2o", "sink=1,recent=2"),
                                         ("tova", "sink=0,recent=0")])
def test_no_pinned_decision_is_a_near_tie(spec, zones):
    # Every eviction of the attending pinned runs above separates its two
    # candidates by a relative margin far above float noise (the smallest
    # are about 9.5e-3 under treekv, 0.31 under h2o and 5.3e-4 under tova),
    # so an event digest that moves there marks a defect, not a tie broken
    # the other way by rounding.
    weights = generate_weights(21, ModelDims(2, 2, 8, 4))
    inputs = synthesize_embeddings(22, 40, 8)
    margins = decision_margins(weights, inputs, spec, 8, zones)
    assert margins.shape == (32, 4)
    assert (margins > 1e-9).all(), margins.min()


def test_no_seeded_corpus_decision_is_a_near_tie():
    # The oracle corpus's attending runs clear float noise by far as well:
    # its 881 stream decisions with two or more candidates have margins of
    # at least 2.0e-3 (treekv), 1.7e-2 (h2o) and 1.5e-3 (tova); the six
    # runs with one evictable slot cannot tie.
    for spec, dims, capacity, seq_len, zones, seed in _decode_corpus():
        if spec in ("treekv", "h2o", "tova"):
            weights = generate_weights(seed, dims)
            inputs = synthesize_embeddings(seed + 1, seq_len, dims.d_model)
            margins = decision_margins(weights, inputs, spec, capacity,
                                       "sink={},recent={}".format(*zones))
            assert (margins > 1e-9).all(), (spec, dims, capacity, zones, margins.min())


@pytest.mark.parametrize("spec", ["treekv", "h2o", "tova"])
def test_no_chunk_boundary_decision_is_a_near_tie(spec):
    # The runs of test_decode_matches_naive_oracle_across_chunk_boundaries
    # at their full length, whose decisions every shorter run repeats: the
    # smallest margins are about 5.7e-4 (treekv), 8.0e-3 (h2o) and 4.1e-4
    # (tova).
    weights = generate_weights(40, ModelDims(1, 2, 6, 4))
    inputs = synthesize_embeddings(41, 67, 6)
    for capacity in (5, 31, 32, 45):
        for zones in ("sink=0,recent=0", "sink=1,recent=2"):
            margins = decision_margins(weights, inputs, spec, capacity, zones)
            assert (margins > 1e-9).all(), (capacity, zones, margins.min())
