"""Deterministic multi-head attention micro-engine with an evictable KV cache.

The engine runs one independent attention stream per (layer, head) pair.
Each stream projects incoming d_model vectors to d_head queries, keys and
values, appends the key/value pair to an explicit cache, and computes
softmax attention scaled by sqrt(d_head).  There are no feed-forward or
normalization layers, and every (layer, head) stream reads the same
embedded input sequence: eviction behaviour depends only on attention, and
the reduced surface keeps reference computations exact.  The optional
embedding table and output projection exist solely so end-to-end smoke
runs can produce logits.

Position handling follows the re-assignment convention of sliding-window
decoders: a rotary-style phase rotation is keyed by the slot index a key
currently occupies in the cache, not by the token's original position, and
it is applied at attention time (``rotate_vector`` is its definition).
Stored keys stay raw; evicting a slot shifts the survivors left, and the
next step sees contiguous encoding positions 0..n-1.

``StreamBatch`` is the only stream state: it holds every stream's keys,
values, positions and importance statistics as stacked arrays and steps
them together, with each stream's floating-point operations exactly those
of a lone stream (the per-stream definition the tests compare against
lives in ``tests/oracles.py``).  ``window_rows`` does the same for prompt
prefill over an unbounded cache.

Weight file format (version 1)
------------------------------
Little-endian throughout::

    magic   4 bytes  "TKVW"
    version u16      1
    layers  u32
    heads   u32
    d_model u32
    d_head  u32
    vocab   u32
    seed    u64

followed by matrices as row-major 32-bit floats:

* for each layer, for each head: W_Q, W_K, W_V, each (d_model, d_head);
* if vocab > 0: the embedding table (vocab, d_model) and the output
  projection (layers * heads * d_head, vocab).

Matrix entries are normal variates from ``treekv.rng`` drawn row-major from
the substream ``stream_seed(seed, tag)``.  Tags: W_Q/W_K/W_V of (layer,
head) use ``16 + 3 * (layer * heads + head) + kind`` with kind 0/1/2 for
Q/K/V; the embedding table uses tag 1; the output projection uses tag 2.
Scales: 1/sqrt(d_model) for the projection matrices, 1.0 for the embedding
table, 1/sqrt(layers * heads * d_head) for the output projection.
Synthetic input streams (tags 3 and 4) use the same recurrence, so a single
seed makes a whole experiment reproducible.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InputError, StateError
from .rng import NormalStream, stream_seed

_MAGIC = b"TKVW"
_FORMAT_VERSION = 1

# Substream tags; documented in the module docstring.
_TAG_EMBEDDING = 1
_TAG_OUTPUT_PROJ = 2
TAG_TOKEN_STREAM = 3
TAG_EMBED_STREAM = 4
_TAG_MATRIX_BASE = 16

ROPE_BASE = 10000.0


@dataclass(frozen=True)
class ModelDims:
    layers: int
    heads: int
    d_model: int
    d_head: int
    vocab: int = 0

    def validate(self, error: type[Exception] = DimensionError, context: str = "") -> None:
        """Raise ``error``, its message prefixed by ``context``, on a bad dim."""
        for name in ("layers", "heads", "d_model", "d_head", "vocab"):
            value = getattr(self, name)
            low = 0 if name == "vocab" else 1
            integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integral or not low <= value < 2**32:
                raise error(f"{context}{name} must be an int in [{low}, 2**32), got {value!r}")

    @property
    def feature_dim(self) -> int:
        """Length of the concatenated per-stream outputs fed to the logit head."""
        return self.layers * self.heads * self.d_head


class ModelWeights:
    """Per-(layer, head) projection matrices plus the optional logit head.

    Matrices are stored as float32 exactly as written to disk; arithmetic
    promotes to float64 at use time.  Instances are read-only after
    construction and safe to share across threads.
    """

    def __init__(
        self,
        dims: ModelDims,
        seed: int,
        wq: list[list[np.ndarray]],
        wk: list[list[np.ndarray]],
        wv: list[list[np.ndarray]],
        embedding: np.ndarray | None = None,
        output_proj: np.ndarray | None = None,
    ):
        self.dims = dims
        self.seed = seed
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.embedding = embedding
        self.output_proj = output_proj

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Logit row for one step from the concatenated stream outputs."""
        if self.output_proj is None:
            raise StateError("model has no output projection (vocab = 0)")
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (self.dims.feature_dim,):
            raise DimensionError(
                f"expected {self.dims.feature_dim} features, got {features.shape}"
            )
        return features @ self.output_proj


def _matrix_tag(dims: ModelDims, layer: int, head: int, kind: int) -> int:
    return _TAG_MATRIX_BASE + 3 * (layer * dims.heads + head) + kind


def _draw_matrix(seed: int, tag: int, rows: int, cols: int, scale: float) -> np.ndarray:
    stream = NormalStream(stream_seed(seed, tag))
    flat = np.array(stream.normals(rows * cols), dtype=np.float64) * scale
    return flat.reshape(rows, cols).astype(np.float32)


def generate_weights(seed: int, dims: ModelDims) -> ModelWeights:
    """Fill a weight set from the pinned recurrence; pure in (seed, dims)."""
    dims.validate()
    scale = 1.0 / math.sqrt(dims.d_model)
    wq, wk, wv = [], [], []
    for layer in range(dims.layers):
        row_q, row_k, row_v = [], [], []
        for head in range(dims.heads):
            for kind, bucket in enumerate((row_q, row_k, row_v)):
                tag = _matrix_tag(dims, layer, head, kind)
                bucket.append(_draw_matrix(seed, tag, dims.d_model, dims.d_head, scale))
        wq.append(row_q)
        wk.append(row_k)
        wv.append(row_v)
    embedding = output_proj = None
    if dims.vocab > 0:
        embedding = _draw_matrix(seed, _TAG_EMBEDDING, dims.vocab, dims.d_model, 1.0)
        output_proj = _draw_matrix(
            seed,
            _TAG_OUTPUT_PROJ,
            dims.feature_dim,
            dims.vocab,
            1.0 / math.sqrt(dims.feature_dim),
        )
    return ModelWeights(dims, seed & ((1 << 64) - 1), wq, wk, wv, embedding, output_proj)


@contextmanager
def atomic_output(path: str, mode: str = "w"):
    """Open a temporary file beside ``path`` that replaces it in one rename
    when the block ends, so ``path`` never holds a partial write; on error
    the temporary file is removed and ``path`` keeps its old bytes.  The
    directory must be writable; the new file keeps the old one's mode (hard
    links keep the old bytes).  A path that is not a regular file, such as
    /dev/null, is written in place."""
    path = os.path.realpath(path)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **text) as fh:
            yield fh
        return
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        if os.path.exists(path):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def save_weights(weights: ModelWeights, path: str) -> None:
    dims = weights.dims
    header = struct.pack(
        "<4sHIIIIIQ",
        _MAGIC,
        _FORMAT_VERSION,
        dims.layers,
        dims.heads,
        dims.d_model,
        dims.d_head,
        dims.vocab,
        weights.seed,
    )
    with atomic_output(path, "wb") as fh:
        fh.write(header)
        for layer in range(dims.layers):
            for head in range(dims.heads):
                for matrix in (
                    weights.wq[layer][head],
                    weights.wk[layer][head],
                    weights.wv[layer][head],
                ):
                    fh.write(matrix.astype("<f4").tobytes())
        if dims.vocab > 0:
            fh.write(weights.embedding.astype("<f4").tobytes())
            fh.write(weights.output_proj.astype("<f4").tobytes())


def load_weights(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_size = struct.calcsize("<4sHIIIIIQ")
    if len(blob) < head_size:
        raise InputError(f"weight file {path} is truncated")
    magic, version, layers, heads, d_model, d_head, vocab, seed = struct.unpack(
        "<4sHIIIIIQ", blob[:head_size]
    )
    if magic != _MAGIC:
        raise InputError(f"bad magic {magic!r} in {path}, expected {_MAGIC!r}")
    if version != _FORMAT_VERSION:
        raise InputError(f"unsupported weight format version {version}")
    dims = ModelDims(layers, heads, d_model, d_head, vocab)
    dims.validate(InputError, f"weight file {path}: ")
    offset = head_size

    def take(rows, cols):
        nonlocal offset
        count = rows * cols
        end = offset + 4 * count
        if end > len(blob):
            raise InputError(f"weight file {path} is truncated")
        matrix = np.frombuffer(blob[offset:end], dtype="<f4").reshape(rows, cols)
        offset = end
        return matrix.astype(np.float32)

    wq, wk, wv = [], [], []
    for _ in range(layers):
        row_q, row_k, row_v = [], [], []
        for _ in range(heads):
            row_q.append(take(d_model, d_head))
            row_k.append(take(d_model, d_head))
            row_v.append(take(d_model, d_head))
        wq.append(row_q)
        wk.append(row_k)
        wv.append(row_v)
    embedding = output_proj = None
    if vocab > 0:
        embedding = take(vocab, d_model)
        output_proj = take(dims.feature_dim, vocab)
    if offset != len(blob):
        raise InputError(f"weight file {path} has {len(blob) - offset} trailing bytes")
    return ModelWeights(dims, seed, wq, wk, wv, embedding, output_proj)


def _attention_rows(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Softmax rows of queries (S, d) over encoded keys (S, n, d), scaled by
    sqrt(d).  The stacked matmul runs one BLAS matrix-vector product per
    stream, so each row is bitwise the row a lone stream would compute."""
    logits = np.matmul(keys, q[:, :, None])[:, :, 0] / math.sqrt(keys.shape[2])
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _attend(q: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Attention rows (S, n) and weighted value sums (S, d) for S streams."""
    rows = _attention_rows(q, keys)
    return rows, np.matmul(rows[:, None, :], values)[:, 0, :]


# Memoized rotary tables, keyed by d_head and grown on demand.
_rope_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rope_table(d_head: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every (position, frequency) pair for positions 0..upto
    at least; row p is independent of the table size."""
    half = d_head // 2
    cached = _rope_tables.get(d_head)
    if cached is None or cached[0].shape[0] <= upto:
        size = max(64, 2 * (upto + 1))
        inv_freq = ROPE_BASE ** (-2.0 * np.arange(half, dtype=np.float64) / d_head)
        angles = np.arange(size, dtype=np.float64)[:, None] * inv_freq[None, :]
        _rope_tables[d_head] = (np.cos(angles), np.sin(angles))
    return _rope_tables[d_head]


def _rotate(mat: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary phase rotation of the last axis of ``mat`` (pure).

    ``cos`` and ``sin`` broadcast against the (even, odd) pairs of the last
    axis; an odd tail dimension passes through unrotated.
    """
    out = mat.copy()
    half = cos.shape[-1]
    if half == 0:
        return out
    even = mat[..., 0 : 2 * half : 2]
    odd = mat[..., 1 : 2 * half : 2]
    out[..., 0 : 2 * half : 2] = even * cos - odd * sin
    out[..., 1 : 2 * half : 2] = even * sin + odd * cos
    return out


def _rotate_rows(mat: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate each row of a (rows, d) matrix at its own position."""
    cos, sin = _rope_table(mat.shape[1], int(positions.max(initial=0)))
    return _rotate(mat, cos[positions], sin[positions])


def rotate_vector(vec, position: int) -> np.ndarray:
    """Rotate one vector at the given encoding position (odd tail dim passes through)."""
    vec = np.asarray(vec, dtype=np.float64)
    return _rotate_rows(vec[None, :], np.array([position]))[0]


def _stacked(matrices: list[list[np.ndarray]]) -> np.ndarray:
    """Every stream's (d_model, d_head) matrix as one float64 stack
    (S, d_model, d_head); stream s = layer * heads + head."""
    return np.stack([m for row in matrices for m in row]).astype(np.float64)


def _project_all(x: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """One input vector through every stream's matrix: (S, d_head).

    The stacked matmul runs one d_head-wide matrix-vector product per
    stream, bitwise each stream's own ``x @ W``.  One product over all
    streams side by side (S * d_head wide) is not: BLAS rounds the columns
    of a wide product differently when d_head is not a multiple of the
    kernel's vector width.
    """
    return np.matmul(x, stacked)


class StreamStep(NamedTuple):
    rows: np.ndarray
    outputs: np.ndarray
    values: np.ndarray


class StreamBatch:
    """Decode state of all S = layers * heads streams as one struct-of-arrays.

    Every stream reads the same input and appends one slot per step, and
    every eviction removes exactly one slot from each stream, so all streams
    hold the same number of slots ``n``.  Per stream and slot it keeps the
    raw key and value (S, slots, d_head), the original position, and the
    importance statistics: cumulative attention mass ``scores`` (S) and
    residency count ``counts`` (C), each (S, slots).  Only ``[:, :n]`` is
    live.

    Keys are stored raw and attended rotated at their slot index 0..n-1, so
    each stream computes exactly what a lone stream with its own cache
    would.  ``encoded`` keeps those rotations: a key's encoding changes only
    when an eviction shifts it to a lower slot, so the first ``fresh`` slots
    (all slots left of every stream's last victim) are never rotated again.
    """

    def __init__(self, weights: ModelWeights, slots: int):
        dims = weights.dims
        self.streams = dims.layers * dims.heads
        self.wq = _stacked(weights.wq)
        self.wk = _stacked(weights.wk)
        self.wv = _stacked(weights.wv)
        shape = (self.streams, max(slots, 1))
        self.keys = np.zeros(shape + (dims.d_head,), dtype=np.float64)
        self.encoded = np.zeros(shape + (dims.d_head,), dtype=np.float64)
        self.values = np.zeros(shape + (dims.d_head,), dtype=np.float64)
        self.positions = np.zeros(shape, dtype=np.int64)
        self.scores = np.zeros(shape, dtype=np.float64)
        self.counts = np.zeros(shape, dtype=np.int64)
        self.n = 0
        self.fresh = 0

    def step(self, x: np.ndarray, position: int) -> StreamStep:
        """Project one input, append its key and value to every stream with
        zeroed statistics, and attend each stream's query over its slots.

        Keys are encoded at their slot indices 0..n-1 and the query at
        n - 1, its own freshly appended slot.  The rows are accumulated into
        the statistics (S += row, C += 1).  Returns rows (S, n), outputs and
        values (S, d_head), all fresh arrays.
        """
        n = self.n
        if n == self.keys.shape[1]:
            raise StateError(f"stream batch is full at {n} slots")
        q = _project_all(x, self.wq)
        value = _project_all(x, self.wv)
        self.keys[:, n] = _project_all(x, self.wk)
        self.values[:, n] = value
        self.positions[:, n] = position
        self.scores[:, n] = 0.0
        self.counts[:, n] = 0
        n = self.n = n + 1
        cos, sin = _rope_table(self.keys.shape[2], n - 1)
        lo, self.fresh = self.fresh, n
        self.encoded[:, lo:n] = _rotate(self.keys[:, lo:n], cos[lo:n], sin[lo:n])
        rows, outputs = _attend(
            _rotate(q, cos[n - 1], sin[n - 1]), self.encoded[:, :n], self.values[:, :n]
        )
        self.scores[:, :n] += rows
        self.counts[:, :n] += 1
        return StreamStep(rows, outputs, value)

    def remove(self, victims) -> list[int]:
        """Remove one 0-based slot per stream, shifting survivors left.
        Returns the removed slots' original positions, one per stream."""
        n = self.n
        victims = np.asarray(victims)
        if victims.shape != (self.streams,) or victims.min() < 0 or victims.max() >= n:
            raise StateError(f"victims {victims.tolist()} are not one slot per stream in 0..{n - 1}")
        every = np.arange(self.streams)[:, None]
        evicted = self.positions[every[:, 0], victims].tolist()
        lo = int(victims.min())  # no stream changes left of its own victim
        shifted = np.arange(lo, n - 1)
        source = shifted + (shifted >= victims[:, None])
        for array in (self.keys, self.values, self.positions, self.scores, self.counts):
            array[:, lo : n - 1] = array[every, source]
        self.n = n - 1
        self.fresh = min(self.fresh, lo)
        return evicted


def window_rows(weights: ModelWeights, inputs, window_start: int) -> list[list[np.ndarray]]:
    """Causal attention rows of the queries at positions window_start..T-1
    over an unbounded cache, for every stream (index s = layer * heads + head).

    An unbounded cache never shifts, so each key is rotated once at its own
    position: the same arithmetic as encoding it at its slot index on every
    step.  Only the window queries attend.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    dims = weights.dims
    streams = dims.layers * dims.heads
    wq, wk = _stacked(weights.wq), _stacked(weights.wk)
    seq_len = len(inputs)
    cos, sin = _rope_table(dims.d_head, seq_len - 1)
    raw = np.stack([_project_all(x, wk) for x in inputs], axis=1)
    keys = _rotate(raw, cos[:seq_len], sin[:seq_len])
    rows = [[] for _ in range(streams)]
    for position in range(window_start, seq_len):
        q = _rotate(_project_all(inputs[position], wq), cos[position], sin[position])
        for stream, row in enumerate(_attention_rows(q, keys[:, : position + 1])):
            rows[stream].append(row)
    return rows


def synthesize_embeddings(seed: int, count: int, d_model: int) -> np.ndarray:
    """Seed-reproducible stream of unit-normal embedding vectors (tag 4)."""
    stream = NormalStream(stream_seed(seed, TAG_EMBED_STREAM))
    flat = np.array(stream.normals(count * d_model), dtype=np.float64)
    return flat.reshape(count, d_model)


def synthesize_token_ids(seed: int, count: int, vocab: int) -> list[int]:
    """Seed-reproducible token-id stream (tag 3) for vocab-backed models."""
    if vocab < 1:
        raise DimensionError(f"vocab must be >= 1 to draw token ids, got {vocab}")
    return NormalStream(stream_seed(seed, TAG_TOKEN_STREAM)).integers(count, vocab)


def embed_tokens(weights: ModelWeights, token_ids) -> np.ndarray:
    if weights.embedding is None:
        raise StateError("model has no embedding table (vocab = 0)")
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError(f"token ids must be a flat sequence, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= weights.dims.vocab):
        raise InputError(f"token id out of range for vocab {weights.dims.vocab}")
    return weights.embedding[ids].astype(np.float64)
