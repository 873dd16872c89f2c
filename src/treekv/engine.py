"""Deterministic multi-head attention micro-engine with an evictable KV cache.

The engine runs one independent attention stream per (layer, head) pair.
Each stream projects incoming d_model vectors to d_head queries and keys,
appends the key to an explicit cache, and computes softmax attention
scaled by sqrt(d_head).  No value is projected while decoding: values and
outputs follow from a trace's inputs and weights (``trace.signals_at_step``).
There are no embedding, feed-forward, normalization or output layers: a
model is its W_Q, W_K and W_V matrices, and every (layer, head) stream
reads the same (T, d_model) rows of embeddings.  Eviction behaviour
depends only on attention, and the reduced surface keeps reference
computations exact.

Position handling follows the re-assignment convention of sliding-window
decoders: a rotary-style phase rotation is keyed by the slot index a key
currently occupies in the cache, not by the token's original position, and
it is applied at attention time (``rotate_vector`` is its definition).
Stored keys stay raw; evicting a slot shifts the survivors left, and the
next step sees contiguous encoding positions 0..n-1.  The rotation runs at
full width: ``_lanes`` spreads each pair's cos and sin over both of its
lanes, and ``_rotate`` computes ``x * cos + swap(x) * sin`` over whole
blocks, bitwise the per-pair formula.

``StreamBatch`` is the only stream state and the only code that rotates
and attends keys, and the module keeps no state of its own: each batch
builds the rotary rows of its own slots, and ``rotate_vector`` builds the
row it uses.  A batch holds every stream's positions and keys (slot-major)
as stacked arrays and, only as far as its reader reads them
(``STATISTICS``), its importance statistics, and steps them together, with
each stream's floating-point operations exactly those of a lone stream (the
per-stream definition the tests compare against lives in
``tests/oracles.py``).  Every batch attends: a policy that reads nothing
decodes with no batch (``EvictionPolicy.replay``).  Decode, prompt prefill
(over an unbounded cache, ``prefill.window_mass``) and the replay of one
traced step (``trace.signals_at_step``) step inputs only through
``StreamBatch.steps``, which projects and rotates a chunk at a time.

Weight file format (version 2)
------------------------------
Little-endian throughout, a 30-byte header::

    magic   4 bytes  "TKVW"
    version u16      2
    layers  u32
    heads   u32
    d_model u32
    d_head  u32
    seed    u64

followed, for each layer and each head, by W_Q, W_K and W_V, each
(d_model, d_head) row-major 32-bit floats.

Matrix entries are normal variates from ``treekv.rng`` drawn row-major from
the substream ``stream_seed(seed, tag)``, scaled by 1/sqrt(d_model).  W_Q,
W_K and W_V of (layer, head) use tag ``16 + 3 * (layer * heads + head) +
kind`` with kind 0/1/2 for Q/K/V; synthetic input rows use tag 4, from the
same recurrence, so a single seed makes a whole experiment reproducible.
Tags 1-3 (version 1's embedding table and output projection, and its
token-id stream) are retired, not reused, so every matrix and every
synthetic input is bitwise what version 1 drew.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolation
from .rng import NormalStream, stream_seed

_MAGIC = b"TKVW"
_FORMAT_VERSION = 2
_HEADER = "<4sHIIIIQ"

# Substream tags; documented in the module docstring.
TAG_EMBED_STREAM = 4
_TAG_MATRIX_BASE = 16

ROPE_BASE = 10000.0


@dataclass(frozen=True)
class ModelDims:
    layers: int
    heads: int
    d_model: int
    d_head: int

    def validate(self, error: type[Exception] = InvariantViolation, context: str = "") -> None:
        """Raise ``error``, its message prefixed by ``context``, on a bad dim."""
        for name in ("layers", "heads", "d_model", "d_head"):
            value = getattr(self, name)
            integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integral or not 1 <= value < 2**32:
                raise error(f"{context}{name} must be an int in [1, 2**32), got {value!r}")


class ModelWeights:
    """Every stream's projection matrices W_Q, W_K and W_V.

    ``qkv`` is one float32 array (layers, heads, 3, d_model, d_head) in the
    weight file's own order, and ``dims`` is read from its shape (an empty
    axis is an InvariantViolation); ``wq``, ``wk`` and ``wv`` are its views
    (layers, heads, d_model, d_head).  Arithmetic promotes to float64 at
    use time.  Instances are read-only after construction and safe to share
    across threads.
    """

    def __init__(self, seed: int, qkv: np.ndarray):
        layers, heads, _, d_model, d_head = qkv.shape
        self.dims = ModelDims(layers, heads, d_model, d_head)
        self.dims.validate()
        self.seed = seed
        self.qkv = qkv
        self.wq, self.wk, self.wv = np.moveaxis(qkv, 2, 0)


def _draw_matrix(seed: int, tag: int, rows: int, cols: int, scale: float) -> np.ndarray:
    flat = NormalStream(stream_seed(seed, tag)).normals(rows * cols) * scale
    return flat.reshape(rows, cols).astype(np.float32)


def generate_weights(seed: int, dims: ModelDims) -> ModelWeights:
    """Fill a weight set from the pinned recurrence; pure in (seed, dims)."""
    dims.validate()
    scale = 1.0 / math.sqrt(dims.d_model)
    # Allocated whole before any draw, so a set too large to hold fails at once.
    try:
        qkv = np.empty((dims.layers, dims.heads, 3, dims.d_model, dims.d_head), np.float32)
    except ValueError as exc:  # more bytes than numpy can address
        raise MemoryError(exc) from None
    for tag, matrix in enumerate(qkv.reshape(-1, dims.d_model, dims.d_head), _TAG_MATRIX_BASE):
        matrix[:] = _draw_matrix(seed, tag, dims.d_model, dims.d_head, scale)
    return ModelWeights(seed & ((1 << 64) - 1), qkv)


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


def write_array(fh, array: np.ndarray, dtype: str) -> None:
    """Write ``array`` row-major as ``dtype`` ("<f8"), copying only to convert."""
    fh.write(np.ascontiguousarray(array, dtype=dtype).reshape(-1).view(np.uint8))


def save_weights(weights: ModelWeights, path: str) -> None:
    dims = weights.dims
    header = struct.pack(
        _HEADER, _MAGIC, _FORMAT_VERSION, dims.layers, dims.heads, dims.d_model, dims.d_head,
        weights.seed,
    )
    with atomic_output(path, "wb") as fh:
        fh.write(header)
        write_array(fh, weights.qkv, "<f4")


def load_weights(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_size = struct.calcsize(_HEADER)
    if len(blob) < head_size:
        raise InputError(f"weight file {path} is truncated")
    magic, version, layers, heads, d_model, d_head, seed = struct.unpack_from(_HEADER, blob)
    if magic != _MAGIC:
        raise InputError(f"bad magic {magic!r} in {path}, expected {_MAGIC!r}")
    if version != _FORMAT_VERSION:
        raise InputError(f"unsupported weight format version {version}")
    dims = ModelDims(layers, heads, d_model, d_head)
    dims.validate(InputError, f"weight file {path}: ")
    shape = (layers, heads, 3, d_model, d_head)
    end = head_size + 4 * math.prod(shape)
    if end > len(blob):
        raise InputError(f"weight file {path} is truncated")
    if end != len(blob):
        raise InputError(f"weight file {path} has {len(blob) - end} trailing bytes")
    qkv = np.frombuffer(blob, dtype="<f4", offset=head_size)
    if not np.isfinite(qkv).all():
        raise InputError(f"weight file {path} holds a NaN or infinite number")
    return ModelWeights(seed, qkv.astype(np.float32).reshape(shape))


def _attention_rows(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Softmax rows of queries (..., d) over encoded keys (..., n, d), scaled
    by sqrt(d).  The stacked matmul runs one BLAS matrix-vector product per
    stream, so each row is bitwise the row a lone stream would compute.
    Inputs too large for finite logits are an input error.  Only the row
    sums are checked: finite logits give sums in [1, n], while a NaN logit,
    a +inf logit or a row of only -inf logits makes the sum NaN.  Each step
    works in place on the matmul's fresh array."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.matmul(keys, q[..., None])[..., 0]
        rows /= math.sqrt(keys.shape[-1])
        rows -= rows.max(axis=-1, keepdims=True)
        np.exp(rows, out=rows)
        sums = rows.sum(axis=-1, keepdims=True)
    if not np.isfinite(sums).all():
        raise InputError("attention rows are not finite; the inputs are too large")
    rows /= sums
    return rows


def _rope(d_head: int, positions) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin (len(positions), d_head // 2) of each given position's
    rotary angles; a row depends only on its own position."""
    inv_freq = ROPE_BASE ** (-2.0 * np.arange(d_head // 2, dtype=np.float64) / d_head)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def _lanes(d_head: int, positions) -> np.ndarray:
    """``_rope``'s tables at full width, (2, len(positions), d_head): cos
    repeated over each (even, odd) lane pair and sin signed (-s, +s), with
    cos 1 and sin 0 on an odd tail lane.  These are the tables ``_rotate``
    takes."""
    cos, sin = _rope(d_head, positions)
    tables = np.zeros((2, len(cos), d_head))
    tables[0, :, -1] = 1.0  # the odd tail lane; a pair's cos when d_head is even
    pairs = tables[:, :, : 2 * cos.shape[1]].reshape(2, len(cos), -1, 2)
    pairs[0] = cos[..., None]
    pairs[1] = np.stack([-sin, sin], axis=-1)
    return tables


def _rotate(mat: np.ndarray, cos: np.ndarray, sin: np.ndarray, out=None) -> np.ndarray:
    """Rotary phase rotation of the last axis of ``mat``, written into
    ``out`` (a new array by default; never ``mat`` itself) and returned.

    ``cos`` and ``sin`` are full-width tables (``_lanes``) that broadcast
    against ``mat``, and the rotation is ``mat * cos + swap(mat) * sin``,
    where ``swap`` exchanges the lanes of each (even, odd) pair: bitwise
    ``e * c - o * s`` and ``e * s + o * c``, since ``x - y`` is ``x + (-y)``
    and products commute.  An odd tail lane is multiplied by 1 only.
    """
    out = np.multiply(mat, cos, out=out)
    width = mat.shape[-1] - mat.shape[-1] % 2  # the lanes in (even, odd) pairs
    turned = np.empty(out.shape[:-1] + (width,))  # swap(mat) * sin
    np.multiply(mat[..., 1:width:2], sin[..., 0:width:2], out=turned[..., 0::2])
    np.multiply(mat[..., 0:width:2], sin[..., 1:width:2], out=turned[..., 1::2])
    np.add(out[..., :width], turned, out=out[..., :width])
    return out


def rotate_vector(vec, position: int) -> np.ndarray:
    """Rotate one vector at the given encoding position (odd tail dim passes through)."""
    vec = np.asarray(vec, dtype=np.float64)
    cos, sin = _lanes(vec.shape[-1], [position])
    return _rotate(vec, cos[0], sin[0])


def stacked_weights(qkv: np.ndarray) -> np.ndarray:
    """Matrices given as (layers, heads, k, d_model, d_head), W_Q, W_K, W_V
    or a run of them, as one C-contiguous float64 stack (k, S, d_model,
    d_head); s = layer * heads + head."""
    return np.moveaxis(qkv.reshape(-1, *qkv.shape[2:]), 1, 0).astype(np.float64, order="C")


def project(x: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Rows (..., d_head) of inputs x (..., d_model) through matrices
    (..., d_model, d_head), leading axes broadcast, each its own (1, d_model)
    @ (d_model, d_head) product: bitwise alike however the rows are batched,
    unlike a multi-row product.  Rows past float64 are an input error."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.matmul(x[..., None, :], matrices)[..., 0, :]
    if not np.isfinite(rows).all():
        raise InputError("projections are not finite; the inputs are too large")
    return rows


# What a batch's reader may read after a step: the cumulative attention
# mass S, the residency counts C (both per slot) and the step's own rows.
STATISTICS = ("scores", "counts", "rows")
CHUNK_ROWS = 32  # inputs whose queries and keys ``steps`` projects and rotates at once


class StreamBatch:
    """Decode state of all S = layers * heads streams as one struct-of-arrays.

    Every stream reads the same inputs and appends one slot per input, and
    every eviction removes exactly one slot from each stream, so all streams
    hold the same number of slots ``n``.  Per stream and slot it keeps the
    original position (the i-th input the batch was given has position i),
    the key and, only as its reader needs them, the importance statistics:
    cumulative attention mass ``scores`` (S) and residency count ``counts``
    (C), each (S, slots).  ``reads``, given at construction, names what the
    reader reads (of ``STATISTICS``): the batch keeps ``scores`` and
    ``counts`` only if they are named.  A statistic it does not keep is
    None, and ``_store``, ``_step_one`` and ``remove`` store, accumulate and
    shift only the kept ones.  Only ``[:, :n]`` is live.  It holds no
    values: its callers read only the attention rows.

    Keys are stored raw and attended rotated at their slot index 0..n-1, so
    each stream computes exactly what a lone stream with its own cache
    would.  ``encoded`` keeps those rotations: a key's encoding changes only
    when an eviction shifts it to a lower slot, so the first ``fresh`` slots
    (all slots left of every stream's last victim) are never rotated again.
    Raw and encoded keys are stored slot-major, (slots, S, d_head), so the
    slots ``[fresh, slot)`` of every stream are one contiguous block, and
    ``keys`` and ``encoded`` are their (S, slots, d_head) views; attention
    reads each stream's keys as strided rows.  ``rope`` holds the
    full-width cos and sin (``_lanes``) of every slot index, (2, slots, 1,
    d_head), and the first eviction expands it to (2, slots, S, d_head), so
    re-encoding a block multiplies arrays of one shape.  Inputs are stepped
    only by ``steps``, ``CHUNK_ROWS`` at a time, and attended one by one
    (``_step_one``).
    """

    def __init__(self, weights: ModelWeights, slots: int, reads=STATISTICS):
        dims = weights.dims
        self.streams = dims.layers * dims.heads
        self.wq, self.wk = self.stack = stacked_weights(weights.qkv[:, :, :2])
        shape = (self.streams, max(slots, 1))
        self.every = np.arange(self.streams)
        self.positions = np.zeros(shape, dtype=np.int64)
        # raw and encoded keys, slot-major, as one allocation
        self.slot_keys = np.zeros((2, shape[1], self.streams, dims.d_head))
        self.keys, self.encoded = self.slot_keys.swapaxes(1, 2)
        self.rope = _lanes(dims.d_head, np.arange(shape[1]))[:, :, None]  # per slot
        self.scores = np.zeros(shape) if "scores" in reads else None
        self.counts = np.zeros(shape, dtype=np.int64) if "counts" in reads else None
        self.shifted = tuple(array for array in (self.positions, self.keys, self.scores,
                                                 self.counts) if array is not None)
        self.n = 0
        self.fresh = 0
        self.appended = 0  # inputs given so far: the next original position

    def _store(self, keys: np.ndarray) -> None:
        """Store m inputs in the next m slots at the next m original
        positions, with their keys (m, S, d_head) and zeroed statistics."""
        m = len(keys)
        n = self.n
        if n + m > self.positions.shape[1]:
            raise InvariantViolation(
                f"stream batch of {self.positions.shape[1]} slots is full at {n}")
        end = self.n = n + m
        self.positions[:, n:end] = np.arange(self.appended, self.appended + m)
        self.appended += m
        self.slot_keys[0, n:end] = keys
        if self.scores is not None:
            self.scores[:, n:end] = 0.0
        if self.counts is not None:
            self.counts[:, n:end] = 0

    def append(self, xs: np.ndarray) -> None:
        """Append m inputs to every stream, each stream's own, xs (m, S,
        d_model), or shared, xs (m, 1, d_model), projecting and storing their
        keys, so that a key past float64 is an input error.  Nothing is
        attended or rotated, so ``fresh`` stays as it was."""
        self._store(project(xs, self.wk))

    def steps(self, xs: np.ndarray):
        """Append inputs xs (T, d_model) one at a time, yielding after each
        its attention rows (S, n), a fresh array.  A chunk of ``CHUNK_ROWS``
        inputs is projected at once, each input its own product, and each
        query and key rotated at the slot its input takes, ``min(n, last
        slot)``: between inputs the caller may evict one slot from a full
        batch, and nothing else."""
        last = self.positions.shape[1] - 1
        for start in range(0, len(xs), CHUNK_ROWS):
            chunk = xs[start : start + CHUNK_ROWS, None, :]
            slots = np.minimum(np.arange(self.n, self.n + len(chunk)), last)
            raw = project(chunk[:, None], self.stack)  # (m, 2, S, d_head): queries, keys
            rotated = _rotate(raw, *self.rope[:, slots, None])
            for index, slot in enumerate(slots.tolist()):
                yield self._step_one(raw[index, 1], rotated[index], slot)

    def step(self, x: np.ndarray) -> np.ndarray:
        """Append one input x (d_model) and attend it: ``steps`` of one input."""
        return next(self.steps(x[None]))

    def _step_one(self, key: np.ndarray, rotated: np.ndarray, slot: int) -> np.ndarray:
        """Store one input's raw key (S, d_head) at ``slot``, the next slot,
        and attend its query over each stream's slots; ``rotated`` holds the
        query and key (2, S, d_head) rotated at ``slot``.  Only the slots an
        eviction shifted, ``[fresh, slot)``, are encoded again, as one block.
        The rows are added to the statistics kept (S += row, C += 1) and
        returned, (S, n)."""
        self._store(key[None])
        n = self.n
        if n - 1 != slot:
            raise InvariantViolation(f"input stored at slot {n - 1} was rotated at slot {slot}")
        lo, self.fresh = self.fresh, n
        raw, encoded = self.slot_keys  # slot-major
        if lo < slot:
            cos, sin = self.rope[:, lo:slot]
            _rotate(raw[lo:slot], cos, sin, out=encoded[lo:slot])
        encoded[slot] = rotated[1]
        rows = _attention_rows(rotated[0], self.encoded[:, :n])
        if self.scores is not None:
            self.scores[:, :n] += rows
        if self.counts is not None:
            self.counts[:, :n] += 1
        return rows

    def remove(self, victims) -> np.ndarray:
        """Remove one 0-based slot per stream, shifting the survivors of each
        kept array left.  Slots right of every victim move as one slice; the
        window between the lowest and highest victim, empty when every
        stream's victim is the same slot, is gathered per stream before that
        shift.  The first removal spreads ``rope`` over the streams.
        Returns the removed slots' original positions, one per stream."""
        n = self.n
        victims = np.asarray(victims)
        lo, hi = (int(victims.min()), int(victims.max())) if victims.size else (0, n)
        if victims.shape != (self.streams,) or lo < 0 or hi >= n:
            raise InvariantViolation(
                f"victims {victims.tolist()} are not one slot per stream in 0..{n - 1}")
        evicted = self.positions[self.every, victims]
        if lo < hi:  # no stream changes left of its own victim
            window = np.arange(lo, hi)
            source = window + (window >= victims[:, None])
            for array in self.shifted:
                array[:, lo:hi] = array[self.every[:, None], source]
        for array in self.shifted:
            array[:, hi : n - 1] = array[:, hi + 1 : n]
        if self.rope.shape[2] < self.streams:
            self.rope = np.repeat(self.rope, self.streams, axis=2)
        self.n = n - 1
        self.fresh = min(self.fresh, lo)
        return evicted


def synthesize_embeddings(seed: int, count: int, d_model: int) -> np.ndarray:
    """Seed-reproducible stream of unit-normal embedding vectors (tag 4)."""
    stream = NormalStream(stream_seed(seed, TAG_EMBED_STREAM))
    return stream.normals(count * d_model).reshape(count, d_model)
