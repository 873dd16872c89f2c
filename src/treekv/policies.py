"""KV-cache eviction policies behind one behavioural contract.

The tree-cycle policy sweeps a cursor through the cache from oldest to
newest; at each over-capacity step it compares the averaged attention
scores of the two slots under the cursor and removes the lower one, which
yields a retained set that is sparse on the left and dense on the right.
A select-left variant ignores the scores entirely (ablation control).
Baselines: a sink-plus-recent sliding window in the style of StreamingLLM,
cumulative-score eviction in the style of H2O, and last-row eviction in the
style of TOVA.

Every policy is a pure victim selector over the importance statistics of
all streams and the eviction's 0-based index: it holds no state that an
eviction changes, so the i-th eviction's tree cursor is i mod cycle + 1.  A
bounded one fixes, when it is built, which slots of a cache one over
capacity it may evict; full attention is never asked to evict.  A
policy's ``reads`` names the statistics its ``select`` reads, of
cumulative attention mass ``scores`` (S), residency count ``counts`` (C)
and the last attention ``rows``: the tree rule reads S and C, H2O reads S,
TOVA reads the rows, and the sliding window and select-left read none and
choose from slot indices and the eviction index alone.
``EvictionPolicy.evict`` removes the victims from a ``StreamBatch`` that
keeps exactly the statistics the policy reads, every (layer, head) stream
at once with one policy instance.  ``EvictionPolicy.replay(count)`` runs
that cycle with no batch over indices 0..count - 1 on decode's schedule: prefill
(``treekv_prefill_compress``) over block indices with fixed scores, and a
policy that reads nothing over one stream's positions, in decode and in
``validate_trace``.  Once the cache is full, a bounded policy evicts at
every step, so the steps that evict (``eviction_count``) and each tree
cursor follow from the policy and the run's length: a trace records only
the evicted positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .engine import CHUNK_ROWS, ModelWeights, StreamBatch, project, stacked_weights
from .errors import ConfigError, InvariantViolation
from .trace import DecodeTrace


@dataclass(frozen=True)
class ProtectedZones:
    """Never-evicted regions: the first n_sink and the last n_recent slots."""

    n_sink: int = 0
    n_recent: int = 0

    def __post_init__(self):
        if self.n_sink < 0 or self.n_recent < 0:
            raise ConfigError(
                f"zone sizes must be non-negative, got sink={self.n_sink} "
                f"recent={self.n_recent}"
            )

    @classmethod
    def parse(cls, text: str | None) -> "ProtectedZones":
        """Parse the zone syntax "sink=4,recent=508"; empty means no zones."""
        if not text:
            return cls()
        values = {}
        for part in text.split(","):
            key, _, raw = part.partition("=")
            key = key.strip()
            syntax = key in ("sink", "recent") and re.fullmatch("-?[0-9]+", raw.strip())
            if not syntax or key in values:
                raise ConfigError(f"bad zone syntax {text!r}, expected sink=N,recent=N, each once")
            values[key] = int(raw)
        return cls(values.get("sink", 0), values.get("recent", 0))

    @classmethod
    def coerce(cls, zones) -> "ProtectedZones":
        if zones is None:
            return cls()
        if isinstance(zones, str):
            return cls.parse(zones)
        return zones

    def __str__(self) -> str:
        return f"sink={self.n_sink},recent={self.n_recent}"


def _averaged(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    if counts.size and int(counts.min()) < 1:
        raise InvariantViolation("a slot has zero residency count")
    return scores / counts


# --- policies ------------------------------------------------------------------


class EvictionPolicy:
    """Contract: when the streams hold capacity + 1 slots, ``select`` names
    one victim slot per stream, a function of the cache shape, the
    statistics it ``reads`` and the eviction's 0-based index alone;
    ``evict`` and ``replay`` remove the victims.  The evictable slots ``lo``
    to ``hi - 1``, those between the sink and recent zones, are fixed when
    the policy is built; ``full`` has no capacity and is never asked to
    evict.

    One instance serves every stream of a run: all streams hold the same
    number of slots and evict in lockstep, so they share each eviction's
    index.
    """

    spec = "?"
    reads: tuple[str, ...] = ()  # what ``select`` reads, of engine.STATISTICS
    capacity: int | None = None  # slots each stream keeps; None: never evicts
    min_evictable = 1  # slots the zones must leave unprotected

    def __init__(self, capacity: int, zones: ProtectedZones = ProtectedZones()):
        lo, hi = zones.n_sink, capacity + 1 - zones.n_recent
        if hi - lo < self.min_evictable:
            raise ConfigError(
                f"policy {self.spec} needs {self.min_evictable} evictable slot(s) "
                f"between the zones (got {zones} against c={capacity})"
            )
        self.capacity, self.lo, self.hi = capacity, lo, hi

    def select(self, shape: tuple[int, int], index: int, **stats) -> np.ndarray:
        """Victim slot (0-based) per stream of a (streams, capacity + 1)
        cache at the run's ``index``-th eviction, given as keywords exactly
        the statistics the policy ``reads``: ``scores`` S and ``counts`` C
        (streams, slots) and the last attention ``rows``."""
        raise NotImplementedError

    def eviction_count(self, seq_len: int) -> int:
        """How many steps of a seq_len-step decode evict: each step t >
        capacity, as the cache is full from step capacity on; none without
        a capacity."""
        return 0 if self.capacity is None else max(0, seq_len - self.capacity)

    def _argmin(self, weights) -> np.ndarray:
        """The H2O and TOVA rule: the minimum-weight evictable slot per
        stream, leftmost on ties."""
        return self.lo + np.argmin(weights[:, self.lo : self.hi], axis=1)

    def evict(self, batch: StreamBatch, rows, index: int) -> np.ndarray:
        """Evict one slot per stream from a batch one over capacity,
        ``rows`` being the attention rows of the step that filled it and
        ``index`` the run's 0-based count of evictions before this one.
        Returns the removed slots' original positions, one per stream.
        """
        n = batch.n
        if n != self.capacity + 1:
            raise InvariantViolation(
                f"eviction needs exactly {self.capacity + 1} slots (one over "
                f"capacity), the batch holds {n}"
            )
        stats = {name: rows if name == "rows" else getattr(batch, name)[:, :n]
                 for name in self.reads}
        return batch.remove(self.select((batch.streams, n), index, **stats))

    def replay(self, count: int, scores=None) -> tuple[np.ndarray, np.ndarray]:
        """``evict`` with no batch over indices 0..count - 1 of each stream,
        as a count-step decode evicts: E = ``eviction_count(count)`` times,
        the next index fills the free last column, ``select`` reads fixed
        ``scores`` (streams, indices; one stream without them) gathered there
        and counts of 1 at eviction index 0..E - 1, and the victim is
        dropped, the survivors kept in order.  Returns the dropped indices
        (E, streams) and the kept ones (streams, count - E)."""
        kept = count - self.eviction_count(count)
        streams = 1 if scores is None else len(scores)
        held = np.tile(np.arange(kept + 1), (streams, 1))  # last column: the arrival
        dropped = np.empty((count - kept, streams), dtype=held.dtype)
        for row, arrival in enumerate(range(kept, count)):
            held[:, -1] = arrival
            stats = {name: np.ones_like(held) if name == "counts"
                     else np.take_along_axis(scores, held, 1) for name in self.reads}
            for stream, victim in enumerate(self.select(held.shape, row, **stats).tolist()):
                dropped[row, stream] = held[stream, victim]
                held[stream, victim:-1] = held[stream, victim + 1 :]
        return dropped, held[:, :kept]


class FullAttention(EvictionPolicy):
    """Keeps every slot: its capacity is None, so it is never asked to evict."""

    spec = "full"

    def __init__(self):
        pass


class TreeKV(EvictionPolicy):
    """The tree cycle: eviction i compares the slot pair at ``lo + i mod
    cycle``, so its 1-based cursor sweeps the ``cycle`` slot pairs of the
    evictable range (c pairs when there are no zones) and wraps."""

    reads = ("scores", "counts")
    min_evictable = 2  # one slot pair

    def __init__(self, capacity: int, zones: ProtectedZones = ProtectedZones(),
                 select_left: bool = False):
        if capacity < 2:
            raise ConfigError(f"tree eviction requires c >= 2, got {capacity}")
        self.select_left = select_left
        if select_left:
            self.reads = ()
        self.spec = "treekv-left" if select_left else "treekv"
        super().__init__(capacity, zones)
        self.cycle = self.hi - self.lo - 1

    def select(self, shape, index, scores=None, counts=None):
        """The tree rule: of the slot pair under the cursor, the lower
        averaged attention mass goes, ties to the left; with ``select_left``
        the left slot always goes, and S and C are not read."""
        left = self.lo + index % self.cycle
        if self.select_left:
            return np.full(shape[0], left)
        pair = _averaged(scores[:, left : left + 2], counts[:, left : left + 2])
        return left + (pair[:, 0] > pair[:, 1])


class StreamingLLM(EvictionPolicy):
    """The sliding-window rule: the oldest slot after the sink zone goes."""

    spec = "streaming"

    def select(self, shape, index=None):
        return np.full(shape[0], self.lo)


class H2O(EvictionPolicy):
    spec = "h2o"
    reads = ("scores",)

    def select(self, shape, index=None, *, scores):
        return self._argmin(scores)


class TOVA(EvictionPolicy):
    spec = "tova"
    reads = ("rows",)

    def select(self, shape, index=None, *, rows):
        return self._argmin(rows)


_CONSTRUCTORS = {
    "treekv": TreeKV,
    "treekv-left": lambda capacity, zones: TreeKV(capacity, zones, select_left=True),
    "streaming": StreamingLLM,
    "h2o": H2O,
    "tova": TOVA,
    "full": lambda capacity, zones: FullAttention(),
}
POLICY_SPECS = tuple(_CONSTRUCTORS)


def make_policy(spec: str, capacity: int, zones=None) -> EvictionPolicy:
    """A fresh policy for one decode run; every spec but ``full`` needs c >= 2."""
    if spec not in _CONSTRUCTORS:
        raise ConfigError(f"unknown policy {spec!r}, expected one of {', '.join(POLICY_SPECS)}")
    if spec != "full" and capacity < 2:
        raise ConfigError(f"decoding requires c >= 2, got {capacity}")
    return _CONSTRUCTORS[spec](capacity, ProtectedZones.coerce(zones))


def decode_with_policy(
    weights: ModelWeights,
    inputs,
    policy_spec: str,
    capacity: int,
    zones=None,
) -> DecodeTrace:
    """Run the decode loop over all (layer, head) streams at once.

    Per step (``StreamBatch.steps``): append, attend with re-assigned
    positions and accumulate the statistics the policy reads in every
    stream, then, if the streams are over capacity, evict one slot per
    stream.  Nothing in the loop reads a value, and the batch keeps only
    the statistics the policy ``reads``.  A policy that reads nothing
    (``full``, ``streaming``, ``treekv-left``) builds no batch: it projects
    each chunk's keys only to check them, and every stream evicts what
    ``replay`` over one stream's positions evicts.  Returns the trace: the
    evicted grid of every step past the capacity (none under ``full``),
    which each step's retained set follows from (``retained_at``), and
    references to the (C-contiguous) inputs and weights, which its rows,
    values and outputs follow from (``trace.signals_at_step``).
    """
    dims = weights.dims
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != dims.d_model:
        raise InvariantViolation(
            f"inputs must have shape (T, {dims.d_model}), got {inputs.shape}"
        )
    seq_len = inputs.shape[0]
    zones = ProtectedZones.coerce(zones)
    policy = make_policy(policy_spec, capacity, zones)
    streams = dims.layers * dims.heads  # stream s = layer * heads + head
    if not policy.reads:
        wk = stacked_weights(weights.qkv[:, :, 1:2])[0]
        for start in range(0, seq_len, CHUNK_ROWS):
            project(inputs[start : start + CHUNK_ROWS, None], wk)
        evicted = policy.replay(seq_len)[0].repeat(streams, axis=1)  # one stream's positions
    else:
        bound = policy.capacity
        batch = StreamBatch(weights, min(seq_len, bound + 1), policy.reads)
        evicted = np.empty((policy.eviction_count(seq_len), streams), dtype=np.int64)
        for step, rows in enumerate(batch.steps(inputs), 1):
            if batch.n > bound:
                index = step - bound - 1  # eviction 0 is step bound + 1
                evicted[index] = policy.evict(batch, rows, index)
    grid = (dims.layers, dims.heads)
    return DecodeTrace(
        policy=policy_spec,
        capacity=capacity,
        zones=str(zones),
        seq_len=seq_len,
        dims=dims,
        model_seed=weights.seed,
        evicted=evicted.reshape(-1, *grid),
        inputs=inputs,
        weights=weights.qkv,
    )
