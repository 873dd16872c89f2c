"""KV-cache eviction policies behind one behavioural contract.

The tree-cycle policy sweeps a cursor through the cache from oldest to
newest; at each over-capacity step it compares the averaged attention
scores of the two slots under the cursor and removes the lower one, which
yields a retained set that is sparse on the left and dense on the right.
A select-left variant ignores the scores entirely (ablation control).
Baselines: a sink-plus-recent sliding window in the style of StreamingLLM,
cumulative-score eviction in the style of H2O, and last-row eviction in the
style of TOVA.  Each spec is one class, and each class keeps its own
rules (``spec``, ``reads``, ``select``); ``POLICIES`` maps every spec to
its class.

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
    the policy is built, at c >= 2.  Every policy keeps the ``capacity``
    and ``zones`` it was built from, which a trace header records; ``full``
    is never asked to evict, so it takes any capacity.

    One instance serves every stream of a run: all streams hold the same
    number of slots and evict in lockstep, so they share each eviction's
    index.
    """

    spec = "?"
    reads: tuple[str, ...] = ()  # what ``select`` reads, of engine.STATISTICS
    min_evictable = 1  # slots the zones must leave unprotected

    def __init__(self, capacity: int, zones: ProtectedZones = ProtectedZones()):
        if capacity < 2:
            raise ConfigError(f"policy {self.spec} needs c >= 2, got {capacity}")
        lo, hi = zones.n_sink, capacity + 1 - zones.n_recent
        if hi - lo < self.min_evictable:
            raise ConfigError(
                f"policy {self.spec} needs {self.min_evictable} evictable slot(s) "
                f"between the zones (got {zones} against c={capacity})"
            )
        self.capacity, self.zones, self.lo, self.hi = capacity, zones, lo, hi

    def select(self, shape: tuple[int, int], index: int, **stats) -> np.ndarray:
        """Victim slot (0-based) per stream of a (streams, capacity + 1)
        cache at the run's ``index``-th eviction, given as keywords exactly
        the statistics the policy ``reads``: ``scores`` S and ``counts`` C
        (streams, slots) and the last attention ``rows``."""
        raise NotImplementedError

    def eviction_count(self, seq_len: int) -> int:
        """How many steps of a seq_len-step decode evict: each step t >
        capacity, as the cache is full from step capacity on."""
        return max(0, seq_len - self.capacity)

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
    """Keeps every slot, whatever its capacity and zones: it never evicts."""

    spec = "full"

    def __init__(self, capacity: int, zones: ProtectedZones = ProtectedZones()):
        self.capacity, self.zones = capacity, zones

    def eviction_count(self, seq_len: int) -> int:
        return 0


class TreeKV(EvictionPolicy):
    """The tree cycle: eviction i compares the slot pair at ``lo + i mod
    cycle``, so its 1-based cursor sweeps the ``cycle`` slot pairs of the
    evictable range (c pairs when there are no zones) and wraps."""

    spec = "treekv"
    reads = ("scores", "counts")
    min_evictable = 2  # one slot pair

    def __init__(self, capacity: int, zones: ProtectedZones = ProtectedZones()):
        super().__init__(capacity, zones)
        self.cycle = self.hi - self.lo - 1

    def select(self, shape, index, *, scores, counts):
        """The tree rule: of the slot pair under the cursor, the lower
        averaged attention mass goes, ties to the left."""
        left = self.lo + index % self.cycle
        pair = _averaged(scores[:, left : left + 2], counts[:, left : left + 2])
        return left + (pair[:, 0] > pair[:, 1])


class TreeKVLeft(TreeKV):
    """The select-left ablation control: the tree cycle's cursor, but the
    left slot of the pair under it always goes, so S and C are not read."""

    spec = "treekv-left"
    reads = ()

    def select(self, shape, index):
        return np.full(shape[0], self.lo + index % self.cycle)


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


# The class each spec builds: each spec is one class, and each class one spec.
POLICIES = {cls.spec: cls for cls in (TreeKV, TreeKVLeft, StreamingLLM, H2O, TOVA, FullAttention)}
POLICY_SPECS = tuple(POLICIES)


def make_policy(spec: str, capacity: int, zones=None) -> EvictionPolicy:
    """The policy spec names at c, with zones given as ``ProtectedZones``,
    their text, or None for none.  It is the only code that turns (spec, c,
    zones) into a policy.  A policy is pure, so one may serve several runs."""
    if spec not in POLICIES:
        raise ConfigError(f"unknown policy {spec!r}, expected one of {', '.join(POLICY_SPECS)}")
    if not isinstance(zones, ProtectedZones):
        zones = ProtectedZones.parse(zones)
    return POLICIES[spec](capacity, zones)


def decode_with_policy(weights: ModelWeights, inputs, policy: EvictionPolicy) -> DecodeTrace:
    """Run the decode loop over all (layer, head) streams at once under
    one policy (``make_policy``), which the trace keeps.

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
    evicted = evicted.reshape(-1, dims.layers, dims.heads)
    return DecodeTrace(policy, seq_len, dims, weights.seed, evicted=evicted, inputs=inputs,
                       weights=weights.qkv)
