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
all streams (cumulative attention mass S, residency count C, the last
attention row).  ``EvictionPolicy.evict`` is the one place that removes
slots: it applies the selector to a ``StreamBatch`` and removes the victims
from it, so keys, values, positions and statistics stay parallel.  The
decode loop runs every (layer, head) stream at once with one policy
instance, and block-level prefill replays the same tree selector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .engine import ModelWeights, StreamBatch
from .errors import (
    ConfigError,
    DimensionError,
    InvariantViolation,
    StateError,
)
from .trace import DecodeTrace, StepRecord


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

    @property
    def total(self) -> int:
        return self.n_sink + self.n_recent

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


# --- victim selectors --------------------------------------------------------
#
# Each baseline rule is written once, as a pure function over all streams:
# statistics of shape (streams, slots) in, one 0-based victim slot per
# stream out.  The tree rule, which reads the cursor, is ``TreeKV.select``.


def _evictable_range(cache_len: int, zones: ProtectedZones) -> tuple[int, int]:
    """0-based half-open range of slots outside the protected zones."""
    lo = zones.n_sink
    hi = cache_len - zones.n_recent
    if lo >= hi:
        raise ConfigError(
            f"no evictable slot: cache of {cache_len} cannot protect "
            f"sink={zones.n_sink} and recent={zones.n_recent}"
        )
    return lo, hi


def streaming_victims(streams: int, cache_len: int, zones: ProtectedZones) -> np.ndarray:
    """The sliding-window rule: the oldest slot outside the sink region."""
    lo, _hi = _evictable_range(cache_len, zones)
    return np.full(streams, lo)


def argmin_victims(weights, zones: ProtectedZones) -> np.ndarray:
    """The H2O and TOVA rule: the minimum-weight slot outside the zones,
    leftmost on ties.  H2O passes cumulative scores, TOVA the last row."""
    lo, hi = _evictable_range(weights.shape[1], zones)
    return lo + np.argmin(weights[:, lo:hi], axis=1)


# --- policies ------------------------------------------------------------------


class EvictionPolicy:
    """Contract: when the streams are one slot over capacity, ``select``
    names one victim slot per stream (or None to decline) without changing
    anything; ``evict`` removes the victims and then calls ``advance``.

    One instance serves every stream of a run: all streams hold the same
    number of slots and evict in lockstep, so a tree cursor is shared.
    """

    spec = "?"
    capacity: int | None = None  # slots each stream keeps; None: never evicts
    cursor: int | None = None  # the tree cursor the next eviction uses

    def select(self, scores, counts, last_rows) -> np.ndarray | None:
        """Victim slot (0-based) per stream from (streams, slots) statistics
        S and C and the last attention rows."""
        raise NotImplementedError

    def advance(self) -> None:
        """Move past an eviction that removed the selected victims."""

    def evict(self, batch: StreamBatch, rows) -> tuple[np.ndarray, int | None]:
        """Evict one slot per stream from a batch that is over capacity,
        ``rows`` being the attention rows of the step that filled it.

        Returns the removed slots' original positions, one per stream, and
        the tree cursor the eviction used.
        """
        n = batch.n
        cursor = self.cursor
        victims = self.select(batch.scores[:, :n], batch.counts[:, :n], rows)
        if victims is None:
            raise InvariantViolation(
                f"policy {self.spec} declined to evict an over-capacity cache of {n} slots"
            )
        evicted = batch.remove(victims)
        self.advance()
        if batch.n > self.capacity:
            raise InvariantViolation(
                f"streams hold {batch.n} slots after eviction, capacity {self.capacity}"
            )
        return evicted, cursor


class FullAttention(EvictionPolicy):
    spec = "full"

    def select(self, scores, counts, last_rows):
        return None


class TreeKV(EvictionPolicy):
    """The tree cycle: a 1-based ``cursor`` sweeps the ``cycle`` slots between
    the protected zones (the capacity when there are none) and wraps."""

    def __init__(self, capacity: int, zones=None, select_left: bool = False):
        zones = ProtectedZones.coerce(zones)
        if capacity < 2:
            raise ConfigError(f"tree eviction requires c >= 2, got {capacity}")
        cycle = capacity - zones.total
        if cycle < 1:
            raise ConfigError(
                f"zones require n_sink + n_recent < c "
                f"(got {zones} against c={capacity})"
            )
        self.capacity = capacity
        self.zones = zones
        self.cycle = cycle
        self.select_left = select_left
        self.spec = "treekv-left" if select_left else "treekv"
        self.cursor = 1

    def select(self, scores, counts, last_rows):
        """The tree rule: of the slot pair under the cursor (offset past the
        sink zone), the lower averaged attention mass goes, ties to the left;
        with ``select_left`` the left slot always goes."""
        if scores.shape[1] != self.capacity + 1:
            raise StateError(
                f"tree eviction needs exactly {self.capacity + 1} slots (one over "
                f"capacity), cache has {scores.shape[1]}"
            )
        if not 1 <= self.cursor <= self.cycle:
            raise InvariantViolation(f"cursor {self.cursor} outside 1..{self.cycle}")
        left = self.zones.n_sink + self.cursor - 1
        if self.select_left:
            return np.full(len(scores), left)
        pair = _averaged(scores[:, left : left + 2], counts[:, left : left + 2])
        return left + (pair[:, 0] > pair[:, 1])

    def advance(self) -> None:
        self.cursor = self.cursor % self.cycle + 1


class _ZonedPolicy(EvictionPolicy):
    """A baseline that evicts outside the protected zones.  At eviction time
    the cache holds capacity + 1 slots, so c >= n_sink + n_recent leaves one
    of them unprotected."""

    def __init__(self, capacity: int, zones=None):
        zones = ProtectedZones.coerce(zones)
        if capacity < zones.total:
            raise ConfigError(
                f"policy {self.spec} requires c >= n_sink + n_recent "
                f"(got {zones} against c={capacity})"
            )
        self.capacity = capacity
        self.zones = zones


class StreamingLLM(_ZonedPolicy):
    spec = "streaming"

    def select(self, scores, counts, last_rows):
        return streaming_victims(*scores.shape, self.zones)


class H2O(_ZonedPolicy):
    spec = "h2o"

    def select(self, scores, counts, last_rows):
        return argmin_victims(scores, self.zones)


class TOVA(_ZonedPolicy):
    spec = "tova"

    def select(self, scores, counts, last_rows):
        return argmin_victims(last_rows, self.zones)


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
    *,
    stream_seed: int | None = None,
    token_ids: list[int] | None = None,
    record_detail: bool = True,
    record_outputs: bool = False,
) -> DecodeTrace:
    """Run the decode loop over all (layer, head) streams at once.

    Per step: project, append, attend with re-assigned positions and
    accumulate scores in every stream, then, if the streams are over
    capacity, evict one slot per stream.  Returns the trace: per-step evicted
    grids with their tree cursors, the final retained positions and, with
    ``record_detail``, references to the (C-contiguous) inputs and weights.
    """
    dims = weights.dims
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != dims.d_model:
        raise DimensionError(
            f"inputs must have shape (T, {dims.d_model}), got {inputs.shape}"
        )
    seq_len = inputs.shape[0]
    zones = ProtectedZones.coerce(zones)
    policy = make_policy(policy_spec, capacity, zones)
    bound = policy.capacity  # None: the cache is unbounded
    batch = StreamBatch(weights, seq_len if bound is None else min(seq_len, bound + 1))
    grid = (dims.layers, dims.heads)  # stream s = layer * heads + head
    trace = DecodeTrace(
        policy=policy_spec,
        capacity=capacity,
        zones=str(zones),
        seq_len=seq_len,
        dims=dims,
        model_seed=weights.seed,
        stream_seed=stream_seed,
        token_ids=list(token_ids) if token_ids is not None else None,
    )
    if record_detail:
        trace.inputs, trace.weights = inputs, weights.qkv
    for step in range(1, seq_len + 1):
        rows, outputs, _ = batch.step(inputs[step - 1], step - 1)
        evicted = cursor = None
        if bound is not None and batch.n > bound:
            evicted, cursor = policy.evict(batch, rows)
            evicted = evicted.reshape(grid)
        outputs = outputs.reshape(*grid, -1) if record_outputs else None
        trace.steps.append(StepRecord(step, evicted, cursor, outputs))
    trace.retained = batch.positions[:, : batch.n].reshape(*grid, -1)
    return trace
