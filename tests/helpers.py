"""Small builders shared across test modules."""

from __future__ import annotations

import numpy as np

from treekv import (
    ModelDims,
    ModelWeights,
    StreamBatch,
    TreeKV,
    generate_weights,
    make_policy,
    signals_at_step,
)

# The statistics-only tests never call StreamBatch.step, so any weights do.
_ONE_STREAM = generate_weights(0, ModelDims(1, 1, 1, 1))


def single_head_weights(wq, wk=None, wv=None):
    """A one-stream model with hand-built (d_model, d_head) matrices; W_K and
    W_V default to W_Q."""
    wq = np.asarray(wq, dtype=np.float32)
    wk = wq if wk is None else np.asarray(wk, dtype=np.float32)
    wv = wq if wv is None else np.asarray(wv, dtype=np.float32)
    return ModelWeights(0, np.stack([wq, wk, wv])[None, None])


def outputs_at(trace, step):
    """Every stream's attention output (layers, heads, d_head) at the given
    1-based step of a full-detail trace: its attention row over the values
    it holds then (``signals_at_step``), one product per stream."""
    rows, values = signals_at_step(trace, step)
    return np.matmul(rows[..., None, :], values)[..., 0, :]


def tree_cursor(policy, index):
    """The 1-based tree cursor of a policy's ``index``-th eviction
    (``index mod cycle + 1``), or None under a policy without one."""
    return index % policy.cycle + 1 if isinstance(policy, TreeKV) else None


def evictions(trace):
    """Every evicting step of a trace as (step, grid, cursor): the step,
    its (layers, heads) row of ``trace.evicted`` and the tree cursor that
    chose it (None under a baseline).  Row i is eviction i, at step
    capacity + 1 + i."""
    policy = make_policy(trace.policy, trace.capacity, trace.zones)
    for row, grid in enumerate(trace.evicted):
        yield trace.capacity + 1 + row, grid, tree_cursor(policy, row)


def evicted_events(trace):
    """Each step's evictions as (layer, head, position, cursor) tuples of
    Python ints, in stream order, as ``oracle_decode`` lists them: one
    list per step, empty on a step that evicts nothing."""
    events = [[] for _ in range(trace.seq_len)]
    for step, grid, cursor in evictions(trace):
        events[step - 1] = [(layer, head, int(position), cursor)
                            for (layer, head), position in np.ndenumerate(grid)]
    return events


def stream_batch(scores, counts=None):
    """A one-stream StreamBatch whose live slots hold original positions
    0..n-1 with the given statistics S and C (C defaults to all ones)."""
    scores = np.asarray(scores, dtype=np.float64)
    batch = StreamBatch(_ONE_STREAM, len(scores))
    batch.n = len(scores)
    batch.positions[0] = np.arange(len(scores))
    batch.scores[0] = scores
    batch.counts[0] = 1 if counts is None else counts
    return batch


def drive_policy(policy, capacity, rows=None, fixed_scores=None):
    """Run the production eviction path, ``policy.evict``, on a one-stream
    StreamBatch fed synthetic statistics instead of attention.

    Step t appends a slot at original position t.  With ``rows``, the step's
    row over the live slots is accumulated as ``StreamBatch.step`` does
    (S += row, C += 1) and passed to the policy as the last attention row;
    with ``fixed_scores``, the new slot gets S = fixed_scores[t] and C = 1
    and nothing accumulates (prefill's precomputed block scores), and the
    last attention row is the live slots' fixed scores, as
    ``EvictionPolicy.replay`` gives a policy that reads rows.  Whenever
    the stream holds more than ``capacity`` slots, ``policy.evict`` removes
    one, at the count of evictions before it.  Yields (batch, eviction)
    after every step, where eviction is (evicted positions, cursor) or
    None: evict's positions and the tree cursor that chose them.
    """
    batch = StreamBatch(_ONE_STREAM, capacity + 1)
    index = 0
    for t, stat in enumerate(rows if rows is not None else fixed_scores):
        n = batch.n
        batch.positions[0, n] = t
        batch.n = n + 1
        if rows is None:
            batch.scores[0, n], batch.counts[0, n] = stat, 1
            last_rows = batch.scores[:, : n + 1]
        else:
            last_rows = np.asarray(stat, dtype=np.float64)[None]
            batch.scores[0, n], batch.counts[0, n] = 0.0, 0
            batch.scores[:, : n + 1] += last_rows
            batch.counts[:, : n + 1] += 1
        eviction = None
        if batch.n > capacity:
            eviction = policy.evict(batch, last_rows, index), tree_cursor(policy, index)
            index += 1
        yield batch, eviction


def _relative_gap(a, b):
    return abs(a - b) / np.maximum(abs(a), abs(b))


def decision_margins(weights, inputs, spec, capacity, zones=None):
    """The relative margin of every decision an attending policy makes,
    (E, streams): a ``StreamBatch`` steps the inputs as decode does and,
    before each eviction, the two weights the decision separates give
    ``|a - b| / max(|a|, |b|)`` (0 on an exact tie, NaN if both are 0).
    Under ``treekv`` they are the averaged masses of the pair under the
    cursor; under ``h2o`` and ``tova``, the two smallest evictable weights
    (scores S, or the last rows), and a decision with a single evictable
    slot cannot tie, so its margin is infinite."""
    policy = make_policy(spec, capacity, zones)
    batch = StreamBatch(weights, capacity + 1, policy.reads)
    margins = []
    for rows in batch.steps(np.asarray(inputs, dtype=np.float64)):
        if batch.n <= capacity:
            continue
        index = len(margins)
        if spec == "treekv":
            left = policy.lo + tree_cursor(policy, index) - 1
            pair = slice(left, left + 2)
            margins.append(_relative_gap(*(batch.scores[:, pair] / batch.counts[:, pair]).T))
        elif policy.hi - policy.lo == 1:
            margins.append(np.full(batch.streams, np.inf))
        else:
            weight = batch.scores[:, : batch.n] if spec == "h2o" else rows
            lowest = np.sort(weight[:, policy.lo : policy.hi], axis=1)
            margins.append(_relative_gap(lowest[:, 0], lowest[:, 1]))
        policy.evict(batch, rows, index)
    return np.array(margins).reshape(-1, batch.streams)
