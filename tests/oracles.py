"""Brute-force reference implementations used only by tests.

Everything here is written directly against the documented behaviour
(naive lists, literal convolution sums, dense recomputation) and shares no
code with the package modules it validates.
"""

from __future__ import annotations

import json
import math
import os

_SQRT_HALF = math.sqrt(2.0) / 2.0

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# Tree-cycle cache simulation (slot-by-slot, plain lists)


def oracle_tree_sim(c, seq_len, rows=None):
    """Naive tree-eviction replay.

    rows: per-step attention rows (lists), or None for select-left mode.
    Returns (retained 1-based token numbers, cursor history).
    """
    cache = []  # 1-based token numbers
    mass = []
    counts = []
    idx = 1
    cursors = []
    for t in range(1, seq_len + 1):
        cache.append(t)
        mass.append(0.0)
        counts.append(0)
        counts = [value + 1 for value in counts]
        if rows is not None:
            row = rows[t - 1]
            assert len(row) == len(cache)
            mass = [m + r for m, r in zip(mass, row)]
        if len(cache) > c:
            if rows is None:
                victim = idx
            else:
                averaged = [m / k for m, k in zip(mass, counts)]
                victim = idx + 1 if averaged[idx - 1] > averaged[idx] else idx
            cursors.append(idx)
            del cache[victim - 1]
            del mass[victim - 1]
            del counts[victim - 1]
            idx = idx % c + 1
    return cache, cursors


def oracle_retained_at(evictions, layers, heads, step):
    """Naive eviction replay on plain lists.

    evictions[t - 1] is step t's evicted positions as [layer][head] nested
    lists, or None.  Step t appends position t - 1 to every stream, then
    removes the position it evicts from each, in (layer, head) order; an
    eviction of a position the stream does not hold raises ValueError with
    the text of the package's InputError.  Returns the [layer][head] lists
    of retained positions after ``step``.
    """
    live = [[[] for _ in range(heads)] for _ in range(layers)]
    for t, grid in enumerate(evictions[:step], start=1):
        for layer in range(layers):
            for head in range(heads):
                live[layer][head].append(t - 1)
                if grid is None:
                    continue
                position = grid[layer][head]
                if position not in live[layer][head]:
                    raise ValueError(f"step {t}: eviction of position {position} "
                                     f"not present in stream ({layer}, {head})")
                live[layer][head].remove(position)
    return live


# ---------------------------------------------------------------------------
# Wavelet transform via literal convolution sums


def _filter_taps():
    g = {0: _SQRT_HALF, 1: _SQRT_HALF}
    h = {0: -_SQRT_HALF, 1: _SQRT_HALF}
    return g, h


def _oracle_single(signal):
    samples = list(signal)
    if len(samples) % 2:
        samples = samples + [0.0]
    g, h = _filter_taps()
    half = len(samples) // 2
    approx, detail = [], []
    for n in range(1, half + 1):  # 1-based output index
        a = 0.0
        d = 0.0
        for k in range(1, len(samples) + 1):  # 1-based signal index
            shift = 2 * n - k
            if shift in g:
                a += samples[k - 1] * g[shift]
                d += samples[k - 1] * h[shift]
        approx.append(a)
        detail.append(d)
    return approx, detail


def oracle_dwt(signal, levels):
    """Coefficients [A_L, D_L, ..., D_1] via the literal filter sums."""
    approx = list(signal)
    details = []
    for _ in range(levels):
        approx, detail = _oracle_single(approx)
        details.append(detail)
    return [approx] + list(reversed(details))


def oracle_reconstruct_single(approx, detail):
    """Literal odd/even synthesis formula, 1-based indexing."""
    out = []
    for n in range(1, 2 * len(approx) + 1):
        if n % 2 == 1:
            out.append(_SQRT_HALF * (approx[(n + 1) // 2 - 1] + detail[(n + 1) // 2 - 1]))
        else:
            out.append(_SQRT_HALF * (approx[n // 2 - 1] - detail[n // 2 - 1]))
    return out


def oracle_component(signal, levels, band):
    """Decompose, zero every band but one, reconstruct, trim to length.

    band: "A" for the deepest approximation or "D<level>".
    """
    lengths = [len(signal)]
    approx = list(signal)
    details = []
    for _ in range(levels):
        approx, detail = _oracle_single(approx)
        details.append(detail)  # details[i] is level i+1
        lengths.append(len(approx))
    if band == "A" or band == f"A{levels}":
        current = list(approx)
    else:
        current = [0.0] * len(approx)
    for level in range(levels, 0, -1):
        detail = details[level - 1]
        if band == f"D{level}":
            used = detail
        else:
            used = [0.0] * len(detail)
        current = oracle_reconstruct_single(current, used)
        current = current[: lengths[level - 1]]
    return current


# ---------------------------------------------------------------------------
# Dense full attention with per-step recomputation


def _oracle_rotate(vector, position, d_head):
    out = list(vector)
    half = d_head // 2
    for i in range(half):
        angle = position * (10000.0 ** (-2.0 * i / d_head))
        even = vector[2 * i]
        odd = vector[2 * i + 1]
        out[2 * i] = even * math.cos(angle) - odd * math.sin(angle)
        out[2 * i + 1] = even * math.sin(angle) + odd * math.cos(angle)
    return out


def _matvec(x, matrix):
    rows = len(x)
    cols = len(matrix[0])
    return [sum(x[r] * float(matrix[r][c]) for r in range(rows)) for c in range(cols)]


def oracle_full_attention(weights, inputs):
    """Per-step outputs with an unbounded cache, everything recomputed.

    Returns outputs[step][layer][head] as lists of d_head floats.
    """
    dims = weights.dims
    inputs = [list(map(float, row)) for row in inputs]
    per_step = []
    for t in range(1, len(inputs) + 1):
        step_out = []
        for layer in range(dims.layers):
            layer_out = []
            for head in range(dims.heads):
                wq = weights.wq[layer][head]
                wk = weights.wk[layer][head]
                wv = weights.wv[layer][head]
                keys = []
                values = []
                for pos in range(t):
                    keys.append(
                        _oracle_rotate(_matvec(inputs[pos], wk), pos, dims.d_head)
                    )
                    values.append(_matvec(inputs[pos], wv))
                query = _oracle_rotate(
                    _matvec(inputs[t - 1], wq), t - 1, dims.d_head
                )
                scale = math.sqrt(dims.d_head)
                logits = [
                    sum(q * k for q, k in zip(query, key)) / scale for key in keys
                ]
                peak = max(logits)
                expo = [math.exp(l - peak) for l in logits]
                norm = sum(expo)
                row = [e / norm for e in expo]
                out = [
                    sum(row[i] * values[i][j] for i in range(t))
                    for j in range(dims.d_head)
                ]
                layer_out.append(out)
            step_out.append(layer_out)
        per_step.append(step_out)
    return per_step


def _oracle_softmax(logits):
    peak = max(logits)
    expo = [math.exp(l - peak) for l in logits]
    norm = sum(expo)
    return [e / norm for e in expo]


def _oracle_victim(spec, n_sink, n_recent, cursor, mass, counts, row):
    """0-based slot to evict from an over-capacity stream of len(mass) slots."""
    if spec == "treekv-left":
        return n_sink + cursor - 1
    if spec == "treekv":
        left = n_sink + cursor - 1
        if mass[left] / counts[left] > mass[left + 1] / counts[left + 1]:
            return left + 1
        return left
    if spec == "streaming":
        return n_sink
    weights = mass if spec == "h2o" else row  # h2o: cumulative mass, tova: last row
    middle = range(n_sink, len(mass) - n_recent)
    return min(middle, key=lambda slot: weights[slot])  # first minimum: leftmost tie


def oracle_decode(weights, inputs, spec, capacity, zones):
    """Naive bounded decode of every (layer, head) stream, one at a time.

    zones is (n_sink, n_recent).  Keys are re-rotated at their slot index on
    every step and the query at the last slot.  Returns one dict per step
    with "events" [(layer, head, evicted position, cursor or None)] in
    stream order, and "retained", "rows", "values", "outputs", each indexed
    [layer][head].
    """
    dims = weights.dims
    d = dims.d_head
    n_sink, n_recent = zones
    cycle = capacity - n_sink - n_recent
    inputs = [list(map(float, row)) for row in inputs]
    steps = [
        {
            "events": [],
            **{key: [[None] * dims.heads for _ in range(dims.layers)]
               for key in ("retained", "rows", "values", "outputs")},
        }
        for _ in inputs
    ]
    for layer in range(dims.layers):
        for head in range(dims.heads):
            wq = weights.wq[layer][head]
            wk = weights.wk[layer][head]
            wv = weights.wv[layer][head]
            keys, values, positions, mass, counts = [], [], [], [], []
            cursor = 1
            for t, x in enumerate(inputs):
                keys.append(_matvec(x, wk))
                values.append(_matvec(x, wv))
                positions.append(t)
                mass.append(0.0)
                counts.append(0)
                n = len(keys)
                query = _oracle_rotate(_matvec(x, wq), n - 1, d)
                logits = [
                    sum(a * b for a, b in zip(query, _oracle_rotate(key, slot, d)))
                    / math.sqrt(d)
                    for slot, key in enumerate(keys)
                ]
                row = _oracle_softmax(logits)
                mass = [m + r for m, r in zip(mass, row)]
                counts = [k + 1 for k in counts]
                record = steps[t]
                record["rows"][layer][head] = row
                record["values"][layer][head] = values[-1]
                record["outputs"][layer][head] = [
                    sum(row[i] * values[i][j] for i in range(n)) for j in range(d)
                ]
                if spec != "full" and n > capacity:
                    victim = _oracle_victim(
                        spec, n_sink, n_recent, cursor, mass, counts, row
                    )
                    tree = spec.startswith("treekv")
                    record["events"].append(
                        (layer, head, positions[victim], cursor if tree else None)
                    )
                    if tree:
                        cursor = cursor % cycle + 1
                    for column in (keys, values, positions, mass, counts):
                        del column[victim]
                record["retained"][layer][head] = list(positions)
    return steps


def oracle_window_rows(weights, inputs, window_start):
    """Causal softmax rows of the queries at positions window_start.. over
    all earlier keys, each rotated at its own position; rows[stream] lists
    them in position order, stream = layer * heads + head."""
    dims = weights.dims
    d = dims.d_head
    inputs = [list(map(float, row)) for row in inputs]
    rows = []
    for layer in range(dims.layers):
        for head in range(dims.heads):
            keys = [
                _oracle_rotate(_matvec(x, weights.wk[layer][head]), pos, d)
                for pos, x in enumerate(inputs)
            ]
            stream = []
            for pos in range(window_start, len(inputs)):
                query = _oracle_rotate(_matvec(inputs[pos], weights.wq[layer][head]), pos, d)
                stream.append(_oracle_softmax([
                    sum(a * b for a, b in zip(query, key)) / math.sqrt(d)
                    for key in keys[: pos + 1]
                ]))
            rows.append(stream)
    return rows


def oracle_block_scores(rows, prompt_len, block_size):
    """Mean received attention per token over the window rows (zero past a
    row's causal horizon), averaged over each block's tokens."""
    per_token = [
        sum(row[token] for row in rows if token < len(row)) / len(rows)
        for token in range(prompt_len)
    ]
    return [
        sum(per_token[start : start + block_size]) / len(per_token[start : start + block_size])
        for start in range(0, prompt_len, block_size)
    ]


def oracle_prefill_blocks(scores, cache_blocks):
    """Retained block indices of each stream, replayed one stream at a time.

    scores: per-stream lists of block scores, the last block being the
    observation window.  The content blocks arrive in order; each arrival
    that puts the cache over ``cache_blocks`` removes the lower-scored block
    of the pair under a 1-based cursor (ties to the left), and the cursor
    then advances cyclically through 1..cache_blocks.  Scores are frozen.
    """
    kept = []
    for stream in scores:
        window = len(stream) - 1
        held = []
        idx = 1
        for block in range(window):
            held.append(block)
            if len(held) > cache_blocks:
                left, right = held[idx - 1], held[idx]
                del held[idx if stream[left] > stream[right] else idx - 1]
                idx = idx % cache_blocks + 1
        kept.append(held + [window])
    return kept


# ---------------------------------------------------------------------------
# Compare summary cells (plain sets and counting loops)


def oracle_compare_cells(final, reference, seq_len):
    """The overlap and quartile cells of one ``compare`` row, as strings.

    final, reference: retained positions per [layer][head].  A stream's
    overlap is the count of positions it shares with the reference stream
    over the larger of the two sets; the cell is their mean over streams in
    (layer, head) order, summed left to right.  Quartile q counts the
    positions p with q*seq_len//4 <= p < (q+1)*seq_len//4 over all streams,
    divided by the stream count.
    """
    bounds = [q * seq_len // 4 for q in range(5)]
    overlaps = []
    counts = [0, 0, 0, 0]
    for layer in range(len(final)):
        for head in range(len(final[layer])):
            mine, theirs = set(final[layer][head]), set(reference[layer][head])
            overlaps.append(len(mine & theirs) / max(len(mine), len(theirs)))
            for position in mine:
                for q in range(4):
                    if bounds[q] <= position < bounds[q + 1]:
                        counts[q] += 1
    streams = len(overlaps)
    return [repr(sum(overlaps) / streams)] + [repr(count / streams) for count in counts]


# ---------------------------------------------------------------------------
# Weight-recurrence reimplementation (from the documented definition)


_M64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _oracle_mix(z):
    z = (z + _GOLD) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class _OracleStream:
    def __init__(self, seed):
        self.state = seed & _M64
        self.spare = None

    def word(self):
        out = _oracle_mix(self.state)
        self.state = (self.state + _GOLD) & _M64
        return out

    def uniform(self):
        return (self.word() >> 11) * 2.0**-53

    def normal(self):
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        while True:
            v1 = 2.0 * self.uniform() - 1.0
            v2 = 2.0 * self.uniform() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self.spare = v2 * factor
                return v1 * factor


def oracle_weight_entries(seed, heads, d_model, d_head, layer, head, kind, count):
    """First `count` row-major float64 entries of one projection matrix.

    kind: 0 for the query matrix, 1 for key, 2 for value.  Tags and scale
    follow the documented format: tag = 16 + 3*(layer*heads + head) + kind,
    scale = 1/sqrt(d_model).
    """
    tag = 16 + 3 * (layer * heads + head) + kind
    stream = _OracleStream(_oracle_mix((seed & _M64) ^ _oracle_mix(tag)))
    scale = 1.0 / math.sqrt(d_model)
    return [stream.normal() * scale for _ in range(count)]


# ---------------------------------------------------------------------------
# Golden fixture management (regeneration gated behind --regen-golden)

GOLDEN_ATTENTION = os.path.join(FIXTURES_DIR, "golden_attention.json")

GOLDEN_SPEC = {
    "seed": 11,
    "layers": 2,
    "heads": 2,
    "d_model": 8,
    "d_head": 4,
    "steps": 3,
}


def write_golden_attention(weights, inputs):
    payload = {
        "spec": GOLDEN_SPEC,
        "outputs": oracle_full_attention(weights, inputs),
    }
    with open(GOLDEN_ATTENTION, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return payload


def read_golden_attention():
    with open(GOLDEN_ATTENTION, "r", encoding="utf-8") as fh:
        return json.load(fh)
