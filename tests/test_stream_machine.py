"""A rule-based state machine for ``StreamBatch`` against a per-stream model.

The model keeps, per stream, a plain list of (position, raw key, S, C)
entries, built with numpy alone and no package code: a key is its input's
own (1, d_model) @ (d_model, d_head) product through the stream's W_K, and
S and C add up the attention rows the batch yields.  Hypothesis interleaves
``append`` (rows shared by every stream or one per stream), runs of
``steps`` that cross ``CHUNK_ROWS`` and evict one slot from a full batch
between inputs, where ``steps`` allows it, and ``remove`` (equal, adjacent,
spread and end victims).  After every rule the batch's ``n``, positions,
raw keys and kept statistics equal the model's, every live key is encoded
bitwise at its own slot, and each stream's step rows and live arrays are
bitwise those of a lone 1x1 batch of its own weights driven through the
same calls.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from treekv import ModelDims, ModelWeights, StreamBatch, generate_weights, rotate_vector
from treekv.engine import CHUNK_ROWS

READS = [(), ("scores",), ("scores", "counts"), ("rows",), ("scores", "counts", "rows")]
VICTIMS = ["equal", "adjacent", "spread", "ends"]


class _Model:
    """Every stream's live slots as [position, raw key, S, C] lists."""

    def __init__(self, qkv):
        self.wk = [qkv[layer, head, 1].astype(np.float64)
                   for layer in range(qkv.shape[0]) for head in range(qkv.shape[1])]
        self.streams = [[] for _ in self.wk]
        self.appended = 0

    def append(self, rows):
        """Store one input per stream, rows (streams, d_model), at the next position."""
        for stream, x in enumerate(rows):
            key = np.matmul(x[None, :], self.wk[stream])[0]
            self.streams[stream].append([self.appended, key, 0.0, 0])
        self.appended += 1

    def attend(self, rows):
        """Add each stream's attention row (n,) to its slots' S and C."""
        for stream, row in zip(self.streams, rows, strict=True):
            for entry, weight in zip(stream, row.tolist(), strict=True):
                entry[2] += weight
                entry[3] += 1

    def remove(self, victims):
        return [stream.pop(victim)[0] for stream, victim in zip(self.streams, victims)]


def _draw_victims(data, n, streams):
    """One victim slot per stream of n live slots, all one slot, two
    adjacent slots, any slots or the two end slots."""
    kind = data.draw(st.sampled_from(VICTIMS), label="victims")
    slot = st.integers(0, n - 1)
    if kind == "equal":
        return [data.draw(slot)] * streams
    if kind == "adjacent":
        lo = data.draw(st.integers(0, max(n - 2, 0)))
        pick = st.integers(lo, min(lo + 1, n - 1))
    else:
        pick = slot if kind == "spread" else st.sampled_from(sorted({0, n - 1}))
    return data.draw(st.lists(pick, min_size=streams, max_size=streams))


class StreamBatchMachine(RuleBasedStateMachine):
    @initialize(layers=st.integers(1, 2), heads=st.integers(1, 3), d_model=st.integers(2, 6),
                d_head=st.integers(1, 5), slots=st.integers(1, 8), reads=st.sampled_from(READS),
                seed=st.integers(0, 2**16))
    def build(self, layers, heads, d_model, d_head, slots, reads, seed):
        weights = generate_weights(seed, ModelDims(layers, heads, d_model, d_head))
        self.batch = StreamBatch(weights, slots, reads)
        self.model = _Model(weights.qkv)
        self.alone = [StreamBatch(ModelWeights(seed, weights.qkv[layer : layer + 1,
                                                                 head : head + 1]), slots, reads)
                      for layer in range(layers) for head in range(heads)]
        self.rows = []  # (batch rows, each lone batch's rows) per input of the last steps
        self.slots, self.d_model = slots, d_model
        self.rng = np.random.default_rng(seed)

    def _rows(self, count, shared):
        """count inputs (count, 1 if shared else streams, d_model)."""
        width = 1 if shared else self.batch.streams
        return self.rng.standard_normal((count, width, self.d_model))

    def _remove(self, data):
        victims = _draw_victims(data, self.batch.n, self.batch.streams)
        evicted = self.batch.remove(np.array(victims))
        assert evicted.tolist() == self.model.remove(victims)
        for lone, victim, position in zip(self.alone, victims, evicted.tolist(), strict=True):
            assert lone.remove(np.array([victim])).tolist() == [position]

    @precondition(lambda self: self.batch.n < self.slots)
    @rule(data=st.data(), shared=st.booleans())
    def append(self, data, shared):
        count = data.draw(st.integers(1, self.slots - self.batch.n), label="count")
        xs = self._rows(count, shared)
        self.batch.append(xs)
        for stream, lone in enumerate(self.alone):
            lone.append(xs if shared else xs[:, stream : stream + 1])
        for rows in xs:
            self.model.append(np.broadcast_to(rows, (self.batch.streams, rows.shape[1])))

    @precondition(lambda self: self.batch.n < self.slots)
    @rule(data=st.data(), count=st.integers(1, 2 * CHUNK_ROWS + 3))
    def steps(self, data, count):
        xs = self._rows(count, shared=True)[:, 0]
        alone = [lone.steps(xs) for lone in self.alone]
        self.rows = []
        for index, rows in enumerate(self.batch.steps(xs)):
            self.rows.append((rows, [next(lone)[0] for lone in alone]))
            self.model.append(np.broadcast_to(xs[index], (self.batch.streams, xs.shape[1])))
            self.model.attend(rows)
            # steps allows one eviction from a full batch between inputs and
            # needs it before the next; after the last input it is optional
            full = self.batch.n == self.slots
            if full and (index < count - 1 or data.draw(st.booleans(), label="evict last")):
                self._remove(data)

    @precondition(lambda self: self.batch.n > 0)
    @rule(data=st.data())
    def remove(self, data):
        self._remove(data)

    @invariant()
    def matches_the_model(self):
        batch, n = self.batch, self.batch.n
        for stream, entries in enumerate(self.model.streams):
            assert len(entries) == n
            positions, keys, scores, counts = zip(*entries) if n else ((),) * 4
            assert batch.positions[stream, :n].tolist() == list(positions)
            assert batch.keys[stream, :n].tobytes() == np.array(keys).tobytes()
            if batch.scores is not None:
                assert batch.scores[stream, :n].tolist() == list(scores)
            if batch.counts is not None:
                assert batch.counts[stream, :n].tolist() == list(counts)

    @invariant()
    def keys_are_encoded_at_their_slots(self):
        batch = self.batch
        for slot in range(batch.n):
            want = rotate_vector(batch.keys[:, slot], slot)
            assert batch.encoded[:, slot].tobytes() == want.tobytes(), slot

    @invariant()
    def each_stream_is_a_lone_batch(self):
        batch, n = self.batch, self.batch.n
        for rows, lone_rows in self.rows:
            for stream, want in enumerate(lone_rows):
                assert rows[stream].tobytes() == want.tobytes(), stream
        for stream, lone in enumerate(self.alone):
            assert lone.n == n
            for name in ("positions", "keys", "encoded", "scores", "counts"):
                got, want = getattr(batch, name), getattr(lone, name)
                if want is not None:
                    assert got[stream, :n].tobytes() == want[0, :n].tobytes(), (name, stream)


StreamBatchMachine.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=30, stateful_step_count=12)
TestStreamBatchMachine = StreamBatchMachine.TestCase
