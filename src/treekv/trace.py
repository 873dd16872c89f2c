"""Decode traces: per-step records of a run, their serialization (JSON
lines, then one binary block of the run's inputs and projection weights),
eviction replay, and the per-position retention map.

Every stream of a run holds the same number of slots and evicts in
lockstep, so a step's evictions are one (layers, heads) grid of original
positions and the one tree cursor that chose them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .engine import ModelDims, atomic_output, project, slot_rows, stacked_weights, write_array
from .errors import ConfigError, InputError

TRACE_FORMAT = 7


@dataclass
class StepRecord:
    step: int  # 1-based generation step
    # The original positions (0-based) evicted this step, a (layers, heads)
    # int64 array, and the tree cursor that chose them.  Both are None on a
    # step that evicts nothing; the cursor is also None under a baseline.
    evicted: np.ndarray | None = None
    cursor: int | None = None
    # Not a field: ``retained_at`` replays per-step sets from the evictions.  It stays,
    # empty, for readers of format 1's ``record.retained`` (bench/layers.py).
    retained = ()


@dataclass
class DecodeTrace:
    policy: str
    capacity: int
    zones: str
    seq_len: int
    dims: ModelDims
    model_seed: int
    stream_seed: int | None = None
    steps: list[StepRecord] = field(default_factory=list)
    # Retained positions after the last step, a (layers, heads, n) int64
    # array: a checkpoint that replaying the evictions must reproduce (see
    # ``retained_at``).
    retained: np.ndarray | None = None
    # The run's (seq_len, d_model) float64 inputs and the model's float32
    # ``ModelWeights.qkv``, which every step's query, key and value follow
    # from (``held_projections``).  Decode references both; a light trace
    # is one written (and so read) without them.
    inputs: np.ndarray | None = None
    weights: np.ndarray | None = None

    def config_dict(self) -> dict:
        return {
            "policy": self.policy,
            "capacity": self.capacity,
            "zones": self.zones,
            "seq_len": self.seq_len,
            "layers": self.dims.layers,
            "heads": self.dims.heads,
            "d_model": self.dims.d_model,
            "d_head": self.dims.d_head,
            "model_seed": self.model_seed,
            "stream_seed": self.stream_seed,
        }


def write_trace(trace: DecodeTrace, path: str) -> None:
    header = {"kind": "header", "format": TRACE_FORMAT}
    header.update(trace.config_dict())
    records = [header]
    for record in trace.steps:
        line = {"kind": "step", "step": record.step}
        if record.evicted is not None:
            line["evicted"] = record.evicted.tolist()
            line["cursor"] = record.cursor
        records.append(line)
    records.append({"kind": "final", "retained": trace.retained.tolist()})
    with atomic_output(path, "wb") as fh:
        fh.write("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records).encode())
        if trace.inputs is not None:
            write_array(fh, trace.inputs, "<f8")
            write_array(fh, trace.weights, "<f4")


def _grid(raw, shape, what, kinds, dtype):
    """A JSON grid as an array of ``shape`` (None: any length) and ``dtype``,
    every leaf of a type in ``kinds``.  JSON null, booleans, strings, NaN and
    Infinity are rejected, not converted."""
    sizes = "x".join("n" if size is None else str(size) for size in shape)
    names = "/".join(kind.__name__ for kind in kinds)
    message = f"{what} is not a {sizes} grid of finite {names} values"
    try:
        leaves = raw
        for _ in shape[1:]:
            leaves = chain.from_iterable(leaves)
        types = set(map(type, leaves))
        array = np.asarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(message) from exc
    if (types - set(kinds) or array.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, array.shape))
            or not np.isfinite(array).all()):
        raise InputError(message)
    return array


def _records(fh, path: str, count: int):
    """The next ``count`` JSON-object lines of ``fh``; fewer is truncation."""
    for _ in range(count):
        line = fh.readline()
        if not line:
            raise InputError(f"truncated trace {path}: it ends before its final record")
        record = json.loads(line.decode())
        if not isinstance(record, dict):
            raise InputError(f"trace {path} has a record that is not a JSON object")
        yield record


def _header_trace(header: dict, path: str) -> DecodeTrace:
    """The trace a header record declares, with no steps yet."""
    if header.get("kind") != "header":
        raise InputError(f"trace {path} does not start with a header record")
    if header.get("format") != TRACE_FORMAT:
        raise InputError(f"unsupported trace format {header.get('format')}")
    required = ("policy", "capacity", "zones", "seq_len", "layers", "heads", "d_model",
                "d_head", "model_seed")
    missing = [key for key in required if key not in header]
    if missing:
        raise InputError(f"trace header is missing fields: {missing}")
    dims = ModelDims(header["layers"], header["heads"], header["d_model"], header["d_head"])
    dims.validate(InputError, "trace header: ")
    seq_len = header["seq_len"]
    if type(seq_len) is not int or seq_len < 0:
        raise InputError(f"trace header: seq_len must be a non-negative int, got {seq_len!r}")
    for key, kinds in (("policy", (str,)), ("zones", (str,)), ("capacity", (int,)),
                       ("model_seed", (int,)), ("stream_seed", (int, type(None)))):
        if type(header.get(key)) not in kinds:  # not isinstance: a bool is no int here
            raise InputError(f"trace header: {key} has the wrong type: {header.get(key)!r}")
    return DecodeTrace(policy=header["policy"], capacity=header["capacity"], zones=header["zones"],
                       seq_len=seq_len, dims=dims, model_seed=header["model_seed"],
                       stream_seed=header.get("stream_seed"))


def read_trace(path: str) -> DecodeTrace:
    """Read a trace: the header, exactly ``seq_len + 1`` more JSON lines, then
    the rest of the file, which is either empty or the whole binary block.
    Only a valid trace is returned: its evictions replay to its final
    record (``validate_trace``)."""
    try:
        with open(path, "rb") as fh:
            trace = _header_trace(next(_records(fh, path, 1)), path)
            *body, final = _records(fh, path, trace.seq_len + 1)
            block = fh.read()
    except (OSError, ValueError, RecursionError) as exc:  # bad or too deep JSON, bad UTF-8
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    dims = trace.dims
    shape = (dims.layers, dims.heads, 3, dims.d_model, dims.d_head)
    split = 8 * trace.seq_len * dims.d_model  # Python ints: header dims can exceed int64
    size = split + 4 * math.prod(shape)
    if len(block) not in (0, size):
        raise InputError(f"trace {path} ends in {len(block)} bytes, neither none nor "
                         f"the {size} bytes of its inputs and weights")
    if final.get("kind") != "final":
        raise InputError(f"trace {path} holds no final record after {trace.seq_len} steps")
    streams = (dims.layers, dims.heads)
    for index, raw in enumerate(body, start=1):
        cursor = raw.get("cursor")
        if raw.get("kind") != "step" or raw.get("step") != index:
            raise InputError(f"trace step record {index} is malformed or out of order")
        if cursor is not None and (type(cursor) is not int or "evicted" not in raw):
            raise InputError(f"cursor at step {index} is not an int beside an evicted grid")
        trace.steps.append(StepRecord(index, cursor=cursor))
    at = [index for index, raw in enumerate(body, start=1) if "evicted" in raw]
    # with no evictions, the grids are (0, layers, heads), not a list's (0,)
    raws = [body[index - 1]["evicted"] for index in at] or np.empty((0, *streams))
    try:  # every grid in one pass; if that fails, the first bad grid names its step
        grids = _grid(raws, (len(at), *streams), "evicted", (int,), np.int64)
    except InputError:
        for index, raw in zip(at, raws):
            _grid(raw, streams, f"evicted at step {index}", (int,), np.int64)
        raise
    for index, grid in zip(at, grids):
        trace.steps[index - 1].evicted = grid
    trace.retained = _grid(final.get("retained"), (*streams, None), "final retained",
                           (int,), np.int64)
    if block:
        trace.inputs = np.frombuffer(block, "<f8", split // 8).reshape(-1, dims.d_model)
        trace.weights = np.frombuffer(block, "<f4", offset=split).reshape(shape)
        if not (np.isfinite(trace.inputs).all() and np.isfinite(trace.weights).all()):
            raise InputError(f"trace {path} holds a NaN or infinite input or weight")
    validate_trace(trace)
    return trace


def retained_at(trace: DecodeTrace, step: int) -> np.ndarray:
    """Retained positions after the given 1-based step (0: before the
    first) as a (layers, heads, n) int64 array, replayed from the
    evictions.  Step t appends position t - 1 to every stream and an
    evicting step removes one position from each, so an eviction at step t
    is valid iff it names a position 0 <= p < t that its stream has not
    evicted before.  When all are, the retained set after step t is
    0..t-1 less the positions evicted by then, in increasing order."""
    if not 0 <= step <= len(trace.steps):
        raise InputError(f"step {step} not present in trace of length {len(trace.steps)}")
    layers, heads = trace.dims.layers, trace.dims.heads
    streams = layers * heads
    records = [record for record in trace.steps[:step] if record.evicted is not None]
    evicted = np.array([record.evicted for record in records], dtype=np.int64)
    evicted = evicted.reshape(len(records), streams)
    at = np.array([record.step for record in records], dtype=np.int64)
    # Valid positions get one key per (stream, position); a key shared across
    # streams involves an invalid position, so the first flagged is invalid.
    keys = evicted + (step + 1) * np.arange(streams)
    first = np.zeros(evicted.size, dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    bad = ~first.reshape(evicted.shape) | (evicted < 0) | (evicted >= at[:, None])
    if bad.any():
        row, stream = divmod(int(bad.argmax()), streams)
        layer, head = divmod(stream, heads)
        raise InputError(
            f"step {records[row].step}: eviction of position {evicted[row, stream]} "
            f"not present in stream ({layer}, {head})"
        )
    live = np.ones((streams, step), dtype=bool)
    live[np.arange(streams), evicted] = False
    return np.nonzero(live)[1].reshape(layers, heads, step - len(records))


def validate_trace(trace: DecodeTrace) -> None:
    """Check that the trace is a run decode could make: the header's
    policy, capacity and zones build a policy by decode's rules, an
    evicting step records a tree cursor exactly when that policy is a tree,
    replaying the evictions to the last step reproduces the final retained
    checkpoint, and the final width is the one the policy keeps,
    min(seq_len, capacity) (seq_len under ``full``).  Raises InputError on
    any inconsistency.  ``read_trace`` calls it on every trace it reads; a
    trace built in memory can be checked with it directly."""
    from .policies import make_policy  # policies imports this module

    try:
        policy = make_policy(trace.policy, trace.capacity, trace.zones)
    except ConfigError as exc:
        raise InputError(f"trace header: {exc}") from None
    tree = policy.cursor is not None
    for record in trace.steps:
        if record.evicted is not None and (record.cursor is not None) != tree:
            raise InputError(f"step {record.step}: policy {trace.policy} records "
                             f"{'no' if tree else 'a'} tree cursor for its eviction")
    if not np.array_equal(retained_at(trace, len(trace.steps)), trace.retained):
        raise InputError("replayed retained sets diverge from the final checkpoint")
    width = trace.seq_len if policy.capacity is None else min(trace.seq_len, policy.capacity)
    if trace.retained.shape[-1] != width:
        raise InputError(f"trace keeps {trace.retained.shape[-1]} positions per stream, "
                         f"but {trace.policy} at c={trace.capacity} keeps {width}")


def distribution_map(trace: DecodeTrace) -> np.ndarray:
    """Per layer, the fraction of heads retaining each original position at
    the final step.  Shape (layers, seq_len)."""
    if not trace.steps:
        raise InputError("trace has no step records")
    dims = trace.dims
    grid = np.zeros((dims.layers, trace.seq_len), dtype=np.float64)
    np.add.at(grid, (np.arange(dims.layers)[:, None, None], trace.retained), 1.0)
    return grid / dims.heads


def held_projections(trace: DecodeTrace, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The query (layers, heads, d_head) of the given 1-based step's own
    input, and the keys and values (layers, heads, n, d_head) of the n slots
    each stream holds at its attention time: bitwise the queries and keys
    ``StreamBatch`` projected, and the values that are projected the same
    way, each input its own product (``engine.project``)."""
    if not 1 <= step <= len(trace.steps):
        raise InputError(f"step {step} not present in trace of length {len(trace.steps)}")
    if trace.inputs is None:
        raise InputError("light trace: it lacks the run's inputs and projection weights")
    before = retained_at(trace, step - 1)
    slots = np.insert(before, before.shape[2], step - 1, axis=2)  # then the step's own input
    # each stream's matrices against each input it holds
    stack = stacked_weights(trace.weights).reshape(3, *slots.shape[:2], 1, *trace.weights.shape[3:])
    keys, values = project(trace.inputs[slots], stack[1:])
    return project(trace.inputs[step - 1], stack[0, :, :, 0]), keys, values


def signals_at_step(trace: DecodeTrace, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-eviction cache view of every stream at the given 1-based step:
    the attention rows over the slots present at attention time, (layers,
    heads, n), and their values, (layers, heads, n, d_head), bitwise decode's."""
    q, keys, values = held_projections(trace, step)
    return slot_rows(q, keys), values
