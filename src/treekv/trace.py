"""Decode traces: the evicted positions of a run, their serialization (one
JSON header line, then one binary block of the evictions, each at the
narrowest unsigned width that holds seq_len - 1, and, at full detail, the
run's inputs and projection weights, each stored only if the header's seed
cannot regenerate it bitwise), eviction replay, and the per-position
retention map.

Every stream of a run holds the same number of slots and evicts in
lockstep, and a bounded policy evicts exactly once per step as soon as its
cache is full.  So a run's evictions are one (layers, heads) grid of
original positions per step past the capacity: the policy and seq_len fix
the steps that evict, the tree cursor of eviction i is i mod cycle + 1
(``TreeKV.cycle``), and replaying the evictions gives the retained set
after any step (``retained_at``), so none is stored.  A
policy that reads no statistics (``streaming``, ``treekv-left``) chooses
from slot indices and the eviction index alone, so the header fixes its
victims too: ``validate_trace`` replays them (``EvictionPolicy.replay``)
as decode does."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .engine import (ModelDims, ModelWeights, StreamBatch, atomic_output, generate_weights,
                     project, synthesize_embeddings, write_array)
from .errors import ConfigError, InputError, InvariantViolation

if TYPE_CHECKING:
    from .policies import EvictionPolicy

TRACE_FORMAT = 10
# The blocks a full trace records, in file order, each with the type its
# file holds it in.  The header names each one's source: "stored" (in the
# file), "seed" (regenerated from the header's seeds) or null (a light trace).
BLOCKS = {"inputs": "<f8", "weights": "<f4"}
# The run fields a header holds after "kind" and "format", in file order,
# each with the JSON types its value may hold.  All are required: the
# policy's spec, capacity and zones, ``ModelDims`` fields from "layers" to
# "d_head", and ``DecodeTrace`` fields.  Checked by ``type``, not
# ``isinstance``: a bool is no int here.
RUN_FIELDS = {"policy": (str,), "capacity": (int,), "zones": (str,), "seq_len": (int,),
              "layers": (int,), "heads": (int,), "d_model": (int,), "d_head": (int,),
              "model_seed": (int,), "stream_seed": (int, type(None))}


@dataclass
class DecodeTrace:
    policy: EvictionPolicy
    seq_len: int
    dims: ModelDims
    model_seed: int
    stream_seed: int | None = None
    # The original positions (0-based) evicted, an (E, layers, heads) int64
    # array whose row i is step capacity + 1 + i (the policy's
    # ``eviction_count``).  A file holds them at ``position_dtype(seq_len)``.
    evicted: np.ndarray | None = None
    # The run's (seq_len, d_model) float64 inputs and the model's float32
    # ``ModelWeights.qkv``, which every step's attention rows and values
    # follow from (``signals_at_step``).  Decode references both; a light trace
    # is one written (and so read) without them.  A file omits either one
    # that its seed regenerates, and ``read_trace`` regenerates it.
    inputs: np.ndarray | None = None
    weights: np.ndarray | None = None
    # Not a field, and always empty: bench/layers.py, its only reader,
    # counts the positions of each per-step record's ``retained``.
    steps = ()

    def config_dict(self) -> dict:
        """The header's run fields (``RUN_FIELDS``), in file order."""
        policy = self.policy
        values = {**vars(self), **vars(self.dims), "policy": policy.spec,
                  "capacity": policy.capacity, "zones": str(policy.zones)}
        return {key: values[key] for key in RUN_FIELDS}

    @property
    def retained(self) -> np.ndarray:
        """The positions held after the last step (``retained_at``)."""
        return retained_at(self, self.seq_len)


def position_dtype(seq_len: int) -> np.dtype:
    """The little-endian type a trace file stores its evicted positions in:
    the narrowest unsigned integer that holds seq_len - 1, the last
    position (uint8 up to seq_len 256, then uint16, uint32 and uint64)."""
    dtype = np.min_scalar_type(max(seq_len - 1, 0))
    if dtype.kind != "u":  # numpy's object type: no 64-bit integer holds it
        raise InputError(f"trace header: seq_len {seq_len} has positions past 64 bits")
    return dtype.newbyteorder("<")


def _block_shapes(trace: DecodeTrace) -> dict:
    dims = trace.dims
    return {"inputs": (trace.seq_len, dims.d_model),
            "weights": (dims.layers, dims.heads, 3, dims.d_model, dims.d_head)}


def _regenerate(trace: DecodeTrace, name: str) -> np.ndarray:
    """The block ``name`` drawn from the header's seed: the weights from
    ``model_seed``, the inputs from ``stream_seed``.  Each is allocated
    whole before any draw, so one too large to hold fails at once."""
    if name == "weights":
        return generate_weights(trace.model_seed, trace.dims).qkv
    return synthesize_embeddings(trace.stream_seed, trace.seq_len, trace.dims.d_model)


def _source(trace: DecodeTrace, name: str) -> str:
    """"seed" if the header's seed regenerates the block bitwise, as the file
    would hold it, else "stored".  Bytes are compared, not values, so a
    -0.0 where the seed draws 0.0 is stored."""
    if name == "inputs" and trace.stream_seed is None:
        return "stored"
    dtype = BLOCKS[name]
    bits = [np.ascontiguousarray(a, dtype).reshape(-1).view(np.uint8)
            for a in (getattr(trace, name), _regenerate(trace, name))]
    return "seed" if np.array_equal(*bits) else "stored"


def write_trace(trace: DecodeTrace, path: str) -> None:
    """Write the trace; its policy must be of the class ``POLICIES`` holds
    for its spec, which its header rebuilds, and its positions must lie in
    0..seq_len - 1, which the file's width holds (``position_dtype``).  A
    full trace (one with inputs) must hold both blocks at the header's
    shapes; it stores each that the header's seed does not regenerate
    bitwise (``_source``), and names each one's source."""
    from .policies import POLICIES  # policies imports this module

    policy = trace.policy
    if type(policy) is not POLICIES.get(policy.spec):
        raise InvariantViolation(f"a trace header cannot rebuild the {type(policy).__name__} "
                                 f"policy {policy.spec!r} at c={policy.capacity}")
    evicted = trace.evicted
    if evicted.size and not 0 <= evicted.min() <= evicted.max() < trace.seq_len:
        raise InvariantViolation(f"evicted positions outside 0..{trace.seq_len - 1}")
    full = trace.inputs is not None
    for name, shape in _block_shapes(trace).items():
        held = np.shape(getattr(trace, name))  # None: ()
        if full and held != shape:
            raise InvariantViolation(f"full trace: {name} of shape {held}, not {shape}")
    sources = {name: _source(trace, name) if full else None for name in BLOCKS}
    header = {"kind": "header", "format": TRACE_FORMAT, **trace.config_dict(), **sources}
    with atomic_output(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        write_array(fh, evicted, position_dtype(trace.seq_len))
        for name, dtype in BLOCKS.items():
            if sources[name] == "stored":
                write_array(fh, getattr(trace, name), dtype)


def _header_trace(header, path: str) -> tuple[DecodeTrace, dict]:
    """The trace a header record declares, with no evictions yet, and the
    source of each of its blocks.  Every key of the header, ``kind``,
    ``format``, the ``RUN_FIELDS`` and the ``BLOCKS`` sources, is required,
    and the policy is built here, once, by decode's rules (``make_policy``)."""
    from .policies import make_policy  # policies imports this module

    if not isinstance(header, dict) or header.get("kind") != "header":
        raise InputError(f"trace {path} does not start with a header record")
    if header.get("format") != TRACE_FORMAT:
        raise InputError(f"unsupported trace format {header.get('format')}")
    missing = [key for key in (*RUN_FIELDS, *BLOCKS) if key not in header]
    if missing:
        raise InputError(f"trace header is missing fields: {missing}")
    for key, kinds in RUN_FIELDS.items():
        if type(header[key]) not in kinds:
            raise InputError(f"trace header: {key} has the wrong type: {header[key]!r}")
    run = {key: header[key] for key in RUN_FIELDS}
    dims = ModelDims(**{field.name: run.pop(field.name) for field in fields(ModelDims)})
    dims.validate(InputError, "trace header: ")
    if run["seq_len"] < 0:
        raise InputError(f"trace header: seq_len must be non-negative, got {run['seq_len']}")
    sources = {name: header[name] for name in BLOCKS}
    for name, source in sources.items():
        if source not in (None, "stored", "seed"):
            raise InputError(f"trace header: {name} must be \"stored\", \"seed\" or null, "
                             f"got {source!r}")
    if (sources["inputs"] is None) != (sources["weights"] is None):
        raise InputError("trace header: inputs and weights must both be null (a light trace) "
                         "or neither")
    if sources["inputs"] == "seed" and run["stream_seed"] is None:
        raise InputError("trace header: inputs from the seed, but stream_seed is null")
    try:
        policy = make_policy(run.pop("policy"), run.pop("capacity"), run.pop("zones"))
    except ConfigError as exc:
        raise InputError(f"trace header: {exc}") from None
    return DecodeTrace(policy, dims=dims, **run), sources


def read_trace(path: str) -> DecodeTrace:
    """Read a trace: the header line, then the rest of the file, which is
    the block of evictions followed by each block the header names
    "stored", so the header implies one length.  Only a valid trace is
    returned (``validate_trace``); only then is each "seed" block
    regenerated, so a full trace holds its inputs and weights whatever
    their source."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            rest = fh.read()
    except (OSError, ValueError, RecursionError) as exc:  # bad or too deep JSON, bad UTF-8
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    trace, sources = _header_trace(header, path)
    dims = trace.dims
    rows = (trace.policy.eviction_count(trace.seq_len), dims.layers, dims.heads)
    dtype = position_dtype(trace.seq_len)
    shapes = _block_shapes(trace)
    stored = [name for name in BLOCKS if sources[name] == "stored"]
    # Python ints: header dims can exceed int64
    size = dtype.itemsize * math.prod(rows) + sum(
        np.dtype(BLOCKS[name]).itemsize * math.prod(shapes[name]) for name in stored)
    if len(rest) != size:
        raise InputError(f"trace {path} holds {len(rest)} bytes after its header, not the "
                         f"{size} its header implies")
    # widened once: in memory, every position is int64
    trace.evicted = np.frombuffer(rest, dtype, math.prod(rows)).astype(np.int64).reshape(rows)
    offset = trace.evicted.size * dtype.itemsize
    for name in stored:
        block = np.frombuffer(rest, BLOCKS[name], math.prod(shapes[name]), offset)
        if not np.isfinite(block).all():
            raise InputError(f"trace {path} holds a NaN or infinite input or weight")
        setattr(trace, name, block.reshape(shapes[name]))
        offset += block.nbytes
    validate_trace(trace)
    for name in reversed(BLOCKS):  # weights first: a model too large to hold draws no input
        if sources[name] == "seed":
            setattr(trace, name, _regenerate(trace, name))
    return trace


def retained_at(trace: DecodeTrace, step: int) -> np.ndarray:
    """Retained positions after the given 1-based step (0: before the
    first) as a (layers, heads, n) int64 array, replayed from the
    evictions.  Step t appends position t - 1 to every stream and an
    evicting step removes one position from each, so an eviction at step t
    is valid iff it names a position 0 <= p < t that its stream has not
    evicted before.  When all are, the retained set after step t is
    0..t-1 less the positions evicted by then, in increasing order."""
    if not 0 <= step <= trace.seq_len:
        raise InputError(f"step {step} not present in trace of length {trace.seq_len}")
    layers, heads = trace.dims.layers, trace.dims.heads
    streams = layers * heads
    # Allocated first: a mask too large to hold fails before any int64 below
    # can overflow, as every one is at most (step + 2) * streams.
    try:
        live = np.ones((streams, step), dtype=bool)
    except ValueError as exc:  # more bytes than numpy can address
        raise MemoryError(exc) from None
    evicted = trace.evicted[: max(0, step - trace.policy.capacity)].reshape(-1, streams)
    at = np.arange(step - len(evicted), step) + 1  # each row's step, capacity + 1 on
    # Clipped to -1..step, a position stays as valid as it was, and valid
    # positions get one key per (stream, position): a key seen before is a
    # repeat, or involves an invalid position, so the first flagged is invalid.
    keys = np.clip(evicted, -1, step) + (step + 2) * np.arange(streams)
    first = np.zeros(evicted.size, dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    bad = ~first.reshape(evicted.shape) | (evicted < 0) | (evicted >= at[:, None])
    if bad.any():
        row, stream = divmod(int(bad.argmax()), streams)
        layer, head = divmod(stream, heads)
        raise InputError(
            f"step {at[row]}: eviction of position {evicted[row, stream]} "
            f"not present in stream ({layer}, {head})"
        )
    live[np.arange(streams), evicted] = False
    return np.nonzero(live)[1].reshape(layers, heads, step - len(evicted))


def validate_trace(trace: DecodeTrace) -> None:
    """Check that the trace's evictions are a run decode could make under
    its policy: one (layers, heads) grid per step that policy evicts at,
    each naming a position its stream holds then: under a policy
    that reads nothing, exactly the one that policy evicts, which it
    replays over one stream's positions (``EvictionPolicy.replay(seq_len)``),
    as decode does; under any other, one ``retained_at`` accepts.  A trace
    without evictions is neither replayed nor masked.  Raises InputError on
    any inconsistency.  ``read_trace`` calls it on every trace it reads; a
    trace built in memory can be checked with it directly."""
    policy = trace.policy
    rows = (policy.eviction_count(trace.seq_len), trace.dims.layers, trace.dims.heads)
    if trace.evicted.shape != rows:
        raise InputError(f"trace holds evictions of shape {trace.evicted.shape}, but "
                         f"{policy.spec} at c={policy.capacity} over {trace.seq_len} steps "
                         f"evicts {rows}")
    if rows[0] and policy.reads:
        retained_at(trace, trace.seq_len)
    elif rows[0]:  # one replay row per row the trace holds
        evicted = trace.evicted.reshape(rows[0], -1)
        victims = policy.replay(trace.seq_len)[0][:, 0]
        wrong = evicted != victims[:, None]
        if wrong.any():
            row, stream = divmod(int(wrong.argmax()), evicted.shape[1])
            layer, head = divmod(stream, trace.dims.heads)
            raise InputError(f"step {policy.capacity + 1 + row}: {policy.spec} evicts position "
                             f"{victims[row]}, not {evicted[row, stream]}, "
                             f"in stream ({layer}, {head})")


def distribution_map(trace: DecodeTrace) -> np.ndarray:
    """Per layer, the fraction of heads retaining each original position at
    the final step.  Shape (layers, seq_len)."""
    if not trace.seq_len:
        raise InputError("trace has no steps")
    dims = trace.dims
    grid = np.zeros((dims.layers, trace.seq_len), dtype=np.float64)
    np.add.at(grid, (np.arange(dims.layers)[:, None, None], trace.retained), 1.0)
    return grid / dims.heads


def signals_at_step(trace: DecodeTrace, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-eviction cache view of every stream at the given 1-based step:
    the attention rows over the n slots present at attention time, (layers,
    heads, n), and their values, (layers, heads, n, d_head).  A batch given
    each stream's held inputs (``retained_at`` the step before) steps the
    step's own input, so the rows are bitwise decode's; the values are
    projected as the keys are, each input its own product (``engine.project``)."""
    if not 1 <= step <= trace.seq_len:
        raise InputError(f"step {step} not present in trace of length {trace.seq_len}")
    if trace.inputs is None:
        raise InputError("light trace: it lacks the run's inputs and projection weights")
    held = retained_at(trace, step - 1)
    layers, heads, n = held.shape
    batch = StreamBatch(ModelWeights(trace.model_seed, trace.weights), n + 1, reads=())
    batch.append(trace.inputs[held.reshape(layers * heads, n).T])  # (n, S, d_model)
    rows = batch.step(trace.inputs[step - 1]).reshape(layers, heads, n + 1)
    slots = np.insert(held, n, step - 1, axis=2)  # then the step's own input
    # each stream's W_V, (layers, heads, 1, d_model, d_head), against each input it holds
    wv = trace.weights[:, :, 2:].astype(np.float64, order="C")
    return rows, project(trace.inputs[slots], wv)
