"""Decode traces: per-step records of a run, JSON-lines serialization,
event replay, and the per-position retention map."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .engine import ModelDims, atomic_output
from .errors import InputError

TRACE_FORMAT = 2


@dataclass
class EvictionEvent:
    step: int
    layer: int
    head: int
    position: int  # evicted token's original position, 0-based
    cursor: int | None  # eviction cursor for tree policies, None otherwise


@dataclass
class StepRecord:
    step: int  # 1-based generation step
    events: list[EvictionEvent]
    # (layers, heads, ·) float64 arrays, so [layer][head] is one stream's cell.
    rows: np.ndarray | None = None  # pre-eviction attention rows
    values: np.ndarray | None = None  # the value vector appended this step
    outputs: np.ndarray | None = None  # in-memory only, never serialized
    # Not a field: ``retained_at`` replays per-step sets from the events.  It stays,
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
    token_ids: list[int] | None = None
    steps: list[StepRecord] = field(default_factory=list)
    # Retained positions per [layer][head] after the last step: a checkpoint
    # that replaying the events must reproduce (see ``retained_at``).
    retained: list[list[list[int]]] = field(default_factory=list)

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
            "vocab": self.dims.vocab,
            "model_seed": self.model_seed,
            "stream_seed": self.stream_seed,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.config_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def write_trace(trace: DecodeTrace, path: str) -> None:
    header = {"kind": "header", "format": TRACE_FORMAT}
    header.update(trace.config_dict())
    header["token_ids"] = trace.token_ids
    header["fingerprint"] = trace.fingerprint()
    with atomic_output(path) as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in trace.steps:
            line = {
                "kind": "step",
                "step": record.step,
                "events": [
                    [e.layer, e.head, e.position, e.cursor] for e in record.events
                ],
            }
            if record.rows is not None:
                line["rows"] = record.rows.tolist()
            if record.values is not None:
                line["values"] = record.values.tolist()
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
        final = {"kind": "final", "retained": trace.retained}
        fh.write(json.dumps(final, separators=(",", ":")) + "\n")


def _array(raw, dims: ModelDims, what, width=None):
    """One step's grid of number lists as a (layers, heads, n) float64 array
    (n = ``width`` if given).  JSON null, booleans, strings, NaN and Infinity
    are rejected, not converted."""
    try:
        leaves = set(map(type, chain.from_iterable(chain.from_iterable(raw))))
        array = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} is not a grid of number lists") from exc
    if (leaves - {int, float} or array.ndim != 3 or array.shape[:2] != (dims.layers, dims.heads)
            or width not in (None, array.shape[2]) or not np.isfinite(array).all()):
        raise InputError(f"{what} is not a {dims.layers}x{dims.heads} grid of finite number lists"
                         + (f" of length {width}" if width else ""))
    return array


def read_trace(path: str) -> DecodeTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    if not all(isinstance(line, dict) for line in lines):
        raise InputError(f"trace {path} has a record that is not a JSON object")
    if not lines or lines[0].get("kind") != "header":
        raise InputError(f"trace {path} does not start with a header record")
    header = lines[0]
    if header.get("format") != TRACE_FORMAT:
        raise InputError(f"unsupported trace format {header.get('format')}")
    required = (
        "policy",
        "capacity",
        "zones",
        "seq_len",
        "layers",
        "heads",
        "d_model",
        "d_head",
        "vocab",
        "model_seed",
    )
    missing = [key for key in required if key not in header]
    if missing:
        raise InputError(f"trace header is missing fields: {missing}")
    dims = ModelDims(
        header["layers"],
        header["heads"],
        header["d_model"],
        header["d_head"],
        header["vocab"],
    )
    dims.validate(InputError, "trace header: ")
    if type(header["seq_len"]) is not int:
        raise InputError(f"trace header: seq_len must be an int, got {header['seq_len']!r}")
    trace = DecodeTrace(
        policy=header["policy"],
        capacity=header["capacity"],
        zones=header["zones"],
        seq_len=header["seq_len"],
        dims=dims,
        model_seed=header["model_seed"],
        stream_seed=header.get("stream_seed"),
        token_ids=header.get("token_ids"),
    )
    body, final = lines[1:-1], lines[-1]
    if len(body) != trace.seq_len or final.get("kind") != "final":
        raise InputError(
            f"truncated trace: expected {trace.seq_len} step records and a final record"
        )
    for index, raw in enumerate(body, start=1):
        if raw.get("kind") != "step" or raw.get("step") != index:
            raise InputError(f"trace step record {index} is malformed or out of order")
        items = raw.get("events", [])
        if not isinstance(items, list):
            raise InputError(f"events at step {index} are not a list")
        events = []
        for item in items:
            if not (
                isinstance(item, list)
                and len(item) == 4
                and all(type(field) is int for field in item[:3])
                and (item[3] is None or type(item[3]) is int)
            ):
                raise InputError(f"malformed eviction event at step {index}")
            layer, head, position, cursor = item
            if not (0 <= layer < dims.layers and 0 <= head < dims.heads
                    and 0 <= position < index):
                raise InputError(
                    f"eviction event {item} at step {index} is outside the "
                    f"{dims.layers}x{dims.heads} streams or positions 0..{index - 1}"
                )
            events.append(EvictionEvent(index, layer, head, position, cursor))
        rows = values = None
        if "rows" in raw:
            rows = _array(raw["rows"], dims, f"rows at step {index}")
        if "values" in raw:
            values = _array(raw["values"], dims, f"values at step {index}", dims.d_head)
        trace.steps.append(StepRecord(index, events, rows, values))
    retained = final.get("retained")
    if (not isinstance(retained, list) or len(retained) != dims.layers
            or any(not isinstance(row, list) or len(row) != dims.heads for row in retained)
            or any(not isinstance(cell, list) or set(map(type, cell)) - {int}
                   for row in retained for cell in row)):
        raise InputError(f"final retained is not a {dims.layers}x{dims.heads} grid of int lists")
    trace.retained = retained
    return trace


def retained_at(trace: DecodeTrace, step: int) -> list[list[list[int]]]:
    """Retained positions per [layer][head] after the given 1-based step (0:
    before the first), replayed from the eviction events: each step appends
    its own position to every stream, and each event removes one."""
    if not 0 <= step <= len(trace.steps):
        raise InputError(f"step {step} not present in trace of length {len(trace.steps)}")
    dims = trace.dims
    live = [[[] for _ in range(dims.heads)] for _ in range(dims.layers)]
    for record in trace.steps[:step]:
        for row in live:
            for stream in row:
                stream.append(record.step - 1)
        for event in record.events:
            stream = live[event.layer][event.head]
            if event.position not in stream:
                raise InputError(
                    f"step {record.step}: eviction of position {event.position} "
                    f"not present in stream ({event.layer}, {event.head})"
                )
            stream.remove(event.position)
    return live


def validate_trace(trace: DecodeTrace) -> None:
    """Replay the eviction events to the last step and check the result
    against the final retained checkpoint; raises InputError on any
    inconsistency."""
    if retained_at(trace, len(trace.steps)) != trace.retained:
        raise InputError("replayed retained sets diverge from the final checkpoint")


def distribution_map(trace: DecodeTrace) -> np.ndarray:
    """Per layer, the fraction of heads retaining each original position at
    the final step.  Shape (layers, seq_len)."""
    if not trace.steps:
        raise InputError("trace has no step records")
    dims = trace.dims
    grid = np.zeros((dims.layers, trace.seq_len), dtype=np.float64)
    for layer in range(dims.layers):
        for head in range(dims.heads):
            for position in trace.retained[layer][head]:
                grid[layer][position] += 1.0
    return grid / dims.heads


def signals_at_step(trace: DecodeTrace, step: int):
    """Pre-eviction cache view at the given 1-based step, per stream.

    Yields (layer, head, row, values) where row is the attention row over
    the slots present at attention time and values is the matching
    (slots, d_head) value matrix.
    """
    if not 1 <= step <= len(trace.steps):
        raise InputError(f"step {step} not present in trace of length {len(trace.steps)}")
    record = trace.steps[step - 1]
    if record.rows is None or any(r.values is None for r in trace.steps[:step]):
        raise InputError("trace lacks attention rows or value vectors; re-run decode "
                         "with full trace detail")
    before = retained_at(trace, step - 1)
    out = []
    for layer in range(trace.dims.layers):
        for head in range(trace.dims.heads):
            slots = before[layer][head] + [step - 1]
            row = record.rows[layer][head]
            if row.shape != (len(slots),):
                raise InputError(
                    f"step {step}: row length {row.shape} does not match the "
                    f"{len(slots)} slots of stream ({layer}, {head})"
                )
            values = np.stack(
                [trace.steps[p].values[layer][head] for p in slots]
            )
            out.append((layer, head, row, values))
    return out
