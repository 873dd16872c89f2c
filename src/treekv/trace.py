"""Decode traces: per-step records of a run, JSON-lines serialization,
replay validation, and the per-position retention map."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .engine import ModelDims
from .errors import DimensionError, InputError

TRACE_FORMAT = 1


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
    # Indexed [layer][head]; retained positions are post-eviction.
    retained: list[list[list[int]]]
    rows: list[list[np.ndarray]] | None = None  # pre-eviction attention rows
    values: list[list[np.ndarray]] | None = None  # the value vector appended this step
    outputs: list[list[np.ndarray]] | None = None  # in-memory only, never serialized


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

    def final_retained(self) -> list[list[list[int]]]:
        return self.steps[-1].retained

    def records_rows(self) -> bool:
        return bool(self.steps) and self.steps[0].rows is not None

    def records_values(self) -> bool:
        return bool(self.steps) and self.steps[0].values is not None


def _as_lists(grid):
    return [[np.asarray(cell, dtype=np.float64).tolist() for cell in row] for row in grid]


def write_trace(trace: DecodeTrace, path: str) -> None:
    header = {"kind": "header", "format": TRACE_FORMAT}
    header.update(trace.config_dict())
    header["token_ids"] = trace.token_ids
    header["record"] = {
        "rows": trace.records_rows(),
        "values": trace.records_values(),
    }
    header["fingerprint"] = trace.fingerprint()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in trace.steps:
            line = {
                "kind": "step",
                "step": record.step,
                "events": [
                    [e.layer, e.head, e.position, e.cursor] for e in record.events
                ],
                "retained": record.retained,
            }
            if record.rows is not None:
                line["rows"] = _as_lists(record.rows)
            if record.values is not None:
                line["values"] = _as_lists(record.values)
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


def _grid(raw, dims: ModelDims, what):
    """The [layer][head] cells of one step's field, checked for shape."""
    if (not isinstance(raw, list) or len(raw) != dims.layers
            or any(not isinstance(row, list) or len(row) != dims.heads for row in raw)):
        raise InputError(f"{what} is not a {dims.layers}x{dims.heads} grid")
    return raw


def _grid_of_arrays(raw, dims: ModelDims, what, length=None):
    """A grid whose cells are flat lists of numbers (of ``length`` if given)."""
    grid = []
    for row in _grid(raw, dims, what):
        try:
            cells = [np.asarray(cell, dtype=np.float64) for cell in row]
        except (TypeError, ValueError) as exc:
            raise InputError(f"{what} has a cell that is not a list of numbers") from exc
        if any(cell.ndim != 1 or length not in (None, len(cell)) for cell in cells):
            raise InputError(f"{what} has a cell that is not a flat list of the right length")
        grid.append(cells)
    return grid


def read_trace(path: str) -> DecodeTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
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
    try:
        dims.validate()
    except DimensionError as exc:
        raise InputError(f"trace header: {exc}") from exc
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
    body = lines[1:]
    if len(body) != trace.seq_len:
        raise InputError(
            f"truncated trace: expected {trace.seq_len} step records, got {len(body)}"
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
        retained = _grid(raw.get("retained"), dims, f"retained at step {index}")
        if any(not isinstance(cell, list) or set(map(type, cell)) - {int}
               for row in retained for cell in row):
            raise InputError(f"retained at step {index} has a cell that is not a list of ints")
        rows = values = None
        if "rows" in raw:
            rows = _grid_of_arrays(raw["rows"], dims, f"rows at step {index}")
        if "values" in raw:
            values = _grid_of_arrays(raw["values"], dims, f"values at step {index}", dims.d_head)
        trace.steps.append(StepRecord(index, events, retained, rows, values))
    return trace


def validate_trace(trace: DecodeTrace) -> None:
    """Replay the eviction events and check them against the recorded
    retained sets; raises InputError on any inconsistency."""
    dims = trace.dims
    live = [[[] for _ in range(dims.heads)] for _ in range(dims.layers)]
    for record in trace.steps:
        for layer in range(dims.layers):
            for head in range(dims.heads):
                live[layer][head].append(record.step - 1)
        for event in record.events:
            stream = live[event.layer][event.head]
            if event.position not in stream:
                raise InputError(
                    f"step {record.step}: eviction of position {event.position} "
                    f"not present in stream ({event.layer}, {event.head})"
                )
            stream.remove(event.position)
        for layer in range(dims.layers):
            for head in range(dims.heads):
                if live[layer][head] != record.retained[layer][head]:
                    raise InputError(
                        f"step {record.step}: replayed retained set diverges from "
                        f"the recorded one in stream ({layer}, {head})"
                    )


def distribution_map(trace: DecodeTrace) -> np.ndarray:
    """Per layer, the fraction of heads retaining each original position at
    the final step.  Shape (layers, seq_len)."""
    if not trace.steps:
        raise InputError("trace has no step records")
    dims = trace.dims
    grid = np.zeros((dims.layers, trace.seq_len), dtype=np.float64)
    final = trace.final_retained()
    for layer in range(dims.layers):
        for head in range(dims.heads):
            for position in final[layer][head]:
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
    if record.rows is None or record.values is None:
        raise InputError("trace lacks attention rows or value vectors; re-run decode "
                         "with full trace detail")
    out = []
    for layer in range(trace.dims.layers):
        for head in range(trace.dims.heads):
            evicted_here = sorted(
                e.position
                for e in record.events
                if e.layer == layer and e.head == head
            )
            slots = sorted(list(record.retained[layer][head]) + evicted_here)
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
