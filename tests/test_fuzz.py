"""Mutation fuzz of the CLI's input files.

A small format-10 trace, a config file and a TKVW weight file are each
corrupted by dropping, retyping or replacing one JSON value, one line or
one byte (of a trace: of its header line, of its evicted positions or of
its block of inputs and weights), then handed to ``treekv.cli.main``
in-process.  The trace's inputs are ``--tokens`` rows and its weights are
one entry off their seed's, so it stores both blocks.  Whatever the
input, ``main`` must return 0, 2 or 3 and never raise: a malformed file is
a config or input error, never an internal one (exit 4).
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treekv.cli import main

EXIT_CODES = {0, 2, 3}
FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Replacement values of every JSON type, and every source a trace header
# names for a block.  Integers stay small: a config is a request for work,
# and T or the model dims at 10**9 are a valid request for more time and
# memory than a test has.
VALUES = st.one_of(
    st.none(),
    st.sampled_from(["stored", "seed"]),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
MODEL = ["--layers", "1", "--heads", "2", "--d-model", "8", "--d-head", "4"]
RECORDS = 1  # the base trace's header line
EVICTED = 1 * (12 - 4) * 2  # its uint8 evictions (T <= 256): steps 5-12, 1 x 2 streams


def _run(*args) -> int:
    code = main([str(arg) for arg in args])
    assert code in EXIT_CODES
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The unmutated inputs: a full-detail trace, a config and a weight file."""
    work = tmp_path_factory.mktemp("base")
    files = {name: work / name for name in ("t.jsonl", "cfg.json", "w.bin")}
    assert _run("gen-weights", "--seed", 5, *MODEL, "-o", files["w.bin"]) == 0
    nudged, rows = work / "nudged.bin", work / "rows.json"
    blob = bytearray(files["w.bin"].read_bytes())
    first = struct.unpack_from("<f", blob, 30)[0]  # after the 30-byte TKVW header
    struct.pack_into("<f", blob, 30, np.nextafter(np.float32(first), np.float32(np.inf)))
    nudged.write_bytes(bytes(blob))
    rows.write_text(json.dumps(np.random.default_rng(3).normal(size=(12, 8)).tolist()))
    assert _run("decode", "--policy", "treekv", "--c", 4, "--zones", "sink=1,recent=1",
                "--weights", nudged, "--tokens", rows, "-o", files["t.jsonl"]) == 0
    files["cfg.json"].write_text(json.dumps({
        "policy": "h2o", "c": 5, "zones": "sink=1,recent=2", "seed": 2, "T": 10,
        "layers": 1, "heads": 2, "d_model": 8, "d_head": 4, "vocab": 0,
        "block_size": 3, "cache_blocks": 2, "levels": 1, "exclude": 1, "step": None,
        "weights": None, "trace_detail": "full",
    }))
    *lines, rest = files["t.jsonl"].read_bytes().split(b"\n", RECORDS)
    header = json.loads(lines[0])
    assert (header["inputs"], header["weights"]) == ("stored", "stored")
    # the mutator reaches the evictions and the block after them: 12 f64
    # inputs of 8, then 1 x 2 streams x 3 f32 matrices of 8 x 4
    assert len(rest) == EVICTED + 12 * 8 * 8 + 2 * 3 * 8 * 4 * 4
    return {name: path.read_bytes() for name, path in files.items()}


def _nodes(value, path=()):
    """Paths to every value inside a JSON document, containers included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate_json(data, doc):
    """Drop or replace one value below the root of a JSON document."""
    path = data.draw(st.sampled_from(list(_nodes(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(VALUES)


def _mutate_bytes(data, blob: bytes) -> bytes:
    """Replace, delete or insert one byte, or truncate."""
    at = data.draw(st.integers(0, len(blob)))
    byte = bytes([data.draw(st.integers(0, 255))])
    return data.draw(st.sampled_from([
        blob[:at] + byte + blob[at + 1:],
        blob[:at] + blob[at + 1:],
        blob[:at] + byte + blob[at:],
        blob[:at],
    ]))


def _mutate_trace(data, blob: bytes) -> bytes:
    """Mutate a trace: one value, the whole line or one byte of its JSON
    header, or one byte of its evictions or of its block of inputs and
    weights."""
    *texts, rest = blob.split(b"\n", RECORDS)
    head = blob[:len(blob) - len(rest)]
    evicted, block = rest[:EVICTED], rest[EVICTED:]
    kind = data.draw(st.sampled_from(["value", "line", "bytes", "evicted", "block"]))
    if kind == "bytes":
        return _mutate_bytes(data, head) + rest
    if kind == "evicted":
        return head + _mutate_bytes(data, evicted) + block
    if kind == "block":
        return head + evicted + _mutate_bytes(data, block)
    lines = [json.loads(text) for text in texts]
    if kind == "value":
        _mutate_json(data, lines)
    else:
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = data.draw(st.sampled_from([[], [lines[at]] * 2, [data.draw(VALUES)]]))
    return "".join(json.dumps(line) + "\n" for line in lines).encode() + rest


@FUZZ
@given(data=st.data())
def test_mutated_trace_exits_with_a_documented_code(tmp_path, base, data):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_mutate_trace(data, base["t.jsonl"]))
    _run("map", "--trace", trace, "-o", tmp_path / "map.csv")
    _run("analyze", "--trace", trace, "--levels", 2, "--exclude", 0, "-o", tmp_path / "a.csv")


@FUZZ
@given(data=st.data())
def test_mutated_config_exits_with_a_documented_code(tmp_path, base, data):
    config = tmp_path / "cfg.json"
    if data.draw(st.booleans()):
        doc = json.loads(base["cfg.json"])
        _mutate_json(data, doc)
        config.write_text(json.dumps(doc))
    else:
        config.write_bytes(_mutate_bytes(data, base["cfg.json"]))
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(base["t.jsonl"])
    _run("decode", "--config", config, "-o", tmp_path / "out.jsonl")
    _run("prefill", "--config", config, "-o", tmp_path / "out.jsonl")
    _run("analyze", "--config", config, "--trace", trace, "-o", tmp_path / "a.csv")


@FUZZ
@given(data=st.data())
def test_mutated_weight_file_exits_with_a_documented_code(tmp_path, base, data):
    weights = tmp_path / "w.bin"
    weights.write_bytes(_mutate_bytes(data, base["w.bin"]))
    _run("decode", "--weights", weights, "--policy", "tova", "--c", 4, "--zones",
         "sink=1,recent=1", "--T", 8, "-o", tmp_path / "t.jsonl")
    _run("prefill", "--weights", weights, "--T", 9, "--block-size", 2, "--cache-blocks", 2,
         "-o", tmp_path / "p.jsonl")
