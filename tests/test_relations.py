"""Relations between decode runs, checked bitwise on the eviction grids.

No stream reads another stream's state, a ``CHUNK_ROWS`` chunk boundary
changes nothing, and no decision depends on a later input.  So, for every
bounded policy, with and without protected zones:

- prefix causality: a T'-step decode evicts the first rows of the T-step
  decode of the same inputs, with T' inside a chunk of the longer run;
- head permutation: permuting the heads of the weights permutes the head
  axis of the eviction grid, and permuting the layers its layer axis;
- a lone stream: a 1x1 model holding one stream's matrices evicts what
  that stream evicts in the 2x4 model;
- a reshape: a 1x8 model holding the 2x4 model's eight streams, in stream
  order ``layer * heads + head``, evicts the same grid, reshaped;
- CLI prefix causality: ``decode --tokens`` of the first T' rows writes a
  trace whose evictions are the first rows of the T-row trace's, and
  ``analyze --step T'`` of the long trace writes the bytes ``analyze``
  writes for the short one.

These need no second implementation.  Hypothesis draws the seeds, the
capacity and the lengths; ``derandomize`` makes every run check the same
examples.
"""

import json
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    POLICY_SPECS,
    ModelDims,
    ModelWeights,
    decode_with_policy,
    generate_weights,
    make_policy,
    read_trace,
    retained_at,
    synthesize_embeddings,
)
from treekv.cli import main
from treekv.engine import CHUNK_ROWS

RELATIONS = settings(derandomize=True, max_examples=4, deadline=None, database=None)
BOUNDED = [spec for spec in POLICY_SPECS if spec != "full"]
ZONES = ["sink=0,recent=0", "sink=4,recent=12"]
DIMS = ModelDims(2, 4, 16, 8)
SEEDS = st.integers(0, 2**32 - 1)
CAPACITIES = st.integers(18, 48)  # room for two evictable slots beside sink=4,recent=12


def _model_and_inputs(seed, seq_len):
    return generate_weights(seed, DIMS), synthesize_embeddings(seed + 1, seq_len, DIMS.d_model)


@pytest.mark.parametrize("zones", ZONES)
@pytest.mark.parametrize("spec", BOUNDED)
@RELATIONS
@given(seed=SEEDS, capacity=CAPACITIES, extra=st.integers(3, 3 * CHUNK_ROWS), data=st.data())
def test_a_prefix_run_evicts_the_first_rows_of_the_longer_run(spec, zones, seed, capacity,
                                                              extra, data):
    seq_len = capacity + extra
    prefix = data.draw(st.integers(capacity + 1, seq_len - 1).filter(
        lambda length: length % CHUNK_ROWS), label="prefix")
    weights, inputs = _model_and_inputs(seed, seq_len)
    whole = decode_with_policy(weights, inputs, make_policy(spec, capacity, zones))
    part = decode_with_policy(weights, inputs[:prefix], make_policy(spec, capacity, zones))
    assert part.evicted.shape[0] == prefix - capacity
    assert np.array_equal(part.evicted, whole.evicted[: prefix - capacity])
    assert np.array_equal(part.retained, retained_at(whole, prefix))


@pytest.mark.parametrize("zones", ZONES)
@pytest.mark.parametrize("spec", BOUNDED)
@RELATIONS
@given(seed=SEEDS, capacity=CAPACITIES, extra=st.integers(1, 2 * CHUNK_ROWS),
       order=st.permutations(range(DIMS.heads)))
def test_permuting_the_heads_permutes_the_eviction_grid(spec, zones, seed, capacity, extra,
                                                        order):
    weights, inputs = _model_and_inputs(seed, capacity + extra)
    permuted = ModelWeights(weights.seed, weights.qkv[:, order])
    want = decode_with_policy(weights, inputs, make_policy(spec, capacity, zones)).evicted
    got = decode_with_policy(permuted, inputs, make_policy(spec, capacity, zones)).evicted
    assert np.array_equal(got, want[:, :, order])


@pytest.mark.parametrize("zones", ZONES)
@pytest.mark.parametrize("spec", BOUNDED)
@RELATIONS
@given(seed=SEEDS, capacity=CAPACITIES, extra=st.integers(1, 2 * CHUNK_ROWS),
       order=st.permutations(range(DIMS.layers)))
def test_permuting_the_layers_permutes_the_eviction_grid(spec, zones, seed, capacity, extra,
                                                         order):
    weights, inputs = _model_and_inputs(seed, capacity + extra)
    permuted = ModelWeights(weights.seed, weights.qkv[order])
    want = decode_with_policy(weights, inputs, make_policy(spec, capacity, zones)).evicted
    got = decode_with_policy(permuted, inputs, make_policy(spec, capacity, zones)).evicted
    assert np.array_equal(got, want[:, order])


@pytest.mark.parametrize("zones", ZONES)
@pytest.mark.parametrize("spec", BOUNDED)
@RELATIONS
@given(seed=SEEDS, capacity=CAPACITIES, extra=st.integers(1, 2 * CHUNK_ROWS),
       layer=st.integers(0, DIMS.layers - 1), head=st.integers(0, DIMS.heads - 1))
def test_a_lone_stream_evicts_what_it_evicts_among_the_others(spec, zones, seed, capacity,
                                                              extra, layer, head):
    weights, inputs = _model_and_inputs(seed, capacity + extra)
    lone = ModelWeights(weights.seed, weights.qkv[layer : layer + 1, head : head + 1])
    assert lone.dims == ModelDims(1, 1, DIMS.d_model, DIMS.d_head)
    want = decode_with_policy(weights, inputs, make_policy(spec, capacity, zones)).evicted
    got = decode_with_policy(lone, inputs, make_policy(spec, capacity, zones)).evicted
    assert np.array_equal(got[:, 0, 0], want[:, layer, head])


@pytest.mark.parametrize("zones", ZONES)
@pytest.mark.parametrize("spec", BOUNDED)
@RELATIONS
@given(seed=SEEDS, capacity=CAPACITIES, extra=st.integers(1, 2 * CHUNK_ROWS))
def test_one_layer_of_all_the_streams_evicts_the_same_grid(spec, zones, seed, capacity,
                                                           extra):
    weights, inputs = _model_and_inputs(seed, capacity + extra)
    streams = DIMS.layers * DIMS.heads
    flat = ModelWeights(weights.seed, weights.qkv.reshape(1, streams, *weights.qkv.shape[2:]))
    assert flat.dims == ModelDims(1, streams, DIMS.d_model, DIMS.d_head)
    want = decode_with_policy(weights, inputs, make_policy(spec, capacity, zones)).evicted
    got = decode_with_policy(flat, inputs, make_policy(spec, capacity, zones)).evicted
    assert np.array_equal(got.reshape(want.shape), want)


@pytest.mark.parametrize("zones", ZONES)
@pytest.mark.parametrize("spec", BOUNDED)
@RELATIONS
@given(seed=SEEDS, capacity=CAPACITIES, extra=st.integers(3, 3 * CHUNK_ROWS), data=st.data())
def test_the_cli_decodes_and_analyzes_a_token_prefix_as_a_prefix(spec, zones, seed, capacity,
                                                                 extra, data):
    seq_len = capacity + extra
    prefix = data.draw(st.integers(capacity + 1, seq_len - 1), label="prefix")
    model = [f"--seed={seed}", f"--layers={DIMS.layers}", f"--heads={DIMS.heads}",
             f"--d-model={DIMS.d_model}", f"--d-head={DIMS.d_head}"]
    inputs = synthesize_embeddings(seed + 1, seq_len, DIMS.d_model)
    with TemporaryDirectory() as tmp:
        out = {}
        for name, rows, step in (("long", seq_len, ["--step", str(prefix)]),
                                 ("short", prefix, [])):
            tokens, trace, csv = (Path(tmp, f"{name}.{ext}") for ext in ("json", "jsonl", "csv"))
            tokens.write_text(json.dumps(inputs[:rows].tolist()))
            assert main(["decode", *model, "--policy", spec, "--c", str(capacity),
                         "--zones", zones, "--tokens", str(tokens), "-o", str(trace)]) == 0
            # capacity + 1 >= 19 slots at the analysed step: room for 3 levels
            assert main(["analyze", "--trace", str(trace), "--levels", "3", "--exclude", "4",
                         *step, "-o", str(csv)]) == 0
            out[name] = read_trace(trace).evicted, csv.read_bytes()
    assert np.array_equal(out["short"][0], out["long"][0][: prefix - capacity])
    assert out["short"][1] == out["long"][1]
