"""Self-checks for the brute-force reference implementations, plus the
golden fixture they generate (regenerate with --regen-golden)."""

import ast
import math
import pathlib
import sys

import numpy as np

import treekv
from treekv import (
    ModelDims,
    decode_with_policy,
    generate_weights,
    synthesize_embeddings,
)

import oracles
from helpers import outputs_at
from oracles import oracle_dwt, oracle_full_attention, oracle_tree_sim


def _imported(path):
    """Every module name a source file imports; relative ones keep their dots."""
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return imported


def test_oracles_import_nothing_from_the_package():
    # The oracles are the only per-stream definition independent of the
    # package; sharing its code would let a bug agree with itself.
    imported = _imported(oracles.__file__)
    assert imported  # the walk saw the imports
    assert not any(name.split(".")[0] in ("treekv", "") for name in imported), imported


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency: every module of the package
    # imports the standard library, numpy or the package itself.
    allowed = set(sys.stdlib_module_names) | {"numpy", "treekv", ""}  # "": relative
    modules = sorted(pathlib.Path(treekv.__file__).parent.rglob("*.py"))
    assert len(modules) > 5  # the walk found the package
    for path in modules:
        outside = {name for name in _imported(path) if name.split(".")[0] not in allowed}
        assert not outside, (path.name, outside)


def test_package_imports_no_openssl_binding():
    """hashlib and ssl load OpenSSL, which adds 3.5 MB of RSS to every CLI
    process; no module of the package may import either."""
    modules = sorted(pathlib.Path(treekv.__file__).parent.rglob("*.py"))
    assert len(modules) > 5  # the walk found the package
    for path in modules:
        loaded = {name for name in _imported(path) if name.split(".")[0] in ("hashlib", "ssl")}
        assert not loaded, (path.name, loaded)


def test_tree_sim_select_left_17_tokens():
    retained, cursors = oracle_tree_sim(4, 17, None)
    assert retained == [12, 14, 16, 17]
    assert cursors == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1]


def test_tree_sim_roomy_cache_keeps_everything():
    retained, cursors = oracle_tree_sim(24, 9, None)
    assert retained == list(range(1, 10))
    assert cursors == []


def test_tree_sim_equal_scores_match_select_left():
    c, seq_len = 5, 31
    rows = [[0.0] * min(t, c + 1) for t in range(1, seq_len + 1)]
    with_scores = oracle_tree_sim(c, seq_len, rows)
    left = oracle_tree_sim(c, seq_len, None)
    assert with_scores == left


def test_oracle_dwt_constant():
    bands = oracle_dwt([1.0, 1.0, 1.0, 1.0], 1)
    assert np.allclose(bands[0], [math.sqrt(2.0)] * 2, atol=1e-12)
    assert np.allclose(bands[1], [0.0, 0.0], atol=1e-12)


def test_oracle_dwt_two_levels():
    bands = oracle_dwt([1.0, 2.0, 3.0, 4.0], 2)
    assert np.allclose(bands[0], [5.0], atol=1e-12)
    assert np.allclose(bands[1], [-2.0], atol=1e-12)


def test_oracle_full_attention_single_token_returns_its_value():
    weights = generate_weights(3, ModelDims(1, 1, 6, 4))
    inputs = synthesize_embeddings(4, 1, 6)
    outputs = oracle_full_attention(weights, inputs)
    expected = inputs[0] @ weights.wv[0][0]
    assert np.allclose(outputs[0][0][0], expected, atol=1e-12)


def test_golden_attention_fixture(regen_golden):
    spec = oracles.GOLDEN_SPEC
    dims = ModelDims(spec["layers"], spec["heads"], spec["d_model"], spec["d_head"])
    weights = generate_weights(spec["seed"], dims)
    inputs = synthesize_embeddings(spec["seed"], spec["steps"], spec["d_model"])
    if regen_golden:
        oracles.write_golden_attention(weights, inputs)
    golden = oracles.read_golden_attention()
    assert golden["spec"] == spec

    trace = decode_with_policy(weights, inputs, "full", spec["steps"])
    for step_index in range(spec["steps"]):
        outputs = outputs_at(trace, step_index + 1)
        for layer in range(dims.layers):
            for head in range(dims.heads):
                assert np.allclose(
                    outputs[layer][head],
                    golden["outputs"][step_index][layer][head],
                    rtol=1e-6,
                    atol=1e-9,
                )
