"""The benchmark's per-layer tracing (``bench/layers.py``) wraps the
package's entry points and reads their arguments and results.  These runs
keep every CLI command working under it, at a size a test can afford."""

import importlib.util
import json
from pathlib import Path

from treekv.cli import main

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
MODEL = {"layers": 1, "heads": 2, "d_model": 8, "d_head": 4}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _own(module, path):
    """What a ``TARGETS`` entry names, as its treekv module or class defines
    it itself, or None."""
    owner = importlib.import_module(f"treekv.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    return None if owner is None else vars(owner).get(attr)


def test_only_the_known_dead_targets_go_unwrapped():
    # instrument skips an entry point the package no longer has, so its
    # metrics read 0 without an error.  These ten went that way in earlier
    # refactors and wait to be re-targeted; a rename that drops any other
    # target fails here instead.
    layers = _layers()
    before = {path: _own(module, path) for module, path, *_ in layers.TARGETS}
    with layers.instrument(layers.Tracer()):
        unwrapped = {path for module, path, *_ in layers.TARGETS
                     if _own(module, path) is before[path]}
    assert unwrapped == {
        "AttentionStream.step", "apply_positions", "KVCache.append", "KVCache.evict",
        "update_scores", *(f"{policy}.evict" for policy in
                           ("TreeKV", "StreamingLLM", "H2O", "TOVA", "FullAttention")),
    }


def test_every_command_runs_under_the_per_layer_tracer(tmp_path):
    layers = _layers()
    model = [arg for key, value in MODEL.items() for arg in (f"--{key.replace('_', '-')}", value)]
    weights, trace = tmp_path / "w.bin", tmp_path / "t.jsonl"
    configs = []
    for policy in ("full", "treekv"):
        configs.append(tmp_path / f"{policy}.json")
        configs[-1].write_text(json.dumps({"policy": policy, "c": 8, "zones": "sink=1,recent=2",
                                           "T": 24, "weights": str(weights), **MODEL}))
    commands = [
        ["gen-weights", "--seed", 1, *model, "-o", weights],
        ["compare", *configs, "-o", tmp_path / "compare.csv"],
        ["decode", "--policy", "treekv", "--c", 8, "--zones", "sink=0,recent=0", "--T", 24,
         "--trace-detail", "full", "--weights", weights, "-o", trace],
        ["map", "--trace", trace, "-o", tmp_path / "map.csv"],
        ["analyze", "--trace", trace, "--levels", 2, "--exclude", 0, "-o", tmp_path / "a.csv"],
        ["prefill", "--T", 12, "--block-size", 3, "--cache-blocks", 2, "--weights", weights,
         "-o", tmp_path / "p.jsonl"],
    ]
    tracer = layers.Tracer()
    with layers.instrument(tracer):
        for argv in commands:
            assert main([str(arg) for arg in argv]) == 0, argv
    metrics = tracer.metrics()
    assert all(metrics[f"cli.{name}_s"] > 0 for name in layers.CLI_COMMANDS)
    assert tracer.calls["policies.decode_self"] == 3  # two compare runs and one decode
    assert metrics["trace.bytes_read"] == 2 * trace.stat().st_size
    # decode keeps no per-step retained lists
    assert metrics["policies.retained_ints"] == 0
