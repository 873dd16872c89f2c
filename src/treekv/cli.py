"""Command-line harness tying the engine, policies, prefill and wavelet
analysis into reproducible, machine-readable experiments.

Subcommands: gen-weights, decode, prefill, map, analyze, compare.  Every
RunConfig field can come from a JSON config file, and each command takes a
flag of the same name for every field it reads.  A command checks only the
settings it reads; config-file fields it does not read are type-checked and
otherwise ignored.  All commands are pure functions of (config, input
files): reruns write byte-identical output.

Exit codes: 0 success, 2 config error, 3 input error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .engine import (
    ModelDims,
    ModelWeights,
    atomic_output,
    generate_weights,
    load_weights,
    save_weights,
    synthesize_embeddings,
)
from .errors import ConfigError, InputError, TreeKVError
from .policies import decode_with_policy, make_policy
from .prefill import observation_scores, partition_blocks, treekv_prefill_compress, window_mass
from .trace import distribution_map, read_trace, write_trace
from .wavelet import magnitude_profile


@dataclass
class RunConfig:
    policy: str = "treekv"
    c: int = 1024
    zones: str = "sink=4,recent=508"
    seed: int = 0
    T: int = 512
    layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_head: int = 16
    vocab: int = 0  # kept for existing configs and flags; 0 is its only valid value
    block_size: int = 64
    cache_blocks: int = 8
    levels: int = 5
    exclude: int = 32
    step: int | None = None
    weights: str | None = None
    # "full" records the inputs and weights (the trace stores each that its
    # seed does not regenerate bitwise), "light" neither
    trace_detail: str = "full"

    def dims(self) -> ModelDims:
        if self.vocab != 0:
            raise ConfigError(f"vocab must be 0 (models have no vocabulary), got {self.vocab}")
        return ModelDims(self.layers, self.heads, self.d_model, self.d_head)


# Every RunConfig field by name, with its type.
_FIELD_TYPES = typing.get_type_hints(RunConfig)
# The settings each command reads, and so the flags it takes.
_MODEL_FLAGS = ["seed", "layers", "heads", "d_model", "d_head", "vocab"]
_INPUT_FLAGS = _MODEL_FLAGS + ["T", "weights"]


def load_config(path: str | None, overrides: dict) -> RunConfig:
    config = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad or too deep JSON, bad UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = sorted(data.keys() - _FIELD_TYPES)
        if unknown:
            raise ConfigError(f"config {path} has unknown fields: {unknown}")
        for key, value in data.items():
            expected = _FIELD_TYPES[key]
            if isinstance(value, bool) or not isinstance(value, expected):
                name = getattr(expected, "__name__", str(expected))
                raise ConfigError(f"config {path}: field {key!r} must be {name}, got {value!r}")
            setattr(config, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    return config


def _config_overrides(args) -> dict:
    return {
        name: getattr(args, name)
        for name in _FIELD_TYPES
        if hasattr(args, name)
    }


def _add_config_flags(parser, names) -> None:
    for name in names:
        hint = _FIELD_TYPES[name]
        kind, *_ = typing.get_args(hint) or (hint,)  # int | None parses as int
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)


def _resolve_weights(config: RunConfig) -> ModelWeights:
    if config.weights:
        return load_weights(config.weights)
    dims = config.dims()
    dims.validate(ConfigError)
    return generate_weights(config.seed, dims)


def _grid(raw, d_model: int, what: str) -> np.ndarray:
    """A JSON array of d_model-length rows as a float64 array.  JSON null,
    booleans, strings, NaN and Infinity are rejected, not converted."""
    message = f"{what} is not a nx{d_model} grid of finite int/float values"
    try:
        types = set(map(type, chain.from_iterable(raw)))
        array = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(message) from exc
    if (types - {int, float} or array.ndim != 2 or array.shape[1] != d_model
            or not np.isfinite(array).all()):
        raise InputError(message)
    return array


def _prepare_inputs(config: RunConfig, weights: ModelWeights, path: str | None) -> np.ndarray:
    """The (T, d_model) input rows: a JSON file's non-empty array of
    d_model-length embedding rows, or T synthetic rows drawn from the seed.
    The model's dims (a weight file's own, if one is given) set the width."""
    d_model = weights.dims.d_model
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # bad or too deep JSON, bad UTF-8
            raise InputError(f"cannot read token file {path}: {exc}") from exc
        if not isinstance(data, list) or not data:
            raise InputError(f"token file {path} must be a non-empty JSON array")
        return _grid(data, d_model, f"embedding rows in {path}")
    if config.T < 1:
        raise ConfigError(f"violated precondition T >= 1 (got T={config.T})")
    return synthesize_embeddings(config.seed, config.T, d_model)


@contextmanager
def _open_out(path: str | None):
    """stdout for no path or "-", otherwise the file, written atomically."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with atomic_output(path) as fh:
            yield fh


def cmd_gen_weights(args) -> int:
    config = load_config(None, _config_overrides(args))
    save_weights(_resolve_weights(config), args.out)
    return 0


def cmd_decode(args) -> int:
    config = load_config(args.config, _config_overrides(args))
    if config.trace_detail not in ("full", "light"):
        raise ConfigError(f"trace_detail must be 'full' or 'light', got {config.trace_detail!r}")
    make_policy(config.policy, config.c, config.zones)  # refused before the inputs are built
    weights = _resolve_weights(config)
    inputs = _prepare_inputs(config, weights, args.tokens)
    trace = decode_with_policy(
        weights,
        inputs,
        config.policy,
        config.c,
        config.zones,
    )
    trace.stream_seed = config.seed if args.tokens is None else None  # only if it drew the inputs
    if config.trace_detail == "light":
        trace.inputs = trace.weights = None
    write_trace(trace, args.out)
    return 0


def cmd_map(args) -> int:
    trace = read_trace(args.trace)
    grid = distribution_map(trace)
    with _open_out(args.out) as out:
        for layer in range(grid.shape[0]):
            cells = ",".join(str(value) for value in grid[layer])
            out.write(f"{layer},{cells}\n")
    return 0


def cmd_analyze(args) -> int:
    config = load_config(args.config, _config_overrides(args))
    traces = [read_trace(path) for path in args.trace]
    profile = magnitude_profile(traces, config.levels, config.exclude, config.step)
    with _open_out(args.out) as out:
        profile.write_csv(out)
    return 0


def cmd_prefill(args) -> int:
    config = load_config(args.config, _config_overrides(args))
    weights = _resolve_weights(config)
    inputs = _prepare_inputs(config, weights, args.prompt)
    prompt_len = len(inputs)
    partition = partition_blocks(prompt_len, config.block_size)
    scores = observation_scores(window_mass(weights, inputs, partition), partition)
    kept = treekv_prefill_compress(partition, scores, config.cache_blocks)

    with _open_out(args.out) as out:
        retained_tokens = []
        for stream, blocks in enumerate(kept):
            layer, head = divmod(stream, weights.dims.heads)
            ranges = [list(partition.blocks[i]) for i in blocks]
            token_count = sum(end - start for start, end in ranges)
            retained_tokens.append(token_count)
            line = {
                "layer": layer,
                "head": head,
                "retained_blocks": ranges,
                "block_scores": scores[stream].tolist(),
                "retained_tokens": token_count,
            }
            out.write(json.dumps(line, separators=(",", ":")) + "\n")
        summary = {
            "summary": {
                "prompt_len": prompt_len,
                "block_size": config.block_size,
                "cache_blocks": config.cache_blocks,
                "blocks_total": len(partition.blocks),
                "mean_retained_tokens": sum(retained_tokens) / len(retained_tokens),
            }
        }
        out.write(json.dumps(summary, separators=(",", ":")) + "\n")
    return 0


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two config files")
    configs = [load_config(path, {}) for path in args.configs]
    for config in configs:
        make_policy(config.policy, config.c, config.zones)  # refused before any decode
    first = configs[0]
    weights = _resolve_weights(first)
    inputs = _prepare_inputs(first, weights, None)
    for config in configs[1:]:
        same_stream = (
            (config.weights is not None or config.dims() == first.dims())
            and config.seed == first.seed
            and config.T == first.T
            and config.weights == first.weights
        )
        if not same_stream:
            raise InputError(
                "compare requires configs sharing model dims, seed and T "
                "(mismatched streams)"
            )
    streams = weights.dims.layers * weights.dims.heads
    # Only each run's final retained positions are read, so its trace is not kept.
    runs = [(config, decode_with_policy(weights, inputs, config.policy, config.c,
                                        config.zones).retained.reshape(streams, -1))
            for config in configs]
    # Stream s's positions shifted by s * T, so that one membership test
    # compares every stream with its own reference stream.
    offset = np.arange(streams)[:, None] * first.T
    reference = runs[0][1] + offset
    bounds = [first.T // 4, first.T // 2, (3 * first.T) // 4]
    with _open_out(args.out) as out:
        # nll stays an empty column until compare gains a quality column.
        out.write("policy,overlap,q1,q2,q3,q4,nll\n")
        for config, final in runs:
            shared = np.isin(final + offset, reference).sum(axis=1)
            overlaps = shared / max(final.shape[1], reference.shape[1])
            quarter = np.searchsorted(bounds, final.ravel(), side="right")
            quartiles = np.bincount(quarter, minlength=4) / streams
            cells = [config.policy, str(float(np.mean(overlaps))), *map(str, quartiles), ""]
            out.write(",".join(cells) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treekv",
        description="Tree-cycle KV-cache eviction experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-weights", help="generate a deterministic weight file")
    _add_config_flags(gen, _MODEL_FLAGS)
    gen.add_argument("--out", "-o", required=True)
    gen.set_defaults(func=cmd_gen_weights)

    decode = sub.add_parser("decode", help="run a decode experiment, write a trace")
    decode.add_argument("--config", default=None)
    _add_config_flags(decode, _INPUT_FLAGS + ["policy", "c", "zones", "trace_detail"])
    decode.add_argument("--tokens", default=None, help="JSON embedding-row file")
    decode.add_argument("--out", "-o", default="trace.jsonl")
    decode.set_defaults(func=cmd_decode)

    map_cmd = sub.add_parser("map", help="per-position head-retention fractions")
    map_cmd.add_argument("--trace", required=True)
    map_cmd.add_argument("--out", "-o", default=None)
    map_cmd.set_defaults(func=cmd_map)

    analyze = sub.add_parser("analyze", help="band-magnitude profile of a trace")
    analyze.add_argument("--trace", action="append", required=True)
    analyze.add_argument("--config", default=None)
    _add_config_flags(analyze, ["levels", "exclude", "step"])
    analyze.add_argument("--out", "-o", default=None)
    analyze.set_defaults(func=cmd_analyze)

    prefill = sub.add_parser("prefill", help="block-level prompt compression")
    prefill.add_argument("--config", default=None)
    _add_config_flags(prefill, _INPUT_FLAGS + ["block_size", "cache_blocks"])
    prefill.add_argument("--prompt", default=None, help="JSON embedding-row file")
    prefill.add_argument("--out", "-o", default=None)
    prefill.set_defaults(func=cmd_prefill)

    compare = sub.add_parser("compare", help="summary table across policy configs")
    compare.add_argument("configs", nargs="+")
    compare.add_argument("--out", "-o", default=None)
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the run is too large to allocate: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except TreeKVError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
