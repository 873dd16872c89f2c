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
from dataclasses import dataclass, fields

import numpy as np

from .engine import (
    ModelDims,
    ModelWeights,
    atomic_output,
    embed_tokens,
    generate_weights,
    load_weights,
    save_weights,
    synthesize_embeddings,
    synthesize_token_ids,
)
from .errors import ConfigError, InputError, TreeKVError
from .policies import decode_with_policy, make_policy
from .prefill import observation_scores, partition_blocks, treekv_prefill_compress, window_mass
from .trace import (
    DecodeTrace,
    _grid,
    distribution_map,
    read_trace,
    validate_trace,
    write_trace,
)
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
    vocab: int = 0
    block_size: int = 64
    cache_blocks: int = 8
    levels: int = 5
    exclude: int = 32
    step: int | None = None
    weights: str | None = None
    trace_detail: str = "full"  # "full" records the inputs and weights, "light" neither

    def dims(self) -> ModelDims:
        return ModelDims(self.layers, self.heads, self.d_model, self.d_head, self.vocab)


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}
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
        except ValueError as exc:  # bad JSON or UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = sorted(set(data) - _CONFIG_FIELDS)
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
        for name in _CONFIG_FIELDS
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


def _load_token_file(path: str, d_model: int):
    """Token file: a JSON array of ids, or of d_model-length embedding rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise InputError(f"cannot read token file {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise InputError(f"token file {path} must be a non-empty JSON array")
    if all(type(item) is int for item in data):
        return data, None
    return None, _grid(data, (None, d_model), f"embedding rows in {path}",
                       (int, float), np.float64)


def _prepare_inputs(config: RunConfig, weights: ModelWeights, tokens_path: str | None):
    """Input embeddings plus the token ids when the model has a vocab.  The
    model's dims (a weight file's own, if one is given) set the width."""
    d_model = weights.dims.d_model
    if tokens_path is not None:
        ids, matrix = _load_token_file(tokens_path, d_model)
        if ids is not None:
            if weights.dims.vocab < 1:
                raise InputError("token ids need a model with vocab > 0")
            return embed_tokens(weights, ids), ids
        return matrix, None
    if config.T < 1:
        raise ConfigError(f"violated precondition T >= 1 (got T={config.T})")
    if weights.dims.vocab > 0:
        ids = synthesize_token_ids(config.seed, config.T, weights.dims.vocab)
        return embed_tokens(weights, ids), ids
    return synthesize_embeddings(config.seed, config.T, d_model), None


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
    inputs, ids = _prepare_inputs(config, weights, args.tokens)
    trace = decode_with_policy(
        weights,
        inputs,
        config.policy,
        config.c,
        config.zones,
        stream_seed=config.seed,
        token_ids=ids,
        record_detail=config.trace_detail == "full",
    )
    write_trace(trace, args.out)
    return 0


def cmd_map(args) -> int:
    trace = read_trace(args.trace)
    validate_trace(trace)
    grid = distribution_map(trace)
    with _open_out(args.out) as out:
        for layer in range(grid.shape[0]):
            cells = ",".join(str(value) for value in grid[layer])
            out.write(f"{layer},{cells}\n")
    return 0


def cmd_analyze(args) -> int:
    config = load_config(args.config, _config_overrides(args))
    traces = [read_trace(path) for path in args.trace]
    for trace in traces:
        validate_trace(trace)
    profile = magnitude_profile(traces, config.levels, config.exclude, config.step)
    with _open_out(args.out) as out:
        profile.write_csv(out)
    return 0


def cmd_prefill(args) -> int:
    config = load_config(args.config, _config_overrides(args))
    weights = _resolve_weights(config)
    inputs, _ids = _prepare_inputs(config, weights, args.prompt)
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


def _mean_nll(trace: DecodeTrace, weights: ModelWeights) -> float | None:
    if weights.dims.vocab < 1 or trace.token_ids is None:
        return None
    total = 0.0
    count = 0
    for record in trace.steps[:-1]:
        logits = weights.logits(record.outputs.reshape(-1))  # streams in (layer, head) order
        shifted = logits - logits.max()
        log_norm = np.log(np.exp(shifted).sum())
        target = trace.token_ids[record.step]  # next token
        total += float(log_norm - shifted[target])
        count += 1
    return total / count if count else None


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two config files")
    configs = [load_config(path, {}) for path in args.configs]
    for config in configs:
        make_policy(config.policy, config.c, config.zones)  # refused before any decode
    first = configs[0]
    weights = _resolve_weights(first)
    inputs, ids = _prepare_inputs(first, weights, None)
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
    runs = []
    for config in configs:
        trace = decode_with_policy(
            weights,
            inputs,
            config.policy,
            config.c,
            config.zones,
            stream_seed=config.seed,
            token_ids=ids,
            record_detail=False,
            record_outputs=weights.dims.vocab > 0,  # read only by _mean_nll
        )
        runs.append((config, trace))

    streams = weights.dims.layers * weights.dims.heads
    # Stream s's positions shifted by s * T, so that one membership test
    # compares every stream with its own reference stream.
    offset = np.arange(streams)[:, None] * first.T
    reference = runs[0][1].retained.reshape(streams, -1) + offset
    bounds = [first.T // 4, first.T // 2, (3 * first.T) // 4]
    with _open_out(args.out) as out:
        out.write("policy,overlap,q1,q2,q3,q4,nll\n")
        for config, trace in runs:
            final = trace.retained.reshape(streams, -1)
            shared = np.isin(final + offset, reference).sum(axis=1)
            overlaps = shared / max(final.shape[1], reference.shape[1])
            quarter = np.searchsorted(bounds, final.ravel(), side="right")
            quartiles = np.bincount(quarter, minlength=4) / streams
            nll = _mean_nll(trace, weights)
            cells = [
                config.policy,
                str(float(np.mean(overlaps))),
                *(str(q) for q in quartiles),
                "" if nll is None else str(nll),
            ]
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
    decode.add_argument("--tokens", default=None, help="JSON token-id or embedding file")
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
    prefill.add_argument("--prompt", default=None, help="JSON token-id or embedding file")
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
