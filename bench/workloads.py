"""The three benchmark workloads: their inputs, their CLI commands and the
checks every output must pass.

Each workload is a fixed experiment of the paper's pipeline at model size
2x4x64x16 (layers x heads x d_model x d_head, vocab 0).  Set-up writes the
weight file (``treekv gen-weights``) plus the workload's own input and
config files, all derived from the workload seed.  Commands are given as
``treekv`` argument lists, so the same list runs in a child process or
in-process through ``treekv.cli.main``.

For the default seed, outputs are also compared with the reference outputs
under ``reference/seed0``: what the code wrote for that seed when the
benchmark was added.  Trace-file bytes are never checked: the trace format
is expected to change.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODEL = {"layers": 2, "heads": 4, "d_model": 64, "d_head": 16, "vocab": 0}
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference" / f"seed{DEFAULT_SEED}"
# Golden tolerances of the repository's own fixtures.
RTOL, ATOL = 1e-6, 1e-9


@dataclass(frozen=True)
class Command:
    """One ``treekv`` invocation and the files it writes."""

    name: str  # the CLI subcommand
    argv: list[str]
    outputs: list[Path]


@dataclass
class Tally:
    """Commands attempted and failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, returncode: int, problems: list[str]) -> None:
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit code {returncode}"] + list(problems)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def gen_weights_command(work: Path, seed: int) -> Command:
    weights = work / "weights.bin"
    argv = ["gen-weights", "--seed", str(seed), "-o", str(weights)]
    for key in ("layers", "heads", "d_model", "d_head", "vocab"):
        argv += ["--" + key.replace("_", "-"), str(MODEL[key])]
    return Command("gen-weights", argv, [weights])


def write_embeddings(path: Path, seed: int, count: int) -> None:
    """Unit-normal embedding rows from numpy's frozen legacy generator."""
    rows = np.random.RandomState(seed).standard_normal((count, MODEL["d_model"]))
    path.write_text(json.dumps(rows.tolist()), encoding="utf-8")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _reference(name: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    return (REFERENCE_DIR / name).read_text(encoding="utf-8")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


class PolicySweep:
    name = "policy-sweep"
    T, c, zones = 1024, 128, "sink=4,recent=60"
    policies = ("full", "treekv", "treekv-left", "streaming", "h2o", "tova")
    tokens = T * len(policies)
    params = {"T": T, "c": c, "zones": zones, "policies": list(policies)}

    def prepare(self, work: Path, seed: int) -> None:
        for policy in self.policies:
            config = {"policy": policy, "c": self.c, "zones": self.zones, "seed": seed,
                      "T": self.T, "weights": str(work / "weights.bin"), **MODEL}
            (work / f"{policy}.json").write_text(json.dumps(config), encoding="utf-8")

    def commands(self, work: Path) -> list[Command]:
        out = work / "compare.csv"
        configs = [str(work / f"{policy}.json") for policy in self.policies]
        return [Command("compare", ["compare", *configs, "-o", str(out)], [out])]

    def check(self, command: Command, work: Path, seed: int) -> list[str]:
        return check_compare(_read(work / "compare.csv"), self.T, self.c, self.policies,
                             _reference("compare.csv", seed))


class DecodeAnalyze:
    name = "decode-analyze"
    T, c, levels, exclude = 1024, 128, 5, 32
    tokens = T
    params = {"T": T, "c": c, "policy": "treekv", "zones": "sink=0,recent=0",
              "trace_detail": "full", "levels": levels, "exclude": exclude}

    def prepare(self, work: Path, seed: int) -> None:
        write_embeddings(work / "tokens.json", seed, self.T)

    def commands(self, work: Path) -> list[Command]:
        trace, grid, profile = work / "trace.jsonl", work / "map.csv", work / "analyze.csv"
        return [
            Command("decode", ["decode", "--policy", "treekv", "--c", str(self.c),
                               "--zones", "sink=0,recent=0", "--trace-detail", "full",
                               "--weights", str(work / "weights.bin"),
                               "--tokens", str(work / "tokens.json"), "-o", str(trace)],
                    [trace]),
            Command("map", ["map", "--trace", str(trace), "-o", str(grid)], [grid]),
            Command("analyze", ["analyze", "--trace", str(trace), "--levels",
                                str(self.levels), "--exclude", str(self.exclude),
                                "-o", str(profile)], [profile]),
        ]

    def check(self, command: Command, work: Path, seed: int) -> list[str]:
        if command.name == "decode":
            # Only existence: the trace format is free to change.
            return [] if (work / "trace.jsonl").is_file() else ["no trace written"]
        if command.name == "map":
            return check_map(_read(work / "map.csv"), self.T, self.c,
                             _reference("map.csv", seed))
        # At the final step the cache holds c + 1 slots before eviction.
        return check_analyze(_read(work / "analyze.csv"), self.c + 1, self.levels,
                             self.exclude, _reference("analyze.csv", seed))


class PrefillLong:
    name = "prefill-long"
    prompt_len, block_size, cache_blocks = 2048, 64, 8
    tokens = prompt_len
    params = {"prompt_len": prompt_len, "block_size": block_size,
              "cache_blocks": cache_blocks}

    def prepare(self, work: Path, seed: int) -> None:
        write_embeddings(work / "prompt.json", seed, self.prompt_len)

    def commands(self, work: Path) -> list[Command]:
        out = work / "prefill.jsonl"
        return [Command("prefill", ["prefill", "--block-size", str(self.block_size),
                                    "--cache-blocks", str(self.cache_blocks),
                                    "--weights", str(work / "weights.bin"),
                                    "--prompt", str(work / "prompt.json"),
                                    "-o", str(out)], [out])]

    def check(self, command: Command, work: Path, seed: int) -> list[str]:
        return check_prefill(_read(work / "prefill.jsonl"), self.prompt_len,
                             self.block_size, self.cache_blocks,
                             _reference("prefill.jsonl", seed))


WORKLOADS = {w.name: w for w in (PolicySweep(), DecodeAnalyze(), PrefillLong())}


def check_outputs(workload, command: Command, work: Path, seed: int) -> list[str]:
    """The workload's checks of one command's outputs.  Output too malformed
    to parse is a failed check, not a crash of the benchmark."""
    try:
        return workload.check(command, work, seed)
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


def check_compare(text, T, c, policies, reference=None) -> list[str]:
    """Compare CSV: rows in config order; the full row overlaps itself
    completely and spreads T tokens over the quartiles, every bounded row
    spreads c; overlaps lie in [0, 1]."""
    if text is None:
        return ["no compare CSV"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["policy", "overlap", "q1", "q2", "q3", "q4", "nll"]:
        return ["bad compare header"]
    rows = rows[1:]
    if [row[0] for row in rows] != list(policies):
        return [f"compare rows {[row[0] for row in rows]} != {list(policies)}"]
    problems = []
    for row in rows:
        try:
            overlap, *quartiles = (float(cell) for cell in row[1:6])
        except ValueError:
            problems.append(f"{row[0]}: non-numeric cell")
            continue
        expected = T if row[0] == "full" else c
        if not 0.0 <= overlap <= 1.0:
            problems.append(f"{row[0]}: overlap {overlap} outside [0, 1]")
        if row[0] == "full" and overlap != 1.0:
            problems.append(f"full: overlap {overlap} != 1.0")
        if abs(sum(quartiles) - expected) > 1e-9:
            problems.append(f"{row[0]}: quartiles sum to {sum(quartiles)}, not {expected}")
    if reference is not None and text != reference:
        problems.append("compare CSV differs from the reference")
    return problems


def check_map(text, T, c, reference=None) -> list[str]:
    """Map CSV: one row per layer of T head fractions; every fraction is a
    multiple of 1/heads and each row sums to the capacity c."""
    if text is None:
        return ["no map CSV"]
    heads = MODEL["heads"]
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != MODEL["layers"]:
        return [f"map has {len(rows)} rows, expected {MODEL['layers']}"]
    problems = []
    for layer, row in enumerate(rows):
        if row[0] != str(layer) or len(row) != T + 1:
            problems.append(f"map row {layer} is malformed")
            continue
        values = [float(cell) for cell in row[1:]]
        if any(v * heads != round(v * heads) or not 0 <= v <= 1 for v in values):
            problems.append(f"map row {layer} has a value that is not k/{heads}")
        if abs(sum(values) - c) > 1e-9:
            problems.append(f"map row {layer} sums to {sum(values)}, not {c}")
    if reference is not None and text != reference:
        problems.append("map CSV differs from the reference")
    return problems


def _band_names(levels: int) -> list[str]:
    return [f"A{levels}"] + [f"D{level}" for level in range(levels, 0, -1)]


def check_analyze(text, slots, levels, exclude, reference=None) -> list[str]:
    """Analysis CSV: one row per (position, band), positions outside the
    margins in order, bands A{L}, D{L}, ..., D1; magnitudes finite and >= 0,
    and within the golden tolerances of the reference."""
    if text is None:
        return ["no analysis CSV"]
    lines = text.splitlines()
    if not lines or lines[0] != "position,band,mean_abs_magnitude":
        return ["bad analysis header"]
    bands = _band_names(levels)
    expected = [(str(p), b) for p in range(exclude, slots - exclude) for b in bands]
    rows = [line.split(",") for line in lines[1:]]
    if [tuple(row[:2]) for row in rows] != expected:
        return [f"analysis has {len(rows)} rows, expected {len(expected)} "
                f"(positions x {len(bands)} bands) in order"]
    values = [float(row[2]) for row in rows]
    problems = []
    if not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("analysis has a negative or non-finite magnitude")
    if reference is not None:
        ref = [float(line.split(",")[2]) for line in reference.splitlines()[1:]]
        bad = sum(1 for v, r in zip(values, ref) if not _close(v, r))
        if len(ref) != len(values) or bad:
            problems.append(f"{bad} analysis magnitudes outside tolerance of the reference")
    return problems


def check_prefill(text, prompt_len, block_size, cache_blocks, reference=None) -> list[str]:
    """Prefill JSON lines: every stream keeps cache_blocks content blocks plus
    the observation window, aligned and in prompt order."""
    if text is None:
        return ["no prefill output"]
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        return ["prefill output is not JSON lines"]
    streams = [(l, h) for l in range(MODEL["layers"]) for h in range(MODEL["heads"])]
    if len(records) != len(streams) + 1 or "summary" not in records[-1]:
        return [f"prefill has {len(records)} records, expected {len(streams)} + summary"]
    blocks_total = -(-prompt_len // block_size)
    window = [block_size * (blocks_total - 1), prompt_len]
    problems = []
    for (layer, head), record in zip(streams, records):
        label = f"stream ({layer}, {head})"
        kept = record.get("retained_blocks")
        if (record.get("layer"), record.get("head")) != (layer, head) or not kept:
            problems.append(f"{label}: malformed record")
            continue
        starts = [start for start, _end in kept]
        if (len(kept) != cache_blocks + 1 or kept[-1] != window
                or starts != sorted(set(starts))
                or any(s % block_size or e != s + block_size for s, e in kept)):
            problems.append(f"{label}: does not keep {cache_blocks} blocks plus the "
                            "window in prompt order")
        if record.get("retained_tokens") != sum(e - s for s, e in kept):
            problems.append(f"{label}: retained_tokens disagrees with its blocks")
        if len(record.get("block_scores", [])) != blocks_total:
            problems.append(f"{label}: expected {blocks_total} block scores")
    if reference is not None and not problems:
        expected = [json.loads(line) for line in reference.splitlines()]
        for (layer, head), got, ref in zip(streams, records, expected):
            if got["retained_blocks"] != ref["retained_blocks"]:
                problems.append(f"stream ({layer}, {head}): retained blocks differ "
                                "from the reference")
            if not all(map(_close, got["block_scores"], ref["block_scores"])):
                problems.append(f"stream ({layer}, {head}): block scores outside "
                                "tolerance of the reference")
        if records[-1] != expected[-1]:
            problems.append("prefill summary differs from the reference")
    return problems
