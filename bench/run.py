"""Benchmark of the treekv experiment pipeline, driven through its CLI.

    python3 bench/run.py --workload policy-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                           # every workload in turn

With ``--trace 0`` each workload's commands run as child processes of this
process in a closed loop (one client; the next command starts when the
previous one has exited), repeated for ``--seconds``, and the end-to-end
metrics are medians over those iterations.  Times are given at a reference
host speed: a fixed loop timed before, during and after each command
measures how fast the host runs meanwhile (see ``HostSpeed``).  With
``--trace 1`` the same commands run in-process through ``treekv.cli.main``,
alternating untraced iterations with traced ones whose module entry points
are wrapped by ``layers.instrument``; per-layer metrics are medians over the
traced iterations.  Every output is checked in every iteration.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each workload run
first prints a line recording the environment and its parameters.  With
``--workload all`` (the default) the counts are summed over the workloads
and each metric is named ``<workload>.<metric>``.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from layers import METRICS, Tracer, instrument, median_metrics
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    Tally,
    check_outputs,
    gen_weights_command,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ITERATIONS = 3  # and so at least three set-ups, whose median is setup_s
# The host's speed drifts by tens of percent within seconds, so measured
# seconds are scaled to the speed at which calibrate()'s loop takes
# REFERENCE_CALIBRATION_S, about its mean on the host the benchmark was
# built on.  While a child runs, the loop is timed every SAMPLE_EVERY_S.
CALIBRATION_LOOP = 40_000
REFERENCE_CALIBRATION_S = 0.0028
SAMPLE_EVERY_S = 0.1

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("tokens_per_s", "tokens/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("bytes_written", "bytes", "lower"),
    ("success_ratio", "ratio", "higher"),
]


class SetupFailed(Exception):
    pass


def child_env() -> dict:
    """The checkout's sources, and a fixed hash seed so reruns match."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_child(command, env, speed=None):
    """Run one treekv command as a child; (exit code, seconds, peak RSS MB).

    With ``speed``, the host's speed is sampled while the child runs, and
    the time those samples took is not counted in the child's seconds.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "treekv", *command.argv],
                            env=env, stdout=subprocess.DEVNULL)
    try:
        sampling = speed.follow(proc.pid) if speed is not None else 0.0
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    elapsed = perf_counter() - start - sampling
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


def calibrate() -> float:
    """CPU seconds a fixed pure-Python loop takes: the host's speed now.

    It runs in this process, on the CPU the children are pinned to, and
    does not touch the program under test.  CPU time rather than wall
    time, so that the child running in between does not count.
    """
    start = thread_time()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return thread_time() - start


class HostSpeed:
    """Scales measured seconds to the reference speed, by the mean of the
    calibrations taken just before a timed region, during it and just
    after it."""

    def __init__(self):
        self.factors: list[float] = []
        self.samples: list[float] = []

    def start(self) -> None:
        self.samples = [calibrate()]

    def follow(self, pid: int) -> float:
        """Sample until child ``pid`` exits; returns the seconds sampled."""
        if not hasattr(os, "pidfd_open"):
            return 0.0
        sampled = 0.0
        exited = os.pidfd_open(pid)
        try:
            while not select.select([exited], [], [], SAMPLE_EVERY_S)[0]:
                self.samples.append(calibrate())
                sampled += self.samples[-1]
        finally:
            os.close(exited)
        return sampled

    def scale(self, seconds: float) -> float:
        self.samples.append(calibrate())
        factor = REFERENCE_CALIBRATION_S / statistics.mean(self.samples)
        self.factors.append(factor)
        return seconds * factor


def pin_to_one_cpu() -> set[int] | None:
    """Pin this process, and so its children, to one CPU so calibration
    and commands share it; returns the previous CPU set to restore."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


def run_inprocess(command):
    """Run one treekv command through treekv.cli.main; RSS is not taken."""
    import treekv.cli

    start = perf_counter()
    try:
        returncode = treekv.cli.main(command.argv)
    except SystemExit as exc:  # argparse rejects its arguments
        returncode = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed command, not a failed run
        traceback.print_exc()
        returncode = 1
    return returncode, perf_counter() - start, 0.0


def set_up(workload, work, seed, tally, env, speed=None) -> float:
    """Weight file plus the workload's inputs; returns the wall time."""
    returncode, seconds, _rss = run_child(gen_weights_command(work, seed), env, speed)
    start = perf_counter()
    workload.prepare(work, seed)
    elapsed = seconds + perf_counter() - start
    tally.record("gen-weights", returncode, [])
    if returncode != 0:
        raise SetupFailed(f"treekv gen-weights exited {returncode}")
    return elapsed


def iterate(workload, work, seed, tally, runner):
    """Run the workload's commands once in order; check every output.

    Returns the commands' summed wall time, the highest peak RSS of any
    of them and the bytes they wrote.
    """
    wall, peak, written = 0.0, 0.0, 0
    for command in workload.commands(work):
        for path in command.outputs:
            path.unlink(missing_ok=True)
        returncode, seconds, rss = runner(command)
        wall += seconds
        peak = max(peak, rss)
        problems = check_outputs(workload, command, work, seed) if returncode == 0 else []
        tally.record(command.name, returncode, problems)
        written += sum(path.stat().st_size for path in command.outputs if path.exists())
    return wall, peak, written


def measure(workload, work, seed, seconds, env):
    """End-to-end metrics.  Each iteration is preceded by a fresh set-up, so
    set-up samples span the same stretch of time as the commands.  Times
    are scaled to the reference speed one set-up or command at a time."""
    tally = Tally()
    setups, walls, peaks, written = [], [], [], []
    speed = HostSpeed()

    def child(command):
        speed.start()
        returncode, seconds, rss = run_child(command, env, speed)
        return returncode, speed.scale(seconds), rss

    deadline = perf_counter() + seconds
    cpus = pin_to_one_cpu()
    try:
        while len(walls) < MIN_ITERATIONS or perf_counter() + walls[-1] / 2 < deadline:
            speed.start()
            setups.append(speed.scale(set_up(workload, work, seed, tally, env, speed)))
            wall, peak, nbytes = iterate(workload, work, seed, tally, child)
            walls.append(wall)
            peaks.append(peak)
            written.append(nbytes)
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "tokens_per_s": workload.tokens / wall,
        "peak_rss_mb": statistics.median(peaks),
        "bytes_written": statistics.median(written),
        "success_ratio": 1.0 - tally.failed / tally.attempted,
    }
    units = {name: unit for name, unit, _better in END_TO_END}
    extra = {"iterations": len(walls), "host_speed": statistics.median(speed.factors)}
    return tally, metrics, units, extra


def measure_layers(workload, work, seed, seconds, env):
    """Per-layer metrics; tracing_overhead_s compares the traced iterations
    with untraced in-process ones, so interpreter start-up is not in it."""
    tally = Tally()
    set_up(workload, work, seed, tally, env)
    sys.path.insert(0, str(SRC))
    # Warm-up: imports and lazily built tables would otherwise land in the
    # first untraced iteration only.
    iterate(workload, work, seed, tally, run_inprocess)
    untraced, traced, runs = [], [], []
    deadline = perf_counter() + seconds
    while not runs or perf_counter() + traced[-1] < deadline:
        untraced.append(iterate(workload, work, seed, tally, run_inprocess)[0])
        tracer = Tracer()
        with instrument(tracer):
            # Set-up in-process too, so its layer work (rng) is counted.
            returncode, _seconds, _rss = run_inprocess(gen_weights_command(work, seed))
            tally.record("gen-weights", returncode, [])
            workload.prepare(work, seed)
            traced.append(iterate(workload, work, seed, tally, run_inprocess)[0])
        runs.append(tracer.metrics())
    metrics = median_metrics(runs)
    metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    units = {name: unit for name, unit, _what in METRICS}
    return tally, metrics, units, {"iterations": len(runs)}


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def run_workload(workload, seed, seconds, traced):
    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        tally, metrics, units, extra = (measure_layers if traced else measure)(
            workload, work, seed, seconds, env)
    finally:
        remove_work(work)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    environment = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "params": workload.params,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "reference_checked": seed == DEFAULT_SEED,
        **extra,
    }
    return environment, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "treekv" / "cli.py").is_file():
        print(f"treekv sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            environment, results[name] = run_workload(WORKLOADS[name], args.seed,
                                                      args.seconds, bool(args.trace))
            print(json.dumps({"environment": environment}))
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, result in results.items()
                    for metric, entry in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
