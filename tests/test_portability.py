"""Which output bytes are portable across BLAS kernels and numpy SIMD targets.

One child process per environment runs ``decode`` (a full tova trace),
``map`` and ``analyze`` on that trace, a four-policy ``compare`` and
``prefill`` through ``treekv.cli.main``.  The environments are the default
one, OpenBLAS forced to its Haswell and Sandybridge kernels
(``OPENBLAS_CORETYPE``, honoured by a ``DYNAMIC_ARCH`` build), and numpy
with its AVX-512 loops disabled (``NPY_DISABLE_CPU_FEATURES``).  The
eviction decisions are portable: traces, the map and compare CSVs and
prefill's retained blocks are byte-identical in every environment.  The
float outputs are reproducible only per host, so the analyze magnitudes
and prefill's block scores agree within rtol 1e-12, not bitwise.

A setting the host cannot apply is left out (an OpenBLAS core type whose
instructions the CPU lacks, an AVX-512 target numpy was not built for or
the CPU lacks), and one a BLAS without ``DYNAMIC_ARCH`` ignores runs the
default kernel: either way the test still runs and compares like with like.
"""

import json
import os
import subprocess
import sys

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

RUN = {"T": 256, "c": 64, "zones": "sink=4,recent=12"}
COMPARED = ("treekv", "streaming", "h2o", "tova")
SETTINGS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

CHILD = """
import json, sys
from treekv.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def _environments():
    """Name -> the child's environment: the default, then each setting the
    host can apply."""
    base = {key: value for key, value in os.environ.items() if key not in SETTINGS}
    settings = {}
    if __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"):
        settings["haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if __cpu_features__.get("AVX"):
        settings["sandybridge"] = {"OPENBLAS_CORETYPE": "Sandybridge"}
    avx512 = [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
              if name in __cpu_dispatch__ and __cpu_features__.get(name)]
    if avx512:
        settings["no-avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    return {"default": base, **{name: {**base, **extra} for name, extra in settings.items()}}


def _commands(out):
    flags = [item for key, value in RUN.items() for item in (f"--{key}", str(value))]
    configs = []
    for spec in COMPARED:
        path = out / f"{spec}.json"
        path.write_text(json.dumps({**RUN, "policy": spec}))
        configs.append(str(path))
    trace = str(out / "trace.jsonl")
    return [
        ["decode", *flags, "--policy", "tova", "-o", trace],
        ["map", "--trace", trace, "-o", str(out / "map.csv")],
        ["analyze", "--trace", trace, "--levels", "3", "--exclude", "8",
         "-o", str(out / "analyze.csv")],
        ["compare", *configs, "-o", str(out / "compare.csv")],
        ["prefill", "--T", "256", "--block-size", "16", "--cache-blocks", "4",
         "-o", str(out / "prefill.jsonl")],
    ]


def _analyze(out):
    lines = (out / "analyze.csv").read_text().splitlines()
    return lines[0], [line.rsplit(",", 1) for line in lines[1:]]


def _prefill(out):
    lines = [json.loads(line) for line in (out / "prefill.jsonl").read_text().splitlines()]
    blocks = [json.dumps(line.pop("retained_blocks")) for line in lines[:-1]]
    scores = [line.pop("block_scores") for line in lines[:-1]]
    return blocks, scores, lines


def test_decisions_are_bitwise_and_floats_close_across_kernels(tmp_path):
    children = {}
    for name, env in _environments().items():
        out = tmp_path / name
        out.mkdir()
        children[name] = out, subprocess.Popen(
            [sys.executable, "-c", CHILD, json.dumps(_commands(out))], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for name, (out, child) in children.items():
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, (name, err)

    reference, _ = children.pop("default")
    header, magnitudes = _analyze(reference)
    blocks, scores, summaries = _prefill(reference)
    for name, (out, _) in children.items():
        for file in ("trace.jsonl", "map.csv", "compare.csv"):
            assert (out / file).read_bytes() == (reference / file).read_bytes(), (name, file)
        their_header, their_magnitudes = _analyze(out)
        assert their_header == header
        assert [key for key, _ in their_magnitudes] == [key for key, _ in magnitudes]
        np.testing.assert_allclose([float(v) for _, v in their_magnitudes],
                                   [float(v) for _, v in magnitudes], rtol=1e-12, atol=0)
        their_blocks, their_scores, their_summaries = _prefill(out)
        assert their_blocks == blocks and their_summaries == summaries, name
        np.testing.assert_allclose(their_scores, scores, rtol=1e-12, atol=0)
