"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass line when it holds.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from treekv import (
    ModelDims,
    ProtectedZones,
    StreamBatch,
    TreeKV,
    decode_with_policy,
    dwt_multi,
    dwt_single,
    generate_weights,
    make_policy,
    max_level,
    partition_blocks,
    reconstruct,
    reconstruct_component,
    rotate_vector,
    synthesize_embeddings,
    treekv_prefill_compress,
)
from treekv.policies import POLICY_SPECS, StreamingLLM, TreeKVLeft

from helpers import drive_policy, evictions, outputs_at
from oracles import oracle_dwt, oracle_full_attention, oracle_tree_sim


def _report(number, name):
    print(f"[acceptance {number:02d}] {name}: PASS")


# ---------------------------------------------------------------------------
# Criteria 1 and 4 share one fuzz corpus.

FUZZ_SCENARIOS = 1000


def _drive_tree_policy(capacity, rows, select_left):
    """Run the production eviction path on a synthetic score stream."""
    policy = (TreeKVLeft if select_left else TreeKV)(capacity)
    cursors = []
    size_violations = 0
    for batch, eviction in drive_policy(policy, capacity, rows=rows):
        if eviction is not None:
            cursors.append(eviction[1])
        if batch.n > capacity:
            size_violations += 1
    retained = [p + 1 for p in batch.positions[0, : batch.n].tolist()]
    return retained, cursors, size_violations


@pytest.fixture(scope="module")
def tree_fuzz():
    rng = np.random.default_rng(20250809)
    started = time.perf_counter()
    mismatches = []
    violations = 0
    for scenario in range(FUZZ_SCENARIOS):
        capacity = int(rng.integers(2, 65))
        seq_len = int(rng.integers(capacity + 1, 8 * capacity + 1))
        select_left = scenario % 5 == 4
        rows = []
        for t in range(1, seq_len + 1):
            width = min(t, capacity + 1)
            raw = rng.random(width)
            rows.append((raw / raw.sum()).tolist())
        retained, cursors, size_violations = _drive_tree_policy(
            capacity, rows, select_left
        )
        violations += size_violations
        expected = oracle_tree_sim(capacity, seq_len, None if select_left else rows)
        if (retained, cursors) != expected:
            mismatches.append((capacity, seq_len, select_left))
    return {
        "mismatches": mismatches,
        "violations": violations,
        "elapsed": time.perf_counter() - started,
    }


def test_c01_algorithm_fidelity(tree_fuzz):
    assert tree_fuzz["mismatches"] == []
    assert tree_fuzz["elapsed"] < 30.0
    _report(1, f"algorithm fidelity on {FUZZ_SCENARIOS} scenarios "
               f"({tree_fuzz['elapsed']:.1f}s)")


def test_c02_deterministic_tree_pattern():
    weights = generate_weights(5, ModelDims(1, 2, 8, 4))
    inputs = synthesize_embeddings(2, 17, 8)
    trace = decode_with_policy(weights, inputs, make_policy("treekv-left", 4))
    expected_cursors = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1]
    for head in range(2):
        retained = [p + 1 for p in trace.retained[0][head]]
        assert retained == [12, 14, 16, 17]
    cursors = [cursor for _, _, cursor in evictions(trace)]
    assert cursors == expected_cursors
    assert oracle_tree_sim(4, 17, None) == ([12, 14, 16, 17], expected_cursors)
    _report(2, "select-left c=4 T=17 retains {12,14,16,17}, cursor cycle 1,2,3,4")


def test_c03_full_cache_equivalence():
    rng = np.random.default_rng(42)
    fixtures = 100
    for fixture in range(fixtures):
        dims = ModelDims(
            layers=int(rng.integers(1, 3)),
            heads=int(rng.integers(1, 3)),
            d_model=int(rng.choice([4, 8])),
            d_head=int(rng.choice([2, 4])),
        )
        seq_len = int(rng.integers(3, 11))
        weights = generate_weights(int(rng.integers(0, 2**31)), dims)
        inputs = synthesize_embeddings(int(rng.integers(0, 2**31)), seq_len, dims.d_model)
        expected = oracle_full_attention(weights, inputs)
        for spec in POLICY_SPECS:
            trace = decode_with_policy(weights, inputs, make_policy(spec, seq_len))
            assert trace.evicted.shape == (0, dims.layers, dims.heads)
            for step in range(1, seq_len + 1):
                outputs = outputs_at(trace, step)
                for layer in range(dims.layers):
                    for head in range(dims.heads):
                        np.testing.assert_allclose(
                            outputs[layer][head],
                            expected[step - 1][layer][head],
                            rtol=1e-6,
                            atol=1e-9,
                        )
    _report(3, f"full-cache outputs match dense recomputation on {fixtures} fixtures")


def test_c04_capacity_invariant(tree_fuzz):
    assert tree_fuzz["violations"] == 0
    _report(4, "retained slot count <= c after every fuzz step (0 violations)")


# ---------------------------------------------------------------------------
# Wavelet criteria 5 and 6 share one corpus.


def _wavelet_corpus():
    rng = np.random.default_rng(55)
    cases = []
    for _ in range(38):
        length = int(rng.integers(2, 4097))
        levels = int(rng.integers(1, min(8, max_level(length)) + 1))
        cases.append((rng.normal(size=length), levels))
    cases.append((rng.normal(size=4096), 8))
    cases.append((rng.normal(size=4095), 8))  # odd-length padding path
    return cases


def test_c05_wavelet_reconstruction_and_oracle():
    started = time.perf_counter()
    for signal, levels in _wavelet_corpus():
        coeffs = dwt_multi(signal, levels)
        assert np.abs(reconstruct(coeffs) - signal).max() < 1e-10
        # Orthonormal energy preservation at every level of the cascade.
        running = signal
        for _ in range(levels):
            approx, detail = dwt_single(running)
            energy_in = float(running @ running)
            energy_out = float(approx @ approx) + float(detail @ detail)
            assert abs(energy_in - energy_out) <= 1e-10 * max(energy_in, 1.0)
            running = approx
        # Whole-transform energy balance.
        energy_in = float(signal @ signal)
        energy_out = float(coeffs.approx @ coeffs.approx) + sum(
            float(d @ d) for d in coeffs.details
        )
        assert abs(energy_in - energy_out) <= 1e-10 * max(energy_in, 1.0)

    rng = np.random.default_rng(77)
    oracle_cases = 0
    for _ in range(200):
        length = int(rng.integers(2, 257)) if oracle_cases < 192 else int(
            rng.integers(1024, 2049)
        )
        levels = int(rng.integers(1, min(6, max_level(length)) + 1))
        signal = rng.normal(size=length)
        coeffs = dwt_multi(signal, levels)
        expected = oracle_dwt(signal.tolist(), levels)
        mine = [coeffs.approx] + list(coeffs.details)
        assert len(mine) == len(expected)
        for got, want in zip(mine, expected):
            assert np.abs(np.asarray(got) - np.asarray(want)).max() < 1e-10
        oracle_cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, f"perfect reconstruction, energy preservation, and oracle match "
               f"on {oracle_cases} cases ({elapsed:.1f}s)")


def test_c06_component_additivity():
    for signal, levels in _wavelet_corpus():
        coeffs = dwt_multi(signal, levels)
        total = np.zeros_like(signal)
        for band in coeffs.band_names():
            total += reconstruct_component(coeffs, band)
        assert np.abs(total - signal).max() < 1e-10
    _report(6, "band components sum back to the original signal")


def test_c07_left_sparse_right_dense():
    started = time.perf_counter()
    capacity, seq_len, seeds = 128, 512, 20
    weights = generate_weights(1234, ModelDims(2, 4, 64, 16))
    quartiles = np.zeros(4, dtype=np.float64)
    streams = 0
    for seed in range(seeds):
        inputs = synthesize_embeddings(seed, seq_len, 64)
        trace = decode_with_policy(weights, inputs, make_policy("treekv", capacity))
        final = trace.retained
        for layer in range(2):
            for head in range(4):
                positions = final[layer][head]
                assert len(positions) == capacity
                for position in positions:
                    quartiles[min(position * 4 // seq_len, 3)] += 1
                streams += 1
    quartiles /= streams
    elapsed = time.perf_counter() - started
    assert quartiles[0] <= quartiles[1] <= quartiles[2] <= quartiles[3]
    assert quartiles[3] > quartiles[0]
    assert elapsed < 60.0
    _report(7, f"mean quartile densities {quartiles.tolist()} are non-decreasing "
               f"({elapsed:.1f}s)")


def test_c08_baseline_behavioural_contracts():
    rng = np.random.default_rng(88)

    # Sliding window: sinks plus recent, exactly, at every warm step.
    for _ in range(100):
        capacity = int(rng.integers(3, 40))
        n_sink = int(rng.integers(0, capacity))
        zones = ProtectedZones(n_sink, capacity - n_sink)
        seq_len = capacity + int(rng.integers(1, 3 * capacity))
        policy = StreamingLLM(capacity, zones)
        rows = []
        for t in range(1, seq_len + 1):
            raw = rng.random(min(t, capacity + 1))
            rows.append(raw / raw.sum())
        for t, (batch, _) in enumerate(drive_policy(policy, capacity, rows=rows)):
            if t + 1 > capacity:
                expected = list(range(n_sink)) + list(
                    range(t + 1 - zones.n_recent, t + 1)
                )
                assert batch.positions[0, : batch.n].tolist() == expected

    # Cumulative-score argmin outside the zones, leftmost tie-break.
    for _ in range(100):
        capacity = int(rng.integers(2, 40))
        size = capacity + 1
        n_sink = int(rng.integers(0, capacity))
        n_recent = int(rng.integers(0, capacity - n_sink + 1))
        zones = ProtectedZones(n_sink, n_recent)
        mass = rng.integers(0, 5, size=size) / 4.0  # coarse grid forces ties
        middle = list(mass[n_sink : size - n_recent])
        expected = n_sink + min(range(len(middle)), key=middle.__getitem__)
        policy = make_policy("h2o", capacity, zones)
        assert policy.select((1, size), scores=mass[None]).tolist() == [expected]

    # Last-row argmin outside the zones, leftmost tie-break.
    for _ in range(100):
        capacity = int(rng.integers(2, 40))
        size = capacity + 1
        n_sink = int(rng.integers(0, capacity))
        n_recent = int(rng.integers(0, capacity - n_sink + 1))
        zones = ProtectedZones(n_sink, n_recent)
        row = rng.integers(0, 5, size=size) / 4.0
        middle = list(row[n_sink : size - n_recent])
        expected = n_sink + min(range(len(middle)), key=middle.__getitem__)
        policy = make_policy("tova", capacity, zones)
        assert policy.select((1, size), rows=row[None]).tolist() == [expected]

    _report(8, "sliding-window, cumulative-score and last-row contracts "
               "hold on 100 fixtures each")


def test_c09_prefill_matches_token_level_eviction():
    rng = np.random.default_rng(99)
    for _ in range(100):
        budget = int(rng.integers(2, 7))
        tokens = budget + 1 + int(rng.integers(1, 40))
        scores = rng.random(tokens)
        partition = partition_blocks(tokens, 1)
        kept = treekv_prefill_compress(partition, scores, budget)

        steps = drive_policy(TreeKV(budget), budget, fixed_scores=scores[: tokens - 1])
        batch, _ = list(steps)[-1]
        token_level = batch.positions[0, : batch.n].tolist() + [tokens - 1]
        assert kept == token_level
    _report(9, "block size 1 prefill equals token-level eviction on 100 fixtures")


def test_c10_position_reassignment():
    weights = generate_weights(1010, ModelDims(1, 3, 6, 4))
    inputs = synthesize_embeddings(1010, 11, 6)

    # Worked example: survivors {0,1,2,3,7,8,9} while decoding token 10.
    batch = StreamBatch(weights, slots=11)
    for x in inputs[:10]:
        batch.step(x)
    for _ in range(3):
        batch.remove([4, 4, 4])
    rows = batch.step(inputs[10])
    assert batch.positions[:, : batch.n].tolist() == [[0, 1, 2, 3, 7, 8, 9, 10]] * 3
    for stream in range(3):
        keys = batch.encoded[stream, : batch.n]
        q_encoded = rotate_vector(inputs[10] @ batch.wq[stream], 7)
        logits = keys @ q_encoded / 2.0
        expected = np.exp(logits - logits.max())
        assert np.array_equal(rows[stream], expected / expected.sum())

    # Random eviction histories, a different victim in every stream: after
    # every step each key is encoded at its current slot.  An odd d_head
    # has a tail lane that no pair rotates.
    odd = generate_weights(1011, ModelDims(1, 3, 6, 5))
    for model, rng in ((weights, np.random.default_rng(1010)), (odd, np.random.default_rng(1011))):
        for _ in range(100):
            batch = StreamBatch(model, slots=64)
            for _ in range(int(rng.integers(3, 40))):
                batch.step(rng.normal(size=6))
                for slot in range(batch.n):
                    assert np.array_equal(
                        batch.encoded[:, slot],
                        np.stack([rotate_vector(key, slot) for key in batch.keys[:, slot]]),
                    )
                if batch.n > 2 and rng.random() < 0.4:
                    batch.remove(rng.integers(0, batch.n, size=3))
    _report(10, "encoding positions are 0..len-1 after any eviction history")


def test_c11_byte_identical_reruns(tmp_path):
    config = {
        "policy": "treekv",
        "c": 8,
        "zones": "sink=0,recent=0",
        "seed": 9,
        "T": 32,
        "layers": 1,
        "heads": 2,
        "d_model": 8,
        "d_head": 4,
        "levels": 3,
        "exclude": 2,
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))

    def run(hash_seed, suffix):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        paths = {}
        for kind, args in {
            "trace": ["decode", "--config", str(config_path)],
            "map": ["map"],
            "analyze": ["analyze", "--levels", "3", "--exclude", "2"],
        }.items():
            out = tmp_path / f"{kind}-{suffix}"
            if kind == "trace":
                command = args + ["-o", str(out)]
            elif kind == "map":
                command = args + ["--trace", str(paths["trace"]), "-o", str(out)]
            else:
                command = args + ["--trace", str(paths["trace"]), "-o", str(out)]
            result = subprocess.run(
                [sys.executable, "-m", "treekv", *command],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            paths[kind] = out
        return paths

    first = run("0", "a")
    second = run("1", "b")
    for kind in ("trace", "map", "analyze"):
        assert first[kind].read_bytes() == second[kind].read_bytes()
    _report(11, "decode, map and analyze outputs are byte-identical across runs")
