import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    ConfigError,
    InputError,
    InvariantViolation,
    ModelDims,
    DecodeTrace,
    dwt_multi,
    dwt_single,
    magnitude_profile,
    make_policy,
    max_level,
    reconstruct,
    reconstruct_component,
    reconstruct_single,
    signals_at_step,
)

from oracles import oracle_component, oracle_dwt, oracle_reconstruct_single

SQRT2 = math.sqrt(2.0)

finite_samples = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=64,
)


# --- single level ------------------------------------------------------------


def test_dwt_single_constant_has_no_detail():
    approx, detail = dwt_single([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(approx, [SQRT2, SQRT2], atol=1e-15)
    assert np.allclose(detail, [0.0, 0.0], atol=1e-15)


def test_dwt_single_ramp():
    approx, detail = dwt_single([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(approx, [3 / SQRT2, 7 / SQRT2], atol=1e-12)
    assert np.allclose(detail, [-1 / SQRT2, -1 / SQRT2], atol=1e-12)


def test_dwt_single_preserves_energy():
    signal = np.array([1.0, 2.0, 3.0, 4.0])
    approx, detail = dwt_single(signal)
    assert abs((signal**2).sum() - 30.0) < 1e-12
    assert abs((approx**2).sum() - 29.0) < 1e-12
    assert abs((detail**2).sum() - 1.0) < 1e-12


def test_dwt_single_rejects_empty_signal():
    with pytest.raises(InputError):
        dwt_single([])


def test_dwt_multi_rejects_empty_signal():
    with pytest.raises(InputError):
        dwt_multi(np.empty((3, 0)), 1)


# --- multi level ---------------------------------------------------------------


def test_dwt_multi_level_one_equals_single():
    signal = [0.5, -1.0, 2.0, 0.0, 3.0, 1.0]
    approx, detail = dwt_single(signal)
    coeffs = dwt_multi(signal, 1)
    assert np.array_equal(coeffs.approx, approx)
    assert np.array_equal(coeffs.details[0], detail)


def test_dwt_multi_constant_any_level():
    coeffs = dwt_multi(np.ones(16), 4)
    for detail in coeffs.details:
        assert np.allclose(detail, 0.0, atol=1e-14)


def test_dwt_multi_two_level_ramp():
    coeffs = dwt_multi([1.0, 2.0, 3.0, 4.0], 2)
    assert np.allclose(coeffs.approx, [5.0], atol=1e-12)
    assert np.allclose(coeffs.details[0], [-2.0], atol=1e-12)
    assert coeffs.band_names() == ["A2", "D2", "D1"]


def test_dwt_multi_level_bounds():
    with pytest.raises(ConfigError, match="levels must be >= 1, got 0"):
        dwt_multi([1.0, 2.0, 3.0, 4.0], 0)
    with pytest.raises(ConfigError, match="length 4 supports at most 2 levels, got 3"):
        dwt_multi([1.0, 2.0, 3.0, 4.0], 3)
    assert max_level(4) == 2
    assert max_level(5) == 3
    assert max_level(1) == 0


# --- reconstruction --------------------------------------------------------------


def test_reconstruct_single_inverts_analysis():
    signal = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(reconstruct_single(*dwt_single(signal)), signal, atol=1e-12)


def test_reconstruct_single_constant():
    assert np.allclose(
        reconstruct_single([SQRT2, SQRT2], [0.0, 0.0]), [1.0, 1.0, 1.0, 1.0], atol=1e-15
    )


def test_reconstruct_single_detail_only():
    out = reconstruct_single([0.0, 0.0], [-1 / SQRT2, -1 / SQRT2])
    assert np.allclose(out, [-0.5, 0.5, -0.5, 0.5], atol=1e-12)


def test_reconstruct_single_length_mismatch():
    with pytest.raises(InvariantViolation, match="approximation and detail lengths differ"):
        reconstruct_single([1.0, 2.0], [1.0])


def test_reconstruct_component_ramp():
    coeffs = dwt_multi([1.0, 2.0, 3.0, 4.0], 1)
    assert np.allclose(reconstruct_component(coeffs, "A1"), [1.5, 1.5, 3.5, 3.5], atol=1e-12)
    assert np.allclose(
        reconstruct_component(coeffs, "D1"), [-0.5, 0.5, -0.5, 0.5], atol=1e-12
    )


def test_reconstruct_component_zero_band_is_zero_signal():
    coeffs = dwt_multi(np.ones(8), 3)
    assert np.allclose(reconstruct_component(coeffs, "D2"), np.zeros(8), atol=1e-14)


def test_reconstruct_component_unknown_band():
    coeffs = dwt_multi(np.ones(8), 2)
    with pytest.raises(ConfigError, match="unknown band 'D3'; valid bands: A2, D2, D1"):
        reconstruct_component(coeffs, "D3")
    with pytest.raises(ConfigError, match="unknown band 'B1'"):
        coeffs.band("B1")
    for selector in ("D01", "D\u0661"):  # not in band_names(), though int() reads them as 1
        with pytest.raises(ConfigError, match="unknown band"):
            coeffs.band(selector)
    with pytest.raises(ConfigError, match="unknown band 'A'"):  # only A2 names the approximation
        coeffs.band("A")


# --- oracle equivalence and properties --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(finite_samples, st.integers(1, 4))
def test_matches_literal_convolution_oracle(samples, levels):
    levels = min(levels, max_level(len(samples)))
    coeffs = dwt_multi(samples, levels)
    expected = oracle_dwt(samples, levels)
    got = [coeffs.approx] + list(coeffs.details)
    assert len(got) == len(expected)
    for mine, reference in zip(got, expected):
        assert np.allclose(mine, reference, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(finite_samples, st.integers(1, 4))
def test_roundtrip_and_additivity(samples, levels):
    levels = min(levels, max_level(len(samples)))
    signal = np.asarray(samples)
    coeffs = dwt_multi(signal, levels)
    assert np.allclose(reconstruct(coeffs), signal, atol=1e-10)
    total = sum(reconstruct_component(coeffs, band) for band in coeffs.band_names())
    assert np.allclose(total, signal, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=64,
    ).filter(lambda xs: len(xs) % 2 == 0)
)
def test_two_sample_delay_shifts_coefficients_by_one(samples):
    approx, detail = dwt_single(samples)
    approx_d, detail_d = dwt_single([0.0, 0.0] + samples)
    assert np.allclose(approx_d[1:], approx, atol=1e-12)
    assert np.allclose(detail_d[1:], detail, atol=1e-12)


def test_reconstruct_single_matches_literal_formula():
    approx = [0.3, -2.0, 5.5]
    detail = [1.0, 0.25, -0.75]
    assert np.allclose(
        reconstruct_single(approx, detail), oracle_reconstruct_single(approx, detail),
        atol=1e-14,
    )


@pytest.mark.parametrize("shape", [(3, 17), (2, 4, 9), (5, 2), (1, 64)])
def test_a_batch_transforms_as_its_rows_do(shape):
    batch = np.random.default_rng(len(shape)).standard_normal(shape)
    levels = max_level(shape[-1])
    coeffs = dwt_multi(batch, levels)
    for index in np.ndindex(shape[:-1]):
        row = dwt_multi(batch[index], levels)
        for mine, reference in zip([coeffs.approx, *coeffs.details], [row.approx, *row.details]):
            assert np.array_equal(mine[index], reference)
        for band in row.band_names():
            assert np.array_equal(reconstruct_component(coeffs, band)[index],
                                  reconstruct_component(row, band))
        assert np.array_equal(reconstruct(coeffs)[index], reconstruct(row))
    with pytest.raises(InvariantViolation, match="at least one axis, got a scalar"):
        dwt_single(1.0)


# --- magnitude profile -----------------------------------------------------------


def _hand_trace(queries, keys, values):
    """Single-stream trace with full attention (no evictions) whose step t
    projects queries[t-1], keys[t-1] and values[t-1], all of one length d:
    step t's input is the three concatenated, and the weights are selectors,
    0/1 matrices with d_model = 3 * d that pick each third exactly."""
    d_head = len(queries[0])
    dims = ModelDims(1, 1, 3 * d_head, d_head)
    seq_len = len(queries)
    trace = DecodeTrace(policy=make_policy("full", seq_len), seq_len=seq_len, dims=dims,
                        model_seed=0)
    trace.evicted = np.empty((0, 1, 1), dtype=np.int64)
    trace.inputs = np.concatenate([queries, keys, values], axis=1).astype(np.float64)
    # selector k maps input entry k * d + j to output entry j
    selectors = np.eye(3 * d_head, dtype=np.float32).reshape(3 * d_head, 3, d_head)
    trace.weights = np.moveaxis(selectors, 1, 0)[None, None]
    return trace


def _uniform_trace(seq_len, d_head):
    """Zero queries, so every row is uniform, against all-ones values."""
    zeros = [np.zeros(d_head)] * seq_len
    return _hand_trace(zeros, zeros, [np.ones(d_head)] * seq_len)


def test_magnitude_profile_constant_signal_has_zero_details():
    # Uniform final row against all-ones values: the step-8 signal is a
    # constant 1/8 in every channel, so both detail bands vanish.
    trace = _uniform_trace(8, 2)
    assert signals_at_step(trace, 8)[0].tolist() == [[[1.0 / 8] * 8]]
    profile = magnitude_profile([trace], 2, exclude=0)
    assert profile.bands == ["A2", "D2", "D1"]
    for band in ("D2", "D1"):
        row = profile.values[profile.bands.index(band)]
        assert np.allclose(row, 0.0, atol=1e-14)


def test_magnitude_profile_exclude_zero_covers_everything():
    seq_len = 8
    trace = _uniform_trace(seq_len, 2)
    profile = magnitude_profile([trace], 1, exclude=0)
    assert profile.positions.tolist() == list(range(seq_len))
    profile = magnitude_profile([trace], 1, exclude=2)
    assert profile.positions.tolist() == list(range(2, seq_len - 2))


def test_magnitude_profile_single_channel_matches_oracle():
    # With d_head = 1 nothing rotates, so keys log(row) against a unit query
    # give the softmax row back.
    seq_len = 8
    known = np.array([0.3, 0.05, 0.2, 0.1, 0.08, 0.12, 0.05, 0.1])
    queries = [[0.0]] * (seq_len - 1) + [[1.0]]
    trace = _hand_trace(queries, np.log(known)[:, None], [[1.0]] * seq_len)
    assert np.abs(signals_at_step(trace, seq_len)[0][0, 0] - known).max() < 6e-17
    profile = magnitude_profile([trace], 3, exclude=0)
    for band in profile.bands:
        mine = profile.values[profile.bands.index(band)]
        reference = np.abs(oracle_component(known.tolist(), 3, band))
        assert np.allclose(mine, reference, atol=1e-12)


def test_magnitude_profile_level_error_when_step_too_short():
    seq_len = 8
    trace = _uniform_trace(seq_len, 2)
    with pytest.raises(ConfigError, match=r"has 8 slots, fewer than 2\*\*4"):
        magnitude_profile([trace], 4, exclude=0)


def test_magnitude_profile_needs_a_trace():
    with pytest.raises(InputError):
        magnitude_profile([], 2, exclude=0)
