"""Multi-level discrete Haar wavelet decomposition and band analysis.

Single-level analysis filters (orthonormal Haar): low-pass taps
[sqrt(2)/2, sqrt(2)/2] and high-pass taps [-sqrt(2)/2, sqrt(2)/2], followed
by stride-2 down-sampling.  In pairwise form, with s indexed from 0::

    A[i] = (s[2i] + s[2i+1]) / sqrt(2)
    D[i] = (s[2i] - s[2i+1]) / sqrt(2)

Single-level synthesis inverts exactly::

    r[2i]   = (A[i] + D[i]) / sqrt(2)
    r[2i+1] = (A[i] - D[i]) / sqrt(2)

Odd-length inputs are zero-padded by one trailing sample at each level and
trimmed on reconstruction; analyses should prefer power-of-two windows so
no boundary coefficients appear.  Coefficients of an L-level decomposition
are kept as [A_L, D_L, ..., D_1], lowest frequency first.  A band is
selected by exactly one of those names (``WaveletCoeffs.band_names()``);
any other selector is a ConfigError, as is a level count out of range.

Every transform acts on the last axis of an (..., N) array, so one call
decomposes a whole batch of signals; a 1-D signal is the batch of one.

reconstruct_component inverts the transform with every band except one
zeroed, isolating that band's additive contribution to the signal.
magnitude_profile applies this to decode traces: the per-channel signal at
generation step t is the attention row multiplied elementwise by each
value channel, and the profile is the mean absolute component value per
position, averaged over channels, heads, layers and traces.  All signals
go through one batched transform, and the absolute components are summed
signal by signal in (trace, layer, head, channel) order (results are
independent of trace iteration order to well below 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, InvariantViolation
from .trace import DecodeTrace, signals_at_step

_SQRT2 = math.sqrt(2.0)


def _as_signal(samples) -> np.ndarray:
    signal = np.asarray(samples, dtype=np.float64)
    if signal.ndim == 0:
        raise InvariantViolation("signal must have at least one axis, got a scalar")
    return signal


def dwt_single(samples) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level along the last axis: (approximation, detail),
    each ceil(N/2) long."""
    signal = _as_signal(samples)
    if signal.shape[-1] == 0:
        raise InputError("cannot decompose an empty signal")
    padded = np.pad(signal, [(0, 0)] * (signal.ndim - 1) + [(0, signal.shape[-1] % 2)])
    approx = (padded[..., 0::2] + padded[..., 1::2]) / _SQRT2
    detail = (padded[..., 0::2] - padded[..., 1::2]) / _SQRT2
    return approx, detail


def max_level(length: int) -> int:
    """Deepest meaningful level for a signal of the given length."""
    if length < 2:
        return 0
    return math.ceil(math.log2(length))


@dataclass(frozen=True)
class WaveletCoeffs:
    """L-level coefficient list [A_L, D_L, ..., D_1] plus the original length
    of the last axis."""

    length: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]  # highest level first: (D_L, ..., D_1)

    @property
    def levels(self) -> int:
        return len(self.details)

    def band_names(self) -> list[str]:
        names = [f"A{self.levels}"]
        names += [f"D{self.levels - i}" for i in range(self.levels)]
        return names

    def band(self, selector: str) -> np.ndarray:
        """The coefficients of a band in ``band_names()``."""
        bands = dict(zip(self.band_names(), (self.approx, *self.details)))
        if selector not in bands:
            raise ConfigError(
                f"unknown band {selector!r}; valid bands: {', '.join(bands)}"
            )
        return bands[selector]


def dwt_multi(samples, levels: int) -> WaveletCoeffs:
    """Repeated single-level analysis of the running approximation."""
    signal = _as_signal(samples)
    length = signal.shape[-1]
    if length == 0:
        raise InputError("cannot decompose an empty signal")
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    deepest = max_level(length)
    if levels > deepest:
        raise ConfigError(
            f"signal of length {length} supports at most {deepest} levels, "
            f"got {levels}"
        )
    details: list[np.ndarray] = []
    approx = signal
    for _ in range(levels):
        approx, detail = dwt_single(approx)
        details.append(detail)
    return WaveletCoeffs(length, approx, tuple(reversed(details)))


def reconstruct_single(approx, detail) -> np.ndarray:
    """One synthesis level along the last axis, which doubles in length."""
    approx = _as_signal(approx)
    detail = _as_signal(detail)
    if approx.shape != detail.shape:
        raise InvariantViolation(
            f"approximation and detail lengths differ: {approx.shape} vs {detail.shape}"
        )
    out = np.empty((*approx.shape[:-1], 2 * approx.shape[-1]), dtype=np.float64)
    out[..., 0::2] = (approx + detail) / _SQRT2
    out[..., 1::2] = (approx - detail) / _SQRT2
    return out


def _synthesize(length: int, approx: np.ndarray, details) -> np.ndarray:
    # Level l's output is trimmed to its input length at analysis: the
    # length of D_(l-1), or the signal's for level 1.
    current = approx
    for detail, target in zip(details, [d.shape[-1] for d in details[1:]] + [length]):
        current = reconstruct_single(current, detail)[..., :target]
    return current


def reconstruct(coeffs: WaveletCoeffs) -> np.ndarray:
    """Full inverse transform back to the original length."""
    return _synthesize(coeffs.length, coeffs.approx, list(coeffs.details))


def reconstruct_component(coeffs: WaveletCoeffs, band: str) -> np.ndarray:
    """(..., N) contribution of a single band, all other bands zeroed."""
    selected = coeffs.band(band)  # raises ConfigError for unknown bands
    approx = coeffs.approx if selected is coeffs.approx else np.zeros_like(coeffs.approx)
    details = [
        d if d is selected else np.zeros_like(d)
        for d in coeffs.details
    ]
    return _synthesize(coeffs.length, approx, details)


@dataclass
class MagnitudeProfile:
    """Mean absolute band contribution per position at a fixed step."""

    step: int
    positions: np.ndarray
    bands: list[str]
    values: np.ndarray  # shape (len(bands), len(positions))
    signal_count: int

    def rows(self):
        for j, position in enumerate(self.positions):
            for i, band in enumerate(self.bands):
                yield int(position), band, float(self.values[i, j])

    def write_csv(self, fh) -> None:
        fh.write("position,band,mean_abs_magnitude\n")
        for position, band, value in self.rows():
            fh.write(f"{position},{band},{value}\n")


def magnitude_profile(
    traces,
    levels: int,
    exclude: int,
    step: int | None = None,
) -> MagnitudeProfile:
    """Band-magnitude profile of attention-weighted value signals.

    For every trace, stream and hidden channel, the signal at the analysis
    step is row * value_channel over the slots present at attention time.
    Each signal is decomposed to the requested depth, every band is
    reconstructed in isolation, and absolute values are averaged across all
    signals.  The first and last ``exclude`` positions are dropped from the
    output.
    """
    traces = list(traces)
    if not traces:
        raise InputError("magnitude_profile needs at least one trace")
    if step is None:
        finals = {trace.seq_len for trace in traces}
        if len(finals) != 1:
            raise InputError(
                f"traces end at different steps {sorted(finals)}; pass an explicit step"
            )
        step = finals.pop()
    elif step < 1:
        raise ConfigError(f"step must be at least 1, got {step}")
    if exclude < 0:
        raise ConfigError(f"exclude must be non-negative, got {exclude}")
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")

    views = [signals_at_step(trace, step) for trace in traces]
    signal_length = views[0][0].shape[2]
    if signal_length.bit_length() <= levels:  # signal_length < 2**levels
        raise ConfigError(
            f"analysis step {step} has {signal_length} slots, fewer than "
            f"2**{levels}; reduce the level count"
        )
    if signal_length - 2 * exclude < 1:
        raise InputError(f"margins of {exclude} leave no positions out of {signal_length}")
    if any(rows.shape[2] != signal_length for rows, _ in views):
        raise InputError("traces disagree on the slot count at the analysis step")
    # one signal per (trace, layer, head, channel), in that order
    signals = np.concatenate([
        np.moveaxis(rows[..., None] * values, 3, 2).reshape(-1, signal_length)
        for rows, values in views
    ])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coeffs = dwt_multi(signals, levels)
        bands = coeffs.band_names()
        # with N >= 2, an axis-0 sum adds the rows one by one, in signal order
        accum = np.array([np.abs(reconstruct_component(coeffs, band)).sum(axis=0)
                          for band in bands])
    if not np.isfinite(accum).all():
        raise InputError(f"the band magnitudes at step {step} overflow: trace values too large")
    window = slice(exclude, signal_length - exclude)
    positions = np.arange(signal_length, dtype=np.int64)[window]
    return MagnitudeProfile(
        step=step,
        positions=positions,
        bands=bands,
        values=accum[:, window] / len(signals),
        signal_count=len(signals),
    )
