"""Waveform container and the front half of the preprocessing chain.

Covers multi-channel averaging, windowed-sinc anti-alias filtering and
integer-factor decimation, and clip-length standardization. All functions are
pure: inputs are never mutated, outputs are freshly allocated arrays in double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real waveform.

    samples are dimensionless amplitudes, nominally in [-1, 1]; time of
    sample i is i / sample_rate_hz seconds.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter with unit DC gain.

    Tap count is odd so the group delay is an integer number of samples;
    taps sum to 1 so the passband does not rescale the signal.
    """

    taps: np.ndarray
    cutoff_hz: float
    design: str

    def __post_init__(self):
        object.__setattr__(self, "taps", np.asarray(self.taps, dtype=np.float64))
        if len(self.taps) % 2 == 0:
            raise ValueError(f"tap count must be odd, got {len(self.taps)}")
        if abs(float(np.sum(self.taps)) - 1.0) > 1e-6:
            raise ValueError("taps must sum to 1 (unit DC gain)")


def average_channels(channels: list[Signal]) -> Signal:
    """Average several same-length, same-rate channels into one mono signal."""
    if not channels:
        raise ValueError("cannot average an empty channel list")
    if len(channels) == 1:
        # The mean of one channel is 0.0 + x: bit for bit x, except that
        # -0.0 becomes +0.0. One addition gives exactly that, without a stack.
        return Signal(channels[0].samples + 0.0, channels[0].sample_rate_hz)
    length = len(channels[0])
    rate = channels[0].sample_rate_hz
    for i, ch in enumerate(channels[1:], start=1):
        if len(ch) != length:
            raise ValueError(
                f"channel length mismatch: channel 0 has {length} samples, channel {i} has {len(ch)}"
            )
        if ch.sample_rate_hz != rate:
            raise ValueError(
                f"sample rate mismatch: channel 0 at {rate} Hz, channel {i} at {ch.sample_rate_hz} Hz"
            )
    stacked = np.stack([ch.samples for ch in channels])
    return Signal(stacked.mean(axis=0), rate)


def design_lowpass(cutoff_hz: float, sample_rate_hz: float, num_taps: int) -> FirFilter:
    """Design a Hamming-windowed-sinc low-pass filter.

    The taps are normalized to unit sum, giving DC gain exactly 1; with
    num_taps >= 63 the stopband response at Nyquist is below 0.01.
    """
    if cutoff_hz <= 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    if cutoff_hz >= sample_rate_hz / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz is at or above Nyquist ({sample_rate_hz / 2} Hz)"
        )
    if num_taps < 1 or num_taps % 2 == 0:
        raise ValueError(f"num_taps must be a positive odd integer, got {num_taps}")
    mid = (num_taps - 1) // 2
    n = np.arange(num_taps) - mid
    taps = 2.0 * cutoff_hz / sample_rate_hz * np.sinc(2.0 * cutoff_hz / sample_rate_hz * n)
    taps *= np.hamming(num_taps)
    taps /= taps.sum()
    return FirFilter(taps, cutoff_hz, f"hamming-sinc-{num_taps}")


def snap_decimation_rate(source_rate_hz: float, requested_rate_hz: float) -> float:
    """Largest achievable integer-ratio rate >= the requested target.

    Prefers factors that divide an integral source rate evenly (44100 with a
    4000 Hz request gives 4410, factor 10); falls back to the plain floor
    factor when no exact divisor exists. A request at or above the source
    rate returns the source rate unchanged.
    """
    if requested_rate_hz <= 0:
        raise ValueError(f"requested_rate_hz must be positive, got {requested_rate_hz}")
    if requested_rate_hz >= source_rate_hz:
        return source_rate_hz
    k_max = int(math.floor(source_rate_hz / requested_rate_hz))
    if k_max <= 1:
        return source_rate_hz
    src_int = round(source_rate_hz)
    if abs(source_rate_hz - src_int) < 1e-9:
        for k in range(k_max, 1, -1):
            if src_int % k == 0:
                return src_int / k
    return source_rate_hz / k_max


def decimate(signal: Signal, target_rate_hz: float) -> Signal:
    """Low-pass filter then keep every k-th sample, k = source / target.

    The anti-alias cutoff is 0.45x the target Nyquist. The zero-padded,
    delay-compensated filter is evaluated only at the kept samples 0, k, 2k,
    ...: output length is ceil(n/k) for any n >= 1. Non-integer ratios are
    rejected; snap_decimation_rate picks an integer-ratio target.
    """
    if target_rate_hz <= 0:
        raise ValueError(f"target_rate_hz must be positive, got {target_rate_hz}")
    if len(signal) == 0:
        raise ValueError("cannot decimate an empty signal")
    if target_rate_hz > signal.sample_rate_hz:
        raise ValueError(
            f"upsampling requested ({signal.sample_rate_hz} Hz -> {target_rate_hz} Hz); "
            "decimate only reduces the rate"
        )
    ratio = signal.sample_rate_hz / target_rate_hz
    k = round(ratio)
    if abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"non-integer decimation ratio {ratio:.6g} ({signal.sample_rate_hz} Hz -> "
            f"{target_rate_hz} Hz); pre-resample or request an integer-ratio target"
        )
    if k == 1:
        return Signal(signal.samples.copy(), signal.sample_rate_hz)
    taps = design_lowpass(0.45 * target_rate_hz / 2.0, signal.sample_rate_hz, 63).taps
    padded = np.pad(signal.samples, len(taps) // 2)
    kept = sliding_window_view(padded, len(taps))[::k] @ taps[::-1]
    return Signal(kept, target_rate_hz)


def pad_or_truncate(signal: Signal, target_len: int) -> Signal:
    """Center-crop to target_len, or zero-pad symmetrically when shorter.

    When the pad or crop amount is odd, the extra sample goes to the right.
    """
    if target_len <= 0:
        raise ValueError(f"target_len must be positive, got {target_len}")
    n = len(signal)
    if n == target_len:
        return Signal(signal.samples.copy(), signal.sample_rate_hz)
    if n > target_len:
        start = (n - target_len) // 2
        return Signal(signal.samples[start : start + target_len].copy(), signal.sample_rate_hz)
    left = (target_len - n) // 2
    out = np.zeros(target_len, dtype=np.float64)
    out[left : left + n] = signal.samples
    return Signal(out, signal.sample_rate_hz)
