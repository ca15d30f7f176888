"""Waveform container and the front half of the preprocessing chain.

Covers multi-channel averaging (one running sum over the channels),
windowed-sinc anti-alias filtering and integer-factor decimation, and
clip-length standardization. All functions are pure: inputs are never
mutated, and outputs are arrays in double precision.

Outputs are freshly allocated unless the caller passes a work dict. Then an
output, and the stage's own temporaries, live in arrays that the dict keeps
from one call to the next (see work_array). The caller owns the dict; a
work-backed output stays valid until the next call that is given the same
dict, so a loop keeps its own dict and copies what it must keep.
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
    sample i is i / sample_rate_hz seconds. They are held as sample_dtype,
    which a subclass may set to a complex dtype (analytic.ComplexSignal).
    """

    samples: np.ndarray
    sample_rate_hz: float
    sample_dtype = np.dtype(np.float64)  # a class constant, not a field

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        samples = np.asarray(self.samples)
        if samples.dtype.kind == "c" and self.sample_dtype.kind != "c":
            raise ValueError("samples must be real; pass complex samples to ComplexSignal")
        object.__setattr__(self, "samples", samples.astype(self.sample_dtype, copy=False))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def work_array(work: dict | None, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized C-ordered array of `shape` and `dtype`.

    Without work it is new. With work it is a view of work[key], which is
    replaced only when it is too small or of another dtype, so a loop that
    passes one dict on every call stops allocating once its sizes settle.
    """
    size = math.prod(shape)
    if work is None:
        return np.empty(shape, dtype)
    held = work.get(key)
    if held is None or held.size < size or held.dtype != dtype:
        held = work[key] = np.empty(size, dtype)
    return held[:size].reshape(shape)


def zero_padded(work: dict | None, key: str, samples: np.ndarray, length: int,
                offset: int) -> np.ndarray:
    """work_array(work, key, ...) of `length` zeros holding `samples` from
    index `offset` on."""
    out = work_array(work, key, (length,), samples.dtype)
    end = offset + len(samples)
    out[:offset] = 0
    out[offset:end] = samples
    out[end:] = 0
    return out


def average_channels(channels: list[Signal]) -> Signal:
    """Average several same-length, same-rate channels into one mono signal.

    One running sum, 0.0 + channel 0 and then each further channel added in
    order, divided once by the count: bit for bit the stacked mean, without
    the stack (one channel comes back as 0.0 + x, so -0.0 reads +0.0).
    """
    if not channels:
        raise ValueError("cannot average an empty channel list")
    length = len(channels[0])
    rate = channels[0].sample_rate_hz
    total = channels[0].samples + 0.0
    for i, ch in enumerate(channels[1:], start=1):
        if len(ch) != length:
            raise ValueError(
                f"channel length mismatch: channel 0 has {length} samples, channel {i} has {len(ch)}"
            )
        if ch.sample_rate_hz != rate:
            raise ValueError(
                f"sample rate mismatch: channel 0 at {rate} Hz, channel {i} at {ch.sample_rate_hz} Hz"
            )
        total += ch.samples
    if len(channels) > 1:
        total /= len(channels)
    return Signal(total, rate)


def design_lowpass(cutoff_hz: float, sample_rate_hz: float, num_taps: int) -> np.ndarray:
    """Taps of a Hamming-windowed-sinc low-pass filter.

    The tap count is odd, so the linear-phase group delay is a whole number
    of samples. The taps are normalized to unit sum, giving DC gain exactly
    1; with num_taps >= 63 the stopband response at Nyquist is below 0.01.
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
    return taps


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
        # no k above src_int divides it, however small the request
        for k in range(min(k_max, src_int), 1, -1):
            if src_int % k == 0:
                return src_int / k
    return source_rate_hz / k_max


def decimate(signal: Signal, target_rate_hz: float, work: dict | None = None) -> Signal:
    """Low-pass filter then keep every k-th sample, k = source / target.

    The anti-alias cutoff is 0.45x the target Nyquist. The zero-padded,
    delay-compensated filter is evaluated only at the kept samples 0, k, 2k,
    ...: output length is ceil(n/k) for any n >= 1. With work, the
    zero-padded copy and the output live in it (see work_array). Non-integer
    ratios are rejected; snap_decimation_rate picks an integer-ratio target.
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
    taps = design_lowpass(0.45 * target_rate_hz / 2.0, signal.sample_rate_hz, 63)[::-1]
    half = len(taps) // 2
    n = len(signal)
    # The n windows of the padded copy are the input's samples i - half ..
    # i + half; output j is window j*k.
    padded = zero_padded(work, "decimate_padded", signal.samples, n + 2 * half, half)
    kept = work_array(work, "decimate_kept", (-(-n // k),))
    np.matmul(sliding_window_view(padded, len(taps))[::k], taps, out=kept)
    return Signal(kept, target_rate_hz)


def pad_or_truncate(signal: Signal, target_len: int, work: dict | None = None) -> Signal:
    """Center-crop to target_len, or zero-pad symmetrically when shorter.

    When the pad or crop amount is odd, the extra sample goes to the right.
    """
    if target_len <= 0:
        raise ValueError(f"target_len must be positive, got {target_len}")
    n = len(signal)
    start = max(0, (n - target_len) // 2)
    left = max(0, (target_len - n) // 2)
    kept = signal.samples[start : start + target_len]
    return Signal(zero_padded(work, "clip", kept, target_len, left), signal.sample_rate_hz)
