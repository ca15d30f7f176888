"""Single-clip preprocessing chain: waveform in, normalized image out.

Order: optional decimation (skipped when the source rate is already at or
below the target, or when no integer-ratio rate at or above the target
exists), length standardization, analytic transform, lag-windowed quadratic
time-frequency image, bilinear resize, optional log compression, min-max
normalization. The time half of the resize happens inside pseudo_wvd, which
transforms only the time rows the resize reads; resize_bilinear then
resamples the frequency axis. The image is bitwise the one a full
transform followed by a full resize gives.

A caller that runs many clips passes clip_to_image the same work dict each
time (datasets' clip loop holds one per process). The caller owns it: the
stages keep their intermediate arrays in it (see signal_core.work_array), so
that after the first clip they allocate no fresh memory for them. They stay
valid only until the next call with that dict. The image clip_to_image
returns is always new and is not touched by later calls.
"""

from __future__ import annotations

import math

from .analytic import analytic_signal
from .config import RunConfig
from .signal_core import Signal, decimate, pad_or_truncate, snap_decimation_rate
from .tfd import (
    TFDImage,
    default_lag_window_length,
    hamming_lag_window,
    log_compress,
    normalize_image,
    pseudo_wvd,
    resize_bilinear,
)

MAX_RAW_TIME_ROWS = 1200


def working_rate_hz(cfg: RunConfig, source_rate_hz: float) -> float:
    """Rate the clip is actually processed at (integer-ratio snapping)."""
    return snap_decimation_rate(source_rate_hz, cfg.target_rate_hz)


def auto_time_stride(num_samples: int) -> int:
    return max(1, math.ceil(num_samples / MAX_RAW_TIME_ROWS))


def clip_to_image(signal: Signal, cfg: RunConfig, work: dict | None = None) -> TFDImage:
    """Run the full per-clip chain; output values are normalized to [0, 1].

    With work (see the module docstring), every stage before the
    normalization runs in arrays held there; the returned image never shares
    memory with them.
    """
    rate = working_rate_hz(cfg, signal.sample_rate_hz)
    if rate < signal.sample_rate_hz:
        signal = decimate(signal, rate, work=work)
    target_len = round(cfg.clip_seconds * rate)
    signal = pad_or_truncate(signal, target_len, work=work)
    x = analytic_signal(signal, work=work)

    window_len = cfg.lag_window_len or default_lag_window_length(target_len)
    window_len = min(window_len, 2 * cfg.n_freq_bins - 1)
    stride = cfg.time_stride or auto_time_stride(target_len)

    window = hamming_lag_window(window_len)
    image = pseudo_wvd(x, window, stride, cfg.n_freq_bins, out_rows=cfg.image_rows, work=work)
    image = resize_bilinear(image, cfg.image_rows, cfg.image_cols, work=work)
    if cfg.log_compress:
        image = log_compress(image, work=work)
    return normalize_image(image)
