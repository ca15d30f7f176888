import numpy as np
import pytest
from conftest import reference_pseudo_wvd

from wvdnet import pipeline
from wvdnet.config import build_config
from wvdnet.pipeline import auto_time_stride, clip_to_image, working_rate_hz
from wvdnet.signal_core import Signal, design_lowpass


def cfg_with(**overrides):
    base = dict(
        target_rate_hz=4000.0, clip_seconds=0.5, image_rows=24, image_cols=24,
        n_freq_bins=64,
    )
    base.update(overrides)
    return build_config({}, base)


def tone(freq_hz, rate_hz, seconds):
    t = np.arange(round(seconds * rate_hz)) / rate_hz
    return Signal(0.5 * np.sin(2 * np.pi * freq_hz * t), rate_hz)


def reference_decimate(signal, target_rate_hz):
    """The full-rate form of decimate: np.convolve 'same' over every input
    sample, then keep every k-th. Matches decimate only for inputs at least
    as long as the 63-tap filter."""
    k = round(signal.sample_rate_hz / target_rate_hz)
    taps = design_lowpass(0.45 * target_rate_hz / 2.0, signal.sample_rate_hz, 63).taps
    filtered = np.convolve(signal.samples, taps, mode="same")
    return Signal(filtered[::k], target_rate_hz)


class TestWorkingRate:
    def test_below_target_stays(self):
        assert working_rate_hz(cfg_with(), 3000.0) == 3000.0

    def test_at_target_stays(self):
        assert working_rate_hz(cfg_with(), 4000.0) == 4000.0

    def test_non_divisor_source_snaps_up(self):
        assert working_rate_hz(cfg_with(), 44100.0) == 4410.0

    def test_low_rate_recording_never_decimated(self):
        assert working_rate_hz(cfg_with(), 4960.0) == 4960.0


class TestAutoTimeStride:
    def test_small_clips_keep_every_sample(self):
        assert auto_time_stride(800) == 1

    def test_long_clips_capped_at_1200_rows(self):
        n = 16000
        stride = auto_time_stride(n)
        assert stride == 14
        assert int(np.ceil(n / stride)) <= 1200


class TestClipToImage:
    def test_output_contract(self):
        image = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with())
        assert image.values.shape == (24, 24)
        assert image.values.min() >= 0.0 and image.values.max() <= 1.0
        assert image.kind == "pseudo_wvd"
        assert image.source_rate_hz == 4000.0

    def test_short_clip_padded_long_clip_cropped(self):
        cfg = cfg_with()
        short = clip_to_image(tone(500.0, 4000.0, 0.2), cfg)
        long = clip_to_image(tone(500.0, 4000.0, 1.5), cfg)
        assert short.values.shape == long.values.shape == (24, 24)

    def test_high_rate_source_is_decimated(self):
        image = clip_to_image(tone(500.0, 44100.0, 0.5), cfg_with())
        assert image.source_rate_hz == 4410.0
        assert image.freq_axis_hz[-1] < 4410.0 / 2

    def test_tone_ridge_lands_at_tone_frequency(self):
        image = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with(image_rows=64, image_cols=64))
        ridge_cols = image.values.argmax(axis=1)
        freq = image.freq_axis_hz[int(np.median(ridge_cols))]
        assert abs(freq - 500.0) < 2000.0 / 64 + 1e-9  # within one resized bin

    def test_log_compress_changes_image_but_keeps_range(self):
        linear = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with())
        logged = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with(log_compress=True))
        assert logged.values.min() >= 0.0 and logged.values.max() <= 1.0
        assert not np.allclose(linear.values, logged.values)

    def test_explicit_lag_window_and_stride_respected(self):
        cfg = cfg_with(lag_window_len=31, time_stride=50)
        image = clip_to_image(tone(500.0, 4000.0, 0.5), cfg)
        assert image.values.shape == (24, 24)

    def test_oversized_lag_window_is_capped(self):
        # 2 * n_freq_bins - 1 = 127 is the hard ceiling for 64 bins
        cfg = cfg_with(lag_window_len=1001)
        image = clip_to_image(tone(500.0, 4000.0, 0.5), cfg)
        assert image.values.shape == (24, 24)

    @pytest.mark.parametrize("rate", [44100.0, 22050.0, 8000.0, 4000.0])
    def test_matches_full_rate_reference_chain(self, rate, monkeypatch):
        rng = np.random.default_rng(int(rate))
        t = np.arange(round(4.0 * rate)) / rate
        samples = 0.3 * np.sin(2 * np.pi * 700.0 * t) + 0.1 * rng.standard_normal(len(t))
        signal = Signal(samples, rate)
        cfg = build_config({}, {})
        fast = clip_to_image(signal, cfg)
        monkeypatch.setattr(pipeline, "decimate", reference_decimate)
        monkeypatch.setattr(pipeline, "pseudo_wvd", reference_pseudo_wvd)
        slow = clip_to_image(signal, cfg)
        assert fast.source_rate_hz == slow.source_rate_hz
        np.testing.assert_array_equal(fast.time_axis_s, slow.time_axis_s)
        np.testing.assert_array_equal(fast.freq_axis_hz, slow.freq_axis_hz)
        np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-12)

    def test_deterministic(self):
        a = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with())
        b = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with())
        np.testing.assert_array_equal(a.values, b.values)
