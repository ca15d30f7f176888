import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from conftest import hfft_pseudo_wvd, reference_pseudo_wvd, run_fresh, two_pass_resize_bilinear

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


def noisy_tone(rate_hz, seconds, seed):
    """A 700 Hz tone in noise whose first quarter is silent, so some rows
    transform an all-zero lag kernel."""
    rng = np.random.default_rng(seed)
    t = np.arange(round(seconds * rate_hz)) / rate_hz
    samples = 0.3 * np.sin(2 * np.pi * 700.0 * t) + 0.1 * rng.standard_normal(len(t))
    samples[: len(t) // 4] = 0.0
    return Signal(samples, rate_hz)


def all_rows(transform):
    """A pseudo_wvd stand-in that ignores out_rows and work and returns every
    grid row."""
    return lambda x, window, stride, bins, out_rows=None, work=None: transform(
        x, window, stride, bins
    )


def reference_decimate(signal, target_rate_hz, work=None):
    """The full-rate form of decimate: np.convolve 'same' over every input
    sample, then keep every k-th. Matches decimate only for inputs at least
    as long as the 63-tap filter. work is ignored."""
    k = round(signal.sample_rate_hz / target_rate_hz)
    taps = design_lowpass(0.45 * target_rate_hz / 2.0, signal.sample_rate_hz, 63)
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

    @pytest.mark.parametrize("source,working", [
        (8000.0, 4000.0), (11025.0, 5512.5), (22050.0, 4410.0), (48000.0, 4000.0),
        (96000.0, 4000.0),
    ])
    def test_common_source_rates(self, source, working):
        assert working_rate_hz(cfg_with(), source) == working


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
        monkeypatch.setattr(pipeline, "pseudo_wvd", all_rows(reference_pseudo_wvd))
        slow = clip_to_image(signal, cfg)
        assert fast.source_rate_hz == slow.source_rate_hz
        np.testing.assert_array_equal(fast.time_axis_s, slow.time_axis_s)
        np.testing.assert_array_equal(fast.freq_axis_hz, slow.freq_axis_hz)
        np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-12)

    def test_deterministic(self):
        a = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with())
        b = clip_to_image(tone(500.0, 4000.0, 0.5), cfg_with())
        np.testing.assert_array_equal(a.values, b.values)


class TestRowSelectingChainIsBitwise:
    """clip_to_image transforms only the rows the resize reads; its image must
    be byte for byte the all-rows hfft transform followed by the two-pass
    resize."""

    @staticmethod
    def assert_bitwise_all_rows_chain(signal, cfg, monkeypatch):
        fast = clip_to_image(signal, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(pipeline, "pseudo_wvd", all_rows(hfft_pseudo_wvd))
            patched.setattr(pipeline, "resize_bilinear", two_pass_resize_bilinear)
            slow = clip_to_image(signal, cfg)
        assert fast.shape == slow.shape == (cfg.image_rows, cfg.image_cols)
        assert fast.source_rate_hz == slow.source_rate_hz
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.time_axis_s.tobytes() == slow.time_axis_s.tobytes()
        assert fast.freq_axis_hz.tobytes() == slow.freq_axis_hz.tobytes()

    @pytest.mark.parametrize("rate", [44100.0, 22050.0, 8000.0, 4000.0])
    def test_default_config_at_each_rate(self, rate, monkeypatch):
        self.assert_bitwise_all_rows_chain(
            noisy_tone(rate, 4.0, int(rate)), build_config({}, {}), monkeypatch
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            # 200 raw rows read by 500 output rows: source rows repeat
            dict(clip_seconds=0.05, image_rows=500),
            dict(image_rows=2),
            dict(time_stride=1),
            # 2000 raw rows at stride 1, resized to exactly that many
            dict(time_stride=1, image_rows=2000),
            # L = 50 >= F / 2 = 32: negative lags alias onto the half spectrum
            dict(n_freq_bins=64, lag_window_len=101),
            dict(log_compress=True),
            # image_cols == n_freq_bins: the frequency axis is left alone
            dict(image_cols=64),
        ],
        ids=["rows-repeat", "two-rows", "stride-1", "same-rows", "aliasing", "log", "same-cols"],
    )
    def test_geometry(self, overrides, monkeypatch):
        self.assert_bitwise_all_rows_chain(
            noisy_tone(4000.0, 0.5, 7), cfg_with(**overrides), monkeypatch
        )

    def test_peak_memory_below_all_rows_spectrum(self):
        signal = noisy_tone(44100.0, 4.0, 3)
        cfg = build_config({}, {})
        target_len = round(cfg.clip_seconds * working_rate_hz(cfg, 44100.0))
        all_rows_spectrum = -(-target_len // auto_time_stride(target_len)) * 257 * 16
        assert all_rows_spectrum == 1176 * 257 * 16
        clip_to_image(signal, cfg)
        tracemalloc.start()
        try:
            clip_to_image(signal, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_rows_spectrum


def image_bytes(image):
    return image.values.tobytes(), image.time_axis_s.tobytes(), image.freq_axis_hz.tobytes()


class TestWorkReuse:
    """clip_to_image with a work dict kept from clip to clip returns the
    images it returns without one, whatever the clips before it were."""

    def test_one_work_through_every_geometry(self):
        default = build_config({}, {})
        clips = [(noisy_tone(rate, 4.0, int(rate)), default)
                 for rate in (44100.0, 22050.0, 8000.0, 4000.0)]
        clips += [
            # 40 samples: shorter than the 63-tap anti-alias filter
            (noisy_tone(44100.0, 40 / 44100.0, 1), cfg_with()),
            (noisy_tone(4000.0, 0.5, 2), cfg_with(log_compress=True)),
            (noisy_tone(4000.0, 0.5, 3), cfg_with(lag_window_len=101)),  # aliasing, 64 bins
            # 2000 grid rows at stride 1, read by as many output rows
            (noisy_tone(4000.0, 0.5, 4), cfg_with(time_stride=1, image_rows=2000)),
            (noisy_tone(44100.0, 4.0, 5), default),
        ]
        work = {}
        for signal, cfg in clips:
            reused = clip_to_image(signal, cfg, work=work)
            assert image_bytes(reused) == image_bytes(clip_to_image(signal, cfg))
        assert work

    def test_returned_image_outlives_later_calls(self):
        cfg = cfg_with()
        work = {}
        first = clip_to_image(noisy_tone(44100.0, 0.5, 6), cfg, work=work)
        kept = image_bytes(first)
        for seed in (7, 8):
            clip_to_image(noisy_tone(44100.0, 0.5, seed), cfg, work=work)
        assert image_bytes(first) == kept
        for held in work.values():
            assert not np.shares_memory(first.values, held)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults with ru_minflt")
@pytest.mark.parametrize("workers", [1, 2])
def test_steady_state_preprocess_does_not_refault_memory(tmp_path, workers):
    """Each further 4 s 44.1 kHz clip in one preprocess_dataset call faults
    in under 10% of the ~2,200 pages a clip faulted before its work arrays
    outlived it. Clips 3..10 of a call cost the faults of a 10-clip call
    minus those of a 2-clip call. With two workers each worker's clip loop
    holds its own work arrays; the pool's workers are reaped when the call
    returns, so their faults count in RUSAGE_CHILDREN."""
    per_clip = run_fresh(textwrap.dedent(f"""
        import dataclasses, resource
        from pathlib import Path
        from wvdnet import datasets, synth
        from wvdnet.config import RunConfig

        root = Path({str(tmp_path)!r})
        cfg = RunConfig(synth_rate_hz=44100.0, synth_classes=2, synth_clips_per_class=5)
        synth.generate_dataset(root / "clips", cfg)
        many = datasets.load_manifest(root / "clips", "folder_per_class")
        few = dataclasses.replace(many, records=many.records[:2])
        who = resource.RUSAGE_SELF if {workers} == 1 else resource.RUSAGE_CHILDREN

        def faults(manifest):
            before = resource.getrusage(who).ru_minflt
            datasets.preprocess_dataset(manifest, cfg, root / "store", workers={workers})
            return resource.getrusage(who).ru_minflt - before

        faults(many), faults(few)
        extra = min(faults(many) for _ in range(3)) - min(faults(few) for _ in range(3))
        print(extra / (len(many) - len(few)))
    """))
    assert per_clip < 220
