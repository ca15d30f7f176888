import numpy as np
import pytest
from conftest import three_range_decimate

from wvdnet.signal_core import (
    Signal,
    average_channels,
    decimate,
    design_lowpass,
    pad_or_truncate,
    snap_decimation_rate,
)


def direct_decimate(samples, taps, k):
    """Per-output direct sum of the delay-compensated filter at the kept
    samples 0, k, 2k, ..., with samples outside the input read as zero."""
    delay = len(taps) // 2
    out = []
    for i in range(0, len(samples), k):
        acc = 0.0
        for j, tap in enumerate(taps):
            src = i + delay - j
            if 0 <= src < len(samples):
                acc += tap * samples[src]
        out.append(acc)
    return np.array(out)


def tone(freq_hz, rate_hz, seconds=1.0, amp=1.0):
    t = np.arange(round(seconds * rate_hz)) / rate_hz
    return Signal(amp * np.sin(2 * np.pi * freq_hz * t), rate_hz)


class TestAverageChannels:
    def test_single_channel_identity(self):
        sig = Signal([0.5, -0.5], 8000.0)
        out = average_channels([sig])
        np.testing.assert_array_equal(out.samples, [0.5, -0.5])
        assert out.sample_rate_hz == 8000.0

    def test_mono_equals_stack_and_mean_bit_for_bit(self):
        samples = np.array([0.25, -0.0, 0.0, -1.0, 1e-300, np.pi])
        sig = Signal(samples, 8000.0)
        out = average_channels([sig])
        assert out.samples.tobytes() == np.stack([samples]).mean(axis=0).tobytes()
        assert out.samples is not sig.samples
        assert out.sample_rate_hz == 8000.0

    def test_stereo_is_the_stacked_mean(self):
        a = Signal([0.1, -0.0, 0.7, -0.3], 8000.0)
        b = Signal([0.2, -0.0, -0.7, 0.9], 8000.0)
        out = average_channels([a, b])
        expected = np.stack([a.samples, b.samples]).mean(axis=0)
        assert out.samples.tobytes() == expected.tobytes()
        assert out.samples is not a.samples and out.samples is not b.samples

    @pytest.mark.parametrize("count", range(1, 9))
    @pytest.mark.parametrize("values", ["finite", "signed-zeros", "infinities", "subnormals"])
    def test_running_sum_is_the_stacked_mean_bit_for_bit(self, count, values):
        rng = np.random.default_rng(count)
        pools = {
            "finite": rng.standard_normal(64) * 10.0 ** rng.integers(-8, 9, 64),
            "signed-zeros": np.array([0.0, -0.0, 0.5, -0.5]),
            "infinities": np.array([np.inf, -np.inf, 1.0, -0.0]),
            "subnormals": np.array([5e-324, -5e-324, 1e-310, -2.5e-309, 0.0, -0.0]),
        }
        chans = [Signal(rng.choice(pools[values], 257), 8000.0) for _ in range(count)]
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN, in both forms
            out = average_channels(chans)
            expected = np.stack([ch.samples for ch in chans]).mean(axis=0)
        assert out.samples.tobytes() == expected.tobytes()
        assert all(out.samples is not ch.samples for ch in chans)

    def test_opposite_channels_cancel(self):
        a = Signal([1.0, 1.0, 1.0], 8000.0)
        b = Signal([-1.0, -1.0, -1.0], 8000.0)
        np.testing.assert_array_equal(average_channels([a, b]).samples, [0.0, 0.0, 0.0])

    def test_arithmetic_mean(self):
        a = Signal([0.2, 0.4], 8000.0)
        b = Signal([0.6, 0.0], 8000.0)
        np.testing.assert_allclose(average_channels([a, b]).samples, [0.4, 0.2])

    def test_commutative_in_channel_order(self):
        rng = np.random.default_rng(0)
        chans = [Signal(rng.standard_normal(64), 4000.0) for _ in range(3)]
        fwd = average_channels(chans).samples
        rev = average_channels(chans[::-1]).samples
        np.testing.assert_allclose(fwd, rev)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_channels([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            average_channels([Signal([1.0], 8000.0), Signal([1.0, 2.0], 8000.0)])

    def test_mismatched_rates_rejected(self):
        with pytest.raises(ValueError, match="rate mismatch"):
            average_channels([Signal([1.0], 8000.0), Signal([1.0], 4000.0)])


class TestDesignLowpass:
    def test_unit_dc_gain(self):
        taps = design_lowpass(1800.0, 44100.0, 63)
        assert taps.shape == (63,) and taps.dtype == np.float64
        dc = abs(np.sum(taps))
        assert abs(dc - 1.0) < 1e-6

    def test_stopband_attenuation(self):
        # oracle: evaluate the tap DFT at 10 kHz directly
        taps = design_lowpass(1800.0, 44100.0, 63)
        n = np.arange(63)
        response = abs(np.sum(taps * np.exp(-2j * np.pi * 10000.0 * n / 44100.0)))
        assert response < 0.01

    def test_nyquist_attenuation(self):
        taps = design_lowpass(1800.0, 44100.0, 63)
        n = np.arange(63)
        response = abs(np.sum(taps * np.exp(-2j * np.pi * 22050.0 * n / 44100.0)))
        assert response < 0.01

    def test_taps_exactly_symmetric(self):
        taps = design_lowpass(1800.0, 44100.0, 63)
        np.testing.assert_array_equal(taps, taps[::-1])

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            design_lowpass(22050.0, 44100.0, 63)

    def test_even_tap_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            design_lowpass(1000.0, 8000.0, 64)


class TestDecimate:
    def test_equal_rate_is_identity(self):
        sig = tone(100.0, 8000.0, 0.25)
        out = decimate(sig, 8000.0)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_tone_survives_decimation(self):
        # oracle: full-resolution DFT of the output
        out = decimate(tone(100.0, 44100.0), 4410.0)
        assert out.sample_rate_hz == 4410.0
        assert len(out) == 4410
        spectrum = np.abs(np.fft.rfft(out.samples))
        assert spectrum.argmax() == 100  # 1 Hz bins over a 1 s output

    def test_out_of_band_tone_attenuated(self):
        sig = tone(2500.0, 44100.0)
        out = decimate(sig, snap_decimation_rate(44100.0, 4000.0))
        assert out.sample_rate_hz == 4410.0
        ratio = np.sum(out.samples**2) / np.sum(sig.samples**2)
        assert ratio < 0.05

    def test_output_length_ceil(self):
        sig = Signal(np.ones(101), 1000.0)
        out = decimate(sig, 100.0)
        assert len(out) == 11  # ceil(101 / 10)

    @pytest.mark.parametrize("n", [1, 20, 62, 63, 64, 200, 1001])
    def test_matches_direct_sum_at_any_length(self, n):
        # shorter than the 63-tap filter too: ceil(n / 10) samples, aligned;
        # from 200 on, outputs that read only the input sit between the ends
        samples = np.random.default_rng(n).standard_normal(n)
        out = decimate(Signal(samples, 44100.0), 4410.0)
        taps = design_lowpass(0.45 * 4410.0 / 2.0, 44100.0, 63)
        expected = direct_decimate(samples, taps, 10)
        assert len(out) == len(expected) == -(-n // 10)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)

    # every source rate that tests/test_pipeline.py's TestWorkingRate
    # decimates to a 4 kHz target: factors 10, 2, 2, 5, 12 and 24
    @pytest.mark.parametrize("source", [44100.0, 8000.0, 11025.0, 22050.0, 48000.0, 96000.0])
    def test_bitwise_equal_to_three_range_form(self, source):
        # every length below 200 (n < k, n < 63, first and last ranges
        # overlapping) and a spread up to 3,000; one work dict for all, from
        # the longest down, so each call reuses a larger padded copy
        target = snap_decimation_rate(source, 4000.0)
        rng = np.random.default_rng(int(source))
        lengths = [*range(1, 200), *range(200, 3001, 41), 3000]
        work = {}
        for n in sorted(lengths, reverse=True):
            signal = Signal(rng.standard_normal(n), source)
            expected = three_range_decimate(signal, target).samples.tobytes()
            assert decimate(signal, target).samples.tobytes() == expected, n
            assert decimate(signal, target, work=work).samples.tobytes() == expected, n

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="pre-resample"):
            decimate(tone(100.0, 44100.0), 4000.0)

    def test_upsampling_rejected(self):
        with pytest.raises(ValueError, match="upsampling"):
            decimate(tone(100.0, 4000.0), 8000.0)

    def test_energy_never_amplified(self):
        rng = np.random.default_rng(1)
        for seed in range(3):
            sig = Signal(np.random.default_rng(seed).standard_normal(8000), 8000.0)
            out = decimate(sig, 2000.0)
            assert np.sum(out.samples**2) <= np.sum(sig.samples**2)

    def test_peak_bin_tracks_tone_within_resolution(self):
        for freq in (50.0, 200.0, 410.0):  # below 0.45 * target Nyquist (450 Hz)
            out = decimate(tone(freq, 8000.0, 1.0), 2000.0)
            spectrum = np.abs(np.fft.rfft(out.samples))
            assert abs(spectrum.argmax() - freq) <= 1.0  # 1 Hz bins


class TestSnapDecimationRate:
    def test_prefers_exact_divisor(self):
        assert snap_decimation_rate(44100.0, 4000.0) == 4410.0

    def test_low_rate_source_stays_put(self):
        assert snap_decimation_rate(4960.0, 4000.0) == 4960.0

    def test_exact_target_honored(self):
        assert snap_decimation_rate(48000.0, 4000.0) == 4000.0

    def test_request_above_source(self):
        assert snap_decimation_rate(4000.0, 8000.0) == 4000.0


class TestPadOrTruncate:
    def test_identity(self):
        sig = Signal(np.arange(16000, dtype=float), 4000.0)
        out = pad_or_truncate(sig, 16000)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_symmetric_zero_pad(self):
        out = pad_or_truncate(Signal(np.ones(10), 4000.0), 14)
        expected = np.concatenate([[0, 0], np.ones(10), [0, 0]])
        np.testing.assert_array_equal(out.samples, expected)

    def test_centered_crop(self):
        out = pad_or_truncate(Signal(np.arange(20, dtype=float), 4000.0), 10)
        np.testing.assert_array_equal(out.samples, np.arange(5, 15, dtype=float))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            pad_or_truncate(Signal([1.0], 4000.0), 0)

    def test_padding_preserves_energy_exactly(self):
        sig = Signal(np.random.default_rng(2).standard_normal(33), 4000.0)
        out = pad_or_truncate(sig, 50)
        assert np.sum(out.samples**2) == np.sum(sig.samples**2)

    def test_truncation_never_increases_energy(self):
        sig = Signal(np.random.default_rng(3).standard_normal(50), 4000.0)
        out = pad_or_truncate(sig, 20)
        assert np.sum(out.samples**2) <= np.sum(sig.samples**2)
