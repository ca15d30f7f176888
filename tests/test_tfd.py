import numpy as np
import pytest
from conftest import (
    direct_quadratic_tfd,
    hfft_pseudo_wvd,
    reference_pseudo_wvd,
    two_pass_resize_bilinear,
)

from wvdnet.analytic import ComplexSignal, analytic_signal
from wvdnet.signal_core import Signal
from wvdnet.tfd import (
    LagWindow,
    TFDImage,
    default_lag_window_length,
    hamming_lag_window,
    normalize_image,
    pseudo_wvd,
    rectangular_lag_window,
    resize_bilinear,
    wvd,
    wvd_time_marginal,
)


def analytic_tone(freq_hz, rate_hz, seconds):
    t = np.arange(round(seconds * rate_hz)) / rate_hz
    return analytic_signal(Signal(np.cos(2 * np.pi * freq_hz * t), rate_hz))


class TestLagWindows:
    def test_hamming_center_is_one_and_symmetric(self):
        win = hamming_lag_window(127)
        assert win.coefficients[63] == 1.0
        np.testing.assert_allclose(win.coefficients, win.coefficients[::-1])
        # np.hamming's own centre is exactly 1, so the window is np.hamming bit for bit
        for n in range(1, 4096, 2):
            assert hamming_lag_window(n).coefficients[n // 2] == 1.0

    def test_even_length_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            hamming_lag_window(126)
        with pytest.raises(ValueError, match="odd"):
            rectangular_lag_window(4)
        for make in (hamming_lag_window, rectangular_lag_window):
            for length in (0, -1):
                with pytest.raises(ValueError):
                    make(length)

    def test_non_unit_center_rejected(self):
        with pytest.raises(ValueError, match="center"):
            LagWindow(np.array([0.5, 0.9, 0.5]))

    def test_default_length(self):
        assert default_lag_window_length(16000) == 127
        assert default_lag_window_length(400) == 99  # largest odd <= 100
        assert default_lag_window_length(8) == 1


class TestPseudoWvd:
    def test_zero_signal_gives_zero_image(self):
        x = ComplexSignal(np.zeros(64, dtype=complex), 1000.0)
        img = pseudo_wvd(x, hamming_lag_window(15), 4, 32)
        np.testing.assert_array_equal(img.values, np.zeros_like(img.values))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(96) + 1j * rng.standard_normal(96)
        x = ComplexSignal(samples, 1000.0)
        win = hamming_lag_window(21)
        fast = pseudo_wvd(x, win, 5, 48).values
        slow = direct_quadratic_tfd(samples, win.coefficients, 5, 48)
        scale = np.abs(slow).max()
        assert np.abs(fast - slow).max() < 1e-9 * scale

    def test_matches_direct_sum_with_lag_aliasing(self):
        # window longer than the FFT length: lags fold modulo n_freq_bins
        rng = np.random.default_rng(8)
        samples = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        x = ComplexSignal(samples, 1000.0)
        win = rectangular_lag_window(63)
        fast = pseudo_wvd(x, win, 3, 32).values
        slow = direct_quadratic_tfd(samples, win.coefficients, 3, 32)
        assert np.abs(fast - slow).max() < 1e-9 * np.abs(slow).max()

    @pytest.mark.parametrize(
        "n, window_len, stride, bins",
        [
            (96, 21, 5, 48),  # even bins
            (96, 21, 5, 47),  # odd bins
            (80, 33, 3, 32),  # L = F//2: the Nyquist bin takes both +m and -m
            (80, 33, 3, 33),  # L = F//2, odd bins: no lag reaches the alias range
            (48, 63, 3, 32),  # L = F - 1: lags alias modulo F
            (48, 41, 2, 33),  # L >= ceil(F/2), odd bins
            (30, 13, 1, 7),  # L = F - 1, odd bins
            (64, 1, 4, 16),  # window length 1
            (20, 9, 50, 16),  # stride beyond the signal: one row
            (1, 7, 1, 8),  # one sample
            (17640, 127, 15, 512),  # the paper geometry
        ],
    )
    def test_matches_full_lag_reference(self, n, window_len, stride, bins):
        rng = np.random.default_rng(n + window_len + bins)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = ComplexSignal(samples, 4410.0)
        win = hamming_lag_window(window_len)
        fast = pseudo_wvd(x, win, stride, bins)
        slow = reference_pseudo_wvd(x, win, stride, bins)
        assert fast.shape == slow.shape
        np.testing.assert_array_equal(fast.time_axis_s, slow.time_axis_s)
        np.testing.assert_array_equal(fast.freq_axis_hz, slow.freq_axis_hz)
        assert np.abs(fast.values - slow.values).max() <= 1e-12 * np.abs(slow.values).max()

    @pytest.mark.parametrize(
        "n,window_len,stride,bins,out_rows",
        [
            (17640, 127, 15, 512, 300),  # the paper geometry: 600 of 1176 rows
            (2000, 101, 3, 64, 40),  # lag aliasing
            (300, 31, 1, 32, 500),  # more output rows than grid rows
            (300, 31, 1, 32, 300),  # as many output rows as grid rows
            (257, 9, 4, 16, 2),
            (257, 9, 4, 16, 1),
        ],
    )
    def test_out_rows_is_the_all_rows_image_resized(self, n, window_len, stride, bins, out_rows):
        rng = np.random.default_rng(n + out_rows)
        x = ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 4410.0)
        win = hamming_lag_window(window_len)
        full = hfft_pseudo_wvd(x, win, stride, bins)
        assert pseudo_wvd(x, win, stride, bins).values.tobytes() == full.values.tobytes()
        fast = pseudo_wvd(x, win, stride, bins, out_rows=out_rows)
        slow = two_pass_resize_bilinear(full, out_rows, bins)
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.time_axis_s.tobytes() == slow.time_axis_s.tobytes()
        assert fast.freq_axis_hz.tobytes() == full.freq_axis_hz.tobytes()

    def test_out_rows_needs_two_grid_rows(self):
        x = ComplexSignal(np.ones(20, dtype=complex), 100.0)
        with pytest.raises(ValueError, match="cannot resample 1 point"):
            pseudo_wvd(x, hamming_lag_window(9), 50, 16, out_rows=4)

    def test_sum_is_real_up_to_roundoff(self):
        rng = np.random.default_rng(9)
        samples = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        win = hamming_lag_window(31)
        half = len(win) // 2
        worst = 0.0
        peak = 0.0
        for n in range(0, 80, 7):
            for k in range(0, 40, 5):
                acc = 0j
                for mi, m in enumerate(range(-half, half + 1)):
                    i, j = n + m, n - m
                    if 0 <= i < 80 and 0 <= j < 80:
                        acc += (
                            win.coefficients[mi]
                            * samples[i]
                            * np.conj(samples[j])
                            * np.exp(-2j * np.pi * k * m / 40)
                        )
                worst = max(worst, abs(acc.imag))
                peak = max(peak, abs(acc.real))
        assert worst < 1e-9 * peak

    def test_tone_localization(self):
        x = analytic_tone(500.0, 4000.0, 1.0)
        img = pseudo_wvd(x, rectangular_lag_window(127), 16, 512)
        expected_bin = round(2 * 500.0 * 512 / 4000.0)
        assert img.freq_axis_hz[expected_bin] == pytest.approx(500.0)
        interior = img.values[4:-4]
        assert np.all(interior.argmax(axis=1) == expected_bin)

    def test_chirp_ridge_tracks_instantaneous_frequency(self):
        rate = 4000.0
        t = np.arange(8000) / rate
        sweep = np.cos(2 * np.pi * (200.0 * t + 250.0 * t**2))  # 200 -> 1200 Hz over 2 s
        x = analytic_signal(Signal(sweep, rate))
        img = pseudo_wvd(x, hamming_lag_window(127), 16, 512)
        inst_freq = 200.0 + 500.0 * img.time_axis_s
        expected = np.round(2 * inst_freq * 512 / rate).astype(int)
        ridge = img.values.argmax(axis=1)
        inner = slice(8, -8)
        assert np.abs(ridge[inner] - expected[inner]).max() <= 1

    def test_cross_term_suppression(self):
        rate = 4000.0
        t = np.arange(2048) / rate
        pair = np.cos(2 * np.pi * 500.0 * t) + np.cos(2 * np.pi * 1500.0 * t)
        x = analytic_signal(Signal(pair, rate))
        plain = wvd(x, time_stride=4, n_freq_bins=512)
        tapered = pseudo_wvd(x, hamming_lag_window(127), 4, 512)
        mid_bin = round(2 * 1000.0 * 512 / rate)
        plain_energy = np.mean(plain.values[:, mid_bin] ** 2)
        tapered_energy = np.mean(tapered.values[:, mid_bin] ** 2)
        assert tapered_energy * 10 < plain_energy

    def test_even_window_rejected(self):
        x = ComplexSignal(np.ones(16, dtype=complex), 100.0)
        with pytest.raises(ValueError, match="odd"):
            pseudo_wvd(x, LagWindow(np.ones(4)), 1, 16)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pseudo_wvd(ComplexSignal(np.zeros(0, dtype=complex), 100.0), hamming_lag_window(3), 1, 8)

    def test_oversized_window_rejected(self):
        x = ComplexSignal(np.ones(64, dtype=complex), 100.0)
        with pytest.raises(ValueError, match="exceeds"):
            pseudo_wvd(x, rectangular_lag_window(33), 1, 16)


class TestTimeMarginal:
    def test_zero_signal(self):
        x = ComplexSignal(np.zeros(32, dtype=complex), 1000.0)
        marginal = wvd_time_marginal(wvd(x), x)
        np.testing.assert_array_equal(marginal, np.zeros(32))

    def test_unit_impulse(self):
        samples = np.zeros(64, dtype=complex)
        samples[20] = 1.0
        x = ComplexSignal(samples, 1000.0)
        marginal = wvd_time_marginal(wvd(x), x)
        assert marginal[20] == pytest.approx(1.0, abs=1e-6)
        others = np.delete(marginal, 20)
        assert np.abs(others).max() < 1e-6

    def test_random_analytic_signal(self):
        rng = np.random.default_rng(42)
        x = analytic_signal(Signal(rng.standard_normal(256), 4000.0))
        marginal = wvd_time_marginal(wvd(x, time_stride=1, n_freq_bins=256), x)
        power = np.abs(x.samples) ** 2
        interior = slice(8, -8)
        rel = np.abs(marginal[interior] - power[interior]) / power[interior]
        assert rel.max() < 1e-6

    def test_kind_and_length_validated(self):
        x = ComplexSignal(np.ones(16, dtype=complex), 100.0)
        img = pseudo_wvd(x, hamming_lag_window(5), 1, 16)
        with pytest.raises(ValueError, match="rectangular"):
            wvd_time_marginal(img, x)
        img2 = wvd(x, time_stride=2)
        with pytest.raises(ValueError, match="stride"):
            wvd_time_marginal(img2, x)


def planar_image(rows, cols):
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    values = 0.5 + 0.25 * r + 0.125 * c
    return TFDImage(values, np.arange(rows) * 0.1, np.arange(cols) * 10.0, 1000.0, "pseudo_wvd")


class TestResizeBilinear:
    def test_identity(self):
        img = planar_image(5, 7)
        out = resize_bilinear(img, 5, 7)
        assert np.abs(out.values - img.values).max() < 1e-12
        np.testing.assert_allclose(out.freq_axis_hz, img.freq_axis_hz)

    def test_matching_axes_left_as_they_are(self):
        img = planar_image(5, 7)
        assert resize_bilinear(img, 5, 7).values.tobytes() == img.values.tobytes()
        rows_kept = resize_bilinear(img, 5, 3)
        assert rows_kept.time_axis_s.tobytes() == img.time_axis_s.tobytes()
        assert rows_kept.values.tobytes() == two_pass_resize_bilinear(img, 5, 3).values.tobytes()

    @pytest.mark.parametrize("out_rows,out_cols", [(13, 4), (2, 2), (1, 9), (3, 7)])
    def test_matches_two_pass_resize(self, out_rows, out_cols):
        img = TFDImage(
            np.random.default_rng(out_rows).standard_normal((6, 9)),
            np.arange(6) * 0.1, np.arange(9) * 10.0, 1000.0, "pseudo_wvd",
        )
        fast = resize_bilinear(img, out_rows, out_cols)
        slow = two_pass_resize_bilinear(img, out_rows, out_cols)
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.time_axis_s.tobytes() == slow.time_axis_s.tobytes()
        assert fast.freq_axis_hz.tobytes() == slow.freq_axis_hz.tobytes()

    def test_constant_stays_constant(self):
        img = TFDImage(np.full((4, 4), 3.25), np.arange(4.0), np.arange(4.0), 100.0, "wvd")
        out = resize_bilinear(img, 9, 5)
        np.testing.assert_allclose(out.values, 3.25)

    def test_midpoint_column(self):
        img = TFDImage(np.array([[0.0, 1.0], [0.0, 1.0]]), [0.0, 1.0], [0.0, 10.0], 100.0, "wvd")
        out = resize_bilinear(img, 2, 3)
        np.testing.assert_allclose(out.values[:, 1], [0.5, 0.5])

    def test_planar_input_preserves_min_and_max(self):
        img = planar_image(6, 9)
        out = resize_bilinear(img, 13, 4)
        assert out.values.min() == img.values.min()
        assert out.values.max() == img.values.max()

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            resize_bilinear(planar_image(4, 4), 0, 4)

    def test_tiny_input_rejected(self):
        img = TFDImage(np.ones((1, 2)), [0.0], [0.0, 1.0], 100.0, "wvd")
        with pytest.raises(ValueError, match="2x2"):
            resize_bilinear(img, 4, 4)


class TestNormalizeImage:
    def test_constant_maps_to_zeros(self):
        img = TFDImage(np.full((3, 3), 7.0), np.arange(3.0), np.arange(3.0), 100.0, "wvd")
        np.testing.assert_array_equal(normalize_image(img).values, np.zeros((3, 3)))

    def test_clamp_then_scale(self):
        img = TFDImage(np.array([[-1.0, 0.0], [1.0, 3.0]]), [0.0, 1.0], [0.0, 1.0], 100.0, "wvd")
        out = normalize_image(img)
        np.testing.assert_allclose(out.values, [[0.0, 0.0], [1.0 / 3.0, 1.0]])

    def test_output_range(self):
        rng = np.random.default_rng(13)
        img = TFDImage(rng.random((8, 8)) + 0.5, np.arange(8.0), np.arange(8.0), 100.0, "wvd")
        out = normalize_image(img)
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0

    def test_input_untouched_and_bits_of_the_two_pass_formula(self):
        rng = np.random.default_rng(14)
        values = rng.standard_normal((30, 20)) * 1e3
        img = TFDImage(values.copy(), np.arange(30.0), np.arange(20.0), 100.0, "wvd")
        out = normalize_image(img)
        assert img.values.tobytes() == values.tobytes()
        assert not np.shares_memory(out.values, img.values)
        clamped = np.maximum(values, 0.0)
        lo, hi = clamped.min(), clamped.max()
        assert out.values.tobytes() == ((clamped - lo) / (hi - lo)).tobytes()


class TestTfdImageValidation:
    def test_axis_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="axis lengths"):
            TFDImage(np.ones((2, 3)), [0.0, 1.0], [0.0, 1.0], 100.0, "wvd")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TFDImage(np.ones((2, 2)), [0.0, 1.0], [0.0, 1.0], 100.0, "mel")

    def test_axis_beyond_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist|source_rate", ):
            TFDImage(np.ones((2, 2)), [0.0, 1.0], [0.0, 80.0], 100.0, "wvd")

    def test_non_increasing_axis_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            TFDImage(np.ones((2, 2)), [0.0, 1.0], [1.0, 1.0], 100.0, "wvd")
