import numpy as np
import pytest
from conftest import gain_array_analytic_signal

from wvdnet.analytic import ComplexSignal, analytic_signal
from wvdnet.signal_core import Signal


class TestAnalyticSignal:
    def test_cosine_becomes_complex_exponential(self):
        rate = 4000.0
        t = np.arange(4000) / rate
        out = analytic_signal(Signal(np.cos(2 * np.pi * 100.0 * t), rate))
        modulus = np.abs(out.samples[100:-100])
        np.testing.assert_allclose(modulus, 1.0, atol=1e-6)
        expected = np.exp(2j * np.pi * 100.0 * t)
        np.testing.assert_allclose(out.samples[100:-100], expected[100:-100], atol=1e-3)

    def test_zeros_map_to_zeros(self):
        out = analytic_signal(Signal(np.zeros(64), 1000.0))
        np.testing.assert_array_equal(out.samples, np.zeros(64))

    def test_negative_frequency_energy_suppressed(self):
        # oracle: inspect the output spectrum directly
        x = np.random.default_rng(5).standard_normal(1024)
        out = analytic_signal(Signal(x, 4000.0))
        spectrum = np.fft.fft(out.samples)
        negative = np.sum(np.abs(spectrum[1024 // 2 + 1 :]) ** 2)
        total = np.sum(np.abs(spectrum) ** 2)
        assert negative < 1e-10 * total

    def test_real_part_round_trips(self):
        for n in (33, 256, 1001):
            x = np.random.default_rng(n).standard_normal(n)
            out = analytic_signal(Signal(x, 4000.0))
            rel = np.abs(out.samples.real - x).max() / np.abs(x).max()
            assert rel < 1e-9

    def test_energy_doubles_for_zero_mean_broadband(self):
        x = np.random.default_rng(6).standard_normal(1024)
        x -= x.mean()
        out = analytic_signal(Signal(x, 4000.0))
        ratio = np.sum(np.abs(out.samples) ** 2) / np.sum(x**2)
        assert abs(ratio - 2.0) < 0.02

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 1000, 1001, 17640, 17641])
    def test_bitwise_equal_to_gain_array_form(self, n):
        # random inputs, and ones where scaling by 0 rather than assigning 0
        # shows: -0.0, negative constants, an impulse and denormals
        rng = np.random.default_rng(n)
        inputs = [
            rng.standard_normal(n),
            rng.standard_normal(n) * 1e-300,
            np.zeros(n),
            np.full(n, -0.0),
            np.full(n, -3.0),
            np.eye(1, n, n // 2)[0],
            np.full(n, 5e-324),
            np.full(n, -5e-324),
        ]
        work = {}
        for samples in inputs:
            signal = Signal(samples, 4000.0)
            expected = gain_array_analytic_signal(signal).samples.tobytes()
            assert analytic_signal(signal).samples.tobytes() == expected
            assert analytic_signal(signal, work=work).samples.tobytes() == expected

    def test_complex_input_rejected(self):
        # a Signal is real, so the analytic signal never sees complex samples
        with pytest.raises(ValueError, match="real"):
            Signal(np.array([1 + 1j, 2 - 1j]), 4000.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            analytic_signal(Signal([1.0], 1000.0))


def test_complex_signal_validation():
    with pytest.raises(ValueError):
        ComplexSignal(np.zeros(4, dtype=complex), -1.0)
    sig = ComplexSignal(np.zeros(8, dtype=complex), 2000.0)
    assert sig.duration_s == pytest.approx(0.004)
    assert ComplexSignal([1.0, 2.0], 1.0).samples.dtype == np.complex128
    with pytest.raises(ValueError, match="one-dimensional"):
        ComplexSignal(np.zeros((2, 2), dtype=complex), 1.0)
