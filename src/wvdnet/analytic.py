"""Complex signals and the analytic-signal construction.

The analytic signal keeps only non-negative frequencies, which is what lets
the quadratic time-frequency transform cover [0, fs/2) without mirrored
aliases. Everything here runs in double precision.
"""

from __future__ import annotations

import numpy as np

from .signal_core import Signal, work_array


class ComplexSignal(Signal):
    """A uniformly sampled complex waveform: a Signal of complex128 samples."""

    sample_dtype = np.dtype(np.complex128)


def analytic_signal(signal: Signal, work: dict | None = None) -> ComplexSignal:
    """Analytic version of a real signal via the frequency-domain Hilbert method.

    Scales the spectrum in place: bins 1 .. (n-1)//2 (positive frequencies)
    by 2 and bins n//2 + 1 .. n-1 (negative ones) by 0, leaving DC and, for
    even n, the Nyquist bin n/2 untouched. The real part of the result
    equals the input to round-off. With work, the spectrum and the result
    live in it (see signal_core.work_array).
    """
    n = len(signal)
    if n < 2:
        raise ValueError(f"analytic_signal needs at least 2 samples, got {n}")
    spectrum = work_array(work, "analytic_spectrum", (n,), np.complex128)
    np.fft.fft(signal.samples, out=spectrum)
    spectrum[1 : (n + 1) // 2] *= 2.0
    spectrum[n // 2 + 1 :] *= 0.0
    analytic = np.fft.ifft(spectrum, out=work_array(work, "analytic", (n,), np.complex128))
    return ComplexSignal(analytic, signal.sample_rate_hz)
