"""Complex signals and the analytic-signal construction.

The analytic signal keeps only non-negative frequencies, which is what lets
the quadratic time-frequency transform cover [0, fs/2) without mirrored
aliases. Everything here runs in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_core import Signal, work_array


@dataclass(frozen=True)
class ComplexSignal:
    """A uniformly sampled complex waveform."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


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
