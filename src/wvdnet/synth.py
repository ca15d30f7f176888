"""Deterministic synthetic dataset generation for self-contained runs.

Three clip families, laid out folder-per-class with numeric prefixes so label
order matches generator order: pure tones with per-clip frequency jitter,
linear frequency sweeps with a random cyclic phase (so any 4-second window of
a longer sweep looks in-distribution), and band-limited noise with a bursty
amplitude envelope. Same seed, byte-identical files.

Classes beyond the first three cycle through the families again, every band
moved up by 150 Hz per cycle, so class k + 3 sits 150 Hz above class k.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import RunConfig
from .datasets import write_wav_pcm16
from .errors import ConfigError

GENERATOR_KINDS = ("tone", "chirp", "noise")
CHIRP_START_HZ = (150.0, 250.0)
CHIRP_END_HZ = (1100.0, 1300.0)
NOISE_LOW_HZ = (1300.0, 1500.0)
NOISE_HIGH_HZ = (1700.0, 1900.0)


def class_dir_name(label: int) -> str:
    return f"{label}_{GENERATOR_KINDS[label % 3]}"


def tone_samples(rng, n, rate_hz, band):
    freq = rng.uniform(*band)
    phase = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(0.4, 0.6)
    t = np.arange(n) / rate_hz
    return amp * np.sin(2 * np.pi * freq * t + phase), freq


def chirp_samples(rng, n, rate_hz, f_start=CHIRP_START_HZ, f_end=CHIRP_END_HZ,
                  sweep_period_s=None):
    """Sawtooth frequency sweep with continuous phase; the sweep restarts
    every sweep_period_s (whole clip by default) at a random cyclic offset."""
    f0 = rng.uniform(*f_start)
    f1 = rng.uniform(*f_end)
    amp = rng.uniform(0.4, 0.6)
    period = n / rate_hz if sweep_period_s is None else sweep_period_s
    offset = rng.uniform(0, period)
    t = np.arange(n) / rate_hz
    inst_freq = f0 + (f1 - f0) * (((t + offset) % period) / period)
    phase = 2 * np.pi * np.cumsum(inst_freq) / rate_hz
    return amp * np.sin(phase), (f0, f1)


def noise_burst_samples(rng, n, rate_hz, low=NOISE_LOW_HZ, high=NOISE_HIGH_HZ):
    lo = rng.uniform(*low)
    hi = rng.uniform(*high)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate_hz)
    spectrum[(freqs < lo) | (freqs > hi)] = 0
    banded = np.fft.irfft(spectrum, n)
    bursts = rng.uniform(2.0, 4.0)
    envelope = np.sin(np.pi * bursts * np.arange(n) / n) ** 2
    shaped = banded * envelope
    peak = np.abs(shaped).max()
    amp = rng.uniform(0.4, 0.6)
    return (shaped / peak * amp) if peak > 0 else shaped, (lo, hi)


def class_bands(label: int, cfg: RunConfig) -> list[tuple[float, float]]:
    """The band arguments of label's generator, after the family's bands
    are moved up by 150 Hz for each earlier cycle of three classes."""
    shift = 150.0 * (label // 3)
    bands = {
        "tone": [(cfg.tone_low_hz, cfg.tone_high_hz)],
        "chirp": [CHIRP_START_HZ, CHIRP_END_HZ],
        "noise": [NOISE_LOW_HZ, NOISE_HIGH_HZ],
    }[GENERATOR_KINDS[label % 3]]
    return [(low + shift, high + shift) for low, high in bands]


GENERATORS = {"tone": tone_samples, "chirp": chirp_samples, "noise": noise_burst_samples}


def generate_dataset(out_root: str | Path, cfg: RunConfig) -> int:
    """Write cfg.synth_classes x cfg.synth_clips_per_class labeled WAV clips.

    Raises ConfigError, before writing anything, when a class's band could
    start at or above half of synth_rate_hz: its tone frequency, chirp start
    or noise low edge is drawn from a range whose top reaches that far.
    Returns the number of files written.
    """
    bands = [class_bands(label, cfg) for label in range(cfg.synth_classes)]
    for label, class_band in enumerate(bands):
        if class_band[0][1] >= cfg.synth_rate_hz / 2:
            raise ConfigError(
                f"synth_classes = {cfg.synth_classes}: class {label} could start at "
                f"{class_band[0][1]:g} Hz, at or above half of synth_rate_hz ({cfg.synth_rate_hz:g})"
            )
    out_root = Path(out_root)
    rng = np.random.default_rng(cfg.seed)
    n = round(cfg.clip_seconds * cfg.synth_rate_hz)
    written = 0
    for label, class_band in enumerate(bands):
        directory = out_root / class_dir_name(label)
        directory.mkdir(parents=True, exist_ok=True)
        generator = GENERATORS[GENERATOR_KINDS[label % 3]]
        for clip_index in range(cfg.synth_clips_per_class):
            samples, _ = generator(rng, n, cfg.synth_rate_hz, *class_band)
            samples = samples + 0.005 * rng.standard_normal(n)
            write_wav_pcm16(directory / f"clip_{clip_index:03d}.wav", samples, cfg.synth_rate_hz)
            written += 1
    return written
