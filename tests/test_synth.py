import hashlib

import numpy as np
import pytest

from wvdnet.config import build_config
from wvdnet.datasets import decode_wav
from wvdnet.errors import ConfigError
from wvdnet.synth import class_dir_name, generate_dataset


def synth_cfg(tmp_path, classes=3, per_class=4, seed=7):
    return build_config(
        {},
        dict(
            out_dir=str(tmp_path),
            synth_classes=classes,
            synth_clips_per_class=per_class,
            synth_rate_hz=4000.0,
            clip_seconds=1.0,
            seed=seed,
        ),
    )


def test_layout_and_counts(tmp_path):
    cfg = synth_cfg(tmp_path / "data", classes=3, per_class=5)
    written = generate_dataset(tmp_path / "data", cfg)
    assert written == 15
    dirs = sorted(d.name for d in (tmp_path / "data").iterdir())
    assert dirs == ["0_tone", "1_chirp", "2_noise"]
    for d in dirs:
        assert len(list((tmp_path / "data" / d).glob("*.wav"))) == 5


def test_same_seed_byte_identical(tmp_path):
    cfg_a = synth_cfg(tmp_path / "a", per_class=3, seed=11)
    cfg_b = synth_cfg(tmp_path / "b", per_class=3, seed=11)
    generate_dataset(tmp_path / "a", cfg_a)
    generate_dataset(tmp_path / "b", cfg_b)
    files_a = sorted((tmp_path / "a").rglob("*.wav"))
    files_b = sorted((tmp_path / "b").rglob("*.wav"))
    assert len(files_a) == len(files_b) == 9
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_different_seed_differs(tmp_path):
    generate_dataset(tmp_path / "a", synth_cfg(tmp_path / "a", per_class=1, seed=1))
    generate_dataset(tmp_path / "b", synth_cfg(tmp_path / "b", per_class=1, seed=2))
    fa = next((tmp_path / "a").rglob("*.wav"))
    fb = next((tmp_path / "b").rglob("*.wav"))
    assert fa.read_bytes() != fb.read_bytes()


def test_tone_clips_peak_inside_configured_band(tmp_path):
    cfg = synth_cfg(tmp_path / "data", classes=1, per_class=6, seed=3)
    generate_dataset(tmp_path / "data", cfg)
    for clip in sorted((tmp_path / "data" / "0_tone").glob("*.wav")):
        signal = decode_wav(clip.read_bytes())[0]
        # oracle: dominant DFT bin of the generated audio
        spectrum = np.abs(np.fft.rfft(signal.samples))
        peak_hz = spectrum.argmax() * signal.sample_rate_hz / len(signal.samples)
        assert cfg.tone_low_hz - 2 <= peak_hz <= cfg.tone_high_hz + 2


def test_chirp_clips_sweep_energy_across_band(tmp_path):
    cfg = synth_cfg(tmp_path / "data", classes=2, per_class=2, seed=5)
    generate_dataset(tmp_path / "data", cfg)
    for clip in sorted((tmp_path / "data" / "1_chirp").glob("*.wav")):
        signal = decode_wav(clip.read_bytes())[0]
        spectrum = np.abs(np.fft.rfft(signal.samples)) ** 2
        freqs = np.fft.rfftfreq(len(signal.samples), 1 / signal.sample_rate_hz)
        band = (freqs > 150) & (freqs < 1350)
        assert spectrum[band].sum() > 0.9 * spectrum.sum()
        # energy is spread, not a single line
        peak_fraction = spectrum.max() / spectrum.sum()
        assert peak_fraction < 0.2


def test_class_dir_names_cycle():
    assert class_dir_name(0) == "0_tone"
    assert class_dir_name(1) == "1_chirp"
    assert class_dir_name(2) == "2_noise"
    assert class_dir_name(3) == "3_tone"


def spectral_centroid_hz(clip):
    signal = decode_wav(clip.read_bytes())[0]
    power = np.abs(np.fft.rfft(signal.samples)) ** 2
    freqs = np.fft.rfftfreq(len(signal.samples), 1 / signal.sample_rate_hz)
    return float((freqs * power).sum() / power.sum())


def test_second_cycle_classes_sit_150_hz_higher(tmp_path):
    cfg = synth_cfg(tmp_path / "data", classes=6, per_class=8, seed=13)
    generate_dataset(tmp_path / "data", cfg)
    centroid = {
        label: np.mean([spectral_centroid_hz(clip) for clip in
                        sorted((tmp_path / "data" / class_dir_name(label)).glob("*.wav"))])
        for label in range(6)
    }
    for label in (0, 1, 2):
        assert 100 < centroid[label + 3] - centroid[label] < 200, centroid


def test_first_three_classes_bytes_are_pinned(tmp_path):
    # digest of classes 0-2 from the generator before the band shift reached
    # the chirp and noise families: only classes 3 and up changed
    generate_dataset(tmp_path / "data", synth_cfg(tmp_path / "data", classes=6, per_class=2))
    digest = hashlib.sha256()
    for label in range(3):
        for clip in sorted((tmp_path / "data" / class_dir_name(label)).glob("*.wav")):
            digest.update(clip.read_bytes())
    assert digest.hexdigest() == "7256e168aede7bdc452e28759a428281fd9cbc4dd290460ab00474ba5cded608"


def test_band_starting_at_nyquist_rejected(tmp_path):
    # at 3200 Hz, class 5's noise low edge is drawn from 1450-1650 Hz, which
    # reaches 1600 Hz; class 2's 1300-1500 Hz does not
    cfg = synth_cfg(tmp_path / "data", classes=6, per_class=1)
    cfg.synth_rate_hz = 3200.0
    with pytest.raises(ConfigError, match="class 5"):
        generate_dataset(tmp_path / "data", cfg)
    assert not (tmp_path / "data").exists()
    cfg.synth_classes = 5
    assert generate_dataset(tmp_path / "data", cfg) == 5


def test_class_whose_noise_band_can_sit_above_nyquist_rejected(tmp_path):
    # class 14's noise low edge is drawn from 1900-2100 Hz; at 4 kHz a draw
    # above 2000 Hz leaves an empty band and a clip of the noise floor alone
    out = tmp_path / "data"
    with pytest.raises(ConfigError, match="class 14"):
        generate_dataset(out, synth_cfg(out, classes=15, per_class=1))
    assert generate_dataset(out, synth_cfg(out, classes=14, per_class=1)) == 14
