import pytest

from wvdnet.config import build_config
from wvdnet.errors import ConfigError

# (override, the words of validate_config's message), one per check
INVALID_SETTINGS = {
    "non-finite-float": ({"clip_seconds": float("inf")}, "clip_seconds must be finite"),
    "unknown-source": ({"source": "freesound"}, "source must be one of"),
    "target-rate": ({"target_rate_hz": 0.0}, "sample rates must be positive"),
    "synth-rate": ({"synth_rate_hz": -1.0}, "sample rates must be positive"),
    "clip-seconds": ({"clip_seconds": 0.0}, "clip_seconds must be positive"),
    "image-rows": ({"image_rows": 1}, "image dimensions must be at least 2x2"),
    "image-cols": ({"image_cols": 1}, "image dimensions must be at least 2x2"),
    "freq-bins": ({"n_freq_bins": 1}, "n_freq_bins must be at least 2"),
    "negative-lag-window": ({"lag_window_len": -1}, "lag_window_len must be 0 .auto. or a "
                                                    "positive odd integer"),
    "even-lag-window": ({"lag_window_len": 64}, "lag_window_len must be 0 .auto. or a "
                                                "positive odd integer"),
    "time-stride": ({"time_stride": -1}, "time_stride must be 0 .auto. or positive"),
    "holdout-fraction": ({"holdout_fraction": 1.0}, r"holdout_fraction must be in \(0, 1\)"),
    "test-fold": ({"test_fold": -1}, "test_fold must be >= 0"),
    "epochs": ({"epochs": -1}, "epochs must be >= 0 and batch_size >= 1"),
    "batch-size": ({"batch_size": 0}, "epochs must be >= 0 and batch_size >= 1"),
    "learning-rate": ({"learning_rate": -0.1}, r"learning_rate must be >= 0 and momentum in "
                                               r"\[0, 1\)"),
    "momentum": ({"momentum": 1.0}, r"learning_rate must be >= 0 and momentum in \[0, 1\)"),
    "workers": ({"workers": 0}, "workers must be >= 1"),
    "synth-classes": ({"synth_classes": 0}, "synth_classes and synth_clips_per_class must be"),
    "synth-clips": ({"synth_clips_per_class": 0}, "synth_classes and synth_clips_per_class"),
    "tone-band": ({"tone_low_hz": 800.0}, "tone band must satisfy 0 < tone_low_hz < "
                                          "tone_high_hz"),
    "window": ({"window_seconds": 0.0}, "window_seconds and stride_seconds must be positive"),
    "stride": ({"stride_seconds": -1.0}, "window_seconds and stride_seconds must be positive"),
    "vote-windows": ({"vote_windows": 4}, "vote_windows must be 1 or an odd integer > 1"),
}


@pytest.mark.parametrize("name", sorted(INVALID_SETTINGS))
def test_invalid_setting_rejected(name):
    override, message = INVALID_SETTINGS[name]
    with pytest.raises(ConfigError, match=message):
        build_config({}, override)


def test_file_value_is_validated_like_a_flag():
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        build_config({"workers": "0"})
