"""Flat run configuration shared by the CLI commands.

Config files are plain `key = value` lines with `#` comments; CLI flags
override file values, which override the built-in defaults. Unknown keys are
fatal. The effective configuration hashes to a stable hex digest that output
files embed so runs are auditable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

SOURCE_KINDS = ("urbansound8k", "esc50", "folder_per_class")


@dataclass
class RunConfig:
    dataset_root: str = ""
    source: str = "folder_per_class"
    target_rate_hz: float = 4000.0
    clip_seconds: float = 4.0
    image_rows: int = 300
    image_cols: int = 300
    n_freq_bins: int = 512
    lag_window_len: int = 0  # 0 = auto: 127 capped at the largest odd value <= N/4
    time_stride: int = 0  # 0 = auto: at most 1200 raw rows before resize
    log_compress: bool = False
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.001
    momentum: float = 0.9
    holdout_fraction: float = 0.8  # train share
    stratified: bool = True
    test_fold: int = 0  # 0 = seeded holdout split; >= 1 = leave that fold out
    seed: int = 0
    workers: int = 1
    out_dir: str = "out"
    synth_classes: int = 3
    synth_clips_per_class: int = 50
    synth_rate_hz: float = 4000.0
    tone_low_hz: float = 300.0
    tone_high_hz: float = 700.0
    window_seconds: float = 4.0
    stride_seconds: float = 1.0
    vote_windows: int = 1  # 1 = windows scored independently


def boolean(raw: str) -> bool:
    """Parse true/1/yes/on or false/0/no/off, in any case."""
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


# RunConfig field annotation -> value parser, for config files and CLI flags
VALUE_PARSERS = {"bool": boolean, "int": int, "float": float, "str": str}


def parse_config_file(path: str | Path) -> dict:
    """Read a `key = value` file into a raw string dict."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config-file values, then CLI overrides."""
    fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    cfg = RunConfig()
    for key, raw in (file_values or {}).items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {key}")
        raw = raw.strip()
        try:
            setattr(cfg, key, VALUE_PARSERS[fields[key]](raw))
        except ValueError:
            raise ConfigError(f"cannot parse {key} = {raw!r} as {fields[key]}") from None
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in fields:
            raise ConfigError(f"unknown config key: {key}")
        setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if field.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value}")
    if cfg.source not in SOURCE_KINDS:
        raise ConfigError(f"source must be one of {SOURCE_KINDS}, got {cfg.source!r}")
    if cfg.target_rate_hz <= 0 or cfg.synth_rate_hz <= 0:
        raise ConfigError("sample rates must be positive")
    if cfg.clip_seconds <= 0:
        raise ConfigError("clip_seconds must be positive")
    if cfg.image_rows < 2 or cfg.image_cols < 2:
        raise ConfigError("image dimensions must be at least 2x2")
    if cfg.n_freq_bins < 2:
        raise ConfigError("n_freq_bins must be at least 2")
    if cfg.lag_window_len < 0 or (cfg.lag_window_len and cfg.lag_window_len % 2 == 0):
        raise ConfigError("lag_window_len must be 0 (auto) or a positive odd integer")
    if cfg.time_stride < 0:
        raise ConfigError("time_stride must be 0 (auto) or positive")
    if not 0 < cfg.holdout_fraction < 1:
        raise ConfigError("holdout_fraction must be in (0, 1)")
    if cfg.test_fold < 0:
        raise ConfigError("test_fold must be >= 0")
    if cfg.epochs < 0 or cfg.batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    if cfg.learning_rate < 0 or not 0 <= cfg.momentum < 1:
        raise ConfigError("learning_rate must be >= 0 and momentum in [0, 1)")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.synth_classes < 1 or cfg.synth_clips_per_class < 1:
        raise ConfigError("synth_classes and synth_clips_per_class must be >= 1")
    if not 0 < cfg.tone_low_hz < cfg.tone_high_hz:
        raise ConfigError("tone band must satisfy 0 < tone_low_hz < tone_high_hz")
    if cfg.window_seconds <= 0 or cfg.stride_seconds <= 0:
        raise ConfigError("window_seconds and stride_seconds must be positive")
    if cfg.vote_windows < 1 or cfg.vote_windows % 2 == 0:
        raise ConfigError("vote_windows must be 1 or an odd integer > 1")


def config_lines(cfg: RunConfig) -> str:
    """Canonical `key = value` rendering, keys sorted."""
    items = sorted(dataclasses.asdict(cfg).items())
    return "\n".join(f"{k} = {v}" for k, v in items) + "\n"


# Location keys are excluded from the hash: the digest identifies what was
# computed, so identical runs in different directories stay byte-identical.
_UNHASHED_KEYS = ("dataset_root", "out_dir")


def config_hash(cfg: RunConfig) -> str:
    lines = "\n".join(
        line
        for line in config_lines(cfg).splitlines()
        if line.split(" = ")[0] not in _UNHASHED_KEYS
    )
    return hashlib.sha256(lines.encode()).hexdigest()[:16]
