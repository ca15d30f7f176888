"""WAV ingestion, dataset manifests, seeded splits, and batch preprocessing.

`read_wav` is the one way a WAV file is read, for preprocessing, stream and
export: `decode_wav` walks its RIFF container, with a PCM 16-bit or IEEE
float 32-bit payload at any rate and channel count (unknown chunks are
skipped, malformed ones are rejected with the offending chunk named), and
`average_channels` folds the channels into one signal.
Manifests cover the two CSV-described corpus layouts plus a generic
folder-per-class tree. A manifest holds each clip's path, label and fold and
opens no clip, so an unreadable one surfaces in the preprocessing skip report.

Batch preprocessing materializes one raw float32 array file per clip plus an
`index.csv` (file,label,fold) and a JSON metadata sidecar; re-running with
identical inputs and config is byte-identical. One clip loop, with one work
dict (see pipeline) per process, runs every clip or a pool worker's share.
"""

from __future__ import annotations

import csv
import json
import struct
import wave
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash
from .errors import ConfigError, DataError
from .ioutil import atomic_write_bytes, atomic_write_text, csv_text
from .pipeline import clip_to_image, working_rate_hz
from .signal_core import Signal, average_channels

URBANSOUND8K_NUM_CLASSES = 10
ESC50_NUM_CLASSES = 50


# -- WAV codec ----------------------------------------------------------------


_SAMPLE_DTYPES = {(1, 16): "<i2", (3, 32): "<f4"}  # (format tag, bits) -> dtype


def _walk_wav(data: bytes):
    """Walk the RIFF chunks of WAVE bytes and check their 'fmt ' chunk.

    Returns (dtype, channels, rate, data offset, frames).
    """
    size = len(data)
    if size < 12:
        raise DataError("truncated RIFF header")
    if data[0:4] != b"RIFF":
        raise DataError("not a RIFF file")
    if data[8:12] != b"WAVE":
        raise DataError("RIFF file is not WAVE")
    fmt = payload = None
    offset = 12
    while offset + 8 <= size:
        tag, chunk_size = struct.unpack_from("<4sI", data, offset)
        payload_end = offset + 8 + chunk_size
        if payload_end > size:
            raise DataError(f"truncated {tag.decode('ascii', 'replace')!r} chunk")
        if tag == b"fmt " and fmt is None:
            if chunk_size < 16:
                raise DataError("'fmt ' chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, offset + 8)
        elif tag == b"data" and payload is None:
            payload = (offset + 8, chunk_size)
        offset = payload_end + (chunk_size & 1)  # chunks pad to even size
    if fmt is None:
        raise DataError("missing 'fmt ' chunk")
    if payload is None:
        raise DataError("missing 'data' chunk")
    audio_format, channels, rate, _byte_rate, block_align, bits = fmt
    if channels < 1:
        raise DataError("'fmt ' chunk declares zero channels")
    if rate <= 0:
        raise DataError("'fmt ' chunk declares a non-positive sample rate")
    dtype = _SAMPLE_DTYPES.get((audio_format, bits))
    if dtype is None:
        raise DataError(
            f"unsupported audio format tag {audio_format} at bit depth {bits} in 'fmt ' chunk "
            "(PCM 16-bit and IEEE float 32-bit only)"
        )
    bytes_per_frame = channels * bits // 8
    if block_align and block_align != bytes_per_frame:
        raise DataError("'fmt ' chunk block alignment contradicts its sample layout")
    frames = payload[1] // bytes_per_frame
    if frames == 0:
        raise DataError("'data' chunk holds no complete frames")
    return dtype, channels, rate, payload[0], frames


def decode_wav(data: bytes) -> list[Signal]:
    """Decode PCM16 / float32 WAV bytes into one Signal per channel.

    Every frame is converted to float64 once, into one frames x channels
    array, and each channel's samples are a column view of it. Integer
    samples are scaled by 1/32768 so full negative scale maps to -1. Float
    samples must be finite: a NaN or infinity raises DataError.
    """
    dtype, channels, rate, offset, frames = _walk_wav(data)
    raw = np.frombuffer(data, dtype=dtype, count=frames * channels, offset=offset)
    if dtype == "<f4" and not np.isfinite(raw).all():
        raise DataError("'data' chunk holds non-finite float samples")
    decoded = raw.reshape(frames, channels).astype(np.float64)
    if dtype == "<i2":
        decoded /= 32768.0
    return [Signal(decoded[:, ch], float(rate)) for ch in range(channels)]


def read_wav(path: str | Path) -> Signal:
    """Read the WAV file at path as one signal: the mean of its channels.

    The one way a WAV file enters the chain (preprocess, stream, export).
    A missing path raises DataError naming it.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    return average_channels(decode_wav(path.read_bytes()))


def write_wav_pcm16(path: str | Path, samples: np.ndarray, rate_hz: float) -> None:
    """Write a mono PCM16 WAV; samples are clipped to [-1, 1] before quantizing."""
    quantized = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(round(rate_hz))
        handle.writeframes(quantized.tobytes())


# -- manifests ----------------------------------------------------------------


@dataclass(frozen=True)
class ClipRecord:
    path: str
    label: int
    fold: int | None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _label_fold_fault(label, fold, num_classes: int) -> str | None:
    """What is wrong with a clip's label (a class index; a bool is not one)
    or fold (None, or from 1 up), or None when both hold."""
    if not (_is_int(label) and 0 <= label < num_classes):
        return f"label {label!r} is not a class index in 0..{num_classes - 1}"
    if fold is not None and not (_is_int(fold) and fold >= 1):
        return f"fold {fold!r} is neither null nor >= 1"
    return None


def _class_names_fault(names) -> str | None:
    """What is wrong with a dataset's class names (at least one, each a
    str, no two alike), or None when they hold."""
    if not names:
        return "needs at least one class name"
    if not all(isinstance(name, str) for name in names):
        return f"class names {list(names)!r} are not all strings"
    if len(set(names)) != len(names):
        return f"class names {list(names)!r} are not unique"
    return None


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple
    class_names: tuple

    def __post_init__(self):
        fault = _class_names_fault(self.class_names)
        if fault:
            raise ValueError(f"manifest {fault}")
        for rec in self.records:
            fault = _label_fold_fault(rec.label, rec.fold, len(self.class_names))
            if fault:
                raise ValueError(f"record {rec.path}: {fault}")

    def __len__(self) -> int:
        return len(self.records)


def _load_csv_manifest(csv_path, audio_path_for, cols, class_col, id_col, max_id):
    if not csv_path.is_file():
        raise DataError(f"metadata CSV not found: {csv_path}")
    with open(csv_path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in cols if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"{csv_path}: missing required columns {missing}")
        rows = list(reader)
    names_by_id: dict[int, str] = {}
    raw_records = []
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        for col in cols:
            if row[col] is None:  # DictReader's filler for cells a short row lacks
                raise DataError(f"{csv_path} row {lineno}: missing value for {col}")
        try:
            class_id = int(row[id_col])
        except ValueError:
            raise DataError(f"{csv_path} row {lineno}: {id_col} {row[id_col]!r} is not an integer")
        if not 0 <= class_id < max_id:
            raise DataError(
                f"{csv_path} row {lineno}: {id_col} {class_id} out of range 0..{max_id - 1}"
            )
        name = row[class_col]
        if names_by_id.setdefault(class_id, name) != name:
            raise DataError(
                f"{csv_path} row {lineno}: {id_col} {class_id} maps to both "
                f"{names_by_id[class_id]!r} and {name!r}"
            )
        try:
            fold = int(row["fold"])
        except ValueError:
            raise DataError(f"{csv_path} row {lineno}: fold {row['fold']!r} is not an integer")
        clip = audio_path_for(row)
        if not clip.is_file():
            raise DataError(f"{csv_path} row {lineno}: referenced file not found: {clip}")
        raw_records.append((str(clip), class_id, fold))
    ordered_ids = sorted(names_by_id)
    remap = {cid: i for i, cid in enumerate(ordered_ids)}
    class_names = tuple(names_by_id[cid] for cid in ordered_ids)
    records = tuple(ClipRecord(p, remap[cid], fold) for p, cid, fold in sorted(raw_records))
    return DatasetManifest(records, class_names)


def load_manifest(root: str | Path, source: str) -> DatasetManifest:
    """Build a manifest for one of the supported dataset layouts.

    Record order is deterministic (sorted by path); class names are ordered
    by class id for the CSV layouts and alphabetically for folder_per_class.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root not found: {root}")
    if source == "urbansound8k":
        return _load_csv_manifest(
            root / "metadata" / "UrbanSound8K.csv",
            lambda row: root / "audio" / f"fold{int(row['fold'])}" / row["slice_file_name"],
            ["slice_file_name", "fold", "classID", "class"],
            "class",
            "classID",
            URBANSOUND8K_NUM_CLASSES,
        )
    if source == "esc50":
        return _load_csv_manifest(
            root / "meta" / "esc50.csv",
            lambda row: root / "audio" / row["filename"],
            ["filename", "fold", "target", "category"],
            "category",
            "target",
            ESC50_NUM_CLASSES,
        )
    if source == "folder_per_class":
        class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
        records = []
        class_names = []
        for directory in class_dirs:
            clips = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".wav")
            if not clips:
                continue
            label = len(class_names)
            class_names.append(directory.name)
            records.extend(ClipRecord(str(clip), label, None) for clip in clips)
        if not class_names:
            raise DataError(f"no class directories with .wav files under {root}")
        records.sort(key=lambda r: r.path)
        return DatasetManifest(tuple(records), tuple(class_names))
    raise DataError(f"unknown dataset source kind {source!r}")


# -- splits -------------------------------------------------------------------


def split_indices(labels, folds, cfg: RunConfig):
    """Partition store positions into sorted (train, test) index arrays.

    `cfg.test_fold` >= 1 leaves that fold out; `folds` holds -1 for clips
    without fold metadata. Otherwise a `cfg.seed`-seeded shuffle keeps
    `cfg.holdout_fraction` of the clips for training, per class when
    `cfg.stratified`.
    """
    labels, folds = np.asarray(labels), np.asarray(folds)
    if cfg.test_fold >= 1:
        if (folds < 0).any():
            raise DataError("fold split requested but the store carries no fold metadata")
        present = sorted(set(folds.tolist()))
        if cfg.test_fold not in present:
            raise DataError(f"unknown fold {cfg.test_fold}; store has folds {present}")
        mask = folds == cfg.test_fold
        return np.flatnonzero(~mask), np.flatnonzero(mask)
    if not 0 < cfg.holdout_fraction < 1:
        raise ConfigError(f"holdout_fraction must be in (0, 1), got {cfg.holdout_fraction}")
    if cfg.stratified:
        groups = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    else:
        groups = [np.arange(len(labels))]
    rng = np.random.default_rng(cfg.seed)
    train_idx, test_idx = [], []
    for members in groups:
        shuffled = members[rng.permutation(len(members))]
        n_test = round((1.0 - cfg.holdout_fraction) * len(members))
        test_idx.extend(shuffled[:n_test])
        train_idx.extend(shuffled[n_test:])
    return np.sort(np.array(train_idx, dtype=int)), np.sort(np.array(test_idx, dtype=int))


# -- batch preprocessing ------------------------------------------------------


def _array_filename(index: int, clip_path: str) -> str:
    return f"{index:05d}_{Path(clip_path).stem}.f32"


def _preprocess_clip(cfg: RunConfig, clip_path: str, out_file: str | None, work: dict):
    """Read one clip, run the pipeline in work, write its array file (none
    when out_file is None, as a check of a skipped clip runs it).

    Returns the clip's source rate, or the reason it was skipped (a str)."""
    try:
        signal = read_wav(clip_path)
        image = clip_to_image(signal, cfg, work=work)
        if out_file is not None:
            atomic_write_bytes(out_file, image.values.astype("<f4").tobytes())
        return signal.sample_rate_hz
    except (OSError, ValueError) as exc:
        return str(exc)


def _preprocess_clips(cfg: RunConfig, jobs: list) -> list:
    """The clip loop: run (clip path, array file) jobs in order in one work dict."""
    work = {}
    return [_preprocess_clip(cfg, clip_path, out_file, work) for clip_path, out_file in jobs]


def preprocess_dataset(
    manifest: DatasetManifest, cfg: RunConfig, out_dir: str | Path, workers: int = 1
) -> dict:
    """Materialize the per-clip arrays, index, metadata, and skip report.

    Undecodable clips are recorded in `skipped.txt` rather than aborting the
    run. The metadata and index are removed before the first array is
    written and written last, temp-and-rename, so an interrupted run never
    leaves a readable store: neither a partial one nor an old one whose
    arrays it overwrote.
    """
    out_dir = Path(out_dir)
    arrays_dir = out_dir / "arrays"
    arrays_dir.mkdir(parents=True, exist_ok=True)
    for name in ("store.json", "index.csv"):
        (out_dir / name).unlink(missing_ok=True)
    jobs = [(rec.path, str(arrays_dir / _array_filename(i, rec.path)))
            for i, rec in enumerate(manifest.records)]
    workers = min(workers, len(jobs))
    if workers > 1:
        results = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = [jobs[w::workers] for w in range(workers)]
            for w, share in enumerate(pool.map(_preprocess_clips, [cfg] * workers, shares)):
                results[w::workers] = share
    else:
        results = _preprocess_clips(cfg, jobs)

    kept, skipped = [], []
    for rec, (_, out_file), result in zip(manifest.records, jobs, results):
        if isinstance(result, str):
            skipped.append(f"{rec.path}: {result}")
        else:
            kept.append((Path(out_file).name, rec, result))

    meta = {
        "format": 1,
        "class_names": list(manifest.class_names),
        "image_rows": cfg.image_rows,
        "image_cols": cfg.image_cols,
        "config_hash": config_hash(cfg),
        "clips": [
            {
                "file": f"arrays/{name}",
                "label": rec.label,
                "fold": rec.fold,
                "source_rate_hz": rate,
                "working_rate_hz": working_rate_hz(cfg, rate),
            }
            for name, rec, rate in kept
        ],
    }
    atomic_write_text(out_dir / "skipped.txt", "".join(line + "\n" for line in skipped))
    atomic_write_text(out_dir / "store.json", json.dumps(meta, sort_keys=True, indent=1) + "\n")
    index = [[f"arrays/{name}", rec.label, "" if rec.fold is None else rec.fold]
             for name, rec, _ in kept]
    atomic_write_text(out_dir / "index.csv", csv_text([["file", "label", "fold"], *index]))
    return {"written": len(kept), "skipped": len(skipped)}


_STORE_FIELDS = {"class_names": list, "clips": list, "config_hash": str, "image_rows": int,
                 "image_cols": int}
_CLIP_FIELDS = {"file": str, "label": int, "fold": (int, type(None))}


def _read_store_meta(out_dir: Path) -> dict:
    """Parse out_dir's store.json; DataError unless it and each of its clips is
    a JSON object holding every field load_store reads, with a value of its
    type, its image dimensions are ints of at least 2 (as a config's are),
    and its class names and each clip's label and fold pass the manifest's
    rules."""
    store_path = out_dir / "store.json"
    if not store_path.is_file():
        raise DataError(f"no preprocessed store at {out_dir} (missing store.json)")
    try:
        meta = json.loads(store_path.read_text())
    except ValueError as exc:  # undecodable text or not JSON
        raise DataError(f"malformed store.json at {out_dir}: not JSON: {exc}") from None
    _check_fields("the top level", meta, _STORE_FIELDS)
    for key in ("image_rows", "image_cols"):
        if not (_is_int(meta[key]) and meta[key] >= 2):
            raise DataError(f"malformed store.json: {key!r} is {meta[key]!r}, need an int >= 2")
    fault = _class_names_fault(meta["class_names"])
    if fault:
        raise DataError(f"malformed store.json: {fault}")
    for i, clip in enumerate(meta["clips"]):
        _check_fields(f"clip {i}", clip, _CLIP_FIELDS)
        fault = _label_fold_fault(clip["label"], clip["fold"], len(meta["class_names"]))
        if fault:
            raise DataError(f"malformed store.json: clip {i} ({clip['file']}): {fault}")
    return meta


def _check_fields(where: str, entry, fields: dict) -> None:
    if not isinstance(entry, dict):
        raise DataError(f"malformed store.json: {where} is not a JSON object")
    for key, kind in fields.items():
        if key not in entry or not isinstance(entry[key], kind):
            raise DataError(f"malformed store.json: {where} has a missing or mistyped {key!r}")


def is_store_current(manifest: DatasetManifest, cfg: RunConfig, out_dir: str | Path) -> bool:
    """True when the store matches this manifest + config and is complete:
    each stored clip keeps the label and fold of the record its array is
    named after, and each clip left out still fails, reading and running the
    chain again with no array written, with the reason skipped.txt gives."""
    out_dir = Path(out_dir)
    if not (out_dir / "index.csv").is_file():
        return False
    try:
        meta = _read_store_meta(out_dir)
    except ValueError:  # missing, unparsable or malformed: rebuild
        return False
    if meta["config_hash"] != config_hash(cfg):
        return False
    if meta["class_names"] != list(manifest.class_names):
        return False
    expected = {f"arrays/{_array_filename(i, rec.path)}": rec
                for i, rec in enumerate(manifest.records)}
    stored = {clip["file"]: (clip["label"], clip["fold"]) for clip in meta["clips"]}
    if any(name not in expected or (expected[name].label, expected[name].fold) != label_fold
           for name, label_fold in stored.items()):
        return False
    skipped_file = out_dir / "skipped.txt"
    recorded = skipped_file.read_text().splitlines() if skipped_file.is_file() else []
    work = {}  # a repaired clip now gives its source rate, not the reason recorded
    if recorded != [f"{rec.path}: {_preprocess_clip(cfg, rec.path, None, work)}"
                    for name, rec in expected.items() if name not in stored]:
        return False
    return all((out_dir / f).is_file() for f in stored)


@dataclass(frozen=True)
class ArrayStore:
    """Preprocessed images loaded back from disk."""

    images: np.ndarray  # [N, 1, rows, cols] float32
    labels: np.ndarray  # [N] int64
    folds: np.ndarray  # [N] int64, -1 where absent
    class_names: tuple
    config_hash: str

    def __len__(self) -> int:
        return len(self.labels)


def load_store(out_dir: str | Path) -> ArrayStore:
    """Read a store back into one [N, 1, rows, cols] float32 array, each
    clip's little-endian file straight into its row, with no further copy.
    Every file's size is checked against the dimensions store.json gives
    before the array is allocated. An image that holds an inf or NaN raises
    DataError."""
    out_dir = Path(out_dir)
    meta = _read_store_meta(out_dir)
    rows, cols = meta["image_rows"], meta["image_cols"]
    clips = meta["clips"]
    for clip in clips:
        size = (out_dir / clip["file"]).stat().st_size
        if size != rows * cols * 4:
            raise DataError(f"{clip['file']}: expected {rows * cols} float32 values "
                            f"({rows * cols * 4} bytes), found {size} bytes")
    images = np.empty((len(clips), 1, rows, cols), dtype=np.float32)
    for row, clip in zip(images, clips):
        with open(out_dir / clip["file"], "rb") as handle:
            if handle.readinto(row.data.cast("B")) != row.nbytes:
                raise DataError(f"{clip['file']}: shrank below {row.nbytes} bytes while read")
        if not np.little_endian:  # the files are little-endian
            row.byteswap(inplace=True)
        if not np.isfinite(row).all():
            raise DataError(f"{clip['file']}: image holds an inf or NaN")
    return ArrayStore(
        images,
        np.array([clip["label"] for clip in clips], dtype=np.int64),
        np.array([-1 if clip["fold"] is None else clip["fold"] for clip in clips], dtype=np.int64),
        tuple(meta["class_names"]),
        meta["config_hash"],
    )
