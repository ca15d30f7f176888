import csv
import json
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import peak_rss_growth, traced_memory

from wvdnet import datasets
from wvdnet.config import RunConfig, build_config
from wvdnet.datasets import (
    ClipRecord,
    DatasetManifest,
    decode_wav,
    is_store_current,
    load_manifest,
    load_store,
    preprocess_dataset,
    read_wav,
    split_indices,
    write_wav_pcm16,
)
from wvdnet.errors import ConfigError, DataError


def riff(chunks, form=b"WAVE"):
    """RIFF bytes holding the (tag, data) chunks in order, each padded to even size."""
    body = b""
    for tag, data in chunks:
        body += tag + struct.pack("<I", len(data)) + data
        if len(data) % 2:
            body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + form + body


def fmt_chunk(fmt_tag=1, channels=1, rate=8000, bits=16, block_align=None):
    if block_align is None:
        block_align = channels * bits // 8
    return struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block_align, block_align, bits)


def wav_bytes(payload, fmt_tag=1, channels=1, rate=8000, bits=16, chunks_before_data=()):
    return riff([(b"fmt ", fmt_chunk(fmt_tag, channels, rate, bits))]
                + list(chunks_before_data) + [(b"data", payload)])


def pcm16(*values):
    return struct.pack(f"<{len(values)}h", *values)


SMALL_CFG = dict(
    target_rate_hz=4000.0, clip_seconds=0.5, image_rows=24, image_cols=24,
    n_freq_bins=64, synth_rate_hz=4000.0,
)


class TestDecodeWav:
    def test_minimal_mono_pcm16_scaling(self):
        signals = decode_wav(wav_bytes(pcm16(0, 16384, -32768)))
        assert len(signals) == 1
        np.testing.assert_allclose(signals[0].samples, [0.0, 0.5, -1.0])
        assert signals[0].sample_rate_hz == 8000.0

    def test_stereo_channels_split(self):
        signals = decode_wav(wav_bytes(pcm16(100, -100, 200, -200), channels=2))
        assert len(signals) == 2
        assert len(signals[0]) == len(signals[1]) == 2
        np.testing.assert_allclose(signals[0].samples * 32768, [100, 200])
        np.testing.assert_allclose(signals[1].samples * 32768, [-100, -200])

    def test_extra_list_chunk_is_ignored(self):
        plain = decode_wav(wav_bytes(pcm16(1, 2, 3)))
        tagged = decode_wav(
            wav_bytes(pcm16(1, 2, 3), chunks_before_data=[(b"LIST", b"INFOsoft")])
        )
        np.testing.assert_array_equal(plain[0].samples, tagged[0].samples)

    def test_odd_sized_chunk_padding(self):
        signals = decode_wav(
            wav_bytes(pcm16(7), chunks_before_data=[(b"note", b"abc")])  # 3-byte chunk pads
        )
        np.testing.assert_allclose(signals[0].samples * 32768, [7])

    def test_float32_payload(self):
        payload = struct.pack("<3f", 0.0, 0.25, -1.0)
        signals = decode_wav(wav_bytes(payload, fmt_tag=3, bits=32))
        np.testing.assert_allclose(signals[0].samples, [0.0, 0.25, -1.0])

    @pytest.mark.parametrize(
        "raw",
        [
            np.array([0, 1, -1, 16384, -32768, 32767], dtype="<i2"),
            np.array([0.5, -0.0, 0.0, -1.0, 1e-40, -3.25], dtype="<f4"),
        ],
        ids=["pcm16", "float32"],
    )
    def test_mono_decodes_bit_for_bit(self, raw):
        """One channel comes back as the decoded column itself: the same bits
        as the per-channel copy of a multi-channel decode, -0.0 included."""
        fmt_tag, bits = (1, 16) if raw.dtype == np.int16 else (3, 32)
        (signal,) = decode_wav(wav_bytes(raw.tobytes(), fmt_tag=fmt_tag, bits=bits))
        expected = raw.astype(np.float64)
        if fmt_tag == 1:
            expected /= 32768.0
        assert signal.samples.shape == raw.shape and signal.samples.flags.c_contiguous
        assert signal.samples.tobytes() == expected.tobytes()
        stereo = np.repeat(raw, 2)
        left, _ = decode_wav(wav_bytes(stereo.tobytes(), fmt_tag=fmt_tag, channels=2, bits=bits))
        assert left.samples.tobytes() == signal.samples.tobytes()

    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("dtype", ["<i2", "<f4"])
    def test_channels_are_the_per_channel_copies(self, channels, dtype):
        """Each channel, a column view of the one decoded array, holds the
        same bits as a contiguous copy of that channel's samples."""
        rng = np.random.default_rng(channels)
        if dtype == "<i2":
            raw = rng.integers(-32768, 32768, 5 * channels).astype(dtype)
            fmt_tag, bits = 1, 16
        else:
            raw = np.concatenate([[-0.0, 1e-40, -1.0], rng.standard_normal(5 * channels - 3)])
            raw = raw.astype(dtype)
            fmt_tag, bits = 3, 32
        decoded = decode_wav(wav_bytes(raw.tobytes(), fmt_tag=fmt_tag, channels=channels,
                                       bits=bits))
        frames = raw.reshape(5, channels).astype(np.float64)
        if fmt_tag == 1:
            frames /= 32768.0
        assert len(decoded) == channels
        for ch, signal in enumerate(decoded):
            assert signal.samples.tobytes() == frames[:, ch].copy().tobytes()
            assert signal.sample_rate_hz == 8000.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_sample_rejected(self, bad):
        payload = struct.pack("<4f", 0.0, 0.25, bad, -1.0)  # stereo: frame 1, channel 0
        with pytest.raises(DataError, match="non-finite"):
            decode_wav(wav_bytes(payload, fmt_tag=3, channels=2, bits=32))

    def test_truncated_data_chunk_named(self):
        blob = wav_bytes(pcm16(1, 2, 3))
        truncated = blob[:-2]
        with pytest.raises(DataError, match="truncated 'data' chunk"):
            decode_wav(truncated)

    def test_unsupported_codec_named(self):
        with pytest.raises(DataError, match="audio format tag 2.*'fmt '"):
            decode_wav(wav_bytes(pcm16(1), fmt_tag=2))

    def test_unsupported_pcm_depth_rejected(self):
        with pytest.raises(DataError, match="bit depth 8"):
            decode_wav(wav_bytes(b"\x00\x01", bits=8))

    def test_missing_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE"
        blob += b"fmt " + struct.pack("<I", len(fmt)) + fmt
        with pytest.raises(DataError, match="missing 'data'"):
            decode_wav(blob)

    def test_not_riff_rejected(self):
        with pytest.raises(DataError, match="RIFF"):
            decode_wav(b"OggS" + b"\x00" * 40)

    def test_round_trip_through_writer(self, tmp_path):
        samples = np.linspace(-0.9, 0.9, 50)
        path = tmp_path / "clip.wav"
        write_wav_pcm16(path, samples, 4000.0)
        back = decode_wav(path.read_bytes())
        assert len(back) == 1
        # write scales by 32767, read by 1/32768: error <= (0.5 + |x|) / 32768
        np.testing.assert_allclose(back[0].samples, samples, atol=1.6 / 32768)


# Headers that decode_wav rejects, each with the message that names why.
REJECTED_HEADERS = {
    "pcm24": (wav_bytes(b"\x00" * 6, bits=24), "bit depth 24"),
    "format-tag-2": (wav_bytes(pcm16(1, 2), fmt_tag=2), "audio format tag 2.*'fmt '"),
    "data-overruns-file": (wav_bytes(pcm16(1, 2, 3))[:-2], "truncated 'data' chunk"),
    "truncated-riff-header": (b"RIFF\x04\x00\x00\x00WA", "truncated RIFF header"),
    "riff-not-wave": (riff([(b"data", pcm16(1))], form=b"AVI "), "RIFF file is not WAVE"),
    "short-fmt": (riff([(b"fmt ", fmt_chunk()[:14]), (b"data", pcm16(1))]),
                  "'fmt ' chunk too short"),
    "missing-fmt": (riff([(b"data", pcm16(1))]), "missing 'fmt ' chunk"),
    "zero-channels": (wav_bytes(pcm16(1), channels=0), "declares zero channels"),
    "zero-rate": (wav_bytes(pcm16(1), rate=0), "non-positive sample rate"),
    "block-align-contradicts": (riff([(b"fmt ", fmt_chunk(block_align=4)),
                                      (b"data", pcm16(1, 2))]),
                                "block alignment contradicts its sample layout"),
    "no-whole-frame": (wav_bytes(b"\x01"), "'data' chunk holds no complete frames"),
}


@pytest.mark.parametrize("name", sorted(REJECTED_HEADERS))
def test_decode_rejects_header(name):
    blob, message = REJECTED_HEADERS[name]
    with pytest.raises(DataError, match=message):
        decode_wav(blob)


class TestReadWav:
    def test_missing_file_named(self, tmp_path):
        with pytest.raises(DataError, match="input file not found: .*absent.wav"):
            read_wav(tmp_path / "absent.wav")

    # One decoded array plus the running sum is 3.00x the mono float64 size
    # for stereo (2.00x for mono: the file's bytes and the decode); a copy
    # per channel, their stack and the mean held at once came to 5.00x.
    @pytest.mark.parametrize("channels, bound", [(1, 2.25), (2, 3.25)], ids=["mono", "stereo"])
    @pytest.mark.parametrize("dtype", ["<i2", "<f4"])
    def test_peak_is_bounded_by_the_mono_float64_size(self, tmp_path, channels, bound, dtype):
        frames = 200_000
        raw = np.random.default_rng(0).integers(-32768, 32768, frames * channels)
        if dtype == "<i2":
            data = wav_bytes(raw.astype(dtype).tobytes(), channels=channels)
        else:
            data = wav_bytes((raw / 32768.0).astype(dtype).tobytes(), fmt_tag=3,
                             channels=channels, bits=32)
        path = tmp_path / "clip.wav"
        path.write_bytes(data)
        del data
        _, peak = traced_memory(lambda: read_wav(path))
        assert peak <= bound * 8 * frames, f"peak {peak / (8 * frames):.2f}x the mono size"


def make_folder_dataset(root, spec, rate=4000.0, seconds=0.5, seed=0):
    """spec: {class_dir: clip_count}; writes deterministic tone clips."""
    rng = np.random.default_rng(seed)
    n = round(seconds * rate)
    t = np.arange(n) / rate
    for class_dir, count in spec.items():
        directory = root / class_dir
        directory.mkdir(parents=True)
        for i in range(count):
            freq = rng.uniform(300, 700)
            write_wav_pcm16(directory / f"clip_{i:03d}.wav", 0.5 * np.sin(2 * np.pi * freq * t), rate)


# (field, value, the error's text) for a clip whose label or fold is out of
# range; a bool is not an int here
BAD_LABELS_AND_FOLDS = [
    ("label", 7, "label 7 is not a class index in 0..1"),
    ("label", -1, "label -1 is not a class index in 0..1"),
    ("label", True, "label True is not a class index in 0..1"),
    ("fold", -1, "fold -1 is neither null nor >= 1"),
    ("fold", 0, "fold 0 is neither null nor >= 1"),
    ("fold", True, "fold True is neither null nor >= 1"),
]

BAD_CLASS_NAMES = [
    pytest.param([], "needs at least one class name", id="empty"),
    pytest.param([1, 2], "class names [1, 2] are not all strings", id="ints"),
    pytest.param(["a", "a"], "class names ['a', 'a'] are not unique", id="repeated"),
]


class TestManifestRecords:
    @pytest.mark.parametrize("field, value, fault", BAD_LABELS_AND_FOLDS)
    def test_bad_label_or_fold_rejected(self, field, value, fault):
        record = ClipRecord(**{"path": "x.wav", "label": 1, "fold": 2, field: value})
        with pytest.raises(ValueError, match=re.escape(f"record x.wav: {fault}")):
            DatasetManifest((record,), ("a", "b"))

    def test_null_fold_accepted(self):
        assert len(DatasetManifest((ClipRecord("x.wav", 1, None),), ("a", "b"))) == 1

    @pytest.mark.parametrize("names, fault", BAD_CLASS_NAMES)
    def test_bad_class_names_rejected(self, names, fault):
        with pytest.raises(ValueError, match=re.escape(f"manifest {fault}")):
            DatasetManifest((), tuple(names))


class TestFolderManifest:
    def test_folder_per_class(self, tmp_path):
        make_folder_dataset(tmp_path, {"dragon_wagon": 2, "aav": 1})
        manifest = load_manifest(tmp_path, "folder_per_class")
        assert len(manifest) == 3
        assert manifest.class_names == ("aav", "dragon_wagon")
        assert [r.label for r in manifest.records] == [0, 1, 1]
        assert all(r.fold is None for r in manifest.records)

    def test_records_sorted_by_path(self, tmp_path):
        make_folder_dataset(tmp_path, {"b": 2, "a": 2})
        manifest = load_manifest(tmp_path, "folder_per_class")
        paths = [r.path for r in manifest.records]
        assert paths == sorted(paths)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="root"):
            load_manifest(tmp_path / "nope", "folder_per_class")

    def test_no_classes_rejected(self, tmp_path):
        with pytest.raises(DataError, match="class directories"):
            load_manifest(tmp_path, "folder_per_class")

    def test_unreadable_clip_has_unknown_duration(self, tmp_path):
        make_folder_dataset(tmp_path, {"ok": 1})
        (tmp_path / "ok" / "junk.wav").write_bytes(b"this is not audio at all")
        names = [Path(r.path).name for r in load_manifest(tmp_path, "folder_per_class").records]
        assert names == ["clip_000.wav", "junk.wav"]

    def test_suffix_case_is_ignored(self, tmp_path):
        make_folder_dataset(tmp_path, {"ok": 1})
        clip = tmp_path / "ok" / "clip_000.wav"
        for name in ("A.WAV", "b.Wav"):
            (tmp_path / "ok" / name).write_bytes(clip.read_bytes())
        (tmp_path / "ok" / "notes.txt").write_text("not a clip")
        names = [Path(r.path).name for r in load_manifest(tmp_path, "folder_per_class").records]
        assert names == ["A.WAV", "b.Wav", "clip_000.wav"]


@pytest.mark.parametrize("source", ["folder_per_class", "esc50"])
def test_manifest_opens_no_clip(tmp_path, monkeypatch, source):
    """Clips are read once, by preprocessing; listing them opens none."""
    if source == "esc50":
        make_esc50_layout(tmp_path)
    else:
        make_folder_dataset(tmp_path, {"a": 2, "b": 1})
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(datasets, "open", recording_open, raising=False)
    assert len(load_manifest(tmp_path, source)) > 0
    assert not [path for path in opened if path.endswith(".wav")]


def make_urbansound_layout(root, rows):
    (root / "metadata").mkdir(parents=True)
    header = "slice_file_name,fsID,start,end,salience,fold,classID,class\n"
    lines = [header]
    for name, fold, class_id, class_name, write_file in rows:
        lines.append(f"{name},1000,0,0.5,1,{fold},{class_id},{class_name}\n")
        if write_file:
            folder = root / "audio" / f"fold{fold}"
            folder.mkdir(parents=True, exist_ok=True)
            write_wav_pcm16(folder / name, np.zeros(100), 8000.0)
    (root / "metadata" / "UrbanSound8K.csv").write_text("".join(lines))


class TestUrbanSoundManifest:
    def test_loads_and_orders_by_class_id(self, tmp_path):
        make_urbansound_layout(
            tmp_path,
            [
                ("b.wav", 1, 3, "dog_bark", True),
                ("a.wav", 2, 0, "air_conditioner", True),
            ],
        )
        manifest = load_manifest(tmp_path, "urbansound8k")
        assert manifest.class_names == ("air_conditioner", "dog_bark")
        assert {r.fold for r in manifest.records} == {1, 2}

    def test_class_id_out_of_range_rejected(self, tmp_path):
        make_urbansound_layout(tmp_path, [("a.wav", 1, 10, "mystery", True)])
        with pytest.raises(DataError, match="row 2.*out of range 0..9"):
            load_manifest(tmp_path, "urbansound8k")

    def test_missing_file_reported_with_row_number(self, tmp_path):
        make_urbansound_layout(
            tmp_path,
            [("a.wav", 1, 0, "air_conditioner", True), ("gone.wav", 1, 1, "car_horn", False)],
        )
        with pytest.raises(DataError, match="row 3.*not found"):
            load_manifest(tmp_path, "urbansound8k")

    def test_missing_columns_rejected(self, tmp_path):
        (tmp_path / "metadata").mkdir(parents=True)
        (tmp_path / "metadata" / "UrbanSound8K.csv").write_text("slice_file_name,fold\n")
        with pytest.raises(DataError, match="missing required columns"):
            load_manifest(tmp_path, "urbansound8k")

    def test_short_row_rejected(self, tmp_path):
        make_urbansound_layout(tmp_path, [("a.wav", 1, 0, "air_conditioner", True)])
        with open(tmp_path / "metadata" / "UrbanSound8K.csv", "a") as handle:
            handle.write("b.wav,1\n")
        with pytest.raises(DataError, match="row 3: missing value for fold"):
            load_manifest(tmp_path, "urbansound8k")


def make_esc50_layout(root, n_classes=5, clips_per_class=2):
    (root / "meta").mkdir(parents=True)
    (root / "audio").mkdir(parents=True)
    lines = ["filename,fold,target,category\n"]
    fold = 1
    for target in range(n_classes):
        for i in range(clips_per_class):
            name = f"{fold}-{target}-{i}.wav"
            lines.append(f"{name},{fold},{target},class_{target}\n")
            write_wav_pcm16(root / "audio" / name, np.zeros(100), 8000.0)
            fold = fold % 5 + 1
    (root / "meta" / "esc50.csv").write_text("".join(lines))


class TestEsc50Manifest:
    def test_five_distinct_folds(self, tmp_path):
        make_esc50_layout(tmp_path, n_classes=5, clips_per_class=5)
        manifest = load_manifest(tmp_path, "esc50")
        assert {r.fold for r in manifest.records} == {1, 2, 3, 4, 5}
        assert len(manifest.class_names) == 5

    def test_target_out_of_range_rejected(self, tmp_path):
        (tmp_path / "meta").mkdir(parents=True)
        (tmp_path / "audio").mkdir(parents=True)
        write_wav_pcm16(tmp_path / "audio" / "x.wav", np.zeros(10), 8000.0)
        (tmp_path / "meta" / "esc50.csv").write_text(
            "filename,fold,target,category\nx.wav,1,50,beyond\n"
        )
        with pytest.raises(DataError, match="out of range 0..49"):
            load_manifest(tmp_path, "esc50")

    def test_short_row_rejected(self, tmp_path):
        make_esc50_layout(tmp_path, n_classes=1, clips_per_class=1)
        with open(tmp_path / "meta" / "esc50.csv", "a") as handle:
            handle.write("x.wav,1\n")
        with pytest.raises(DataError, match="row 3: missing value for target"):
            load_manifest(tmp_path, "esc50")


# (UrbanSound8K rows, or None for no metadata CSV; source; the error's text)
REJECTED_MANIFESTS = {
    "missing-csv": (None, "urbansound8k", "metadata CSV not found: .*UrbanSound8K.csv"),
    "class-id-not-int": ([("a.wav", 1, "x", "dog", True)], "urbansound8k",
                         "row 2: classID 'x' is not an integer"),
    "id-with-two-names": ([("a.wav", 1, 3, "dog", True), ("b.wav", 1, 3, "cat", True)],
                          "urbansound8k", "row 3: classID 3 maps to both 'dog' and 'cat'"),
    "fold-not-int": ([("a.wav", "x", 3, "dog", False)], "urbansound8k",
                     "row 2: fold 'x' is not an integer"),
    "unknown-source": ([("a.wav", 1, 3, "dog", True)], "freesound",
                       "unknown dataset source kind 'freesound'"),
}


@pytest.mark.parametrize("name", sorted(REJECTED_MANIFESTS))
def test_load_manifest_rejects(tmp_path, name):
    rows, source, message = REJECTED_MANIFESTS[name]
    if rows is not None:
        make_urbansound_layout(tmp_path, rows)
    with pytest.raises(DataError, match=message):
        load_manifest(tmp_path, source)


def toy_labels(per_class=10, classes=3, with_folds=False):
    """Class-major labels; folds cycle 1..5 within each class, or -1 when absent."""
    labels = np.repeat(np.arange(classes), per_class)
    if not with_folds:
        return labels, np.full(len(labels), -1)
    return labels, np.tile(np.arange(per_class) % 5 + 1, classes)


def split(labels, folds, **settings):
    return split_indices(labels, folds, replace(RunConfig(), **settings))


class TestSplits:
    def test_stratified_counts(self):
        labels, folds = toy_labels(10, 3)
        train, test = split(labels, folds, seed=1)
        assert len(train) == 24 and len(test) == 6
        for c in range(3):
            assert (labels[test] == c).sum() == 2

    def test_same_seed_same_split(self):
        a = split(*toy_labels(), seed=5)
        b = split(*toy_labels(), seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seed_changes_split(self):
        a = split(*toy_labels(), seed=5)[1]
        b = split(*toy_labels(), seed=6)[1]
        assert a.tolist() != b.tolist()

    def test_pinned_indices(self):
        # a recorded split must keep selecting the same clips
        labels, folds = toy_labels(4, 3)
        train, test = split(labels, folds, holdout_fraction=0.5, seed=11)
        assert (train.tolist(), test.tolist()) == ([0, 2, 4, 6, 8, 11], [1, 3, 5, 7, 9, 10])
        train, test = split(labels, folds, holdout_fraction=0.5, seed=11, stratified=False)
        assert (train.tolist(), test.tolist()) == ([0, 3, 4, 5, 7, 11], [1, 2, 6, 8, 9, 10])

    def test_partition_property(self):
        labels, folds = toy_labels(7, 4)
        train, test = split(labels, folds, seed=2)
        assert set(train).isdisjoint(test)
        assert sorted(np.concatenate([train, test])) == list(range(len(labels)))

    def test_unstratified_variant(self):
        train, test = split(*toy_labels(10, 2), seed=3, stratified=False)
        assert len(train) == 16 and len(test) == 4

    def test_bad_fraction_rejected(self):
        for fraction in (0.0, 1.0):
            for stratified in (True, False):
                with pytest.raises(ConfigError, match="holdout_fraction"):
                    split(*toy_labels(), holdout_fraction=fraction, stratified=stratified)

    def test_fold_split_partition(self):
        labels, folds = toy_labels(10, 2, with_folds=True)
        train, test = split(labels, folds, test_fold=3)
        assert (folds[test] == 3).all() and len(test) == 4
        assert (folds[train] != 3).all()
        assert len(train) + len(test) == len(labels)

    def test_unknown_fold_rejected(self):
        with pytest.raises(DataError, match="unknown fold"):
            split(*toy_labels(with_folds=True), test_fold=9)

    def test_missing_fold_metadata_rejected(self):
        with pytest.raises(DataError, match="no fold metadata"):
            split(*toy_labels(with_folds=False), test_fold=1)


class TestPreprocess:
    def test_empty_manifest_gives_empty_store(self, tmp_path):
        manifest = DatasetManifest((), ("only",))
        cfg = build_config({}, SMALL_CFG)
        summary = preprocess_dataset(manifest, cfg, tmp_path / "store")
        assert summary == {"written": 0, "skipped": 0}
        assert (tmp_path / "store" / "index.csv").read_text() == "file,label,fold\n"
        store = load_store(tmp_path / "store")
        assert len(store) == 0

    def test_single_tone_clip(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"tone": 1}, rate=4000.0, seconds=0.5)
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        preprocess_dataset(manifest, cfg, tmp_path / "store")
        store = load_store(tmp_path / "store")
        assert store.images.shape == (1, 1, 24, 24)
        assert store.images.min() >= 0.0 and store.images.max() <= 1.0
        assert store.labels.tolist() == [0]

    def test_low_rate_source_skips_decimation(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"engine": 1}, rate=4960.0, seconds=0.5)
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        preprocess_dataset(manifest, cfg, tmp_path / "store")
        import json

        meta = json.loads((tmp_path / "store" / "store.json").read_text())
        clip = meta["clips"][0]
        assert clip["source_rate_hz"] == 4960.0
        assert clip["working_rate_hz"] == 4960.0

    def test_rerun_is_byte_identical(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 2, "b": 1})
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        preprocess_dataset(manifest, cfg, tmp_path / "s1")
        preprocess_dataset(manifest, cfg, tmp_path / "s2")
        for rel in ["index.csv", "store.json", "skipped.txt"]:
            assert (tmp_path / "s1" / rel).read_bytes() == (tmp_path / "s2" / rel).read_bytes()
        for f in sorted((tmp_path / "s1" / "arrays").iterdir()):
            assert f.read_bytes() == (tmp_path / "s2" / "arrays" / f.name).read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_workers_match_serial(self, tmp_path, workers):
        """Every file of the store, skip report included, is the serial
        one's, with an undecodable clip in the middle of the manifest."""
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 3, "b": 3})
        (root / "a" / "clip_001_junk.wav").write_bytes(b"this is not audio at all")
        manifest = load_manifest(root, "folder_per_class")
        assert Path(manifest.records[2].path).name == "clip_001_junk.wav"
        cfg = build_config({}, SMALL_CFG)
        serial = preprocess_dataset(manifest, cfg, tmp_path / "serial", workers=1)
        parallel = preprocess_dataset(manifest, cfg, tmp_path / "parallel", workers=workers)
        assert serial == parallel == {"written": 6, "skipped": 1}

        def files(store):
            return {p.relative_to(store): p.read_bytes() for p in store.rglob("*") if p.is_file()}

        expected = files(tmp_path / "serial")
        assert len(expected) == 3 + 6  # index.csv, store.json, skipped.txt, arrays
        assert files(tmp_path / "parallel") == expected

    def test_undecodable_clip_lands_in_skip_report(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"ok": 1})
        bad_dir = root / "bad"
        bad_dir.mkdir()
        (bad_dir / "junk.wav").write_bytes(b"this is not audio at all")
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        summary = preprocess_dataset(manifest, cfg, tmp_path / "store")
        assert summary == {"written": 1, "skipped": 1}
        report = (tmp_path / "store" / "skipped.txt").read_text()
        assert "junk.wav" in report and "RIFF" in report
        store = load_store(tmp_path / "store")
        assert len(store) == 1

    def test_vanished_clip_lands_in_skip_report(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"ok": 2})
        manifest = load_manifest(root, "folder_per_class")
        gone = Path(manifest.records[0].path)
        gone.unlink()  # after the manifest saw it, before preprocessing reads it
        summary = preprocess_dataset(manifest, build_config({}, SMALL_CFG), tmp_path / "store")
        assert summary == {"written": 1, "skipped": 1}
        report = (tmp_path / "store" / "skipped.txt").read_text()
        assert report == f"{gone}: input file not found: {gone}\n"

    def test_non_finite_float_clip_lands_in_skip_report(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"ok": 1})
        samples = np.zeros(2000, dtype="<f4")
        samples[700] = np.nan
        (root / "ok" / "nan.wav").write_bytes(
            wav_bytes(samples.tobytes(), fmt_tag=3, rate=4000, bits=32))
        manifest = load_manifest(root, "folder_per_class")
        summary = preprocess_dataset(manifest, build_config({}, SMALL_CFG), tmp_path / "store")
        assert summary == {"written": 1, "skipped": 1}
        report = (tmp_path / "store" / "skipped.txt").read_text()
        assert "nan.wav" in report and "non-finite" in report
        assert np.isfinite(load_store(tmp_path / "store").images).all()

    def test_is_store_current(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 2})
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        out = tmp_path / "store"
        assert not is_store_current(manifest, cfg, out)
        preprocess_dataset(manifest, cfg, out)
        assert is_store_current(manifest, cfg, out)
        other_cfg = build_config({}, dict(SMALL_CFG, image_rows=32))
        assert not is_store_current(manifest, other_cfg, out)
        index_file = sorted((out / "arrays").iterdir())[0]
        index_file.unlink()
        assert not is_store_current(manifest, cfg, out)

    def test_skipped_clip_that_now_reads_or_fails_otherwise_is_not_current(self, tmp_path):
        # the store once counted skipped.txt's lines without reading them, so a
        # repaired clip stayed out of it and preprocess printed "up to date"
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 1})
        junk = root / "a" / "clip_001.wav"
        junk.write_bytes(b"this is not audio at all")
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        out = tmp_path / "store"
        assert preprocess_dataset(manifest, cfg, out) == {"written": 1, "skipped": 1}
        assert is_store_current(manifest, cfg, out)
        junk.write_bytes(b"RIFF")  # still undecodable, for another reason
        assert not is_store_current(manifest, cfg, out)
        junk.write_bytes((root / "a" / "clip_000.wav").read_bytes())
        assert not is_store_current(manifest, cfg, out)
        assert len(list((out / "arrays").iterdir())) == 1  # the check writes no array
        assert preprocess_dataset(manifest, cfg, out) == {"written": 2, "skipped": 0}
        assert is_store_current(manifest, cfg, out)

    def test_index_csv_reads_back_with_a_comma_in_a_clip_name(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 1})
        (root / "a" / "clip_000.wav").rename(root / "a" / 'street, "night".wav')
        manifest = load_manifest(root, "folder_per_class")
        out = tmp_path / "store"
        preprocess_dataset(manifest, build_config({}, SMALL_CFG), out)
        with open(out / "index.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["file", "label", "fold"], ['arrays/00000_street, "night".f32', "0", ""]]
        assert (out / rows[1][0]).is_file()

    def test_interrupted_rerun_leaves_no_current_store(self, tmp_path, monkeypatch):
        # a rerun under another config overwrites the arrays in place; stopped
        # after 2 of 6 clips, the first run's store.json must not vouch for them
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 3, "b": 3})
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        out = tmp_path / "store"
        preprocess_dataset(manifest, cfg, out)
        assert is_store_current(manifest, cfg, out)

        class Interrupted(Exception):
            pass

        calls = []
        run = datasets.clip_to_image

        def interrupt_third_clip(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise Interrupted
            return run(*args, **kwargs)

        monkeypatch.setattr(datasets, "clip_to_image", interrupt_third_clip)
        with pytest.raises(Interrupted):
            preprocess_dataset(manifest, build_config({}, dict(SMALL_CFG, log_compress=True)),
                               out)
        assert not is_store_current(manifest, cfg, out)
        with pytest.raises(DataError, match="missing store.json"):
            load_store(out)

    @pytest.mark.parametrize("field, value, fault", BAD_LABELS_AND_FOLDS)
    def test_bad_label_or_fold_is_not_current(self, tmp_path, field, value, fault):
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 1, "b": 1})
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        out = tmp_path / "store"
        preprocess_dataset(manifest, cfg, out)
        assert is_store_current(manifest, cfg, out)
        meta = json.loads((out / "store.json").read_text())
        meta["clips"][0][field] = value
        (out / "store.json").write_text(json.dumps(meta))
        assert not is_store_current(manifest, cfg, out)

    # An ESC-50 tree of 2 classes x 2 clips, in folds 1-4; each edit keeps
    # the clips' file names, so the array names stay the same.
    CSV_EDITS = {
        "refold": [("1-0-0.wav,1,", "1-0-0.wav,2,"), ("2-0-1.wav,2,", "2-0-1.wav,1,")],
        "relabel": [("2-0-1.wav,2,0,class_0", "2-0-1.wav,2,1,class_1")],
        "renamed class": [(",class_0\n", ",class_zero\n")],
    }

    @pytest.mark.parametrize("edit", sorted(CSV_EDITS))
    def test_edited_metadata_csv_is_not_current(self, tmp_path, edit):
        root = tmp_path / "esc"
        make_esc50_layout(root, n_classes=2, clips_per_class=2)
        cfg = build_config({}, dict(SMALL_CFG, source="esc50"))
        out = tmp_path / "store"
        preprocess_dataset(load_manifest(root, "esc50"), cfg, out)
        assert is_store_current(load_manifest(root, "esc50"), cfg, out)
        csv_path = root / "meta" / "esc50.csv"
        text = csv_path.read_text()
        for old, new in self.CSV_EDITS[edit]:
            assert old in text
            text = text.replace(old, new)
        csv_path.write_text(text)
        edited = load_manifest(root, "esc50")
        assert len(edited) == 4
        assert not is_store_current(edited, cfg, out)
        preprocess_dataset(edited, cfg, out)
        assert is_store_current(edited, cfg, out)

    def test_stored_file_the_manifest_does_not_name_is_not_current(self, tmp_path):
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 2})
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        out = tmp_path / "store"
        preprocess_dataset(manifest, cfg, out)
        meta = json.loads((out / "store.json").read_text())
        (out / meta["clips"][0]["file"]).rename(out / "arrays" / "99999_stray.f32")
        meta["clips"][0]["file"] = "arrays/99999_stray.f32"
        (out / "store.json").write_text(json.dumps(meta))
        assert not is_store_current(manifest, cfg, out)

    @pytest.mark.parametrize("breakage", ["list", "clip not an object"])
    def test_malformed_store_json_is_not_current(self, tmp_path, breakage):
        root = tmp_path / "data"
        make_folder_dataset(root, {"a": 2})
        manifest = load_manifest(root, "folder_per_class")
        cfg = build_config({}, SMALL_CFG)
        out = tmp_path / "store"
        preprocess_dataset(manifest, cfg, out)
        meta = json.loads((out / "store.json").read_text())
        if breakage == "list":
            meta = [meta]
        else:
            meta["clips"][0] = []
        (out / "store.json").write_text(json.dumps(meta))
        assert not is_store_current(manifest, cfg, out)


def write_store(root, images, folds=None):
    """A store holding `images` [N, 1, rows, cols], written the way
    preprocess_dataset lays it out."""
    (root / "arrays").mkdir(parents=True)
    clips = []
    for i, image in enumerate(images):
        name = f"arrays/{i:05d}_clip.f32"
        (root / name).write_bytes(image.astype("<f4").tobytes())
        clips.append({"file": name, "label": i % 2, "fold": None if folds is None else folds[i]})
    meta = {"class_names": ["a", "b"], "image_rows": images.shape[2],
            "image_cols": images.shape[3], "config_hash": "0" * 64, "clips": clips}
    (root / "store.json").write_text(json.dumps(meta))


class TestLoadStore:
    def test_round_trip_is_bitwise(self, tmp_path):
        images = np.random.default_rng(0).standard_normal((5, 1, 7, 9)).astype(np.float32)
        write_store(tmp_path, images, folds=[1, 2, 1, 3, 2])
        store = load_store(tmp_path)
        assert store.images.dtype == np.float32 and store.images.shape == (5, 1, 7, 9)
        assert store.images.tobytes() == images.tobytes()
        assert store.labels.tolist() == [0, 1, 0, 1, 0]
        assert store.folds.tolist() == [1, 2, 1, 3, 2]
        assert store.class_names == ("a", "b")

    @pytest.mark.parametrize("size_change", [-4, -1, 2, 4])
    def test_wrong_size_file_rejected(self, tmp_path, size_change):
        write_store(tmp_path, np.zeros((3, 1, 4, 4), dtype=np.float32))
        path = tmp_path / "arrays" / "00001_clip.f32"
        data = path.read_bytes()
        path.write_bytes(data[:size_change] if size_change < 0 else data + b"\0" * size_change)
        with pytest.raises(DataError, match=r"00001_clip\.f32: expected 16 "):
            load_store(tmp_path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_image_rejected(self, tmp_path, value):
        images = np.zeros((3, 1, 4, 4), dtype=np.float32)
        images[1, 0, 2, 3] = value
        write_store(tmp_path, images)
        with pytest.raises(DataError, match=r"00001_clip\.f32: image holds an inf or NaN"):
            load_store(tmp_path)

    @pytest.mark.parametrize("field, value", [
        ("image_rows", "4"), ("image_cols", None), ("clips", {}), ("class_names", "ab"),
        ("config_hash", 0), ("file", 3), ("label", "1"), ("fold", "2"), ("fold", 1.0),
    ])
    def test_mistyped_field_is_a_data_error(self, tmp_path, field, value):
        write_store(tmp_path, np.zeros((3, 1, 4, 4), dtype=np.float32))
        meta = json.loads((tmp_path / "store.json").read_text())
        (meta["clips"][1] if field in ("file", "label", "fold") else meta)[field] = value
        (tmp_path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=f"malformed store.json: .*'{field}'"):
            load_store(tmp_path)

    @pytest.mark.parametrize("field, value, fault", BAD_LABELS_AND_FOLDS)
    def test_bad_label_or_fold_is_a_data_error(self, tmp_path, field, value, fault):
        write_store(tmp_path, np.zeros((3, 1, 4, 4), dtype=np.float32), folds=[1, 2, 1])
        meta = json.loads((tmp_path / "store.json").read_text())
        meta["clips"][1][field] = value
        (tmp_path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=re.escape(
                f"malformed store.json: clip 1 (arrays/00001_clip.f32): {fault}")):
            load_store(tmp_path)

    @pytest.mark.parametrize("names, fault", BAD_CLASS_NAMES[1:])
    def test_bad_class_names_are_a_data_error(self, tmp_path, names, fault):
        write_store(tmp_path, np.zeros((3, 1, 4, 4), dtype=np.float32))
        meta = json.loads((tmp_path / "store.json").read_text())
        meta["class_names"] = names
        (tmp_path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=re.escape(f"malformed store.json: {fault}")):
            load_store(tmp_path)

    def test_peak_rss_stays_below_one_and_a_half_times_the_data(self, tmp_path):
        images = np.random.default_rng(1).random((64, 1, 300, 300), dtype=np.float32)
        write_store(tmp_path, images)
        growth = peak_rss_growth(
            "store = load_store(root)",
            setup=f"from wvdnet.datasets import load_store\nroot = {str(tmp_path)!r}",
        )
        assert growth < 1.5 * images.nbytes, f"load_store grew RSS by {growth / images.nbytes:.2f}x"
