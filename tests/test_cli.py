import json
import struct
import wave

import numpy as np
import pytest
from conftest import checkpoint_bytes, peak_rss_growth

from wvdnet.cli import _config_from_args, build_parser, main
from wvdnet.config import RunConfig, build_config, config_hash
from wvdnet.errors import ConfigError
from wvdnet.datasets import decode_wav, write_wav_pcm16
from wvdnet.evaluation import StreamPrediction, majority_vote
from wvdnet.neuralnet import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Network, load_checkpoint,
                              reference_config)
from wvdnet.tfd import image_from_csv

BASE_FLAGS = [
    "--image-rows", "64", "--image-cols", "64",
    "--epochs", "30", "--learning-rate", "0.01", "--batch-size", "4",
    "--holdout-fraction", "0.75", "--seed", "5",
    "--synth-classes", "3", "--synth-clips-per-class", "1",
]


def overlapping_first_pool():
    """reference_config at 1x64x64 with 3 classes, but its first pool at stride 1."""
    network = reference_config((1, 64, 64), 3).to_dict()
    network["layers"][2]["stride"] = 1
    network["layers"][11]["in_features"] = 64 * 15 * 15  # 64 -> 63 -> 31 -> 15
    return network


def assert_history_rows(path, with_eval):
    """Every history.csv row is epoch,train_loss,eval_accuracy as int,float,float,
    the last field empty without an eval set; an np.float64 would print as
    np.float64(...)."""
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,eval_accuracy"
    for epoch, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert len(fields) == 3 and fields[0] == str(epoch), line
        float(fields[1])
        if with_eval:
            assert 0.0 <= float(fields[2]) <= 1.0, line
        else:
            assert fields[2] == "", line


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth dataset + preprocessed store + memorized model for the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    store = root / "store"
    assert main(["synth", "--out", str(data)] + BASE_FLAGS) == 0
    assert main([
        "preprocess", "--dataset-root", str(data), "--source", "folder_per_class",
        "--out", str(store),
    ] + BASE_FLAGS) == 0
    assert main(["train", "--out", str(store)] + BASE_FLAGS) == 0
    return {"root": root, "data": data, "store": store}


class TestSynthCommand:
    def test_layout(self, workspace):
        dirs = sorted(d.name for d in workspace["data"].iterdir())
        assert dirs == ["0_tone", "1_chirp", "2_noise"]

    def test_counts_per_class(self, workspace):
        for d in workspace["data"].iterdir():
            assert len(list(d.glob("*.wav"))) == 1


class TestPreprocessCommand:
    def test_store_layout(self, workspace):
        store = workspace["store"]
        assert (store / "index.csv").is_file()
        assert (store / "store.json").is_file()
        assert (store / "skipped.txt").read_text() == ""
        index = (store / "index.csv").read_text().splitlines()
        assert index[0] == "file,label,fold"
        assert len(index) == 4  # header + 3 clips
        labels = sorted(line.split(",")[1] for line in index[1:])
        assert labels == ["0", "1", "2"]

    def test_second_run_reports_up_to_date(self, workspace, capsys):
        store = workspace["store"]
        index_bytes = (store / "index.csv").read_bytes()
        code = main([
            "preprocess", "--dataset-root", str(workspace["data"]),
            "--source", "folder_per_class", "--out", str(store),
        ] + BASE_FLAGS)
        assert code == 0
        assert "up to date" in capsys.readouterr().out
        assert (store / "index.csv").read_bytes() == index_bytes

    def test_store_with_bad_label_is_rebuilt(self, workspace, tmp_path, capsys):
        flags = ["--dataset-root", str(workspace["data"]), "--source", "folder_per_class",
                 "--out", str(tmp_path)] + BASE_FLAGS
        assert main(["preprocess"] + flags) == 0
        good = (tmp_path / "store.json").read_bytes()
        meta = json.loads(good)
        meta["clips"][0]["label"] = 7
        (tmp_path / "store.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["preprocess"] + flags) == 0
        assert "up to date" not in capsys.readouterr().out
        assert (tmp_path / "store.json").read_bytes() == good

    def test_missing_root_exits_2_without_partial_index(self, tmp_path):
        out = tmp_path / "store"
        code = main([
            "preprocess", "--dataset-root", str(tmp_path / "missing"),
            "--source", "folder_per_class", "--out", str(out),
        ])
        assert code == 2
        assert not (out / "index.csv").exists()


class TestTrainCommand:
    def test_checkpoint_and_history_written(self, workspace):
        store = workspace["store"]
        assert (store / "model.wvdn").read_bytes()[:4] == b"WVDN"
        history = (store / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,eval_accuracy"
        assert len(history) == 31  # header + 30 epochs
        assert_history_rows(store / "history.csv", with_eval=False)

    def test_zero_epochs_gives_initial_checkpoint_and_empty_history(self, workspace, tmp_path):
        store = workspace["store"]
        ckpt = tmp_path / "init.wvdn"
        code = main([
            "train", "--out", str(store), "--checkpoint", str(ckpt),
        ] + BASE_FLAGS[:-4] + ["--epochs", "0"])
        assert code == 0
        assert ckpt.read_bytes()[:4] == b"WVDN"
        history = (store / "history.csv").read_text().splitlines()
        assert history == ["epoch,train_loss,eval_accuracy"]

    def test_diverged_run_exits_2_without_checkpoint(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "diverged.wvdn"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--out", str(workspace["store"]), "--checkpoint", str(ckpt)]
                        + BASE_FLAGS + ["--learning-rate", "1e4"])
        assert code == 2
        assert "training diverged" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_store_exits_2(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "empty")] + BASE_FLAGS) == 2

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("field, value", [("label", 7), ("label", True), ("fold", 0)])
    def test_bad_label_or_fold_in_store_exits_2(self, workspace, tmp_path, capsys, command,
                                                field, value):
        meta = json.loads((workspace["store"] / "store.json").read_text())
        meta["clips"][1][field] = value
        (tmp_path / "store.json").write_text(json.dumps(meta))
        assert main([command, "--out", str(tmp_path)] + BASE_FLAGS) == 2
        assert f"clip 1 ({meta['clips'][1]['file']}): {field} {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("names", [[0, 1, 2], ["0_tone", "0_tone", "2_noise"]],
                             ids=["ints", "repeated"])
    def test_bad_class_names_in_store_exits_2(self, workspace, tmp_path, capsys, command,
                                              names):
        meta = json.loads((workspace["store"] / "store.json").read_text())
        meta["class_names"] = names
        (tmp_path / "store.json").write_text(json.dumps(meta))
        assert main([command, "--out", str(tmp_path)] + BASE_FLAGS) == 2
        assert f"malformed store.json: class names {names!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("breakage", ["no image_rows", "clip without label", "list"])
    def test_malformed_store_json_exits_2(self, workspace, tmp_path, capsys, breakage):
        meta = json.loads((workspace["store"] / "store.json").read_text())
        if breakage == "no image_rows":
            del meta["image_rows"]
        elif breakage == "clip without label":
            del meta["clips"][1]["label"]
        else:
            meta = [meta]
        (tmp_path / "store.json").write_text(json.dumps(meta))
        assert main(["train", "--out", str(tmp_path)] + BASE_FLAGS) == 2
        assert "malformed store.json" in capsys.readouterr().err

    def test_store_json_that_is_not_json_exits_2_and_is_rebuilt(self, workspace, tmp_path,
                                                                 capsys):
        (tmp_path / "store.json").write_text("{not json")
        (tmp_path / "index.csv").write_bytes((workspace["store"] / "index.csv").read_bytes())
        assert main(["train", "--out", str(tmp_path)] + BASE_FLAGS) == 2
        assert f"malformed store.json at {tmp_path}: not JSON: " in capsys.readouterr().err
        assert main(["preprocess", "--dataset-root", str(workspace["data"]), "--source",
                     "folder_per_class", "--out", str(tmp_path)] + BASE_FLAGS) == 0
        assert "up to date" not in capsys.readouterr().out
        assert json.loads((tmp_path / "store.json").read_text())["clips"]


class TestEvaluateCommand:
    def test_memorized_training_set_scores_perfectly(self, workspace, capsys):
        store = workspace["store"]
        code = main(["evaluate", "--out", str(store), "--split", "train"] + BASE_FLAGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "1.00" in out
        report = json.loads((store / "report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["class_names"] == ["0_tone", "1_chirp", "2_noise"]

    def test_empty_test_split_exits_2(self, workspace):
        # 1 clip per class, 0.75 train share: round(0.25) = 0 test clips
        code = main(["evaluate", "--out", str(workspace["store"]), "--split", "test"] + BASE_FLAGS)
        assert code == 2

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        code = main([
            "evaluate", "--out", str(workspace["store"]),
            "--checkpoint", str(tmp_path / "nope.wvdn"),
        ] + BASE_FLAGS)
        assert code == 2

    @pytest.mark.parametrize("names", [["dog", "siren", "drill"], []], ids=["other", "none"])
    def test_checkpoint_class_names_must_be_the_stores(self, workspace, tmp_path, capsys,
                                                        names):
        store = workspace["store"]
        with open(store / "model.wvdn", "rb") as handle:
            net, _ = load_checkpoint(handle)
        ckpt = tmp_path / "renamed.wvdn"
        ckpt.write_bytes(checkpoint_bytes(net, names))
        code = main(["evaluate", "--out", str(store), "--split", "train",
                     "--checkpoint", str(ckpt)] + BASE_FLAGS)
        if names:
            assert code == 2
            assert ("checkpoint classes ['dog', 'siren', 'drill'] do not match the store's "
                    "['0_tone', '1_chirp', '2_noise']") in capsys.readouterr().err
        else:  # a checkpoint that names no classes scores under the store's
            assert code == 0
            report = json.loads((store / "report.json").read_text())
            assert report["class_names"] == ["0_tone", "1_chirp", "2_noise"]


class TestStreamCommand:
    def test_ten_second_file_gives_seven_rows(self, workspace, tmp_path):
        rate = 4000.0
        t = np.arange(round(10 * rate)) / rate
        wav = tmp_path / "long.wav"
        write_wav_pcm16(wav, 0.5 * np.sin(2 * np.pi * 440 * t), rate)
        out_csv = tmp_path / "stream.csv"
        code = main([
            "stream", str(wav), "--out", str(workspace["store"]),
            "--output", str(out_csv),
        ] + BASE_FLAGS)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "start_s,end_s,pred_class,pred_name,p0,p1,p2"
        assert len(lines) == 8  # header + floor((10-4)/1)+1 windows
        starts = [float(l.split(",")[0]) for l in lines[1:]]
        assert starts == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_vote_windows_relabels_by_majority_and_keeps_probabilities(self, workspace,
                                                                         tmp_path):
        # the synth clips of classes tone, chirp, noise and tone again, 4 s
        # each, so the labels change along the 13 windows
        clips = {d.name: next(d.glob("*.wav")) for d in workspace["data"].iterdir()}
        parts = [decode_wav(clips[name].read_bytes())[0]
                 for name in ("0_tone", "1_chirp", "2_noise", "0_tone")]
        wav = tmp_path / "mixed.wav"
        write_wav_pcm16(wav, np.concatenate([p.samples for p in parts]), parts[0].sample_rate_hz)
        rows = {}
        for k in (1, 3):
            out_csv = tmp_path / f"vote{k}.csv"
            assert main(["stream", str(wav), "--out", str(workspace["store"]), "--output",
                         str(out_csv), "--vote-windows", str(k)] + BASE_FLAGS) == 0
            rows[k] = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows[1]) == 13
        labels = [int(row[2]) for row in rows[1]]
        assert len(set(labels)) > 1
        voted = majority_vote([StreamPrediction(0.0, 0.0, label, None) for label in labels], 3)
        assert [p.label for p in voted] != labels  # the vote relabels some windows
        assert [int(row[2]) for row in rows[3]] == [p.label for p in voted]
        names = ["0_tone", "1_chirp", "2_noise"]
        assert [row[3] for row in rows[3]] == [names[p.label] for p in voted]
        for raw, smoothed in zip(rows[1], rows[3]):
            assert smoothed[:2] + smoothed[4:] == raw[:2] + raw[4:]

    def test_even_vote_windows_exits_1(self, workspace, tmp_path):
        wav = tmp_path / "long.wav"
        write_wav_pcm16(wav, np.zeros(20000), 4000.0)
        out_csv = tmp_path / "stream.csv"
        assert main(["stream", str(wav), "--out", str(workspace["store"]), "--output",
                     str(out_csv), "--vote-windows", "2"] + BASE_FLAGS) == 1
        assert not out_csv.exists()

    def test_too_short_input_exits_2(self, workspace, tmp_path):
        wav = tmp_path / "short.wav"
        write_wav_pcm16(wav, np.zeros(4000), 4000.0)
        code = main(["stream", str(wav), "--out", str(workspace["store"])] + BASE_FLAGS)
        assert code == 2

    @pytest.mark.parametrize("header", [
        b"{}",
        b"[1, 2]",
        # a 3-class network whose header names one class
        json.dumps({"network": reference_config((1, 64, 64), 3).to_dict(),
                    "class_names": ["a"]}).encode(),
        # a conv stride of 0, which once divided by zero
        json.dumps({"network": reference_config((1, 64, 64), 3).to_dict()}).encode()
        .replace(b'"stride": 1', b'"stride": 0', 1),
        # a first pool whose 2x2 windows overlap (stride 1), fc1 sized to match
        json.dumps({"network": overlapping_first_pool()}).encode(),
        # no layers, which once crashed on the final width check
        json.dumps({"network": {**reference_config((1, 64, 64), 3).to_dict(), "layers": []}})
        .encode(),
    ])
    def test_malformed_checkpoint_header_exits_2(self, workspace, tmp_path, capsys, header):
        wav = tmp_path / "long.wav"
        write_wav_pcm16(wav, np.zeros(20000), 4000.0)
        ckpt = tmp_path / "bad.wvdn"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header))
                         + header)
        code = main([
            "stream", str(wav), "--out", str(workspace["store"]), "--checkpoint", str(ckpt),
        ] + BASE_FLAGS)
        assert code == 2
        assert "malformed checkpoint header" in capsys.readouterr().err

    def test_non_finite_checkpoint_weight_exits_2(self, workspace, tmp_path, capsys):
        wav = tmp_path / "long.wav"
        write_wav_pcm16(wav, np.zeros(20000), 4000.0)
        blob = checkpoint_bytes(Network(reference_config((1, 64, 64), 3)))
        ckpt = tmp_path / "nan.wvdn"
        ckpt.write_bytes(blob[:-4] + struct.pack("<f", np.nan))  # the last logit's bias
        code = main([
            "stream", str(wav), "--out", str(workspace["store"]), "--checkpoint", str(ckpt),
        ] + BASE_FLAGS)
        assert code == 2
        assert "checkpoint tensor layer 14 bias holds an inf or NaN" in capsys.readouterr().err


    def test_stereo_recording_peak_rss_is_set_by_one_decoded_array(self, tmp_path):
        # 120 s of 44.1 kHz stereo: the read sets the peak, at 3.0x the
        # mono float64 size (one float64 array of every frame, then the
        # channel sum); a copy per channel, their stack and the mean held at
        # once came to 5.0x. The 24 MB covers the interpreter's and
        # allocator's slack; the 128x128 checkpoint's 33 MB is loaded after
        # the read, beside only the mono signal.
        rate, seconds = 44100, 120
        mono_bytes = 8 * rate * seconds
        wav = tmp_path / "stereo.wav"
        pcm = np.random.default_rng(0).integers(-8192, 8192, 2 * rate * seconds, dtype="<i2")
        with wave.open(str(wav), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(rate)
            handle.writeframes(pcm.tobytes())
        del pcm
        ckpt = tmp_path / "model.wvdn"
        ckpt.write_bytes(checkpoint_bytes(Network(reference_config((1, 128, 128), 3))))
        argv = ["stream", str(wav), "--checkpoint", str(ckpt), "--out", str(tmp_path),
                "--image-rows", "128", "--image-cols", "128", "--stride-seconds", "20"]
        growth = peak_rss_growth(f"assert main({argv!r}) == 0",
                                 setup="from wvdnet.cli import main")
        assert growth < 3.25 * mono_bytes + 24e6, f"{growth / mono_bytes:.2f}x the mono size"
        assert len((tmp_path / "stream.csv").read_text().splitlines()) == 1 + 6

class TestExportCommand:
    def test_png_and_csv_outputs(self, workspace, tmp_path):
        clip = next((workspace["data"] / "0_tone").glob("*.wav"))
        png = tmp_path / "img.png"
        csv = tmp_path / "img.csv"
        code = main([
            "export", str(clip), "--png", str(png), "--csv", str(csv),
        ] + BASE_FLAGS)
        assert code == 0
        assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        image = image_from_csv(csv.read_text())
        assert image.values.shape == (64, 64)
        assert image.kind == "pseudo_wvd"
        assert 0.0 <= image.values.min() and image.values.max() <= 1.0

    def test_no_output_flag_exits_1(self, workspace):
        clip = next((workspace["data"] / "0_tone").glob("*.wav"))
        assert main(["export", str(clip)] + BASE_FLAGS) == 1


class TestFoldSplit:
    FOLD_FLAGS = [
        "--image-rows", "32", "--image-cols", "32", "--n-freq-bins", "64",
        "--clip-seconds", "1.0", "--epochs", "2", "--batch-size", "4",
        "--learning-rate", "0.01", "--seed", "9",
    ]

    def make_folded_store(self, tmp_path):
        rng = np.random.default_rng(9)
        root = tmp_path / "esc"
        (root / "meta").mkdir(parents=True)
        (root / "audio").mkdir()
        lines = ["filename,fold,target,category\n"]
        for target in range(2):
            for i in range(4):
                fold = i % 2 + 1
                name = f"{fold}-{target}-{i}.wav"
                t = np.arange(4000) / 4000.0
                freq = 300 + 400 * target + rng.uniform(-20, 20)
                write_wav_pcm16(root / "audio" / name, 0.5 * np.sin(2 * np.pi * freq * t), 4000.0)
                lines.append(f"{name},{fold},{target},class_{target}\n")
        (root / "meta" / "esc50.csv").write_text("".join(lines))
        store = tmp_path / "store"
        assert main([
            "preprocess", "--dataset-root", str(root), "--source", "esc50",
            "--out", str(store),
        ] + self.FOLD_FLAGS) == 0
        return store

    def test_train_and_evaluate_on_left_out_fold(self, tmp_path):
        store = self.make_folded_store(tmp_path)
        flags = self.FOLD_FLAGS + ["--test-fold", "2"]
        assert main(["train", "--out", str(store)] + flags) == 0
        assert_history_rows(store / "history.csv", with_eval=True)
        assert main(["evaluate", "--out", str(store), "--split", "test"] + flags) == 0
        import json

        report = json.loads((store / "report.json").read_text())
        assert report["num_samples"] == 4  # fold 2 holds half of the 8 clips

    def test_unknown_fold_exits_2(self, tmp_path):
        store = self.make_folded_store(tmp_path)
        code = main(["train", "--out", str(store)] + self.FOLD_FLAGS + ["--test-fold", "7"])
        assert code == 2

    def test_fold_request_on_foldless_store_exits_2(self, workspace):
        code = main(["train", "--out", str(workspace["store"])] + BASE_FLAGS + ["--test-fold", "1"])
        assert code == 2


class TestExitCodes:
    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not_a_real_key = 5\n")
        assert main(["synth", "--config", str(cfg_file), "--out", str(tmp_path / "d")]) == 1

    def test_bad_flag_value_exits_1(self):
        assert main(["synth", "--epochs", "many"]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_holdout_fraction_exits_1(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--holdout-fraction", "1.5"]) == 1

    def test_non_finite_flag_exits_1(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--learning-rate", "nan"]) == 1
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


FLOAT_FIELDS = [name for name, kind in RunConfig.__annotations__.items() if kind == "float"]


class TestNonFiniteFloats:
    def test_fields_that_took_non_finite_values_are_covered(self):
        assert {"learning_rate", "clip_seconds", "target_rate_hz", "synth_rate_hz",
                "window_seconds", "stride_seconds", "tone_high_hz"} <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_rejected_from_file_values(self, key, word):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            build_config({key: word})


class TestConfigFile:
    def test_file_values_applied_and_flags_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# synthetic run\n"
            "synth_classes = 2\n"
            "synth_clips_per_class = 3\n"
            "clip_seconds = 1.0\n"
        )
        data = tmp_path / "data"
        code = main([
            "synth", "--config", str(cfg_file), "--out", str(data),
            "--synth-clips-per-class", "2",  # overrides the file's 3
        ])
        assert code == 0
        dirs = sorted(d.name for d in data.iterdir())
        assert dirs == ["0_tone", "1_chirp"]
        for d in dirs:
            assert len(list((data / d).glob("*.wav"))) == 2

    def test_malformed_line_exits_1(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs 5\n")
        assert main(["synth", "--config", str(cfg_file)]) == 1


class TestConfigHash:
    @pytest.mark.parametrize("overrides,digest", [
        ({}, "bd7d0934bbbfdbd3"),
        ({"workers": 4}, "654d85d21d25282e"),
        ({"epochs": 60}, "d18e9f8ab4e78f2a"),
    ])
    def test_digests_are_pinned(self, overrides, digest):
        assert config_hash(RunConfig(**overrides)) == digest

    def test_locations_do_not_count(self, tmp_path):
        moved = RunConfig(dataset_root=str(tmp_path / "data"), out_dir=str(tmp_path / "out"))
        assert config_hash(moved) == config_hash(RunConfig())


class TestBoolValues:
    BOOL_FIELDS = ("log_compress", "stratified")

    def config_from_file(self, tmp_path, word):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{key} = {word}\n" for key in self.BOOL_FIELDS))
        return _config_from_args(build_parser().parse_args(["synth", "--config", str(cfg_file)]))

    def config_from_flags(self, word):
        flags = [arg for key in self.BOOL_FIELDS for arg in ("--" + key.replace("_", "-"), word)]
        return _config_from_args(build_parser().parse_args(["synth"] + flags))

    @pytest.mark.parametrize(
        "word,value",
        [("TRUE", True), ("1", True), ("Yes", True), ("oN", True),
         ("False", False), ("0", False), ("nO", False), ("OFF", False)],
    )
    def test_file_and_flag_agree(self, tmp_path, word, value):
        expected = RunConfig(log_compress=value, stratified=value)
        assert self.config_from_file(tmp_path, word) == expected
        assert self.config_from_flags(word) == expected

    def test_bad_value_exits_1_from_flag(self, capsys):
        assert main(["synth", "--log-compress", "maybe"]) == 1
        assert "'maybe'" in capsys.readouterr().err

    def test_bad_value_exits_1_from_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("log_compress = maybe\n")
        assert main(["synth", "--config", str(cfg_file), "--out", str(tmp_path / "d")]) == 1
        assert "cannot parse log_compress = 'maybe' as bool" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()
