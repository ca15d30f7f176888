"""End-to-end acceptance suite.

Each criterion is one test that asserts its stated tolerance and prints a
PASS line (run `pytest tests/test_acceptance.py -v -s` to watch them). The
full-corpus experiments need locally downloaded datasets and hours of CPU,
so they are gated behind environment variables and skip by default.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import FixedDraws, assert_grads_close, direct_quadratic_tfd, numeric_gradient

from wvdnet.analytic import analytic_signal
from wvdnet.cli import main
from wvdnet.datasets import load_manifest, write_wav_pcm16
from wvdnet.neuralnet import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    infer_shapes,
    reference_config,
    softmax_cross_entropy,
)
from wvdnet.signal_core import Signal
from wvdnet.synth import chirp_samples, tone_samples
from wvdnet.tfd import hamming_lag_window, pseudo_wvd, wvd, wvd_time_marginal


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_wvd_time_marginal():
    start = time.time()
    rng = np.random.default_rng(42)
    x = analytic_signal(Signal(rng.standard_normal(256), 4000.0))
    marginal = wvd_time_marginal(wvd(x, time_stride=1, n_freq_bins=256), x)
    power = np.abs(x.samples) ** 2
    interior = slice(8, -8)
    rel = np.abs(marginal[interior] - power[interior]) / power[interior]
    elapsed = time.time() - start
    assert rel.max() < 1e-6
    assert elapsed < 1.0
    ok(1, f"time marginal matches |x[n]|^2, max rel err {rel.max():.2e} in {elapsed:.2f}s")


def test_criterion_2_direct_sum_equivalence():
    start = time.time()
    rng = np.random.default_rng(2)
    samples = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    from wvdnet.analytic import ComplexSignal

    x = ComplexSignal(samples, 4000.0)
    window = hamming_lag_window(127)
    fast = pseudo_wvd(x, window, 8, 512).values
    slow = direct_quadratic_tfd(samples, window.coefficients, 8, 512)
    scale = np.abs(slow).max()
    err = np.abs(fast - slow).max() / scale
    elapsed = time.time() - start
    assert err < 1e-9
    assert elapsed < 10.0
    ok(2, f"FFT path matches defining sum, rel err {err:.2e} in {elapsed:.2f}s")


def test_criterion_3_tone_and_chirp_localization():
    start = time.time()
    rate = 4000.0
    t = np.arange(4000) / rate
    tone = analytic_signal(Signal(np.cos(2 * np.pi * 500.0 * t), rate))
    tone_img = pseudo_wvd(tone, hamming_lag_window(127), 16, 512)
    tone_bin = round(2 * 500.0 * 512 / rate)
    tone_ridge = tone_img.values[4:-4].argmax(axis=1)
    assert np.all(tone_ridge == tone_bin)

    t2 = np.arange(8000) / rate
    sweep = np.cos(2 * np.pi * (200.0 * t2 + 250.0 * t2**2))  # 200 -> 1200 Hz over 2 s
    chirp = analytic_signal(Signal(sweep, rate))
    chirp_img = pseudo_wvd(chirp, hamming_lag_window(127), 16, 512)
    inst_freq = 200.0 + 500.0 * chirp_img.time_axis_s
    expected = np.round(2 * inst_freq * 512 / rate).astype(int)
    ridge = chirp_img.values.argmax(axis=1)
    inner = slice(8, -8)
    max_off = np.abs(ridge[inner] - expected[inner]).max()
    elapsed = time.time() - start
    assert max_off <= 1
    assert elapsed < 5.0
    ok(3, f"tone pinned to bin {tone_bin}, chirp ridge within {max_off} bin in {elapsed:.2f}s")


def test_criterion_4_cross_term_suppression():
    start = time.time()
    rate = 4000.0
    t = np.arange(2048) / rate
    pair = np.cos(2 * np.pi * 500.0 * t) + np.cos(2 * np.pi * 1500.0 * t)
    x = analytic_signal(Signal(pair, rate))
    plain = wvd(x, time_stride=4, n_freq_bins=512)
    tapered = pseudo_wvd(x, hamming_lag_window(127), 4, 512)
    mid_bin = round(2 * 1000.0 * 512 / rate)
    plain_energy = np.mean(plain.values[:, mid_bin] ** 2)
    tapered_energy = np.mean(tapered.values[:, mid_bin] ** 2)
    ratio = plain_energy / tapered_energy
    elapsed = time.time() - start
    assert ratio >= 10.0
    assert elapsed < 5.0
    ok(4, f"lag window cuts midpoint cross-term energy {ratio:.0f}x in {elapsed:.2f}s")


def test_criterion_5_analytic_spectrum():
    start = time.time()
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(1024)
    out = analytic_signal(Signal(raw, 4000.0))
    spectrum = np.fft.fft(out.samples)
    negative = np.sum(np.abs(spectrum[513:]) ** 2)
    total = np.sum(np.abs(spectrum) ** 2)
    round_trip = np.abs(out.samples.real - raw).max() / np.abs(raw).max()
    elapsed = time.time() - start
    assert negative < 1e-10 * total
    assert round_trip < 1e-9
    assert elapsed < 1.0
    ok(5, f"negative-band energy {negative / total:.1e} of total, round trip {round_trip:.1e}")


def test_criterion_6_architecture_shape():
    shapes = infer_shapes(reference_config((1, 300, 300), 10))
    flat = next(s[0] for s in shapes if len(s) == 1)
    assert flat == 87616
    ok(6, "flatten width on 1x300x300 input is 87,616")


def test_criterion_7_gradient_checks():
    start = time.time()
    rng = np.random.default_rng(7)

    def check(layer, x, param_names=(), **fwd):
        projection = rng.standard_normal(layer.forward(x, **fwd).shape)
        grad_in = layer.backward(projection)
        loss = lambda: float((layer.forward(x, **fwd) * projection).sum())
        for name in param_names:
            assert_grads_close(getattr(layer, "grad_" + name), numeric_gradient(loss, getattr(layer, name)))
        assert_grads_close(grad_in, numeric_gradient(loss, x))

    check(
        Conv2d(2, 3, 3, 1, 1, dtype=np.float64, rng=np.random.default_rng(1)),
        rng.standard_normal((2, 2, 6, 5)),
        ("weight", "bias"),
    )
    check(
        Conv2d(3, 2, 3, 2, 1, dtype=np.float64, rng=np.random.default_rng(2)),
        rng.standard_normal((2, 3, 7, 5)),
        ("weight", "bias"),
    )
    check(MaxPool2d(2, 2), rng.standard_normal((2, 3, 6, 6)))
    check(Linear(10, 4, dtype=np.float64, rng=np.random.default_rng(3)), rng.standard_normal((3, 10)), ("weight", "bias"))
    relu_in = rng.standard_normal((4, 8))
    relu_in[np.abs(relu_in) < 1e-3] = 0.5  # keep clear of the kink
    check(ReLU(), relu_in)
    check(Flatten(), rng.standard_normal((2, 3, 4, 4)))
    draws = FixedDraws(np.random.default_rng(4).random((3, 8)))  # mask: draws >= p
    check(Dropout(0.25, rng=draws), rng.standard_normal((3, 8)), train=True)

    logits = rng.standard_normal(9)
    _, grad = softmax_cross_entropy(logits, 4)
    numeric = numeric_gradient(lambda: softmax_cross_entropy(logits, 4)[0], logits)
    assert np.abs(grad - numeric).max() < 1e-6

    elapsed = time.time() - start
    assert elapsed < 30.0
    ok(7, f"all layer backwards match central differences in {elapsed:.1f}s")


# -- end-to-end pipeline (criteria 8-10) ---------------------------------------

SEED = 7
PIPELINE_FLAGS = [
    "--image-rows", "150", "--image-cols", "150",
    "--epochs", "12", "--learning-rate", "0.01", "--batch-size", "32",
    "--holdout-fraction", "0.8", "--stratified", "true",
    "--seed", str(SEED), "--workers", "2",
    "--synth-classes", "3", "--synth-clips-per-class", "50",
]


def make_stream_wav(path):
    """Unseen 18 s recording: 6 s tone, 6 s of chirp process, 6 s tone.

    The middle segment repeats the training sweep (4 s period) so any window
    fully inside it is a cyclically shifted specimen of the chirp class.
    """
    rng = np.random.default_rng(123)
    rate = 4000.0
    n = round(6 * rate)
    tone_a, _ = tone_samples(rng, n, rate, (300.0, 700.0))
    chirp, _ = chirp_samples(rng, n, rate, sweep_period_s=4.0)
    tone_b, _ = tone_samples(rng, n, rate, (300.0, 700.0))
    write_wav_pcm16(path, np.concatenate([tone_a, chirp, tone_b]), rate)


def run_pipeline(base):
    data = base / "data"
    store = base / "store"
    stream_csv = base / "stream.csv"
    t0 = time.time()
    assert main(["synth", "--out", str(data)] + PIPELINE_FLAGS) == 0
    assert main(
        ["preprocess", "--dataset-root", str(data), "--source", "folder_per_class",
         "--out", str(store)] + PIPELINE_FLAGS
    ) == 0
    assert main(["train", "--out", str(store)] + PIPELINE_FLAGS) == 0
    train_elapsed = time.time() - t0
    assert main(["evaluate", "--out", str(store), "--split", "test"] + PIPELINE_FLAGS) == 0
    wav = base / "street.wav"
    make_stream_wav(wav)
    t1 = time.time()
    assert main(
        ["stream", str(wav), "--out", str(store), "--output", str(stream_csv)] + PIPELINE_FLAGS
    ) == 0
    return {
        "store": store,
        "report": json.loads((store / "report.json").read_text()),
        "stream_csv": stream_csv,
        "train_elapsed": train_elapsed,
        "stream_elapsed": time.time() - t1,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("accept"))


def test_criterion_8_end_to_end_synthetic_classification(pipeline):
    accuracy = pipeline["report"]["accuracy"]
    assert pipeline["report"]["num_samples"] == 30  # 20% of 150, stratified
    assert accuracy >= 0.95
    assert pipeline["train_elapsed"] < 600.0
    ok(
        8,
        f"synthetic 3x50 run reaches test accuracy {accuracy:.3f} "
        f"(synth+preprocess+train {pipeline['train_elapsed']:.0f}s)",
    )


def test_criterion_9_streaming_inference(pipeline):
    lines = pipeline["stream_csv"].read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == int(np.floor((18.0 - 4.0) / 1.0)) + 1  # count formula
    by_start = {float(r[0]): r[3] for r in rows}
    for start in (0.0, 1.0, 2.0, 12.0, 13.0, 14.0):  # fully inside tone segments
        assert by_start[start] == "0_tone", f"window at {start}s predicted {by_start[start]}"
    for start in (6.0, 7.0, 8.0):  # fully inside the chirp segment
        assert by_start[start] == "1_chirp", f"window at {start}s predicted {by_start[start]}"
    assert pipeline["stream_elapsed"] < 60.0
    ok(9, f"all {len(rows)} windows present; interior windows track their segment")


def test_criterion_10_determinism(pipeline, tmp_path_factory):
    rerun = run_pipeline(tmp_path_factory.mktemp("accept_rerun"))
    first_store = pipeline["store"]
    second_store = rerun["store"]
    for name in ("model.wvdn", "history.csv", "report.json", "index.csv", "store.json"):
        a = (first_store / name).read_bytes()
        b = (second_store / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"
    assert pipeline["stream_csv"].read_bytes() == rerun["stream_csv"].read_bytes()
    ok(10, "re-run with identical seeds is bitwise identical (checkpoint, reports, stream)")


# -- full-corpus experiments (documented as not desk-reproducible) --------------

URBANSOUND_ROOT = os.environ.get("WVDNET_URBANSOUND8K_ROOT", "")
MILVEH_ROOT = os.environ.get("WVDNET_MILVEH_ROOT", "")
ESC50_ROOT = os.environ.get("WVDNET_ESC50_ROOT", "")

CORPUS_FLAGS = [
    "--target-rate-hz", "4000", "--image-rows", "300", "--image-cols", "300",
    "--epochs", "60", "--learning-rate", "0.001", "--batch-size", "32",
    "--holdout-fraction", "0.8", "--seed", "0", "--workers", "4",
]


@pytest.mark.skipif(not URBANSOUND_ROOT, reason="set WVDNET_URBANSOUND8K_ROOT to run the full 10-class corpus experiment")
def test_criterion_11_urbansound8k(tmp_path_factory):
    store = tmp_path_factory.mktemp("us8k_store")
    flags = CORPUS_FLAGS + ["--out", str(store)]
    assert main(["preprocess", "--dataset-root", URBANSOUND_ROOT, "--source", "urbansound8k"] + flags) == 0
    assert main(["train"] + flags) == 0
    assert main(["evaluate", "--split", "test"] + flags) == 0
    accuracy = json.loads((store / "report.json").read_text())["accuracy"]
    assert abs(accuracy - 0.76) <= 0.05, f"10-class accuracy {accuracy:.3f} outside 0.76 +/- 0.05"
    ok(11, f"10-class urban corpus accuracy {accuracy:.3f}")


@pytest.mark.skipif(not MILVEH_ROOT, reason="set WVDNET_MILVEH_ROOT (folder-per-class layout) to run the 2-class vehicle experiment")
def test_criterion_11_military_vehicles(tmp_path_factory):
    store = tmp_path_factory.mktemp("milveh_store")
    flags = CORPUS_FLAGS + ["--out", str(store)]
    assert main(["preprocess", "--dataset-root", MILVEH_ROOT, "--source", "folder_per_class"] + flags) == 0
    assert main(["train"] + flags) == 0
    assert main(["evaluate", "--split", "test"] + flags) == 0
    accuracy = json.loads((store / "report.json").read_text())["accuracy"]
    assert abs(accuracy - 0.86) <= 0.05, f"2-class accuracy {accuracy:.3f} outside 0.86 +/- 0.05"
    ok(11, f"2-class vehicle corpus accuracy {accuracy:.3f}")


@pytest.mark.skipif(not ESC50_ROOT, reason="set WVDNET_ESC50_ROOT to run the 50-class fold-averaged experiment")
def test_criterion_11_esc50_fold_average(tmp_path_factory):
    store = tmp_path_factory.mktemp("esc50_store")
    flags = CORPUS_FLAGS + ["--out", str(store)]
    assert main(["preprocess", "--dataset-root", ESC50_ROOT, "--source", "esc50"] + flags) == 0
    manifest = load_manifest(ESC50_ROOT, "esc50")
    folds = sorted({r.fold for r in manifest.records})
    accuracies = []
    for fold in folds:
        fold_flags = flags + ["--test-fold", str(fold)]
        assert main(["train"] + fold_flags) == 0
        assert main(["evaluate", "--split", "test"] + fold_flags) == 0
        accuracies.append(json.loads((store / "report.json").read_text())["accuracy"])
    mean_accuracy = float(np.mean(accuracies))
    assert abs(mean_accuracy - 0.25) <= 0.05, (
        f"50-class fold-averaged accuracy {mean_accuracy:.3f} outside 0.25 +/- 0.05"
    )
    ok(11, f"50-class fold-averaged accuracy {mean_accuracy:.3f}")
