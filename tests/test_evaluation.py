import numpy as np
import pytest
from conftest import reference_report

from wvdnet.config import build_config
from wvdnet.evaluation import (
    compute_report,
    evaluate,
    majority_vote,
    render_report,
    report_to_json,
    stream_infer,
    stream_to_csv,
    StreamPrediction,
)
from wvdnet.neuralnet import Network, reference_config
from wvdnet.signal_core import Signal


class TestComputeReport:
    def test_perfect_predictions(self):
        true = [0, 0, 1, 1, 2, 2]
        report = compute_report(true, true, ("a", "b", "c"))
        np.testing.assert_array_equal(report.confusion, 2 * np.eye(3, dtype=int))
        assert report.accuracy == 1.0
        assert all(p["f1"] == 1.0 for p in report.per_class)

    def test_degenerate_single_class_predictor(self):
        true = [0, 0, 1, 1]
        pred = [0, 0, 0, 0]
        report = compute_report(true, pred, ("x", "y"))
        assert report.accuracy == 0.5
        assert [p["recall"] for p in report.per_class] == [1.0, 0.0]
        assert report.per_class[0]["precision"] == 0.5
        assert report.per_class[1]["precision"] == 0.0  # zero-denominator rule
        assert "y" in report.zero_denominator_classes

    def test_confusion_row_sums_are_supports(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, 200)
        pred = rng.integers(0, 4, 200)
        report = compute_report(true, pred, ("a", "b", "c", "d"))
        for c, p in enumerate(report.per_class):
            assert p["support"] == report.confusion[c].sum()
        assert report.confusion.sum() == 200
        assert report.accuracy == np.trace(report.confusion) / 200

    def test_weighted_f1_recomputes_exactly(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 3, 120)
        pred = rng.integers(0, 3, 120)
        report = compute_report(true, pred, ("a", "b", "c"))
        manual = sum(p["f1"] * p["support"] for p in report.per_class) / 120
        assert abs(report.weighted_avg["f1"] - manual) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        true = rng.integers(0, 3, 60)
        pred = rng.integers(0, 3, 60)
        order = rng.permutation(60)
        a = compute_report(true, pred, ("a", "b", "c"))
        b = compute_report(true[order], pred[order], ("a", "b", "c"))
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.accuracy == b.accuracy

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_per_class_reference(self, seed):
        # 1-11 classes over few samples, so some classes have no support
        # and some are never predicted
        rng = np.random.default_rng(seed)
        no_support = never_predicted = 0
        for _ in range(60):
            k = int(rng.integers(1, 12))
            n = int(rng.integers(1, 3 * k + 2))
            true = rng.integers(0, k, n)
            pred = np.where(rng.random(n) < 0.5, true, rng.integers(0, k, n))
            names = tuple(f"c{c}" for c in range(k))
            got, want = compute_report(true, pred, names), reference_report(true, pred, names)
            assert report_to_json(got, 3, "h") == report_to_json(want, 3, "h")
            assert render_report(got) == render_report(want)
            assert got.zero_denominator_classes == want.zero_denominator_classes
            no_support += int((np.bincount(true, minlength=k) == 0).sum())
            never_predicted += int((np.bincount(pred, minlength=k) == 0).sum())
        assert no_support and never_predicted

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_report([], [], ("a",))


class TestReportRendering:
    def build_ten_class_report(self):
        # per-class supports matching a 874-sample ten-class evaluation
        supports = [100, 43, 100, 100, 100, 100, 38, 100, 93, 100]
        rng = np.random.default_rng(3)
        true, pred = [], []
        for c, n in enumerate(supports):
            true.extend([c] * n)
            correct = round(0.76 * n)
            pred.extend([c] * correct)
            pred.extend(rng.integers(0, 10, n - correct).tolist())
        names = tuple(f"class_{c}" for c in range(10))
        return compute_report(true, pred, names), supports

    def test_ten_class_report_shape(self):
        report, supports = self.build_ten_class_report()
        assert report.num_samples == 874
        assert [p["support"] for p in report.per_class] == supports
        text = render_report(report)
        lines = [l for l in text.splitlines() if l.strip()]
        assert lines[0].split() == ["precision", "recall", "f1-score", "support"]
        class_lines = [l for l in lines if l.strip().startswith("class_")]
        assert len(class_lines) == 10
        assert any(l.strip().startswith("accuracy") for l in lines)
        assert any(l.strip().startswith("macro avg") for l in lines)
        assert any(l.strip().startswith("weighted avg") for l in lines)
        assert "874" in text

    def test_two_decimal_formatting(self):
        report, _ = self.build_ten_class_report()
        line = next(
            l for l in render_report(report).splitlines() if l.strip().startswith("class_0")
        )
        cells = line.split()[1:4]
        assert all(len(c.split(".")[1]) == 2 for c in cells)

    def test_json_report_full_precision_and_metadata(self):
        report, _ = self.build_ten_class_report()
        import json

        payload = json.loads(report_to_json(report, seed=7, cfg_hash="abc123"))
        assert payload["seed"] == 7
        assert payload["config_hash"] == "abc123"
        assert payload["accuracy"] == report.accuracy
        assert payload["confusion"] == report.confusion.tolist()
        assert len(payload["per_class"]) == 10


class TestEvaluate:
    def test_class_count_mismatch_rejected(self):
        net = Network(reference_config((1, 16, 16), 3))
        with pytest.raises(ValueError, match="mismatch"):
            evaluate(net, np.zeros((2, 1, 16, 16), dtype=np.float32), [0, 1], ("a", "b"))

    def test_scores_a_network(self):
        net = Network(reference_config((1, 16, 16), 2, seed=1))
        images = np.random.default_rng(4).random((6, 1, 16, 16), dtype=np.float32)
        labels = np.array([0, 1, 0, 1, 0, 1])
        report = evaluate(net, images, labels, ("a", "b"))
        assert report.num_samples == 6
        assert 0.0 <= report.accuracy <= 1.0


class TestStreamWindows:
    def small_cfg(self):
        return build_config(
            {},
            dict(
                target_rate_hz=2000.0,
                clip_seconds=1.0,
                window_seconds=1.0,
                stride_seconds=0.5,
                image_rows=16,
                image_cols=16,
                n_freq_bins=32,
            ),
        )

    def test_exact_window_length_signal_gives_one_window(self):
        cfg = self.small_cfg()
        net = Network(reference_config((1, 16, 16), 2, seed=2))
        signal = Signal(np.sin(np.arange(2000) * 0.3), 2000.0)
        preds = stream_infer(net, signal, cfg)
        assert len(preds) == 1
        assert preds[0].window_start_s == 0.0
        assert preds[0].window_end_s == pytest.approx(1.0)

    def test_window_positions_and_count(self):
        cfg = self.small_cfg()
        net = Network(reference_config((1, 16, 16), 2, seed=2))
        signal = Signal(np.sin(np.arange(5000) * 0.3), 2000.0)  # 2.5 s
        preds = stream_infer(net, signal, cfg)
        assert len(preds) == 4  # floor((2.5 - 1) / 0.5) + 1
        starts = [p.window_start_s for p in preds]
        assert starts == [0.0, 0.5, 1.0, 1.5]
        for p in preds:
            assert p.window_end_s - p.window_start_s == pytest.approx(1.0)

    def test_too_short_signal_rejected_with_minimum(self):
        cfg = self.small_cfg()
        net = Network(reference_config((1, 16, 16), 2, seed=2))
        with pytest.raises(ValueError, match="needs 1.000 s"):
            stream_infer(net, Signal(np.zeros(1500), 2000.0), cfg)

    def test_csv_format(self):
        preds = [
            StreamPrediction(0.0, 4.0, 1, np.array([0.25, 0.75])),
            StreamPrediction(1.0, 5.0, 0, np.array([0.5, 0.5])),
        ]
        text = stream_to_csv(preds, ("quiet", "loud"))
        lines = text.splitlines()
        assert lines[0] == "start_s,end_s,pred_class,pred_name,p0,p1"
        assert lines[1] == "0.0,4.0,1,loud,0.25,0.75"
        assert lines[2] == "1.0,5.0,0,quiet,0.5,0.5"

    def test_majority_vote_smoother(self):
        preds = [
            StreamPrediction(float(i), float(i + 4), label, np.ones(2) / 2)
            for i, label in enumerate([0, 0, 1, 0, 0])
        ]
        voted = majority_vote(preds, 3)
        assert [p.label for p in voted] == [0, 0, 0, 0, 0]
        unchanged = majority_vote(preds, 1)
        assert [p.label for p in unchanged] == [0, 0, 1, 0, 0]
        with pytest.raises(ValueError, match="odd"):
            majority_vote(preds, 2)
