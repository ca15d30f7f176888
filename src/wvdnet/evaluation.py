"""Confusion-matrix scoring and sliding-window streaming inference.

The text report mirrors the usual classification-report layout: one row per
class with precision / recall / f1 / support, then accuracy, macro, and
support-weighted averages, all at two decimals. The machine-readable variant
keeps full precision. Precision and recall with a zero denominator are
defined as 0 and flagged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .neuralnet import Network, predict
from .pipeline import clip_to_image
from .signal_core import Signal


@dataclass(frozen=True)
class EvalReport:
    confusion: np.ndarray  # [true, predicted] counts
    per_class: tuple  # dicts: name, precision, recall, f1, support
    accuracy: float
    macro_avg: dict
    weighted_avg: dict
    class_names: tuple
    zero_denominator_classes: tuple

    @property
    def num_samples(self) -> int:
        return int(self.confusion.sum())


def compute_report(true_labels, pred_labels, class_names) -> EvalReport:
    """Build the full report from parallel true/predicted label arrays."""
    true_labels = np.asarray(true_labels, dtype=int)
    pred_labels = np.asarray(pred_labels, dtype=int)
    if true_labels.shape != pred_labels.shape or true_labels.ndim != 1:
        raise ValueError("true and predicted labels must be equal-length 1D arrays")
    if len(true_labels) == 0:
        raise ValueError("cannot score an empty evaluation set")
    k = len(class_names)
    if true_labels.max() >= k or pred_labels.max() >= k or true_labels.min() < 0 or pred_labels.min() < 0:
        raise ValueError(f"labels out of range for {k} classes")

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (true_labels, pred_labels), 1)
    diag = np.diag(confusion).astype(np.float64)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    precision = np.divide(diag, predicted, out=np.zeros(k), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros(k), where=support > 0)
    both = precision + recall
    scores = {"precision": precision, "recall": recall,
              "f1": np.divide(2 * precision * recall, both, out=np.zeros(k), where=both > 0)}
    names = tuple(class_names)
    per_class = tuple({"name": name, **{key: float(v[c]) for key, v in scores.items()},
                       "support": int(support[c])} for c, name in enumerate(names))
    total = int(support.sum())
    weights = support / total
    macro = {key: float(v.mean()) for key, v in scores.items()}
    weighted = {key: float(np.sum(weights * v)) for key, v in scores.items()}
    flagged = tuple(names[c] for c in np.flatnonzero((predicted == 0) | (support == 0)))
    return EvalReport(confusion, per_class, float(np.trace(confusion)) / total,
                      {**macro, "support": total}, {**weighted, "support": total}, names, flagged)


def evaluate(net: Network, images, labels, class_names) -> EvalReport:
    """Score a preprocessed test set with the network in eval mode."""
    if len(class_names) != net.config.num_classes:
        raise ValueError(
            f"class count mismatch: network predicts {net.config.num_classes}, "
            f"test set has {len(class_names)}"
        )
    return compute_report(labels, predict(net, images)[0], class_names)


def render_report(report: EvalReport) -> str:
    """Two-decimal text table: per-class rows, accuracy, macro and weighted avgs."""
    width = max(12, max(len(p["name"]) for p in report.per_class))
    header = f"{'':>{width}}  precision    recall  f1-score   support"
    lines = [header, ""]
    for p in report.per_class:
        lines.append(
            f"{p['name']:>{width}}  {p['precision']:9.2f} {p['recall']:9.2f} "
            f"{p['f1']:9.2f} {p['support']:9d}"
        )
    lines.append("")
    lines.append(f"{'accuracy':>{width}}  {'':9} {'':9} {report.accuracy:9.2f} {report.num_samples:9d}")
    for name, row in (("macro avg", report.macro_avg), ("weighted avg", report.weighted_avg)):
        lines.append(
            f"{name:>{width}}  {row['precision']:9.2f} {row['recall']:9.2f} "
            f"{row['f1']:9.2f} {row['support']:9d}"
        )
    if report.zero_denominator_classes:
        lines.append("")
        lines.append(
            "note: zero-denominator precision/recall reported as 0 for: "
            + ", ".join(report.zero_denominator_classes)
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport, seed: int, cfg_hash: str) -> str:
    """Full-precision structured report with run metadata."""
    payload = {
        "accuracy": report.accuracy,
        "num_samples": report.num_samples,
        "class_names": list(report.class_names),
        "confusion": report.confusion.tolist(),
        "per_class": list(report.per_class),
        "macro_avg": report.macro_avg,
        "weighted_avg": report.weighted_avg,
        "zero_denominator_classes": list(report.zero_denominator_classes),
        "seed": seed,
        "config_hash": cfg_hash,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# -- streaming inference ------------------------------------------------------


@dataclass(frozen=True)
class StreamPrediction:
    window_start_s: float
    window_end_s: float
    label: int
    probabilities: np.ndarray


def stream_infer(net: Network, signal: Signal, cfg: RunConfig) -> list[StreamPrediction]:
    """Classify overlapping windows of a long signal, ordered by start time.

    Windows start at 0, stride, 2*stride, ... while they fit entirely inside
    the signal; each window runs the full preprocessing chain independently.
    """
    rate = signal.sample_rate_hz
    win = round(cfg.window_seconds * rate)
    hop = round(cfg.stride_seconds * rate)
    if win < 2 or hop < 1:
        raise ValueError("window and stride must span at least a few samples")
    if len(signal) < win:
        raise ValueError(
            f"signal is {signal.duration_s:.3f} s but one window needs {cfg.window_seconds:.3f} s"
        )
    predictions = []
    work = {}
    for start in range(0, len(signal) - win + 1, hop):
        piece = Signal(signal.samples[start : start + win], rate)
        image = clip_to_image(piece, cfg, work=work)
        labels, probs = predict(net, image.values[None, None].astype(np.float32))
        predictions.append(StreamPrediction(start / rate, (start + win) / rate, int(labels[0]),
                                            probs[0]))
    return predictions


def majority_vote(predictions, k: int):
    """Relabel each window by the majority over a centered k-window
    neighborhood (k odd; with k = 1 each window keeps its own label);
    probabilities are left untouched."""
    if k % 2 == 0:
        raise ValueError("vote window must be odd")
    half = k // 2
    labels = [p.label for p in predictions]
    out = []
    for i, pred in enumerate(predictions):
        lo, hi = max(0, i - half), min(len(labels), i + half + 1)
        votes = np.bincount(labels[lo:hi])
        out.append(StreamPrediction(pred.window_start_s, pred.window_end_s, int(votes.argmax()), pred.probabilities))
    return out


def stream_to_csv(predictions, class_names) -> str:
    header = "start_s,end_s,pred_class,pred_name," + ",".join(
        f"p{i}" for i in range(len(class_names))
    )
    lines = [header]
    for p in predictions:
        probs = ",".join(repr(float(v)) for v in p.probabilities)
        lines.append(
            f"{repr(float(p.window_start_s))},{repr(float(p.window_end_s))},"
            f"{p.label},{class_names[p.label]},{probs}"
        )
    return "\n".join(lines) + "\n"
