"""Span tracing of wvdnet's layers from outside the package.

The tracer swaps the module attributes that callers look up (for example
`wvdnet.pipeline.pseudo_wvd`, which `clip_to_image` calls) for wrappers that
record one span per call: name, parent span, start, end and a few attributes
taken from the arguments. Network layers are traced per instance by shadowing
each layer's `forward` and `backward`. Nothing inside `src/` changes, and
`restore()` puts every original back.

Spans stay in memory until the run ends; `layer_metrics` turns them into the
per-layer figures and `write_spans` stores them as JSON lines.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Span record layout: [name, parent id, start, end, attrs]; the id is the index.
NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name, attrs=None):
        """Return fn wrapped so each call records a span; attrs(args, kwargs)
        supplies the span's attributes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0,
                      attrs(args, kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, attrs=None, restore=True):
        """Replace owner.attr by a traced wrapper, until restore() unless
        restore is false (for objects that die with the traced call)."""
        if restore:
            self._patches.append((owner, attr, vars(owner).get(attr), attr in vars(owner)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def restore(self):
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- wvdnet wiring --------------------------------------------------------

    def install(self):
        """Trace every wvdnet layer the three workloads reach."""
        from wvdnet import datasets, evaluation, neuralnet, pipeline

        def write_attrs(args, kwargs):
            data = args[1]
            return {"bytes": len(data if isinstance(data, bytes) else data.encode())}

        def pwvd_attrs(args, kwargs):
            x, window, stride, bins = args[:4]
            return {"rows": -(-len(x) // stride), "lags": len(window), "bins": bins}

        self.patch(datasets, "preprocess_dataset", "datasets.preprocess_dataset")
        self.patch(datasets, "decode_wav", "datasets.decode_wav")
        self.patch(datasets, "average_channels", "signal_core.average_channels")
        self.patch(datasets, "clip_to_image", "pipeline.clip_to_image")
        self.patch(datasets, "atomic_write_bytes", "ioutil.atomic_write", write_attrs)
        self.patch(datasets, "atomic_write_text", "ioutil.atomic_write", write_attrs)
        self.patch(pipeline, "decimate", "signal_core.decimate")
        self.patch(pipeline, "pad_or_truncate", "signal_core.pad_or_truncate")
        self.patch(pipeline, "analytic_signal", "analytic.analytic_signal")
        self.patch(pipeline, "pseudo_wvd", "tfd.pseudo_wvd", pwvd_attrs)
        self.patch(pipeline, "resize_bilinear", "tfd.resize_bilinear")
        self.patch(pipeline, "normalize_image", "tfd.normalize_image")
        self.patch(evaluation, "stream_infer", "evaluation.stream_infer")
        self.patch(evaluation, "clip_to_image", "pipeline.clip_to_image")
        self.patch(evaluation, "predict", "neuralnet.predict")
        self.patch(neuralnet, "train", "neuralnet.train")

        network_cls = neuralnet.Network
        init = self.wrap(network_cls, "neuralnet.init")

        def traced_network(*args, **kwargs):
            net = init(*args, **kwargs)
            self.instrument(net, restore=False)
            return net

        self._patches.append((neuralnet, "Network", network_cls, True))
        neuralnet.Network = traced_network

    def instrument(self, net, restore=True):
        """Trace one Network instance: the whole pass and each layer."""
        for layer, label in zip(net.layers, layer_labels(net.config)):
            kind = type(layer).__name__

            def fwd_attrs(args, kwargs, kind=kind, layer=layer):
                x = args[0]
                attrs = {"shape": list(x.shape), "train": bool(kwargs.get("train", False))}
                if kind == "Conv2d":
                    attrs["kernel"] = [layer.out_ch, layer.in_ch, layer.kh, layer.kw]
                    attrs["itemsize"] = x.dtype.itemsize
                elif kind == "Linear":
                    attrs["weight_bytes"] = layer.weight.nbytes
                return attrs

            self.patch(layer, "forward", f"neuralnet.{label}.fwd", fwd_attrs, restore)
            self.patch(layer, "backward", f"neuralnet.{label}.bwd", None, restore)
        self.patch(net, "forward", "neuralnet.forward",
                   lambda a, k: {"train": bool(k.get("train", False))}, restore)
        self.patch(net, "backward", "neuralnet.backward", None, restore)


def layer_labels(config):
    """conv1, relu1, pool1, ..., flatten, drop1, fc1, ...: a kind is numbered
    by its order of appearance unless it occurs once."""
    short = {"conv2d": "conv", "maxpool2d": "pool", "relu": "relu", "flatten": "flatten",
             "dropout": "drop", "linear": "fc"}
    kinds = [short[spec["type"]] for spec in config.layers]
    seen = defaultdict(int)
    labels = []
    for kind in kinds:
        seen[kind] += 1
        labels.append(kind if kinds.count(kind) == 1 else f"{kind}{seen[kind]}")
    return labels


# -- analysis -------------------------------------------------------------------


def _durations(spans):
    return [(s[END] - s[START]) * 1e3 for s in spans]


def _p50(values):
    return float(np.median(values)) if values else 0.0


def _p95(values):
    """Nearest-rank 95th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)])


def self_times_ms(spans):
    """Each span's duration minus the time its direct children cover."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ms[s[PARENT]] += (s[END] - s[START]) * 1e3
    return [(s[END] - s[START]) * 1e3 - c for s, c in zip(spans, child_ms)]


def train_steps(spans):
    """Synthesized step intervals inside each traced `train` call.

    A step starts where a training-mode forward pass starts and ends where the
    next forward pass (training or scoring) starts, or where `train` returns.
    So a step covers forward, loss, backward and the SGD update; its self time
    is the loss and the update. Epoch-level shuffling falls outside it.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    steps = []
    for i, s in enumerate(spans):
        if s[NAME] != "neuralnet.train":
            continue
        kids = children[i]
        forwards = [k for k in kids if spans[k][NAME] == "neuralnet.forward"]
        for j, k in enumerate(forwards):
            if not spans[k][ATTRS]["train"]:
                continue
            start = spans[k][START]
            end = spans[forwards[j + 1]][START] if j + 1 < len(forwards) else s[END]
            covered = sum(spans[c][END] - spans[c][START] for c in kids
                          if start <= spans[c][START] < end)
            steps.append(((end - start) * 1e3, (end - start - covered) * 1e3))
    return steps


def stream_windows(spans):
    """Per-window latency inside `stream_infer`: from the start of a window's
    `clip_to_image` to the end of its `predict`."""
    windows = []
    pending = {}
    for s in spans:
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "evaluation.stream_infer":
            continue
        if s[NAME] == "pipeline.clip_to_image":
            pending[s[PARENT]] = s[START]
        elif s[NAME] == "neuralnet.predict" and s[PARENT] in pending:
            windows.append((s[END] - pending.pop(s[PARENT])) * 1e3)
    return windows


def layer_metrics(spans, net_labels, items):
    """Per-layer figures from one traced phase; `items` is the number of
    clips, images or windows the phase completed."""
    by_name = defaultdict(list)
    self_ms = self_times_ms(spans)
    self_by_name = defaultdict(list)
    for s, own in zip(spans, self_ms):
        by_name[s[NAME]].append(s)
        self_by_name[s[NAME]].append(own)
    ms = {name: _durations(group) for name, group in by_name.items()}
    per_item = (lambda n: n / items) if items else (lambda n: 0.0)

    out = {
        "datasets.decode_wav.ms_p50": _p50(ms.get("datasets.decode_wav", [])),
        "ioutil.atomic_write.ms_p50": _p50(ms.get("ioutil.atomic_write", [])),
        "ioutil.atomic_write.bytes": per_item(
            sum(s[ATTRS]["bytes"] for s in by_name.get("ioutil.atomic_write", []))),
        "signal_core.decimate.ms_p50": _p50(ms.get("signal_core.decimate", [])),
        "signal_core.decimate.calls": per_item(len(by_name.get("signal_core.decimate", []))),
        "signal_core.pad_or_truncate.ms_p50": _p50(ms.get("signal_core.pad_or_truncate", [])),
        "analytic.analytic_signal.ms_p50": _p50(ms.get("analytic.analytic_signal", [])),
        "tfd.pseudo_wvd.ms_p50": _p50(ms.get("tfd.pseudo_wvd", [])),
        "tfd.pseudo_wvd.ms_p95": _p95(ms.get("tfd.pseudo_wvd", [])),
        "tfd.resize_bilinear.ms_p50": _p50(ms.get("tfd.resize_bilinear", [])),
        "tfd.normalize_image.ms_p50": _p50(ms.get("tfd.normalize_image", [])),
        "pipeline.clip_to_image.ms_p50": _p50(ms.get("pipeline.clip_to_image", [])),
        "pipeline.clip_to_image.ms_p95": _p95(ms.get("pipeline.clip_to_image", [])),
        "pipeline.clip_to_image.self_ms": _p50(self_by_name.get("pipeline.clip_to_image", [])),
        "neuralnet.init.ms_p50": _p50(ms.get("neuralnet.init", [])),
        "neuralnet.predict.ms_p50": _p50(ms.get("neuralnet.predict", [])),
        "neuralnet.predict.ms_p95": _p95(ms.get("neuralnet.predict", [])),
    }

    # Computed from argument shapes, not timed.
    pwvd = [s[ATTRS] for s in by_name.get("tfd.pseudo_wvd", [])]
    out["tfd.pseudo_wvd.rows"] = _p50([a["rows"] for a in pwvd])
    out["tfd.pseudo_wvd.kernel_mb"] = _p50([a["rows"] * a["lags"] * 16 / 1e6 for a in pwvd])

    # Layer timings come from training-mode passes when the phase trains,
    # so batch-32 steps are not mixed with the smaller scoring batches.
    training = any(s[ATTRS]["train"] for s in by_name.get("neuralnet.forward", []))
    for label in net_labels:
        fwd = [s for s in by_name.get(f"neuralnet.{label}.fwd", [])
               if s[ATTRS]["train"] or not training]
        out[f"neuralnet.{label}.fwd_ms"] = _p50(_durations(fwd))
        out[f"neuralnet.{label}.bwd_ms"] = _p50(ms.get(f"neuralnet.{label}.bwd", []))
        if label.startswith("conv"):
            gflop, cols_mb = [], []
            for s in fwd:
                b, _, h, w = s[ATTRS]["shape"]
                out_ch, in_ch, kh, kw = s[ATTRS]["kernel"]
                # Size-preserving 3x3/stride-1/pad-1 geometry: output is h x w.
                gflop.append(2 * b * out_ch * in_ch * kh * kw * h * w / 1e9)
                cols_mb.append(b * in_ch * kh * kw * h * w * s[ATTRS]["itemsize"] / 1e6)
            out[f"neuralnet.{label}.gflop"] = _p50(gflop)
            out[f"neuralnet.{label}.im2col_mb"] = _p50(cols_mb)
        if label == "fc1":
            out["neuralnet.fc1.weight_mb"] = _p50([s[ATTRS]["weight_bytes"] / 1e6 for s in fwd])

    steps = train_steps(spans)
    out["neuralnet.train_step.ms_p50"] = _p50([t for t, _ in steps])
    out["neuralnet.train_step.self_ms"] = _p50([own for _, own in steps])
    windows = stream_windows(spans)
    out["evaluation.window_ms_p50"] = _p50(windows)
    out["evaluation.window_ms_p95"] = _p95(windows)
    return out


def write_spans(path: Path, spans, header: dict):
    """One JSON line for the run header, then one per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for i, s in enumerate(spans):
            handle.write(json.dumps({"id": i, "name": s[NAME], "parent": s[PARENT],
                                     "start": s[START], "end": s[END], "attrs": s[ATTRS]}) + "\n")
