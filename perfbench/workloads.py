"""The three benchmark workloads.

Each workload builds its inputs from the seed, then runs one timed operation
at a time through the same library functions the CLI commands call:

- train-300:      `neuralnet.train`, one epoch of one batch of 32 images
                  plus scoring a 4-image eval set, 1x300x300 inputs.
- preprocess-44k: `datasets.preprocess_dataset` with workers=1 on four
                  4 s PCM16 clips recorded at 44.1 kHz.
- stream-4k:      `evaluation.stream_infer` over an 11 s stretch of a 4 kHz
                  recording, i.e. eight 4 s windows at a 1 s stride.

Every workload mixes two input groups. The reference group is made from a
fixed seed, and its outputs are compared with the values committed in
reference.json. The seeded group is made from `--seed`; its outputs are
checked for range and finiteness, and every repeat must equal the first
result bit for bit. Operations cycle over the groups, so both are timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
from wvdnet import datasets, evaluation, neuralnet, synth
from wvdnet.config import RunConfig
from wvdnet.signal_core import Signal, average_channels

REFERENCE_SEED = 20221107

# Tolerances of the checks against reference.json.
IMAGE_ATOL = 1e-6  # preprocess: pixels are in [0, 1], stored as float32
LOSS_RTOL = 1e-5  # train: batch loss after one step
UPDATE_RTOL = 1e-3  # train: sampled weight updates, relative to their largest entry
PROB_ATOL = 1e-6  # stream: class probabilities per window


def run_config(smoke: bool, **overrides) -> RunConfig:
    """The paper's geometry, or a tiny one that runs in seconds."""
    if smoke:
        overrides = {"clip_seconds": 0.5, "image_rows": 24, "image_cols": 24,
                     "n_freq_bins": 64, "window_seconds": 0.5, "stride_seconds": 0.125,
                     **overrides}
    return RunConfig(**overrides)


class CheckError(Exception):
    """An output differs from its reference or violates an invariant."""


def _sample(values: np.ndarray, count: int) -> np.ndarray:
    flat = np.asarray(values, dtype=np.float64).ravel()
    return flat[np.linspace(0, flat.size - 1, min(count, flat.size)).astype(int)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


class Workload:
    """Inputs for one run plus the operation the benchmark times.

    build(dir) makes the inputs (repeatable, it is what setup_s times);
    run(i) is the timed operation; check(i, output) raises CheckError when
    the output is wrong. `items` is the number of clips, images or windows
    one operation handles.
    """

    name = ""
    item = ""
    items = 0

    def __init__(self, seed: int, smoke: bool, reference: dict | None):
        self.seed = seed
        self.smoke = smoke
        self.reference = reference  # None: record new reference values instead
        self.recorded: dict = {}
        self.first: dict = {}
        self.skipped = 0

    def build(self, work: Path) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> None:
        raise NotImplementedError

    def same_as_first(self, key, value) -> None:
        """Repeats of an operation on the same input must be bitwise equal."""
        first = self.first.setdefault(key, value)
        if first != value:
            raise CheckError(f"{key}: output differs from the first run on the same input")

    def output_digest(self) -> str:
        """Digest of the first output per input; equal across runs of one commit."""
        h = hashlib.sha256()
        for key in sorted(self.first, key=repr):
            h.update(repr((key, self.first[key])).encode())
        return h.hexdigest()[:16]

    def against_reference(self, key: str, values: dict, compare) -> None:
        if self.reference is None:
            self.recorded.setdefault(key, values)
            return
        if key not in self.reference:
            raise CheckError(f"reference.json has no entry {key!r}")
        compare(self.reference[key], values)


# -- preprocess-44k -------------------------------------------------------------


class Preprocess(Workload):
    name = "preprocess-44k"
    item = "clips"
    items = 4
    SOURCE_RATE_HZ = 44100.0
    SEEDED_PER_CLASS = 3

    def build(self, work):
        cfg = run_config(self.smoke, synth_rate_hz=self.SOURCE_RATE_HZ, synth_classes=3)
        pools = []
        for group, seed, per_class in (("reference", REFERENCE_SEED, 1),
                                       ("seeded", self.seed, self.SEEDED_PER_CLASS)):
            root = work / f"clips-{group}"
            synth.generate_dataset(root, dataclasses.replace(
                cfg, seed=seed, synth_clips_per_class=per_class))
            pools.append(datasets.load_manifest(root, "folder_per_class"))
        reference, seeded = pools
        # Chunk j holds reference clip j and three seeded clips.
        self.chunks = [
            dataclasses.replace(seeded, records=(reference.records[j],)
                                + seeded.records[3 * j: 3 * j + 3])
            for j in range(len(reference.records))
        ]
        self.cfg = cfg
        self.out_dirs = [work / f"store-{j}" for j in range(len(self.chunks))]

    def run(self, i):
        j = i % len(self.chunks)
        summary = datasets.preprocess_dataset(self.chunks[j], self.cfg, self.out_dirs[j],
                                              workers=1)
        return j, summary

    def check(self, i, output):
        j, summary = output
        self.skipped += summary["skipped"]
        if summary != {"written": self.items, "skipped": 0}:
            raise CheckError(f"preprocess_dataset returned {summary}")
        images = datasets.load_store(self.out_dirs[j]).images
        if not np.isfinite(images).all() or images.min() < 0 or images.max() > 1:
            raise CheckError(f"chunk {j}: image values are not finite or outside [0, 1]")
        self.same_as_first(("chunk", j), images.tobytes())
        image = images[0, 0]
        rows, cols = image.shape
        blocks = image[: rows - rows % 10, : cols - cols % 10]
        values = {
            "samples": image[:: -(-rows // 15), :: -(-cols // 15)].ravel().tolist(),
            "block_means": blocks.reshape(10, blocks.shape[0] // 10, 10, -1)
            .mean(axis=(1, 3)).ravel().tolist(),
        }

        def compare(ref, got):
            for field in ref:
                err = np.abs(np.subtract(ref[field], got[field])).max()
                if err > IMAGE_ATOL:
                    raise CheckError(f"reference clip {j}: {field} off by {err:.3g}")

        self.against_reference(f"preprocess-clip-{j}", values, compare)


# -- train-300 ------------------------------------------------------------------


class Train(Workload):
    name = "train-300"
    item = "images"
    items = 32
    CLIPS_PER_CLASS = 12  # 36 clips: 32 to train on, 4 to score
    LEARNING_RATE = 0.01

    def build(self, work):
        cfg = run_config(self.smoke, synth_classes=3, synth_clips_per_class=self.CLIPS_PER_CLASS)
        self.groups = []
        for group, seed in (("reference", REFERENCE_SEED), ("seeded", self.seed)):
            clips, store_dir = work / f"clips-{group}", work / f"store-{group}"
            synth.generate_dataset(clips, dataclasses.replace(cfg, seed=seed))
            manifest = datasets.load_manifest(clips, "folder_per_class")
            datasets.preprocess_dataset(manifest, cfg, store_dir, workers=1)
            store = datasets.load_store(store_dir)
            order = np.random.default_rng(seed).permutation(len(store))
            train_idx, eval_idx = order[: self.items], order[self.items:]
            self.groups.append({
                "name": group,
                "net": neuralnet.reference_config((1, cfg.image_rows, cfg.image_cols),
                                                  len(store.class_names), seed=seed),
                "train_cfg": neuralnet.TrainConfig(
                    epochs=1, batch_size=self.items, learning_rate=self.LEARNING_RATE,
                    momentum=0.9, seed=seed),
                "data": (store.images[train_idx], store.labels[train_idx],
                         store.images[eval_idx], store.labels[eval_idx]),
            })

    def run(self, i):
        g = self.groups[i % len(self.groups)]
        net, history = neuralnet.train(g["net"], *g["data"][:2], g["train_cfg"], *g["data"][2:])
        return g, net, history

    def check(self, i, output):
        g, net, history = output
        weights = [getattr(owner, name) for owner, name in net.param_arrays()]
        loss = history[0]["train_loss"]
        if not np.isfinite(loss) or not all(np.isfinite(w).all() for w in weights):
            raise CheckError(f"{g['name']} group: non-finite loss or weights")
        self.same_as_first(g["name"], (loss, _digest(weights)))
        if g["name"] != "reference":
            return
        if "init" not in g:  # initial weights, to sample the update
            g["init"] = [_sample(w, 64) for w in neuralnet.Network(g["net"]).snapshot()]
        values = {"loss": loss,
                  "updates": [(_sample(w, 64) - w0).tolist() for w, w0 in zip(weights, g["init"])]}

        def compare(ref, got):
            if abs(got["loss"] - ref["loss"]) > LOSS_RTOL * abs(ref["loss"]):
                raise CheckError(f"loss {got['loss']!r} differs from reference {ref['loss']!r}")
            for k, (r, v) in enumerate(zip(ref["updates"], got["updates"])):
                r, v = np.asarray(r), np.asarray(v)
                if np.abs(r - v).max() > UPDATE_RTOL * np.abs(r).max():
                    raise CheckError(f"parameter tensor {k}: update differs from reference")

        self.against_reference("train", values, compare)


# -- stream-4k ------------------------------------------------------------------


def recording(seed: int, seconds: float, rate_hz: float) -> np.ndarray:
    """Tone, chirp and noise segments of 1.5-4 s from synth's generators."""
    rng = np.random.default_rng(seed)
    total = round(seconds * rate_hz)
    parts, length = [], 0
    while length < total:
        n = round(rng.uniform(1.5, 4.0) * rate_hz)
        kind = synth.GENERATOR_KINDS[int(rng.integers(3))]
        if kind == "tone":
            samples, _ = synth.tone_samples(rng, n, rate_hz, (300.0, 700.0))
        elif kind == "chirp":
            samples, _ = synth.chirp_samples(rng, n, rate_hz)
        else:
            samples, _ = synth.noise_burst_samples(rng, n, rate_hz)
        parts.append(samples)
        length += n
    samples = np.concatenate(parts)[:total]
    return samples + 0.005 * rng.standard_normal(total)


class Stream(Workload):
    name = "stream-4k"
    item = "windows"
    items = 8
    SEEDED_CHUNKS = 3

    def build(self, work):
        cfg = run_config(self.smoke)
        rate = cfg.synth_rate_hz
        chunk_s = cfg.window_seconds + (self.items - 1) * cfg.stride_seconds
        # One long recording, decoded the way the stream command reads it:
        # the reference stretch first, then the seeded ones.
        samples = np.concatenate([recording(REFERENCE_SEED, chunk_s, rate),
                                  recording(self.seed, self.SEEDED_CHUNKS * chunk_s, rate)])
        wav = work / "recording.wav"
        work.mkdir(parents=True, exist_ok=True)
        datasets.write_wav_pcm16(wav, samples, rate)
        signal = average_channels(datasets.decode_wav(wav.read_bytes()))
        n = round(chunk_s * rate)
        self.chunks = [Signal(signal.samples[k * n: (k + 1) * n], rate)
                       for k in range(1 + self.SEEDED_CHUNKS)]
        self.net = neuralnet.Network(neuralnet.reference_config(
            (1, cfg.image_rows, cfg.image_cols), 3, seed=REFERENCE_SEED))
        self.cfg = cfg

    def run(self, i):
        k = i % len(self.chunks)
        return k, evaluation.stream_infer(self.net, self.chunks[k], self.cfg)

    def check(self, i, output):
        k, predictions = output
        if len(predictions) != self.items:
            raise CheckError(f"chunk {k}: {len(predictions)} windows, expected {self.items}")
        probs = np.array([p.probabilities for p in predictions])
        labels = [p.label for p in predictions]
        if (not np.isfinite(probs).all() or np.abs(probs.sum(axis=1) - 1).max() > 1e-9
                or labels != probs.argmax(axis=1).tolist()):
            raise CheckError(f"chunk {k}: probabilities are not a distribution over the labels")
        self.same_as_first(("chunk", k), (labels, probs.tobytes()))
        if k != 0:
            return

        def compare(ref, got):
            if ref["labels"] != got["labels"]:
                raise CheckError(f"window labels {got['labels']} differ from {ref['labels']}")
            err = np.abs(np.subtract(ref["probabilities"], got["probabilities"])).max()
            if err > PROB_ATOL:
                raise CheckError(f"window probabilities off by {err:.3g}")

        self.against_reference("stream", {"labels": labels, "probabilities": probs.tolist()},
                               compare)


WORKLOADS = {cls.name: cls for cls in (Train, Preprocess, Stream)}
