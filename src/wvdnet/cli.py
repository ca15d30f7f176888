"""Command-line entry point.

Subcommands: preprocess, synth, train, evaluate, stream, export. Every run
configuration key is available as a flag; `--config FILE` loads a flat
`key = value` file, and flags override file values. Exit codes: 0 success,
1 usage/config error, 2 data or value error (DataError is a ValueError),
3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .config import VALUE_PARSERS, RunConfig, build_config, config_hash, parse_config_file
from .datasets import (
    is_store_current,
    load_manifest,
    load_store,
    preprocess_dataset,
    read_wav,
    split_indices,
)
from .errors import ConfigError, DataError
from .evaluation import (
    evaluate,
    majority_vote,
    render_report,
    report_to_json,
    stream_infer,
    stream_to_csv,
)
from .ioutil import atomic_write_bytes, atomic_write_text, atomic_writer
from .neuralnet import TrainConfig, load_checkpoint, reference_config, save_checkpoint, train
from .pipeline import clip_to_image
from .synth import generate_dataset
from .tfd import image_to_csv, image_to_png_bytes


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if flag == "--out-dir":
            flag = "--out"
        parser.add_argument(
            flag,
            dest=field.name,
            default=None,
            type=VALUE_PARSERS[field.type],
            help=f"override {field.name} (default {field.default})",
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return build_config(file_values, overrides)


def _checkpoint_path(cfg: RunConfig, args: argparse.Namespace) -> Path:
    override = getattr(args, "checkpoint", None)
    return Path(override) if override else Path(cfg.out_dir) / "model.wvdn"


# -- commands ------------------------------------------------------------------


def cmd_preprocess(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.dataset_root:
        raise ConfigError("preprocess needs dataset_root (--dataset-root or config file)")
    manifest = load_manifest(cfg.dataset_root, cfg.source)
    out_dir = Path(cfg.out_dir)
    counts = Counter(rec.label for rec in manifest.records)
    for label, name in enumerate(manifest.class_names):
        print(f"{name}: {counts[label]} clips")
    if is_store_current(manifest, cfg, out_dir):
        print(f"store at {out_dir} is up to date")
        return 0
    summary = preprocess_dataset(manifest, cfg, out_dir, workers=cfg.workers)
    print(f"wrote {summary['written']} arrays to {out_dir} ({summary['skipped']} skipped)")
    return 0


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    out_dir = Path(cfg.out_dir)
    written = generate_dataset(out_dir, cfg)
    print(
        f"wrote {written} clips ({cfg.synth_classes} classes x "
        f"{cfg.synth_clips_per_class} clips) to {out_dir}"
    )
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    store = load_store(cfg.out_dir)
    if len(store) == 0:
        raise DataError(f"store at {cfg.out_dir} holds no clips")
    train_idx, test_idx = split_indices(store.labels, store.folds, cfg)
    if len(train_idx) == 0:
        raise DataError("training split is empty; adjust holdout_fraction or test_fold")
    rows, cols = store.images.shape[2], store.images.shape[3]
    net_config = reference_config((1, rows, cols), len(store.class_names), seed=cfg.seed)
    train_cfg = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        seed=cfg.seed,
    )
    eval_x = store.images[test_idx] if len(test_idx) else None
    eval_y = store.labels[test_idx] if len(test_idx) else None
    net, history = train(
        net_config, store.images[train_idx], store.labels[train_idx], train_cfg, eval_x, eval_y
    )
    ckpt_path = _checkpoint_path(cfg, args)
    with atomic_writer(ckpt_path) as handle:
        save_checkpoint(net, handle, store.class_names)
    lines = ["epoch,train_loss,eval_accuracy"]
    for row in history:
        acc = "" if row["eval_accuracy"] is None else repr(row["eval_accuracy"])
        lines.append(f"{row['epoch']},{repr(row['train_loss'])},{acc}")
    atomic_write_text(Path(cfg.out_dir) / "history.csv", "".join(l + "\n" for l in lines))
    if history and history[-1]["eval_accuracy"] is not None:
        best = max(r["eval_accuracy"] for r in history)
        print(f"trained {cfg.epochs} epochs; best eval accuracy {best:.4f}")
    else:
        print(f"trained {cfg.epochs} epochs")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    store = load_store(cfg.out_dir)
    with open(_checkpoint_path(cfg, args), "rb") as handle:
        net, class_names = load_checkpoint(handle)
    if class_names and class_names != list(store.class_names):
        raise DataError(f"checkpoint classes {class_names} do not match the store's "
                        f"{list(store.class_names)}")
    train_idx, test_idx = split_indices(store.labels, store.folds, cfg)
    subset = {"test": test_idx, "train": train_idx, "all": np.arange(len(store))}[args.split]
    if len(subset) == 0:
        raise DataError(f"selected split {args.split!r} is empty")
    report = evaluate(net, store.images[subset], store.labels[subset], store.class_names)
    print(render_report(report), end="")
    report_path = Path(cfg.out_dir) / "report.json"
    atomic_write_text(report_path, report_to_json(report, cfg.seed, config_hash(cfg)))
    print(f"report: {report_path}")
    return 0


def cmd_stream(cfg: RunConfig, args: argparse.Namespace) -> int:
    signal = read_wav(args.wav)
    with open(_checkpoint_path(cfg, args), "rb") as handle:
        net, class_names = load_checkpoint(handle)
    if not class_names:
        class_names = [str(i) for i in range(net.config.num_classes)]
    predictions = majority_vote(stream_infer(net, signal, cfg), cfg.vote_windows)
    csv_text = stream_to_csv(predictions, class_names)
    out_path = Path(args.output) if args.output else Path(cfg.out_dir) / "stream.csv"
    atomic_write_text(out_path, csv_text)
    print(f"{len(predictions)} windows -> {out_path}")
    return 0


def cmd_export(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not args.png and not args.csv:
        raise ConfigError("export needs --png and/or --csv output paths")
    image = clip_to_image(read_wav(args.clip), cfg)
    if args.png:
        atomic_write_bytes(args.png, image_to_png_bytes(image))
        print(f"png: {args.png}")
    if args.csv:
        atomic_write_text(args.csv, image_to_csv(image))
        print(f"csv: {args.csv}")
    return 0


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvdnet",
        description="Classify audio clips via quadratic time-frequency images and a small CNN.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    commands = {
        "preprocess": (cmd_preprocess, "decode a dataset and materialize its image store"),
        "synth": (cmd_synth, "generate a labeled synthetic WAV dataset"),
        "train": (cmd_train, "train the classifier on a preprocessed store"),
        "evaluate": (cmd_evaluate, "score a checkpoint and write the report"),
        "stream": (cmd_stream, "classify overlapping windows of a long recording"),
        "export": (cmd_export, "export one clip's image as PNG and/or CSV"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        p.set_defaults(func=func)
        if name in ("train", "evaluate", "stream"):
            p.add_argument("--checkpoint", help="checkpoint path (default OUT_DIR/model.wvdn)")
        if name == "evaluate":
            p.add_argument("--split", choices=("test", "train", "all"), default="test")
        if name == "stream":
            p.add_argument("wav", help="input WAV file")
            p.add_argument("--output", help="prediction CSV path (default OUT_DIR/stream.csv)")
        if name == "export":
            p.add_argument("clip", help="input WAV clip")
            p.add_argument("--png", help="PNG output path")
            p.add_argument("--csv", help="CSV output path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code == 2 else code  # argparse usage errors exit 2; remap
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        cfg = _config_from_args(args)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
