"""Command-line entry point.

Subcommands: gen-data, train, eval, stream, analyze, grad-check,
compare-pool. Every artifact-producing run writes a manifest.json echoing
the resolved configuration, so a run is reproducible from its manifest
alone. Exit codes: 0 success, 1 usage/config error, 2 IO/format error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import nn
from .analysis import (
    align_videos,
    class_order_sensitivity,
    early_recognition_eval,
    export_embeddings,
    representative_tuples,
)
from .config import RunConfig, resolve_config
from .data import PRESETS, generate_dataset, read_features, write_features
from .errors import ConfigError, FormatError, InputError, TrainingDivergedError, TrnError
from .gradcheck import max_relative_error
from .relation import load_model, save_model
from .sampling import SamplingPlan
from .streaming import replay_dataset
from .training import (
    TrainConfig,
    build_model,
    compare_poolings,
    evaluate,
    rng_streams,
    train,
)

COMMANDS = ("gen-data", "train", "eval", "stream", "analyze", "grad-check", "compare-pool")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_FLAGS = (
    ("out-dir", "output directory for artifacts"),
    ("seed", "master seed"),
    ("precision", "float32 or float64"),
    ("preset", f"dataset preset, one of {sorted(PRESETS)}"),
    ("train-data", "training TRNF file"),
    ("val-data", "validation TRNF file"),
    ("data", "input TRNF file"),
    ("model", "model checkpoint path"),
    ("epochs", "training epochs"),
    ("batch-size", "examples per optimizer step"),
    ("learning-rate", "SGD learning rate"),
    ("momentum", "SGD momentum"),
    ("num-frames", "frames sampled per video (N)"),
    ("subsamples", "tuple subsamples per scale (k)"),
    ("sample-mode", "random or center"),
    ("pooling", "temporal-relation, average-pool or single-frame"),
    ("frame-order", "ordered or shuffled"),
    ("hidden-dim", "hidden width of g"),
    ("g-dropout", "dropout rate on g outputs (default off)"),
    ("num-classes", "class count override"),
    ("train-count", "generated training samples"),
    ("val-count", "generated validation samples"),
    ("stride", "stream key-frame spacing"),
    ("tuple-budget", "per-scale tuple cap for streaming, 0 = all"),
    ("fractions", "comma list of early-recognition fractions"),
    ("scale", "relation scale for analyses"),
    ("top-m", "representative tuples to keep"),
    ("anchors", "alignment anchor count"),
    ("scales", "comma list of frame counts for compare-pool"),
    ("poolings", "comma list of poolings for compare-pool"),
    ("check-configs", "random configurations for grad-check"),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trn", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for command in COMMANDS:
        p = sub.add_parser(command, prog=f"trn {command}")
        p.add_argument("--config", help="key = value configuration file")
        for flag, help_text in _FLAGS:
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), help=help_text)
    return parser


def _write_manifest(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"command": cfg.command, "seed": cfg.seed, "config": cfg.to_dict()}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def _plan(cfg: RunConfig) -> SamplingPlan:
    return SamplingPlan(
        num_frames=cfg.num_frames,
        subsamples=cfg.subsamples,
        mode=cfg.sample_mode,
    )


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        seed=cfg.seed,
        plan=_plan(cfg),
        pooling=cfg.pooling,
        frame_order=cfg.frame_order,
        g_dropout=cfg.g_dropout,
    )


def _load_model_for(cfg: RunConfig):
    if cfg.pooling == "temporal-relation":
        return load_model(cfg.model)
    return nn.load_mlp(cfg.model)


def _eval_records(report) -> list[dict]:
    summary = {
        "kind": "summary",
        "top1": report.top1,
        "top5": report.top5,
        "num_samples": report.num_samples,
    }
    rows = [dict(kind="class", **r) for r in report.to_records()]
    return [summary] + rows


def _cmd_gen_data(cfg: RunConfig) -> None:
    cfg.require("preset", "out_dir")
    _write_manifest(cfg)
    spec = PRESETS[cfg.preset]()
    bundle = generate_dataset(
        spec, cfg.seed, {"train": cfg.train_count, "val": cfg.val_count}
    )
    out = Path(cfg.out_dir)
    for split, dataset in bundle.items():
        write_features(out / f"{split}.trnf", dataset)


def _infer_classes(cfg: RunConfig, *datasets) -> int:
    if cfg.num_classes is not None:
        return cfg.num_classes
    return max(int(ds.labels().max()) for ds in datasets if len(ds)) + 1


def _cmd_train(cfg: RunConfig) -> None:
    cfg.require("train_data", "out_dir")
    nn.set_default_dtype(cfg.precision)
    train_set = read_features(cfg.train_data, split="train")
    val_set = read_features(cfg.val_data, split="val") if cfg.val_data else None
    _write_manifest(cfg)
    tc = _train_config(cfg)
    known = [train_set] if val_set is None else [train_set, val_set]
    classes = _infer_classes(cfg, *known)
    model = build_model(
        train_set.feature_dim, classes, tc, cfg.hidden_dim, rng_streams(cfg.seed)["init"]
    )
    model, history = train(model, train_set, tc)
    out = Path(cfg.out_dir)
    checkpoint = out / "model.trnw"
    if cfg.pooling == "temporal-relation":
        save_model(checkpoint, model)
    else:
        nn.save_mlp(checkpoint, model)
    _write_jsonl(
        out / "history.jsonl",
        (
            {"epoch": h.epoch, "loss": h.loss, "accuracy": h.accuracy}
            for h in history
        ),
    )
    if val_set is not None:
        report = evaluate(model, val_set, tc.plan, cfg.pooling, cfg.frame_order)
        _write_jsonl(out / "eval.jsonl", _eval_records(report))
        print(f"val top1 {report.top1:.4f}")


def _cmd_eval(cfg: RunConfig) -> None:
    cfg.require("model", "data", "out_dir")
    nn.set_default_dtype(cfg.precision)
    model = _load_model_for(cfg)
    dataset = read_features(cfg.data)
    _write_manifest(cfg)
    report = evaluate(model, dataset, _plan(cfg), cfg.pooling, cfg.frame_order)
    _write_jsonl(Path(cfg.out_dir) / "eval.jsonl", _eval_records(report))
    print(f"top1 {report.top1:.4f}" + (f" top5 {report.top5:.4f}" if report.top5 is not None else ""))


def _cmd_stream(cfg: RunConfig) -> None:
    cfg.require("model", "data", "out_dir")
    nn.set_default_dtype(cfg.precision)
    model = load_model(cfg.model)
    dataset = read_features(cfg.data)
    _write_manifest(cfg)
    budget = cfg.tuple_budget if cfg.tuple_budget > 0 else None
    records = replay_dataset(dataset, model, stride=cfg.stride, tuple_budget=budget)
    _write_jsonl(Path(cfg.out_dir) / "predictions.jsonl", records)


def _cmd_analyze(cfg: RunConfig) -> None:
    cfg.require("model", "data", "out_dir")
    if cfg.pooling != "temporal-relation":
        raise ConfigError("analyze requires a temporal-relation model")
    nn.set_default_dtype(cfg.precision)
    model = load_model(cfg.model)
    dataset = read_features(cfg.data)
    _write_manifest(cfg)
    out = Path(cfg.out_dir)
    plan = _plan(cfg)

    by_class: dict[int, list] = {}
    for sample in dataset.samples:
        by_class.setdefault(sample.label, []).append(sample)

    rep_records = []
    for label in sorted(by_class):
        for rt in representative_tuples(model, by_class[label][0], cfg.scale, cfg.top_m):
            rep_records.append(
                {
                    "class": label,
                    "scale": rt.scale,
                    "indices": list(rt.indices),
                    "response": rt.response,
                }
            )
    _write_jsonl(out / "representative.jsonl", rep_records)

    align_records = []
    for label in sorted(by_class):
        group = by_class[label][:4]
        if len(group) < 2:
            continue
        amap = align_videos(model, group, cfg.anchors)
        for v, (anchor, rates) in enumerate(zip(amap.anchors, amap.warp_rates)):
            align_records.append(
                {
                    "class": label,
                    "video": v,
                    "anchors": list(anchor),
                    "warp_rates": list(rates),
                }
            )
    _write_jsonl(out / "alignment.jsonl", align_records)

    early_records = []
    for fraction in cfg.fractions:
        report = early_recognition_eval(model, dataset, fraction, plan)
        early_records.append(
            {"fraction": fraction, "top1": report.top1, "top5": report.top5}
        )
    _write_jsonl(out / "early.jsonl", early_records)

    _write_jsonl(
        out / "order_sensitivity.jsonl",
        class_order_sensitivity(model, dataset, plan, shuffle_seed=cfg.seed),
    )

    export_embeddings(model, dataset, cfg.scale, out / "embeddings.txt")


def _cmd_grad_check(cfg: RunConfig) -> int:
    if cfg.out_dir is not None:
        _write_manifest(cfg)
    worst = max_relative_error(num_configs=cfg.check_configs, seed=cfg.seed)
    print(f"max relative error: {worst:.3e}")
    if worst >= 1e-4:
        print("gradient check FAILED (tolerance 1e-4)", file=sys.stderr)
        return 3
    return 0


def _cmd_compare_pool(cfg: RunConfig) -> None:
    cfg.require("train_data", "val_data", "out_dir")
    nn.set_default_dtype(cfg.precision)
    train_set = read_features(cfg.train_data, split="train")
    val_set = read_features(cfg.val_data, split="val")
    _write_manifest(cfg)
    rows = compare_poolings(
        train_set,
        val_set,
        _train_config(cfg),
        scales=cfg.scales,
        poolings=cfg.poolings,
        hidden_dim=cfg.hidden_dim,
    )
    _write_jsonl(Path(cfg.out_dir) / "compare_pool.jsonl", rows)
    for row in rows:
        print(f"{row['pooling']:>17} scale {row['scale']}: top1 {row['top1']:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    try:
        cfg = resolve_config(args.command, args.config, overrides)
        if args.command == "gen-data":
            _cmd_gen_data(cfg)
        elif args.command == "train":
            _cmd_train(cfg)
        elif args.command == "eval":
            _cmd_eval(cfg)
        elif args.command == "stream":
            _cmd_stream(cfg)
        elif args.command == "analyze":
            _cmd_analyze(cfg)
        elif args.command == "grad-check":
            return _cmd_grad_check(cfg)
        elif args.command == "compare-pool":
            _cmd_compare_pool(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except TrnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
