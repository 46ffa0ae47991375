"""Command-line entry point.

Subcommands: gen-data, train, infer, eval, shuffle, bench.
Exit codes: 0 success, 1 usage/config error, 2 data error (including any OSError
from reading or writing a file), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from ..atomic import write_atomic
from ..inference import decode_labels, predict_volume
from ..metrics import per_class_metrics
from ..nn import (CheckpointError, NonFiniteWeightsError, ShuffleUNet3d, load_checkpoint,
                  load_into_network)
from ..shuffle import down_shuffle, up_shuffle
from ..tensor import Rng
from ..volume import Volume, VvolError, gen_synthetic, read_vvol, write_manifest, write_vvol
from .bench import DEFAULT_ROWS, bench_report
from .config import ConfigError, TrainConfig, load_config, parse_value
from .train import NumericError, run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_config_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    for f in fields(TrainConfig):
        sub.add_argument(f"--{f.name.replace('_', '-')}", dest=f"cfg_{f.name}",
                         metavar="V", help=argparse.SUPPRESS)


def _collect_config(args) -> TrainConfig:
    overrides = {}
    for f in fields(TrainConfig):
        raw = getattr(args, f"cfg_{f.name}", None)
        if raw is not None:
            overrides[f.name] = raw
    return load_config(args.config, overrides)


def _emit(text: str, out: str | None, what: str) -> None:
    """Write ``text`` atomically to ``out``, or print it when no path is given."""
    if out:
        write_atomic(out, [text.encode("utf-8")])
        print(f"wrote {what} to {out}")
    else:
        print(text, end="")


def cmd_gen_data(args) -> int:
    cfg = _collect_config(args)
    try:
        dataset = gen_synthetic(Rng(cfg.seed).spawn(1).seed, cfg.volumes, cfg.extents,
                                cfg.class_count, cfg.noise_sigma, (cfg.fg_lo, cfg.fg_hi),
                                cfg.spacing)
    except RuntimeError as exc:  # no phantom fits fg_lo..fg_hi
        raise ConfigError(str(exc)) from None
    data_dir = Path(cfg.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i, (image, labels) in enumerate(dataset):
        img_name = f"vol_{i:03d}_img.vvol"
        lab_name = f"vol_{i:03d}_lab.vvol"
        write_vvol(image, data_dir / img_name)
        write_vvol(labels, data_dir / lab_name)
        pairs.append((img_name, lab_name))
    write_manifest(data_dir / "train.manifest", pairs[: cfg.train_split])
    write_manifest(data_dir / "test.manifest", pairs[cfg.train_split :])
    print(f"wrote {len(pairs)} volumes to {data_dir} "
          f"({cfg.train_split} train / {len(pairs) - cfg.train_split} test)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _collect_config(args)
    result = run_training(cfg, quiet=args.quiet)
    print(f"trained {result.iterations_run} iterations in {result.wall_seconds:.1f}s; "
          f"final train loss {result.final_train_loss:.6f}, "
          f"val loss {result.final_val_loss:.6f}, "
          f"val dice {[round(d, 4) for d in result.final_val_dice]}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _collect_config(args)
    net = ShuffleUNet3d(cfg.backbone_spec(), Rng(cfg.seed).spawn(7))
    load_into_network(net, load_checkpoint(args.checkpoint))
    volume = read_vvol(args.input)
    if volume.class_count:
        raise VvolError(f"{args.input}: inference needs an image volume")
    if volume.tensor.shape.c != 1:
        raise VvolError(f"{args.input}: image has {volume.tensor.shape.c} channels, not one")
    probs = predict_volume(net, volume, cfg.patch, cfg.resolved_stride())
    labels = decode_labels(probs)
    write_vvol(probs, args.out_prob)
    write_vvol(labels, args.out_labels)
    print(f"wrote probabilities to {args.out_prob} and labels to {args.out_labels}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred, ref = read_vvol(args.prediction), read_vvol(args.reference)
    for path, volume in ((args.prediction, pred), (args.reference, ref)):
        if not volume.class_count or volume.tensor.shape.c != 1:
            raise VvolError(f"{path}: eval needs a single-channel label volume")
    for what in ("extents", "spacing"):
        if getattr(pred, what) != getattr(ref, what):
            raise VvolError(f"{what} differ: {args.prediction} has {getattr(pred, what)}, "
                            f"{args.reference} has {getattr(ref, what)}")
    rows = per_class_metrics(pred, ref)
    name = Path(args.prediction).stem
    lines = ["volume,class,metric,value"]
    for row in rows:
        for metric in ("dice", "asd", "hausdorff"):
            lines.append(f"{name},{row['class']},{metric},{row[metric]!r}")
    _emit("\n".join(lines) + "\n", args.out, "metrics")
    return EXIT_OK


def cmd_shuffle(args) -> int:
    factors = parse_value("factors", args.factors)
    if min(factors) < 1:
        raise ConfigError(f"shuffle factors {factors} must be >= 1")
    volume = read_vvol(args.input)
    op = down_shuffle if args.direction == "down" else up_shuffle
    try:
        shuffled = op(volume.tensor, factors)
    except ValueError as exc:  # factors that do not fit this volume
        raise VvolError(f"{args.input}: {exc}") from None
    out = Volume(shuffled, volume.spacing, volume.class_count)
    write_vvol(out, args.output)
    print(f"wrote {args.direction}-shuffled volume to {args.output}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise UsageError("--repetitions must be >= 1")
    cfg = _collect_config(args)
    pairs = [row.split(":") for row in args.rows.split(";")]
    if any(len(pair) != 2 for pair in pairs):
        raise UsageError(f"bench rows must be patch:factors pairs, got {args.rows!r}")
    rows = [(parse_value("patch", p), parse_value("factors", f)) for p, f in pairs]
    _emit(json.dumps(bench_report(cfg, rows, args.repetitions), indent=1) + "\n", args.json,
          "benchmark")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voxseg",
                     description="Volumetric segmentation micro-framework "
                                 "built on periodic voxel shuffling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="generate a synthetic dataset")
    _add_config_options(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the shuffle-wrapped U-net")
    _add_config_options(p)
    p.add_argument("--quiet", action="store_true", help="suppress per-validation lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict one volume with tiled patches")
    _add_config_options(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="input image VVOL")
    p.add_argument("--out-prob", required=True, help="output probability VVOL")
    p.add_argument("--out-labels", required=True, help="output label VVOL")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="per-class DOC/ASD/HD between label volumes")
    p.add_argument("--prediction", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", help="metrics CSV path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("shuffle", help="file-level periodic shuffle of a VVOL")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--factors", required=True, help="factors as x,y,z")
    p.add_argument("--direction", choices=("down", "up"), required=True)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("bench", help="cost table across patch sizes and shuffle factors")
    _add_config_options(p)
    p.add_argument("--rows", default=DEFAULT_ROWS,
                   help="semicolon-separated patch:factors rows, each triple as x,y,z")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--json", help="benchmark JSON path (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, NonFiniteWeightsError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (VvolError, CheckpointError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
