"""Command-line entry point: train / eval / predict / inspect / synth."""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    LabelMap,
    SynthSpec,
    _atomic_write,
    generate_synthetic,
    load_dataset_dir,
    normalize_image,
    read_pnm,
    write_pgm,
)
from .network import (
    PAPER,
    STANDARD,
    NetworkConfig,
    build_network,
    count_parameters,
    predict,
)
from .training import (
    TrainConfig,
    TrainingReport,
    _check_train_fraction,
    evaluate,
    split_dataset,
    train,
)


def _fmt(x: float) -> str:
    return np.format_float_positional(x, unique=True, trim="0")


def export_curve_csv(report: TrainingReport, path) -> None:
    """Write the per-epoch learning curve: epoch,mean_error,seconds."""
    if not report.per_epoch_error:
        raise ValueError("report has no epochs to export")
    lines = ["epoch,mean_error,seconds"]
    for i, (err, sec) in enumerate(
        zip(report.per_epoch_error, report.per_epoch_seconds), start=1
    ):
        lines.append(f"{i},{_fmt(err)},{_fmt(sec)}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _read_labels_file(path) -> LabelMap:
    try:  # UnicodeDecodeError is a ValueError too; utf-8-sig drops a leading BOM
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
        return LabelMap(tuple(line.strip() for line in lines if line.strip()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_data_dir(root) -> tuple:
    root = Path(root)
    labels_file = root / "labels.txt"
    if not labels_file.is_file():
        raise ValueError(f"{root}: missing labels.txt")
    labels = _read_labels_file(labels_file)
    return load_dataset_dir(root, labels), labels


def _cmd_train(args) -> int:
    if args.curve and args.curve.resolve() == args.out.resolve():
        raise ValueError(f"{args.curve}: --curve names the --out file")
    for path in filter(None, (args.out, args.curve)):
        parent = path.parent
        if not parent.is_dir():
            raise ValueError(f"{path}: directory {parent} does not exist")
        if path.is_dir():
            raise ValueError(f"{path}: is a directory, not a file path")
    tc = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch, seed=args.seed
    )
    config = NetworkConfig(dropout_rate=args.dropout)
    _check_train_fraction(args.split)
    dataset, labels = _load_data_dir(args.data)
    train_set, test_set = split_dataset(dataset, args.split, args.seed)
    net = build_network(config, seed=args.seed)
    net, report = train(net, train_set, tc)
    save_checkpoint(net, labels, args.out)
    if args.curve:
        export_curve_csv(report, args.curve)
    print(f"train samples: {len(train_set)}  test samples: {len(test_set)}")
    print(f"final train error: {_fmt(report.final_train_error)}")
    if len(test_set):
        print(f"test accuracy: {_fmt(evaluate(net, test_set).accuracy_percent)}%")
    print(f"total seconds: {_fmt(report.total_seconds)}")
    print(f"avg seconds/epoch: {_fmt(report.avg_seconds_per_epoch)}")
    return 0


def _cmd_eval(args) -> int:
    net, labels = load_checkpoint(args.model)
    dataset = load_dataset_dir(args.data, labels)
    report = evaluate(net, dataset)
    print(f"accuracy: {_fmt(report.accuracy_percent)}%")
    print("confusion matrix (rows = true, cols = predicted):")
    width = max(len(str(int(v))) for v in report.confusion.ravel())
    for row in report.confusion:
        print(" ".join(f"{int(v):>{width}}" for v in row))
    return 0


def _cmd_predict(args) -> int:
    net, labels = load_checkpoint(args.model)
    image = normalize_image(read_pnm(args.image))
    class_index, scores = predict(net, image)
    print(f"predicted: {labels[class_index]} (class {class_index})")
    for i, score in enumerate(scores):
        print(f"  {labels[i]}  {_fmt(float(score))}")
    return 0


def _cmd_inspect(args) -> int:
    report = count_parameters(NetworkConfig(), args.convention)
    header = ("Layer", "Operation", "Feature maps", "Map size", "Window", "Parameters")
    rows = [
        (r.name, r.operation, str(r.feature_maps), r.map_size, r.window_size,
         f"{r.parameters:,}")
        for r in report.layers
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print(f"total ({report.convention} convention): {report.total:,}")
    return 0


def _cmd_synth(args) -> int:
    if not args.out:
        raise ValueError("--out is empty; name the tree's directory, . for this one")
    labels = _read_labels_file(args.labels) if args.labels else LabelMap()
    spec = SynthSpec(per_class_count=args.per_class, seed=args.seed)
    dataset = generate_synthetic(spec, labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    class_dirs = [out / label for label in labels.labels]
    for class_dir in class_dirs:
        class_dir.mkdir(exist_ok=True)
    counters = [0] * len(labels)
    for sample in dataset.samples:
        c = sample.class_index
        pixels = np.rint(sample.image[0] * 255.0).astype(np.uint8)
        write_pgm(class_dirs[c] / f"{counters[c]:05d}.pgm", pixels)
        counters[c] += 1
    labels_payload = ("\n".join(labels.labels) + "\n").encode("utf-8")
    _atomic_write(out / "labels.txt", labels_payload)
    print(f"wrote {len(dataset)} samples across {len(labels)} classes to {out}")
    return 0


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blprs",
        description="16-class license-plate character recognition, from scratch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True, help="dataset root with labels.txt")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--dropout", type=float, default=NetworkConfig.dropout_rate)
    p.add_argument("--split", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", type=Path, required=True, help="checkpoint file to write")
    p.add_argument("--curve", type=Path, help="learning-curve CSV to write")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("predict", help="classify one PGM/PPM image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("inspect", help="print the per-layer parameter table")
    p.add_argument("--convention", choices=(PAPER, STANDARD), default=PAPER)
    p.set_defaults(handler=_cmd_inspect)

    p = sub.add_parser("synth", help="generate a synthetic dataset tree")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--labels", help="16-line UTF-8 label file overriding defaults")
    p.set_defaults(handler=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
