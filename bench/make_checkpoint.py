"""Regenerate the benchmark's warm-start checkpoint from fixed seeds.

    python3 bench/make_checkpoint.py            # rewrite bench/warm_start.blpr
    python3 bench/make_checkpoint.py --check    # rebuild to a temporary file and
                                                # compare it byte for byte

The recipe is the desk-scale run of the package README, stopped after
WARM_EPOCHS epochs: far enough past the sigmoid/MSE plateau that loss and
accuracy respond smoothly to further training, and accurate enough for the
recognize workload. Only public names that survive the planned pruning are
used (no TrainConfig.dropout_rate or split_fraction, no run_cli).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import _env  # noqa: F401  (pins BLAS threads, puts src/ on the path)

from blprs.checkpoint import save_checkpoint
from blprs.data import LabelMap, SynthSpec, generate_synthetic
from blprs.network import NetworkConfig, build_network
from blprs.training import TrainConfig, split_dataset, train

CHECKPOINT = Path(__file__).resolve().parent / "warm_start.blpr"
SYNTH_SEED = 0
PER_CLASS = 132
TRAIN_FRACTION = 5 / 6
SPLIT_SEED = 42
INIT_SEED = 42
TRAIN_SEED = 42
WARM_EPOCHS = 16


def build(path: Path) -> None:
    labels = LabelMap()
    data = generate_synthetic(SynthSpec(per_class_count=PER_CLASS, seed=SYNTH_SEED), labels)
    train_set, _ = split_dataset(data, TRAIN_FRACTION, seed=SPLIT_SEED)
    net = build_network(NetworkConfig(), seed=INIT_SEED)
    net, report = train(net, train_set, TrainConfig(epochs=WARM_EPOCHS, seed=TRAIN_SEED))
    save_checkpoint(net, labels, path)
    print(f"epoch losses: {report.per_epoch_error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rebuild to a temporary file and compare with the stored one")
    args = parser.parse_args(argv)
    if not args.check:
        build(CHECKPOINT)
        print(f"wrote {CHECKPOINT}")
        return 0
    fresh = CHECKPOINT.with_name(CHECKPOINT.name + ".check")
    try:
        build(fresh)
        same = fresh.read_bytes() == CHECKPOINT.read_bytes()
    finally:
        fresh.unlink(missing_ok=True)
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
