"""The benchmark's three workloads, each a single-process closed loop.

A workload has a ``setup`` (building its inputs, timed as ``setup_s``) and a
``round`` that the runner repeats until the run's seconds are spent. Every
round runs every stage, so every end-to-end metric is measured on every
workload, with its samples spread over the whole run: on a shared host the
CPU's speed drifts over seconds, and a stage timed in one burst would read
that drift instead of the program. What sets the workloads apart is how much
of each round each stage takes:

- ``train``: two epochs of SGD from the stored warm start over the
  1,760-image training split take ~90 % of a round; time goes to the forward
  and backward kernels and ``sgd_update``.
- ``recognize``: single-image ``predict``, batched ``evaluate`` and in-process
  ``blprs predict`` on 352 held-out images take ~80 %; forward path only.
- ``ingest``: ``blprs synth`` writing a 528-image PGM tree, ``load_dataset_dir``
  reading it back and checkpoint round trips take ~60 %; the engine is
  mostly idle.

The remaining stages run at a small fixed size, among them a one-epoch
training probe on 32 fixed images. ``epilogue`` checks every output against
``reference`` or against a property the method must have. The package is
called only through ``blprs.<module>.<name>`` attribute lookups so that the
tracer sees the benchmark's own calls.
"""
from __future__ import annotations

import contextlib
import io
import math
import re
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import blprs.checkpoint
import blprs.cli
import blprs.data
import blprs.network
import blprs.training
import reference
from make_checkpoint import CHECKPOINT, SYNTH_SEED as WARM_START_SYNTH_SEED

# A fixed training set: with the data drawn from the workload seed, the
# final loss differs by ~10 % between seeds; with only the split and the
# sample order drawn from it, by ~3 %.
TRAIN_DATA_SEED = 1
TRAIN_PER_CLASS = 132  # 2,112 images: 1,760 train / 352 test
TRAIN_FRACTION = 5 / 6
TRAIN_EPOCHS = 2  # per round, so the loss has a first and a last epoch
HELD_PER_CLASS = 22  # 352 held-out images, the size of the desk-scale test split
INGEST_PER_CLASS = 33  # 528 images written and read back per ingest round
SMALL_PER_CLASS = 2  # the synth/load stage of the other workloads: 32 images
PROBE_PER_CLASS = 2  # the training probe: 32 fixed images, one epoch
PROBE_SEED = 1
SETUP_REPEATS = 5
MIN_ACCURACY_PCT = 50.0  # eight times chance for 16 classes
PGM_STEP = 0.5 / 255  # largest change 8-bit quantisation makes to a pixel


# Host-speed calibration. On a shared host the CPU runs up to ~30 % faster or
# slower from one run to the next, and every timing of the run moves with it.
# Each round therefore also times the reference forward pass on a fixed
# random network (code that shares nothing with the package); the runner
# rescales the run's timings to a host on which this takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 4.5e-3


def _calibration_inputs(images: int = 6):
    rng = np.random.default_rng(0)
    shapes = (((6, 1, 5, 5), 6), ((12, 6, 5, 5), 12), ((300, 300), 300), ((16, 300), 16))
    params = [(rng.normal(0.0, 0.2, w), rng.normal(0.0, 0.2, b)) for w, b in shapes]
    return params, rng.random((images, 1, 1, 32, 32))


_CALIBRATION = _calibration_inputs()


def derived_seed(seed: int, stream: int) -> int:
    """An independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def held_out_seed(seed: int) -> int:
    """The synthetic seed of the held-out images; never one used in training."""
    held = derived_seed(seed, 3)
    if held in (WARM_START_SYNTH_SEED, TRAIN_DATA_SEED, PROBE_SEED):
        raise ValueError(f"seed {seed} gives a held-out set used in training")
    return held


class OpFailed(Exception):
    """An operation of the workload raised or returned an error status."""


class Run:
    """What one run gathers: timing samples, single values, work counts for
    the per-layer metrics, operations attempted and failed, and the checks
    that did not hold."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.samples = defaultdict(list)
        self.values = {}
        self.counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.saves = 0
        self.problems: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Call one operation of the package; returns (result, seconds)."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {exc}") from exc
        return result, perf_counter() - start

    def cli(self, argv):
        """Run ``blprs <argv>`` in process; returns (stdout, seconds)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code, seconds = self.op(blprs.cli.main, [str(a) for a in argv])
        if code != 0:
            self.failed += 1
            raise OpFailed(f"blprs {' '.join(map(str, argv))}: exit {code}: {err.getvalue()}")
        return out.getvalue(), seconds

    def check(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def calibrate(self) -> None:
        """Sample how fast the host runs now: one image at a time through
        the reference forward pass, as ``predict`` does."""
        params, images = _CALIBRATION
        start = perf_counter()
        for image in images:
            reference.forward(params, image)
        self.samples["calibration_s"].append(perf_counter() - start)

    def host_speed(self) -> float:
        """How much faster than the reference host this run's host ran."""
        return CALIBRATION_REF_S / float(np.median(self.samples["calibration_s"]))


# --------------------------------------------------------------------------
# Stages

def synth(run: Run, out: Path, per_class: int, seed: int) -> None:
    """``blprs synth`` a tree into the new directory ``out``."""
    text, _ = run.cli(["synth", "--out", out, "--per-class", per_class, "--seed", seed])
    run.check(text.startswith(f"wrote {16 * per_class} samples"), f"synth reported {text.strip()!r}")
    run.counts["synth"] += 16 * per_class


def load(run: Run, root: Path):
    dataset, seconds = run.op(blprs.data.load_dataset_dir, root, blprs.data.LabelMap())
    run.counts["load"] += len(dataset)
    return dataset, seconds


def measure_ingest(run: Run, out: Path, per_class: int, seed: int):
    """Write a tree with ``blprs synth`` and time reading it back."""
    synth(run, out, per_class, seed)
    dataset, seconds = load(run, out)
    run.samples["load_images_per_s"].append(len(dataset) / seconds)
    return dataset


def class_files(root: Path) -> list[Path]:
    """The first image of every class directory under ``root``."""
    return [min(d.iterdir()) for d in sorted(root.iterdir()) if d.is_dir()]


def images_and_labels(dataset):
    images = np.stack([s.image for s in dataset.samples])
    labels = np.array([s.class_index for s in dataset.samples])
    return images, labels


def subset(dataset, step: int):
    return blprs.data.Dataset(samples=dataset.samples[::step], labels=dataset.labels)


def measure_train(run: Run, net, dataset, epochs: int, seed: int):
    config = blprs.training.TrainConfig(epochs=epochs, learning_rate=1.0, batch_size=10, seed=seed)
    (trained, report), seconds = run.op(blprs.training.train, net, dataset, config)
    samples = epochs * len(dataset)
    run.samples["train_us_per_sample"].append(seconds / samples * 1e6)
    run.counts["forward"] += samples
    run.counts["backward"] += samples
    return trained, report.per_epoch_error


def measure_evaluate(run: Run, net, dataset) -> float:
    report, seconds = run.op(blprs.training.evaluate, net, dataset)
    run.samples["eval_us_per_sample"].append(seconds / len(dataset) * 1e6)
    run.counts["forward"] += len(dataset)
    run.counts["eval"] += len(dataset)
    return report.accuracy_percent


def measure_predict(run: Run, net, images) -> np.ndarray:
    """One ``predict`` call per image; returns the stacked scores."""
    scores = np.empty((len(images), 16))
    latencies = run.samples["predict_us"]
    for i, image in enumerate(images):
        (_, scores[i]), seconds = run.op(blprs.network.predict, net, image)
        latencies.append(seconds * 1e6)
    run.counts["forward"] += len(images)
    return scores


_PREDICTED = re.compile(r"^predicted: .* \(class (\d+)\)$", re.M)


def measure_cli_predict(run: Run, model: Path, files) -> list:
    """``blprs predict`` on each file; returns (class, scores) as printed."""
    parsed = []
    for path in files:
        text, seconds = run.cli(["predict", "--model", model, "--image", path])
        run.samples["cli_predict_ms"].append(seconds * 1e3)
        match = _PREDICTED.search(text)
        scores = [float(line.split()[-1]) for line in text.splitlines()[1:]]
        parsed.append((int(match[1]) if match else -1, np.array(scores)))
    run.counts["forward"] += len(files)
    return parsed


def measure_checkpoint(run: Run, net, labels, name: str, repeats: int):
    """Save ``net`` to a new file and time loading it back, ``repeats``
    times; checks each round trip. Returns the last network loaded and its
    file.

    Every save goes to a new file: replacing a file frees its blocks, and on
    a file system mounted with ``discard`` that made the run's other writes
    up to 2x slower, by a different amount in every run."""
    loaded = path = None
    for _ in range(repeats):
        run.saves += 1
        path = run.work / f"{name}-{run.saves}.blpr"
        run.op(blprs.checkpoint.save_checkpoint, net, labels, path)
        (loaded, loaded_labels), seconds = run.op(blprs.checkpoint.load_checkpoint, path)
        run.samples["checkpoint_load_ms"].append(seconds * 1e3)
        run.check(loaded_labels.labels == labels.labels, "checkpoint round trip changed the labels")
        run.check(same_weights(net, loaded), "checkpoint round trip changed the weights")
    return loaded, path


def same_weights(a, b) -> bool:
    def raw(net):
        return [None if s is None else (s.weights.tobytes(), s.biases.tobytes())
                for s in net.states]
    return raw(a) == raw(b)


# --------------------------------------------------------------------------
# Checks against the independent reference

def check_scores(run: Run, params, images, scores, what: str) -> np.ndarray:
    """Scores within TOL of the reference, and the same argmax wherever the
    reference's top-two margin exceeds TOL. Returns the reference scores."""
    ref = reference.forward(params, images)
    diff = float(np.max(np.abs(scores - ref))) if len(ref) else 0.0
    run.check(diff <= reference.TOL, f"{what}: scores differ from the reference by {diff:.3g}")
    sure = reference.confident(ref)
    run.check(np.array_equal(scores.argmax(axis=1)[sure], ref.argmax(axis=1)[sure]),
              f"{what}: argmax differs from the reference")
    return ref


def check_accuracy(run: Run, accuracy: float, ref, labels, what: str) -> None:
    """``accuracy`` equals the reference's, up to images whose argmax is a
    tie within TOL, and is well above chance."""
    ref_accuracy = 100.0 * float(np.mean(ref.argmax(axis=1) == labels))
    # 1e-9 absorbs the rounding of two ways of computing the same percentage.
    slack = 100.0 * float(np.sum(~reference.confident(ref))) / len(labels) + 1e-9
    run.check(abs(accuracy - ref_accuracy) <= slack,
              f"{what}: accuracy {accuracy} but the reference computes {ref_accuracy}")
    run.check(accuracy >= MIN_ACCURACY_PCT, f"{what}: accuracy {accuracy}% is near chance")


def check_cli(run: Run, params, files, parsed) -> None:
    images = np.stack([reference.read_pgm(f) for f in files])
    classes = np.array([c for c, _ in parsed])
    scores = np.stack([s if s.shape == (16,) else np.full(16, np.nan) for _, s in parsed])
    check_scores(run, params, images, scores, "blprs predict")
    run.check(np.array_equal(classes, scores.argmax(axis=1)), "blprs predict: class is not the argmax")


def check_losses(run: Run, losses, what: str) -> None:
    run.check(all(math.isfinite(x) for x in losses), f"{what}: non-finite epoch loss {losses}")
    if len(losses) > 1:
        run.check(losses[-1] < losses[0], f"{what}: final loss not below the first {losses}")


def check_repeat(run: Run, first, again, what: str) -> None:
    run.check(np.array_equal(first, again), f"{what}: a repeated round gave different results")


# --------------------------------------------------------------------------
# Workloads

class Workload:
    """Set-up and bookkeeping shared by the workloads; each subclass chooses
    the stages of its round and their sizes."""

    primary: tuple  # (samples key, higher is better) for the tracing overhead
    loss_stage = "training probe"

    def __init__(self, run: Run):
        self.run = run
        self.first = {}
        self.cli_outputs = {}
        self.rounds = 0

    def repeatable(self, stage: str, output) -> None:
        """Keep a stage's first output; every later round must reproduce it."""
        if stage in self.first:
            check_repeat(self.run, self.first[stage], output, stage)
        else:
            self.first[stage] = output

    def load_warm_start(self) -> None:
        (self.net, self.labels), _ = self.run.op(blprs.checkpoint.load_checkpoint, CHECKPOINT)

    def held_out_setup(self, index: int, seed: int):
        """Held-out images written by ``blprs synth`` and loaded back, the
        training probe's images, and the warm start."""
        root = self.run.work / f"setup{index}"
        synth(self.run, root, HELD_PER_CLASS, seed)
        held, _ = load(self.run, root)
        self.files = class_files(root)
        spec = blprs.data.SynthSpec(per_class_count=PROBE_PER_CLASS, seed=PROBE_SEED)
        self.probe = blprs.data.generate_synthetic(spec, blprs.data.LabelMap())
        self.load_warm_start()
        return held

    def probe_train(self) -> None:
        _, losses = measure_train(self.run, self.net, self.probe, 1, PROBE_SEED)
        self.repeatable("training probe", losses)

    def fresh_dir(self, name: str) -> Path:
        """A new directory for this round. Trees are not deleted until the
        run ends: the file system is mounted with ``discard``, and freeing
        blocks mid-run made later writes and reads slow by up to 2x."""
        return self.run.work / f"{name}{self.rounds}"

    def small_ingest(self) -> None:
        measure_ingest(self.run, self.fresh_dir("small"), SMALL_PER_CLASS,
                       derived_seed(self.run.seed, 5))

    def cli(self, model: Path, count: int) -> None:
        """``blprs predict`` on the next ``count`` class files, in rotation."""
        start = self.rounds * count
        files = [self.files[(start + i) % len(self.files)] for i in range(count)]
        for path, output in zip(files, measure_cli_predict(self.run, model, files)):
            self.repeatable(f"blprs predict {path}", output[1])
            self.cli_outputs.setdefault(path, output)

    def round(self) -> None:
        self.run.calibrate()
        self.stages()
        self.rounds += 1

    def check_outputs(self, params, images, labels) -> None:
        """The checks every workload makes: ``predict`` and ``blprs predict``
        against the reference with ``params``, ``evaluate`` against the
        reference's accuracy on ``images``, and finite, falling losses."""
        run = self.run
        ref = check_scores(run, params, images, self.first["predict"], "predict")
        check_accuracy(run, self.first["evaluate"], ref, labels, "evaluate")
        run.values["accuracy_pct"] = self.first["evaluate"]
        files = list(self.cli_outputs)
        check_cli(run, params, files, [self.cli_outputs[f] for f in files])
        losses = self.first[self.loss_stage]
        check_losses(run, losses, self.loss_stage)
        run.values["train_final_loss"] = losses[-1]


class Train(Workload):
    """SGD, batch 10, lr 1.0, dropout 0.5, from the stored warm start."""

    primary = ("train_us_per_sample", False)
    loss_stage = "train"

    def __init__(self, run: Run):
        super().__init__(run)
        self.split_seed = derived_seed(run.seed, 1)
        self.train_seed = derived_seed(run.seed, 2)

    def setup(self, index: int) -> None:
        root = self.run.work / f"setup{index}"
        synth(self.run, root, TRAIN_PER_CLASS, TRAIN_DATA_SEED)
        data, _ = load(self.run, root)
        self.train_set, self.test_set = blprs.training.split_dataset(
            data, TRAIN_FRACTION, seed=self.split_seed)
        self.images, self.image_labels = images_and_labels(self.test_set)
        self.files = class_files(root)
        self.load_warm_start()

    def stages(self) -> None:
        run = self.run
        trained, losses = measure_train(run, self.net, self.train_set, TRAIN_EPOCHS, self.train_seed)
        self.repeatable("train", losses)
        self.repeatable("evaluate", measure_evaluate(run, trained, self.test_set))
        self.repeatable("predict", measure_predict(run, trained, self.images))
        _, self.saved = measure_checkpoint(run, trained, self.labels, "trained", 2)
        self.cli(self.saved, 4)
        self.small_ingest()

    def epilogue(self) -> None:
        params, _ = reference.read_blpr(self.saved)
        self.check_outputs(params, self.images, self.image_labels)


class Recognize(Workload):
    """The stored checkpoint serving 352 held-out images three ways."""

    primary = ("predict_us", False)

    def __init__(self, run: Run):
        super().__init__(run)
        self.held_seed = held_out_seed(run.seed)

    def setup(self, index: int) -> None:
        self.held = self.held_out_setup(index, self.held_seed)
        self.images, self.image_labels = images_and_labels(self.held)

    def stages(self) -> None:
        run = self.run
        self.repeatable("predict", measure_predict(run, self.net, self.images))
        self.repeatable("evaluate", measure_evaluate(run, self.net, self.held))
        self.cli(CHECKPOINT, 16)
        self.probe_train()
        measure_checkpoint(run, self.net, self.labels, "copy", 1)
        self.small_ingest()

    def epilogue(self) -> None:
        params, _ = reference.read_blpr(CHECKPOINT)
        self.check_outputs(params, self.images, self.image_labels)


class Ingest(Workload):
    """``blprs synth`` then ``load_dataset_dir``, plus checkpoint round trips."""

    primary = ("load_images_per_s", True)

    def __init__(self, run: Run):
        super().__init__(run)
        self.held_seed = held_out_seed(run.seed)
        self.ingest_seed = derived_seed(run.seed, 4)

    def setup(self, index: int) -> None:
        self.sample = subset(self.held_out_setup(index, self.held_seed), 2)
        self.images, self.image_labels = images_and_labels(self.sample)

    def stages(self) -> None:
        run = self.run
        self.tree = self.fresh_dir("ingest")
        self.loaded = measure_ingest(run, self.tree, INGEST_PER_CLASS, self.ingest_seed)
        roundtrip, saved = measure_checkpoint(run, self.net, self.labels, "roundtrip", 2)
        self.repeatable("predict", measure_predict(run, roundtrip, self.images))
        self.repeatable("evaluate", measure_evaluate(run, roundtrip, self.sample))
        self.cli(saved, 2)
        self.probe_train()

    def epilogue(self) -> None:
        run = self.run
        counts = {d.name: sum(1 for _ in d.iterdir()) for d in self.tree.iterdir() if d.is_dir()}
        run.check(sorted(counts) == sorted(self.labels.labels)
                  and set(counts.values()) == {INGEST_PER_CLASS},
                  f"ingest: per-class file counts {counts}")
        spec = blprs.data.SynthSpec(per_class_count=INGEST_PER_CLASS, seed=self.ingest_seed)
        generated = blprs.data.generate_synthetic(spec, self.labels)
        worst = 0.0
        for cls in range(16):
            made = [s.image for s in generated.samples if s.class_index == cls]
            read = [s.image for s in self.loaded.samples if s.class_index == cls]
            if len(made) != len(read):
                worst = math.inf
                break
            worst = max(worst, float(np.max(np.abs(np.stack(made) - np.stack(read)))))
        run.check(worst <= PGM_STEP + 1e-12, f"ingest: reloaded images differ by {worst:.3g}")
        original = np.stack([blprs.network.predict(self.net, image)[1] for image in self.images])
        run.check(np.array_equal(original, self.first["predict"]),
                  "ingest: predictions changed across the checkpoint round trip")
        # The round-tripped network is checked against the stored file itself.
        params, _ = reference.read_blpr(CHECKPOINT)
        self.check_outputs(params, self.images, self.image_labels)


WORKLOADS = {"train": Train, "recognize": Recognize, "ingest": Ingest}
