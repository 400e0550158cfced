"""Dataset splitting, the SGD training loop, and test-set evaluation.

Training iterates seeded-shuffled mini-batches and applies one plain SGD
step per batch. The forward pass runs image by image, drawing each image's
dropout mask in turn, and keeps every layer's output and mask. The backward
pass runs once per mini-batch on those lists, each entry stacked along a
leading batch axis (so its memory grows with the batch size); it builds the
pooling argmax masks there, from the pooled maps, where it also takes the
convolutions' sigmoid derivatives. Evaluation builds none. The summed
gradients are averaged over the batch. Each batch hands the previous
batch's gradients back to the backward pass, which overwrites their fully
connected weight arrays, the largest a step returns: the heap stays in
place, and after the first batch a step takes almost no fresh pages from
the system. A ``train`` call starts from none, so no two calls share them.
The per-epoch mean sample loss and wall time feed the learning-curve and
timing reports.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, one_hot
from .layers import LayerState, mse_loss
from .network import Network, network_backward, network_forward, predict


class DivergenceError(ValueError):
    """Training produced a non-finite loss, weight or bias."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1.0
    batch_size: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainingReport:
    per_epoch_error: list
    per_epoch_seconds: list
    total_seconds: float
    avg_seconds_per_epoch: float
    final_train_error: float


@dataclass
class EvalReport:
    accuracy_percent: float
    confusion: np.ndarray
    sample_count: int


def _check_train_fraction(train_fraction: float) -> None:
    """Raise unless ``train_fraction`` lies in the open interval (0,1)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0,1), got {train_fraction}")


def split_dataset(ds: Dataset, train_fraction: float, seed: int):
    """Stratified split: per populated class, shuffle and take
    round-half-up(n * fraction) samples for training."""
    _check_train_fraction(train_fraction)
    by_class: dict[int, list[int]] = {}
    for i, s in enumerate(ds.samples):
        by_class.setdefault(s.class_index, []).append(i)
    for c, idxs in sorted(by_class.items()):
        if len(idxs) < 2:
            raise ValueError(f"class {c} has {len(idxs)} sample(s); need >= 2")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in sorted(by_class):
        idxs = np.array(by_class[c])
        rng.shuffle(idxs)
        n_train = int(np.floor(len(idxs) * train_fraction + 0.5))
        train_idx.extend(idxs[:n_train])
        test_idx.extend(idxs[n_train:])
    train = Dataset(samples=[ds.samples[i] for i in train_idx], labels=ds.labels)
    test = Dataset(samples=[ds.samples[i] for i in test_idx], labels=ds.labels)
    return train, test


def sgd_update(net: Network, grads: list, learning_rate: float) -> Network:
    """In place, w <- w - lr*g over every weight and bias; returns ``net``.

    Every shape and the layer count are checked before any array changes.
    """
    layers = zip(net.config.layer_specs, net.states, grads, strict=True)
    pairs = [(s, g) for _, s, g in layers if s is not None]
    for state, grad in pairs:
        if (
            grad is None
            or grad.weights.shape != state.weights.shape
            or grad.biases.shape != state.biases.shape
        ):
            raise ValueError("gradient shapes do not match network state")
    for state, grad in pairs:
        state.weights -= learning_rate * grad.weights
        state.biases -= learning_rate * grad.biases
    return net


def _stack(per_image: list) -> list:
    """Every image's list, one ``np.stack`` per entry; None stays None."""
    return [None if entry[0] is None else np.stack(entry) for entry in zip(*per_image)]


# A diverging step overflows before the per-batch check can stop it; the
# check reports that, so numpy's own warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(net: Network, train_set: Dataset, config: TrainConfig):
    """Run the SGD loop on a copy of ``net``, which is left unchanged;
    returns the trained copy and a TrainingReport."""
    n = len(train_set)
    if n == 0:
        raise ValueError("training set is empty")
    if config.batch_size > n:
        raise ValueError(f"batch size {config.batch_size} exceeds dataset size {n}")
    classes = net.config.class_count
    targets = np.stack([one_hot(s.class_index, classes) for s in train_set.samples])
    rng = np.random.default_rng(config.seed)
    net = Network(config=net.config, states=[
        None if s is None else LayerState(np.array(s.weights, dtype=np.float64),
                                          np.array(s.biases, dtype=np.float64))
        for s in net.states
    ])

    grads = None
    per_epoch_error = []
    per_epoch_seconds = []
    loop_start = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        epoch_start = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        for number, lo in enumerate(range(0, n, config.batch_size), start=1):
            batch = order[lo : lo + config.batch_size]
            outputs, masks = [], []
            for i in batch:
                scores, image_outputs, image_masks = network_forward(
                    net, train_set.samples[i].image, rng
                )
                loss, _ = mse_loss(scores, targets[i])
                epoch_loss += loss
                outputs.append(image_outputs)
                masks.append(image_masks)
            grads = network_backward(
                net, _stack(outputs), _stack(masks), targets[batch], grads
            )
            inv = 1.0 / len(batch)
            for g in grads:
                if g is not None:
                    g.weights *= inv
                    g.biases *= inv
            sgd_update(net, grads, config.learning_rate)
            if not np.isfinite(epoch_loss) or not all(
                np.isfinite(s.weights).all() and np.isfinite(s.biases).all()
                for s in net.states if s is not None
            ):
                raise DivergenceError(
                    f"epoch {epoch} batch {number} diverged: "
                    "non-finite loss or parameters"
                )
        per_epoch_error.append(epoch_loss / n)
        per_epoch_seconds.append(time.perf_counter() - epoch_start)
    total = time.perf_counter() - loop_start

    report = TrainingReport(
        per_epoch_error=per_epoch_error,
        per_epoch_seconds=per_epoch_seconds,
        total_seconds=total,
        avg_seconds_per_epoch=total / config.epochs,
        final_train_error=per_epoch_error[-1],
    )
    return net, report


def evaluate(net: Network, test_set: Dataset) -> EvalReport:
    """Predict every sample; confusion rows are true classes, columns predicted."""
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    k = net.config.class_count
    for s in test_set.samples:
        if not 0 <= s.class_index < k:
            raise ValueError(
                f"sample class index {s.class_index} is outside the network's "
                f"{k} classes"
            )
    confusion = np.zeros((k, k), dtype=np.int64)
    for s in test_set.samples:
        predicted, _ = predict(net, s.image)
        confusion[s.class_index, predicted] += 1
    count = len(test_set)
    accuracy = 100.0 * float(np.trace(confusion)) / count
    return EvalReport(
        accuracy_percent=accuracy, confusion=confusion, sample_count=count
    )
