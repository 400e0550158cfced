"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the desk-scale end-to-end criterion trains the full network for 100
epochs and takes a few minutes.
"""
import numpy as np
import pytest

from blprs.checkpoint import (
    BadMagicError,
    TruncatedCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from blprs.cli import main
from blprs.data import LabelMap, SynthSpec, generate_synthetic, one_hot
from blprs.layers import (
    CONV,
    FC,
    POOL,
    LayerSpec,
    LayerState,
    dropout_mask,
    layer_backward,
    layer_forward,
)
from blprs.network import (
    PAPER,
    STANDARD,
    NetworkConfig,
    build_network,
    count_parameters,
    network_backward,
    network_forward,
    predict,
)
from blprs.training import TrainConfig, evaluate, split_dataset, train
from oracles import conv2d_reference, gradient_gap, maxpool_reference, numeric_gradient

REDUCED = NetworkConfig(
    input_shape=(1, 16, 16),
    conv1_maps=2,
    conv2_maps=4,
    kernel_size=5,
    hidden_units=20,
    class_count=4,
    dropout_rate=0.0,
)


def _verdict(num, description, ok):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def desk_scale_run():
    """The 16-class surrogate for the published protocol: ~2,100 samples,
    5/6 stratified split, 100 epochs at default hyperparameters."""
    labels = LabelMap()
    dataset = generate_synthetic(SynthSpec(per_class_count=132, seed=0), labels)
    train_set, test_set = split_dataset(dataset, 5.0 / 6.0, seed=42)
    net = build_network(NetworkConfig(), seed=42)
    net, report = train(net, train_set, TrainConfig(epochs=100))
    return net, report, evaluate(net, test_set), len(train_set), len(test_set)


def test_criterion_1_paper_parameter_table():
    report = count_parameters(NetworkConfig(), PAPER)
    per_layer = [l.parameters for l in report.layers]
    ok = per_layer == [156, 0, 1872, 0, 93600, 4816] and report.total == 100444
    _verdict(1, "Table-style parameter arithmetic reproduced exactly", ok)


def test_criterion_2_standard_counts_match_tensors():
    report = count_parameters(NetworkConfig(), STANDARD)
    per_layer = [l.parameters for l in report.layers]
    ok = per_layer == [156, 0, 1812, 0, 90300, 4816] and report.total == 97084
    net = build_network(NetworkConfig(), seed=1)
    actual = [
        s.weights.size + s.biases.size for s in net.states if s is not None
    ]
    ok = ok and actual == [p for p in per_layer if p > 0]
    ok = ok and sum(actual) == 97084
    _verdict(2, "standard counts equal instantiated tensor sizes layer by layer", ok)


def test_criterion_3_shape_chain():
    net = build_network(NetworkConfig(), seed=2)
    _, outputs, _ = network_forward(net, np.random.default_rng(0).random((1, 32, 32)))
    got = [o.shape for o in outputs[1:]]
    ok = got == [(6, 28, 28), (6, 14, 14), (12, 10, 10), (12, 5, 5), (300,), (16,)]
    _verdict(3, "forward shape chain matches the published feature-map sizes", ok)


def _random_layer_instance(kind, rng):
    if kind == CONV:
        cin, cout, k = int(rng.integers(1, 3)), int(rng.integers(1, 3)), 2
        spec = LayerSpec(CONV, cout, k)
        state = LayerState(rng.standard_normal((cout, cin, k, k)),
                           rng.standard_normal(cout))
        x = rng.standard_normal((cin, int(rng.integers(2, 6)), int(rng.integers(2, 6))))
    elif kind == POOL:
        spec, state = LayerSpec(POOL), None
        c = int(rng.integers(1, 3))
        x = rng.permutation(np.arange(c * 16, dtype=np.float64)).reshape(c, 4, 4)
    else:
        n_in, n_out = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        spec = LayerSpec(FC, n_out, dropout_rate=0.4 if rng.integers(2) else 0.0)
        state = LayerState(rng.standard_normal((n_out, n_in)),
                           rng.standard_normal(n_out))
        x = rng.standard_normal(n_in)
    return spec, state, x


def _image_without_pool_ties(net, rng, gap=1e-3):
    """Random input whose pooling windows stay clear of the argmax boundary
    so finite differences cannot flip a winner."""
    while True:
        img = rng.random(net.config.input_shape)
        _, outputs, _ = network_forward(net, img)
        clear = True
        for spec, pool_input in zip(net.config.layer_specs, outputs):
            if spec.kind != POOL:
                continue
            c, h, w = pool_input.shape
            win = (pool_input.reshape(c, h // 2, 2, w // 2, 2)
                   .transpose(0, 1, 3, 2, 4).reshape(-1, 4))
            win = np.sort(win, axis=1)
            if np.min(win[:, 3] - win[:, 2]) < gap:
                clear = False
                break
        if clear:
            return img


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4001)
    worst = 0.0
    instances = 0
    for trial in range(90):
        kind = (CONV, POOL, FC)[trial % 3]
        spec, state, x = _random_layer_instance(kind, rng)
        seed = int(rng.integers(2**31))
        out, mask = layer_forward(spec, state, x, np.random.default_rng(seed))
        direction = rng.standard_normal(out.shape)

        def loss():
            y, m = layer_forward(spec, state, x, np.random.default_rng(seed))
            return float(np.sum((y if m is None else y * m) * direction))

        gi, grads = layer_backward(spec, state, x, direction,
                                   out if spec.apply_sigmoid else None, mask)
        worst = max(worst, gradient_gap(gi, numeric_gradient(loss, x, step=1e-5)))
        if grads is not None:
            worst = max(worst, gradient_gap(
                grads.weights, numeric_gradient(loss, state.weights, step=1e-5)))
            worst = max(worst, gradient_gap(
                grads.biases, numeric_gradient(loss, state.biases, step=1e-5)))
        instances += 1

    for trial in range(12):
        net = build_network(REDUCED, seed=trial)
        img = _image_without_pool_ties(net, rng)
        target = one_hot(int(rng.integers(4)), 4)

        def net_loss():
            scores = network_forward(net, img)[0]
            return 0.5 * float(np.sum((scores - target) ** 2))

        _, outputs, masks = network_forward(net, img)
        grads = network_backward(net, outputs, masks, target)
        for li, g in enumerate(grads):
            if g is None:
                continue
            state = net.states[li]
            worst = max(worst, gradient_gap(
                g.weights, numeric_gradient(net_loss, state.weights, step=1e-5)))
            worst = max(worst, gradient_gap(
                g.biases, numeric_gradient(net_loss, state.biases, step=1e-5)))
        instances += 1

    ok = instances >= 100 and worst < 1e-5
    _verdict(4, f"gradients within 1e-5 of central differences over "
                f"{instances} instances (worst {worst:.2e})", ok)


def test_criterion_5_kernel_oracle_equivalence():
    rng = np.random.default_rng(5001)
    from blprs.tensor import conv2d_valid, maxpool2x2

    worst = 0.0
    for _ in range(100):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        h, w = int(rng.integers(k, 9)), int(rng.integers(k, 9))
        x = rng.standard_normal((cin, h, w))
        kern = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        worst = max(worst, float(np.max(np.abs(
            conv2d_valid(x, kern, b) - conv2d_reference(x, kern, b)))))

        c = int(rng.integers(1, 5))
        ph, pw = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
        px = rng.standard_normal((c, ph, pw))
        pooled = maxpool2x2(px)
        worst = max(worst, float(np.max(np.abs(pooled - maxpool_reference(px)))))
    ok = worst < 1e-12
    _verdict(5, f"conv/pool match brute-force oracles on 100 random tensors "
                f"(worst {worst:.2e})", ok)


def test_criterion_6_desk_scale_learning(desk_scale_run):
    net, report, eval_report, n_train, n_test = desk_scale_run
    errors = report.per_epoch_error
    ratio = errors[-1] / errors[0]
    ok = (
        len(errors) == 100
        and ratio <= 0.5
        and eval_report.accuracy_percent >= 85.0
        and n_train + n_test >= 2100
    )
    _verdict(6, f"desk-scale run: {n_train}/{n_test} split, loss ratio "
                f"{ratio:.4f} <= 0.5, accuracy "
                f"{eval_report.accuracy_percent:.2f}% >= 85%", ok)


def test_criterion_7_training_determinism(tmp_path):
    data_dir = tmp_path / "ds"
    assert main(["synth", "--out", str(data_dir), "--per-class", "132",
                 "--seed", "0"]) == 0
    outputs = []
    for run in ("a", "b"):
        model = tmp_path / f"{run}.blpr"
        curve = tmp_path / f"{run}.csv"
        code = main([
            "train", "--data", str(data_dir), "--epochs", "10",
            "--split", str(5.0 / 6.0), "--seed", "42",
            "--out", str(model), "--curve", str(curve),
        ])
        assert code == 0
        rows = curve.read_text().splitlines()
        no_timing = [",".join(r.split(",")[:2]) for r in rows]
        outputs.append((model.read_bytes(), no_timing))
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    _verdict(7, "two seeded CLI train runs: byte-identical checkpoints and "
                "identical curves (timing excluded)", ok)


def test_criterion_8_dropout_contract():
    mask = dropout_mask((1000, 1000), 0.5, np.random.default_rng(8001))
    kept = np.count_nonzero(mask) / mask.size
    rng = np.random.default_rng(8002)
    spec_drop = LayerSpec(FC, 8, dropout_rate=0.5)
    spec_plain = LayerSpec(FC, 8, dropout_rate=0.0)
    state = LayerState(rng.standard_normal((8, 10)), rng.standard_normal(8))
    x = rng.random(10)
    out_eval, _ = layer_forward(spec_drop, state, x)
    out_plain, _ = layer_forward(spec_plain, state, x)
    ok = 0.49 <= kept <= 0.51 and np.array_equal(out_eval, out_plain)
    _verdict(8, f"dropout keeps {kept:.4f} of 1e6 entries at rate 0.5; "
                f"eval mode is exactly dropout-free", ok)


def test_criterion_9_serialization_round_trip(tmp_path):
    net = build_network(NetworkConfig(), seed=9)
    path = tmp_path / "net.blpr"
    save_checkpoint(net, LabelMap(), path)
    loaded, _ = load_checkpoint(path)
    rng = np.random.default_rng(9001)
    identical = True
    for _ in range(100):
        img = rng.random((1, 32, 32))
        ca, sa = predict(net, img)
        cb, sb = predict(loaded, img)
        identical = identical and ca == cb and np.array_equal(sa, sb)

    raw = bytearray(path.read_bytes())
    corrupt = tmp_path / "bad.blpr"
    corrupt.write_bytes(b"XXXX" + bytes(raw[4:]))
    try:
        load_checkpoint(corrupt)
        magic_ok = False
    except BadMagicError:
        magic_ok = True
    truncated = tmp_path / "short.blpr"
    truncated.write_bytes(bytes(raw[: len(raw) // 2]))
    try:
        load_checkpoint(truncated)
        trunc_ok = False
    except TruncatedCheckpointError:
        trunc_ok = True
    ok = identical and magic_ok and trunc_ok
    _verdict(9, "round-trip predictions bit-identical on 100 images; corrupt "
                "files raise the distinct errors", ok)


def test_criterion_10_report_arithmetic(desk_scale_run):
    _, report, eval_report, _, n_test = desk_scale_run
    ok = (
        report.avg_seconds_per_epoch == report.total_seconds / len(report.per_epoch_error)
        and eval_report.accuracy_percent
        == 100.0 * np.trace(eval_report.confusion) / eval_report.sample_count
        and int(eval_report.confusion.sum()) == n_test
    )
    _verdict(10, "report identities: avg=total/epochs and "
                 "accuracy=100*trace(confusion)/N", ok)
