import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blprs.checkpoint import (
    BadMagicError,
    CheckpointError,
    ShapeMismatchError,
    TruncatedCheckpointError,
    UnsupportedVersionError,
    load_checkpoint,
    save_checkpoint,
)
from blprs.data import LabelMap
from blprs.layers import LayerState
from blprs.network import Network, NetworkConfig, build_network, predict
from test_training import _reduced_configs


@pytest.fixture(scope="module")
def trained_net():
    return build_network(NetworkConfig(dropout_rate=0.5), seed=31)


def _walk(raw):
    """Independent walk of the file format: the number of weight and bias
    floats, and the offset of every u32 record the config fixes (the layer
    count, each ndim and dim, each bias count, the label count)."""
    pos = 4 + 1 + 8 * 4 + 8  # magic, version, 8 config u32s, dropout f64
    (layer_count,) = struct.unpack_from("<I", raw, pos)
    records, total = [pos], 0
    pos += 4
    for _ in range(layer_count):
        (ndim,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{ndim}I", raw, pos + 4)
        records += range(pos, pos + 4 * (ndim + 1), 4)
        pos += 4 * (ndim + 1)
        n = int(np.prod(dims))
        total += n
        pos += 8 * n
        (bias_count,) = struct.unpack_from("<I", raw, pos)
        records.append(pos)
        pos += 4 + 8 * bias_count
        total += bias_count
    return total, [*records, pos]


def _count_payload_floats(path):
    """Independent walk of the file format, summing weight/bias elements."""
    return _walk(path.read_bytes())[0]


class TestSave:
    def test_two_saves_byte_identical(self, trained_net, tmp_path):
        a, b = tmp_path / "a.blpr", tmp_path / "b.blpr"
        save_checkpoint(trained_net, LabelMap(), a)
        save_checkpoint(trained_net, LabelMap(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_and_version_prefix(self, trained_net, tmp_path):
        path = tmp_path / "m.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        assert path.read_bytes()[:5] == b"BLPR\x01"

    def test_default_payload_has_97084_floats(self, trained_net, tmp_path):
        path = tmp_path / "n.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        assert _count_payload_floats(path) == 97084

    @pytest.mark.parametrize("relayout", [
        lambda w: w.astype(">f8"),  # big-endian
        lambda w: np.repeat(w, 2, axis=-1)[..., ::2],  # not contiguous
    ], ids=["big-endian", "strided"])
    def test_bytes_do_not_depend_on_the_array_layout(self, trained_net, tmp_path,
                                                     relayout):
        a, b = tmp_path / "a.blpr", tmp_path / "b.blpr"
        save_checkpoint(trained_net, LabelMap(), a)
        net = build_network(NetworkConfig(dropout_rate=0.5), seed=31)
        for s in net.states:
            if s is not None:
                s.weights, s.biases = relayout(s.weights), relayout(s.biases)
        save_checkpoint(net, LabelMap(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_file_left_behind(self, trained_net, tmp_path):
        path = tmp_path / "t.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["t.blpr"]

    @pytest.mark.parametrize("spoil, layer", [
        (lambda states: states.pop(), None),
        (lambda states: states.append(None), None),
        (lambda states: setattr(states[4], "weights", np.zeros((300, 10))), "F1"),
        (lambda states: setattr(states[4], "biases", np.zeros(299)), "F1"),
        (lambda states: states.__setitem__(1, LayerState(np.zeros(1), np.zeros(1))), "S1"),
        (lambda states: states.__setitem__(2, None), "C2"),
    ], ids=["5-states", "7-states", "F1-weights-300x10", "F1-299-biases",
            "state-in-pooling-slot", "None-in-weighted-slot"])
    def test_refuses_a_network_its_config_does_not_describe(self, tmp_path, spoil,
                                                            layer):
        net = build_network(NetworkConfig(), seed=3)
        spoil(net.states)
        path = tmp_path / "r.blpr"
        at_fault = "" if layer is None else f"layer {layer} "
        with pytest.raises(ShapeMismatchError, match=re.escape(f"{path}: {at_fault}")):
            save_checkpoint(net, LabelMap(), path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fields", [
        {"input_shape": (1, 3, 3)},  # fits no 5x5 kernel
        {"input_shape": (1, 2**20, 2**20)},  # gives F1 a dim past u32
        {"input_shape": (1, 34, 34)},  # an odd map reaches the second pool
        {"input_shape": (0, 32, 32)},
        {"kernel_size": 4},  # an odd map reaches the first pool
        {"hidden_units": 2**32},  # past the config record's u32
    ], ids=["side3", "side2**20", "side34", "no-maps", "kernel4", "hidden2**32"])
    def test_config_that_describes_no_network_names_the_file(self, tmp_path, fields):
        net = Network(NetworkConfig(**fields), [None] * 6)
        path = tmp_path / "c.blpr"
        with pytest.raises(ShapeMismatchError,
                           match=re.escape(f"{path}: config describes no valid network")):
            save_checkpoint(net, LabelMap(), path)
        assert list(tmp_path.iterdir()) == []


class TestLoad:
    def test_round_trip_predictions_identical(self, trained_net, tmp_path):
        path = tmp_path / "rt.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        loaded, labels = load_checkpoint(path)
        assert labels.labels == LabelMap().labels
        rng = np.random.default_rng(17)
        for _ in range(100):
            img = rng.random((1, 32, 32))
            cls_a, scores_a = predict(trained_net, img)
            cls_b, scores_b = predict(loaded, img)
            assert cls_a == cls_b
            assert np.array_equal(scores_a, scores_b)

    def test_weights_bit_exact(self, trained_net, tmp_path):
        path = tmp_path / "w.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        loaded, _ = load_checkpoint(path)
        for a, b in zip(trained_net.states, loaded.states):
            if a is None:
                assert b is None
                continue
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_loaded_arrays_own_aligned_writable_memory(self, trained_net, tmp_path):
        path = tmp_path / "o.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        loaded, _ = load_checkpoint(path)
        for state in loaded.states:
            if state is None:
                continue
            for array in (state.weights, state.biases):
                assert array.flags.owndata
                assert array.flags.aligned and array.flags.writeable

    def test_bad_magic(self, trained_net, tmp_path):
        path = tmp_path / "bad.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_unsupported_version(self, trained_net, tmp_path):
        path = tmp_path / "v.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    def test_truncated_mid_weights(self, trained_net, tmp_path):
        path = tmp_path / "tr.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(path)

    def test_every_prefix_is_truncated(self, tmp_path):
        config = NetworkConfig(input_shape=(1, 16, 16), conv1_maps=2, conv2_maps=4,
                               hidden_units=20, dropout_rate=0.0)
        path = tmp_path / "p.blpr"
        save_checkpoint(build_network(config, seed=5), LabelMap(), path)
        clean = path.read_bytes()
        assert len(clean) == 5781
        for end in range(len(clean)):
            path.write_bytes(clean[:end])
            with pytest.raises(TruncatedCheckpointError):
                load_checkpoint(path)

    def test_huge_declared_layer_is_truncated_before_allocation(self, tmp_path):
        path = tmp_path / "big.blpr"
        save_checkpoint(build_network(NetworkConfig(), seed=2), LabelMap(), path)
        raw = bytearray(path.read_bytes())
        huge = 1 << 31  # F1 would need 5 TB
        struct.pack_into("<I", raw, 4 + 1 + 6 * 4, huge)  # hidden_units
        pos = 4 + 1 + 8 * 4 + 8 + 4
        for _ in range(2):  # skip the C1 and C2 records
            (ndim,) = struct.unpack_from("<I", raw, pos)
            dims = struct.unpack_from(f"<{ndim}I", raw, pos + 4)
            pos += 4 + 4 * ndim + 8 * int(np.prod(dims))
            (bias_count,) = struct.unpack_from("<I", raw, pos)
            pos += 4 + 8 * bias_count
        struct.pack_into("<I", raw, pos + 4, huge)  # F1 weight rows
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedCheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_shape_inconsistency(self, trained_net, tmp_path):
        path = tmp_path / "sh.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        # first weight dim sits after magic+version+config+layer_count+ndim
        offset = 4 + 1 + 32 + 8 + 4 + 4
        (dim,) = struct.unpack_from("<I", raw, offset)
        struct.pack_into("<I", raw, offset, dim + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatchError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", range(8))
    def test_zero_config_field_names_the_file(self, trained_net, tmp_path, field):
        # in_maps, in_h, in_w, conv1_maps, conv2_maps, kernel_size,
        # hidden_units, class_count; byte 5 is in_maps. A zero input map
        # count must fail here, naming the file, not at predict.
        path = tmp_path / "z.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 5 + 4 * field, 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatchError,
                           match=re.escape(f"{path}: config describes no valid network")):
            load_checkpoint(path)

    def test_config_too_large_for_its_records_names_the_file(self, trained_net,
                                                             tmp_path):
        # A 2**20-pixel side gives F1 12 * 262141**2 inputs, past a u32 dim.
        path = tmp_path / "l.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2I", raw, 5 + 4, 2**20, 2**20)
        path.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatchError,
                           match=re.escape(f"{path}: config describes no valid network")):
            load_checkpoint(path)

    def test_trailing_garbage(self, trained_net, tmp_path):
        path = tmp_path / "tg.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("rate", [1.0, float("nan")])
    def test_stored_dropout_out_of_range(self, trained_net, tmp_path, rate):
        path = tmp_path / "d.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 4 + 1 + 32, rate)
        path.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatchError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_undecodable_label_names_file(self, trained_net, tmp_path):
        path = tmp_path / "u.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 0xFF  # last byte of the last UTF-8 label
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_wrong_label_count(self, trained_net, tmp_path):
        path = tmp_path / "lc.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        raw = bytearray(path.read_bytes())
        encoded = [label.encode("utf-8") for label in LabelMap().labels]
        count_at = len(raw) - sum(4 + len(e) for e in encoded) - 4
        struct.pack_into("<I", raw, count_at, 15)
        path.write_bytes(bytes(raw[: -(4 + len(encoded[-1]))]))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_class_count_must_match_label_count(self, tmp_path):
        path = tmp_path / "cc.blpr"
        save_checkpoint(build_network(NetworkConfig(class_count=20), seed=1),
                        LabelMap(), path)
        with pytest.raises(ShapeMismatchError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("layer, name", [(0, "C1"), (2, "C2"), (4, "F1"), (5, "F2")])
    @pytest.mark.parametrize("part", ["weights", "biases"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_names_file_and_layer(
        self, tmp_path, layer, name, part, bad
    ):
        net = build_network(NetworkConfig(), seed=4)
        getattr(net.states[layer], part).flat[1] = bad
        path = tmp_path / "nf.blpr"
        save_checkpoint(net, LabelMap(), path)
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: layer {name} ")):
            load_checkpoint(path)

    def test_every_bit_flip_in_tail_loads_or_raises_checkpoint_error(
        self, trained_net, tmp_path
    ):
        path = tmp_path / "f.blpr"
        save_checkpoint(trained_net, LabelMap(), path)
        clean = path.read_bytes()
        for pos in range(len(clean) - 60, len(clean)):
            for bit in range(8):
                raw = bytearray(clean)
                raw[pos] ^= 1 << bit
                path.write_bytes(bytes(raw))
                try:
                    load_checkpoint(path)
                except CheckpointError:
                    pass

    def test_errors_are_distinct_types(self):
        kinds = {BadMagicError, UnsupportedVersionError,
                 TruncatedCheckpointError, ShapeMismatchError}
        assert len(kinds) == 4
        for k in kinds:
            assert issubclass(k, CheckpointError)
            assert issubclass(k, ValueError)


# About 1.6 s on a 2-CPU host.
@settings(max_examples=12, derandomize=True, deadline=None)
@given(config=_reduced_configs().map(lambda c: replace(c, class_count=16)),
       seed=st.integers(0, 2**16))
def test_records_round_trip_and_refuse_every_bit_flip(tmp_path_factory, config, seed):
    net = build_network(config, seed)
    root = tmp_path_factory.mktemp("records")
    first, second = root / "a.blpr", root / "b.blpr"
    save_checkpoint(net, LabelMap(), first)
    loaded, labels = load_checkpoint(first)
    save_checkpoint(loaded, labels, second)
    clean = first.read_bytes()
    assert second.read_bytes() == clean
    for a, b in zip(net.states, loaded.states, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)
    records = _walk(clean)[1]
    assert len(records) == 1 + (5 + 5 + 3 + 3) + 4 + 1
    for pos in records:
        for bit in range(32):
            raw = bytearray(clean)
            raw[pos + bit // 8] ^= 1 << bit % 8
            second.write_bytes(bytes(raw))
            with pytest.raises((ShapeMismatchError, TruncatedCheckpointError),
                               match=re.escape(f"{second}: ")):
                load_checkpoint(second)
