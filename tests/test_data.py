import dataclasses
import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blprs.data import (
    PNM_MAX_FIELD_DIGITS,
    Dataset,
    LabelMap,
    Sample,
    SynthSpec,
    _ROTATION_DEG,
    _SCALE,
    _SHEAR,
    _TRANSLATE_PX,
    _affine_warp,
    _atomic_write,
    _bilinear_resize,
    _bilinear_taps,
    _warp_scratch,
    base_glyph,
    generate_synthetic,
    load_dataset_dir,
    normalize_image,
    one_hot,
    read_pnm,
    write_pgm,
)
from oracles import _affine_warp_reference, generate_synthetic_reference


class TestLabelMap:
    def test_default_has_sixteen_unique(self):
        labels = LabelMap()
        assert len(labels) == 16
        assert len(set(labels.labels)) == 16

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="16"):
            LabelMap(("a", "b"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            LabelMap(("x",) * 16)

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "/", "a\0b"])
    def test_label_that_names_no_class_directory_rejected(self, bad):
        # synth makes a directory per label, so ".." would write outside the tree.
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            LabelMap((bad, *LabelMap().labels[1:]))

    def test_index_round_trip(self):
        labels = LabelMap()
        for i in range(16):
            assert labels.index_of(labels[i]) == i


class TestSample:
    def test_valid_sample(self):
        s = Sample(np.zeros((1, 32, 32)), 3)
        assert s.class_index == 3

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(C,H,W\)"):
            Sample(np.zeros((32, 32)), 0)

    def test_out_of_range_pixels_rejected(self):
        img = np.zeros((1, 32, 32))
        img[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match="0,1"):
            Sample(img, 0)

    def test_nan_pixels_rejected(self):
        with pytest.raises(ValueError, match="0,1"):
            Sample(np.full((1, 32, 32), np.nan), 0)

    def test_dataset_validates_class_indices(self):
        with pytest.raises(ValueError, match="class index"):
            Dataset(samples=[Sample(np.zeros((1, 32, 32)), 16)], labels=LabelMap())


class TestOneHot:
    def test_basic(self):
        assert np.array_equal(one_hot(0, 3), [1.0, 0.0, 0.0])

    def test_sixteen_way(self):
        v = one_hot(2, 16)
        assert v.shape == (16,)
        assert v.sum() == 1.0
        assert v[2] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(16, 16)
        with pytest.raises(ValueError):
            one_hot(-1, 16)

    def test_sum_is_exactly_one(self):
        for i in range(16):
            assert one_hot(i, 16).sum() == 1.0


class TestNormalizeImage:
    def test_white_rgb_maps_to_one(self):
        raw = np.full((40, 40, 3), 255, dtype=np.uint8)
        out = normalize_image(raw)
        assert out.shape == (1, 32, 32)
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_pure_red_is_luma_coefficient(self):
        raw = np.zeros((8, 8, 3), dtype=np.uint8)
        raw[:, :, 0] = 255
        out = normalize_image(raw)
        assert np.allclose(out, 0.299, atol=1e-12)

    def test_constant_gray_resize_is_constant(self):
        raw = np.full((64, 64), 100, dtype=np.uint8)
        out = normalize_image(raw)
        assert np.allclose(out, 100 / 255.0, atol=1e-12)

    def test_output_always_in_range(self):
        rng = np.random.default_rng(0)
        for shape in ((10, 50), (100, 7), (32, 32), (3, 3, 3)):
            raw = rng.integers(0, 256, size=shape).astype(np.uint8)
            out = normalize_image(raw)
            assert out.shape == (1, 32, 32)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_image(np.zeros((0, 5)))

    @pytest.mark.parametrize("size", [32, 40])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_pixels_rejected(self, size, value):
        raw = np.full((size, size), 100.0)
        raw[3, 5] = value
        with pytest.raises(ValueError, match="non-finite"):
            normalize_image(raw)
        rgb = np.full((size, size, 3), 100.0)
        rgb[3, 5, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            normalize_image(rgb)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(raw=hnp.arrays(np.uint8, st.sampled_from([(32, 32), (32, 32, 3)])))
def test_normalize_32x32_equals_the_resampled_formula(raw):
    gray = raw.astype(np.float64)
    if raw.ndim == 3:
        gray = 0.299 * gray[:, :, 0] + 0.587 * gray[:, :, 1] + 0.114 * gray[:, :, 2]
    expected = np.clip(_bilinear_resize(gray / 255.0, 32, 32), 0.0, 1.0)[None]
    assert normalize_image(raw).tobytes() == expected.tobytes()


class TestAtomicWrite:
    def test_replaces_the_target(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        _atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]

    def test_failed_replace_removes_the_temporary_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            _atomic_write(target, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failed_write_removes_the_temporary_file(self, tmp_path, monkeypatch):
        def full_disk(self, data):
            with open(self, "wb") as f:
                f.write(data[:1])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(type(tmp_path), "write_bytes", full_disk)
        with pytest.raises(OSError, match="No space"):
            _atomic_write(tmp_path / "f.bin", b"payload")
        assert list(tmp_path.iterdir()) == []


class TestPnmIo:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(17, 23)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, pixels)
        assert np.array_equal(read_pnm(path), pixels)

    @pytest.mark.parametrize("pixels", [
        np.full((2, 2), 300),
        [[-1.0, 0.5], [255.9, 256]],
        [[np.nan, 0.0]],
        np.zeros((0, 5), dtype=np.uint8),
    ], ids=["300", "fractions-and-out-of-range", "nan", "empty"])
    def test_write_refuses_what_read_cannot_give_back(self, tmp_path, pixels):
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            write_pgm(path, pixels)
        assert list(tmp_path.iterdir()) == []

    def test_integer_valued_arrays_write_as_their_bytes(self, tmp_path):
        pixels = np.arange(32 * 32).reshape(32, 32) % 256
        for dtype in (np.int64, np.float64, np.uint8):
            write_pgm(tmp_path / f"{np.dtype(dtype).name}.pgm", pixels.astype(dtype))
        payloads = {p.read_bytes() for p in tmp_path.iterdir()}
        assert payloads == {b"P5\n32 32\n255\n" + pixels.astype(np.uint8).tobytes()}

    def test_ppm_read(self, tmp_path):
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n3 2\n255\n" + pixels.tobytes())
        assert np.array_equal(read_pnm(path), pixels)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        for header in (
            b"P5\n# made by hand\n2 2\n255\n",
            b"P5#a\n2\n#b\n2\n#c\n255\n",
            b"P5\t2\x0b2\x0c255\r",
            b"P5 \t\x0b\x0c\r\n2\n\n2 # x # y\n\t255\t",
        ):
            path.write_bytes(header + b"\x00\x01\x02\x03")
            assert np.array_equal(read_pnm(path), [[0, 1], [2, 3]])

    @pytest.mark.parametrize("content", [
        b"P5\n2 2\n# comment at the end of the file",
        b"P5\n2#3 2\n255\n\x00\x01\x02\x03\x04\x05",
        b"P5\n2 2 25#5\n\x00\x01\x02\x03",
    ])
    def test_malformed_header(self, tmp_path, content):
        path = tmp_path / "img.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed header"):
            read_pnm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="binary"):
            read_pnm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pnm(path)

    @pytest.mark.parametrize("content", [
        b"P5\n0 0\n255\n",
        b"P5\n0 3\n255\n",
        b"P6\n3 00\n255\n",
    ])
    def test_zero_sized_image_names_the_file(self, tmp_path, content):
        path = tmp_path / "img.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_pnm(path)

    @pytest.mark.parametrize("field", range(3))
    def test_overlong_header_field_names_the_file(self, tmp_path, field):
        fields = [b"2", b"1", b"255"]
        fields[field] = b"1" * 5000
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n" + b" ".join(fields) + b"\n\x00\x01")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*digits"):
            read_pnm(path)

    def test_large_ppm_is_read_whole_into_a_writable_array_of_its_own(self, tmp_path):
        pixels = np.random.default_rng(8).integers(0, 256, (300, 400, 3), dtype=np.uint8)
        path = tmp_path / "big.ppm"
        path.write_bytes(b"P6\n400 300\n255\n" + pixels.tobytes())
        got = read_pnm(path)
        assert got.shape == (300, 400, 3)
        assert got.tobytes() == pixels.tobytes()
        assert got.flags.writeable and got.flags.owndata

    def test_longest_accepted_header_field(self, tmp_path):
        path = tmp_path / "img.pgm"
        width = b"2".rjust(PNM_MAX_FIELD_DIGITS, b"0")
        path.write_bytes(b"P5\n" + width + b" 1\n255\n\x00\x01")
        assert np.array_equal(read_pnm(path), [[0, 1]])
        path.write_bytes(b"P5\n0" + width + b" 1\n255\n\x00\x01")
        with pytest.raises(ValueError, match="digits"):
            read_pnm(path)


# A netpbm header as the format defines it: magic, then width, height and
# maxval as decimal tokens separated by whitespace and '#' comments that run
# to the end of their line, then one whitespace byte before the pixels.
_SEP = rb"(?:\s|#[^\n]*\n)*"
_FIELD = rb"(\d{1,%d})(?=\s)" % PNM_MAX_FIELD_DIGITS
_PNM_HEADER = re.compile(
    rb"P([56])" + _SEP + _FIELD + _SEP + _FIELD + _SEP + _FIELD + rb"\s"
)


def _expected_pixels(data):
    """Pixels a correct reader returns for ``data``, or None if it must fail."""
    m = _PNM_HEADER.match(data)
    if m is None:
        return None
    channels = 1 if m[1] == b"5" else 3
    width, height, maxval = int(m[2]), int(m[3]), int(m[4])
    count = width * height * channels
    if width < 1 or height < 1 or maxval != 255 or len(data) - m.end() < count:
        return None
    pixels = np.frombuffer(data, np.uint8, count, m.end())
    return pixels.reshape((height, width) if channels == 1 else (height, width, 3))


_MUTATION = st.tuples(
    st.sampled_from(["flip", "truncate", "insert"]),
    st.one_of(st.integers(2, 16), st.integers(0, 200)),  # favour the header fields
    st.sampled_from(list(b" \t\n#0123456789") + [0, 0x80, 0xFF]),
)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    magic=st.sampled_from([b"P5", b"P6"]),
    width=st.integers(1, 4),
    height=st.integers(1, 4),
    comment=st.booleans(),
    seed=st.integers(0, 2**16),
    mutations=st.lists(_MUTATION, min_size=1, max_size=4),
)
def test_read_pnm_fuzzed_header_reads_or_names_the_file(
    tmp_path, magic, width, height, comment, seed, mutations
):
    channels = 1 if magic == b"P5" else 3
    pixels = np.random.default_rng(seed).integers(0, 256, width * height * channels)
    data = bytearray(magic + b"\n" + (b"# c\n" if comment else b"")
                     + b"%d %d\n255\n" % (width, height))
    data += pixels.astype(np.uint8).tobytes()
    for kind, position, byte in mutations:
        position %= len(data) + 1
        if kind == "flip" and position < len(data):
            data[position] ^= byte or 1
        elif kind == "truncate":
            del data[position:]
        elif kind == "insert":
            data.insert(position, byte)
    data = bytes(data)
    path = tmp_path / "fuzz.pnm"
    path.write_bytes(data)
    expected = _expected_pixels(data)
    if expected is None:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_pnm(path)
    else:
        got = read_pnm(path)
        assert got.dtype == np.uint8 and got.shape == expected.shape
        assert np.array_equal(got, expected)


def _write_tree(root, labels, per_class=2, value=255):
    for i, label in enumerate(labels.labels):
        d = root / label
        d.mkdir()
        for n in range(per_class):
            write_pgm(d / f"{n}.pgm", np.full((32, 32), value, dtype=np.uint8))


class TestLoadDatasetDir:
    def test_counts_preserved(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=3)
        ds = load_dataset_dir(tmp_path, labels)
        assert len(ds) == 48

    def test_directory_inside_a_class_is_skipped(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=2)
        (tmp_path / labels[0] / "nested").mkdir()
        assert len(load_dataset_dir(tmp_path, labels)) == 32

    def test_broken_symlink_named_in_error(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=2)
        link = tmp_path / labels[5] / "9.pgm"
        link.symlink_to(tmp_path / "missing.pgm")
        with pytest.raises(ValueError, match=re.escape(f"{link}: symbolic link to no file")):
            load_dataset_dir(tmp_path, labels)

    def test_symlinks_to_a_file_and_a_directory_are_followed(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=2)
        class_dir = tmp_path / labels[0]
        (class_dir / "linked.pgm").symlink_to(class_dir / "0.pgm")
        (class_dir / "linked_dir").symlink_to(tmp_path / labels[1], target_is_directory=True)
        ds = load_dataset_dir(tmp_path, labels)
        assert len(ds) == 33
        assert np.array_equal(ds.samples[2].image, ds.samples[0].image)

    def test_unknown_subdirectory_named_in_error(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=1)
        (tmp_path / "stray").mkdir()
        with pytest.raises(ValueError, match="stray"):
            load_dataset_dir(tmp_path, labels)

    def test_white_image_normalizes_to_one(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=1, value=255)
        ds = load_dataset_dir(tmp_path, labels)
        assert all(np.allclose(s.image, 1.0) for s in ds.samples)

    def test_order_deterministic(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=4)
        a = load_dataset_dir(tmp_path, labels)
        b = load_dataset_dir(tmp_path, labels)
        assert [s.class_index for s in a.samples] == [s.class_index for s in b.samples]
        assert all(np.array_equal(x.image, y.image)
                   for x, y in zip(a.samples, b.samples))

    def test_zero_sized_image_named_in_error(self, tmp_path):
        labels = LabelMap()
        _write_tree(tmp_path, labels, per_class=1)
        bad = tmp_path / labels[3] / "0.pgm"
        bad.write_bytes(b"P5\n0 0\n255\n")
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_dataset_dir(tmp_path, labels)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no class"):
            load_dataset_dir(tmp_path, LabelMap())

    def test_images_are_contiguous_and_share_no_memory(self, tmp_path):
        labels = LabelMap()
        rng = np.random.default_rng(7)
        for label in labels.labels[:3]:
            d = tmp_path / label
            d.mkdir()
            for n, shape in enumerate([(32, 32), (20, 45), (32, 32), (20, 45), (1, 1)]):
                write_pgm(d / f"{n}.pgm", rng.integers(0, 256, shape, dtype=np.uint8))
            _write_pnm(d / "5.ppm", rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
        images = [s.image for s in load_dataset_dir(tmp_path, labels).samples]
        assert len(images) == 18
        for image in images:
            assert image.shape == (1, 32, 32) and image.dtype == np.float64
            assert image.flags.c_contiguous
        for i, a in enumerate(images):
            assert not any(np.shares_memory(a, b) for b in images[i + 1:])


def _write_pnm(path, pixels):
    """Write a uint8 (H,W) array as P5 or an (H,W,3) array as P6."""
    h, w = pixels.shape[:2]
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    path.write_bytes(magic + b"\n%d %d\n255\n" % (w, h) + pixels.tobytes())


_TREE_FILE = st.one_of(
    st.just((32, 32)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.just(3)),
)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    classes=st.lists(
        st.lists(st.tuples(st.text("ab01_", min_size=1, max_size=4), _TREE_FILE),
                 min_size=1, max_size=8, unique_by=lambda f: f[0]),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
def test_load_dataset_dir_equals_per_file_decoding(tmp_path, classes, seed):
    labels = LabelMap()
    rng = np.random.default_rng(seed)
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    for label, files in zip(labels.labels[::5], classes):
        (root / label).mkdir()
        for name, shape in files:
            _write_pnm(root / label / name, rng.integers(0, 256, shape, dtype=np.uint8))
    want = [
        (normalize_image(read_pnm(path)), labels.index_of(d.name))
        for d in sorted(root.iterdir()) for path in sorted(d.iterdir())
    ]
    got = load_dataset_dir(root, labels).samples
    assert len(got) == len(want)
    for sample, (image, class_index) in zip(got, want):
        assert sample.class_index == class_index
        assert sample.image.tobytes() == image.tobytes()


class TestGenerateSynthetic:
    def test_counts_shapes_and_range(self):
        ds = generate_synthetic(SynthSpec(per_class_count=100, seed=1), LabelMap())
        assert len(ds) == 1600
        for s in ds.samples[::97]:
            assert s.image.shape == (1, 32, 32)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_deterministic_given_seed(self):
        spec = SynthSpec(per_class_count=4, seed=77)
        a = generate_synthetic(spec, LabelMap())
        b = generate_synthetic(spec, LabelMap())
        assert all(np.array_equal(x.image, y.image)
                   for x, y in zip(a.samples, b.samples))

    def test_class_glyphs_separable(self):
        # within-class sample spread stays below the gap between any two
        # base glyphs, so the surrogate task is learnable
        ds = generate_synthetic(SynthSpec(per_class_count=10, seed=3), LabelMap())
        within = []
        for c in range(16):
            imgs = [s.image.ravel() for s in ds.samples if s.class_index == c]
            dists = [np.linalg.norm(a - b)
                     for i, a in enumerate(imgs) for b in imgs[i + 1:]]
            within.append(np.mean(dists))
        bases = [base_glyph(c).ravel() for c in range(16)]
        between = np.mean([
            np.linalg.norm(a - b)
            for i, a in enumerate(bases) for b in bases[i + 1:]
        ])
        assert max(within) < between

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(per_class_count=0)

    def test_spec_sets_only_the_count_and_the_seed(self):
        # The perturbation ranges and noise are the recipe's, not the caller's.
        assert [f.name for f in dataclasses.fields(SynthSpec)] == [
            "per_class_count", "seed"]

    @pytest.mark.parametrize("field, value", [
        ("per_class_count", 0),
        ("per_class_count", -1),
        ("seed", -1),
        ("seed", -2**63),
    ])
    def test_unrenderable_spec_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            SynthSpec(**{field: value})

    def test_images_match_the_golden(self):
        # Digest computed when every image was still warped on its own.
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=1), LabelMap())
        digest = hashlib.sha256(b"".join(s.image.tobytes() for s in ds.samples))
        assert digest.hexdigest() == (
            "4dccc0a393ee2b2bd8fffe2437748aaa1692b35b46aab63ef1d2bf735b8320bf"
        )
        assert [s.class_index for s in ds.samples] == [c for c in range(16) for _ in "ab"]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(per_class_count=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_generate_synthetic_equals_the_one_image_reference(per_class_count, seed):
    spec = SynthSpec(per_class_count=per_class_count, seed=seed)
    got = generate_synthetic(spec, LabelMap()).samples
    want = generate_synthetic_reference(spec, base_glyph)
    assert len(got) == len(want)
    for sample, (image, class_index) in zip(got, want):
        assert sample.class_index == class_index
        assert sample.image.tobytes() == image.tobytes()


def _narrow_or_wide(narrow, wide):
    return st.one_of(st.floats(-limit, limit, allow_subnormal=False)
                     for limit in (narrow, wide))


# One image's warp: angle, scale, shear, x and y translation, the recipe's
# ranges or far wider ones.
_WARP = st.tuples(
    _narrow_or_wide(15.0, 180.0),
    st.one_of(st.floats(0.85, 1.15), st.floats(0.1, 4.0)),
    _narrow_or_wide(0.15, 2.0),
    _narrow_or_wide(3.0, 60.0),  # 60 px puts every tap off the glyph
    _narrow_or_wide(3.0, 60.0),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(class_index=st.integers(0, 15),
       chunks=st.lists(st.lists(_WARP, min_size=1, max_size=8), min_size=1, max_size=3))
def test_affine_warp_chunks_equal_the_one_image_reference(class_index, chunks):
    # One scratch serves every chunk, as in generate_synthetic.
    base = base_glyph(class_index)
    scratch = _warp_scratch(8, 32)
    for chunk in chunks:
        got = _affine_warp(base, *zip(*chunk), scratch)
        assert got.shape == (len(chunk), 32, 32)
        for image, warp in zip(got, chunk):
            assert image.tobytes() == _affine_warp_reference(base, *warp).tobytes()


@pytest.mark.parametrize("scale", _SCALE)
@pytest.mark.parametrize("shear", _SHEAR)
def test_the_recipe_s_extreme_warps_render_without_warnings(scale, shear):
    # The recipe's widest rotation and translation, both ways, with each end
    # of its scale and shear ranges.
    angle, t = _ROTATION_DEG[1], _TRANSLATE_PX[1]
    warps = [(angle, scale, shear, t, -t), (-angle, scale, shear, -t, t)]
    base = base_glyph(8)
    with np.errstate(all="raise"):
        got = _affine_warp(base, *zip(*warps), _warp_scratch(8, 32))
    for image, warp in zip(got, warps):
        assert 0.0 <= image.min() <= image.max() <= 1.0
        assert image.tobytes() == _affine_warp_reference(base, *warp).tobytes()


class TestWarpRules:
    """The numpy rules that let a chunk of images be warped together and
    keep the bytes of warping each one alone."""

    def test_stacked_inv_equals_the_per_matrix_inv(self):
        rng = np.random.default_rng(11)
        for k in (1, 3, 8):
            for stack in rng.uniform(-2.0, 2.0, (200, k, 2, 2)):
                inv = np.linalg.inv(stack)
                for i in range(k):
                    assert inv[i].tobytes() == np.linalg.inv(stack[i]).tobytes()

    def test_stacked_matmul_equals_the_per_image_matmul(self):
        rng = np.random.default_rng(12)
        for k in (1, 3, 8):
            a, b, c = rng.uniform(-2.0, 2.0, (3, 200, k, 2, 2))
            b[..., 1, 0] = 0.0  # the zeros of a shear and of a scale matrix
            c[..., 0, 1] = c[..., 1, 0] = 0.0
            for sa, sb, sc in zip(a, b, c):
                stacked = sa @ sb @ sc
                for i in range(k):
                    assert stacked[i].tobytes() == (sa[i] @ sb[i] @ sc[i]).tobytes()

    def test_flat_gather_equals_the_clipped_where(self):
        rng = np.random.default_rng(13)
        n = 32
        img = base_glyph(8) + rng.uniform(0.0, 0.5, (n, n))
        edges = np.array([-50, -3, -2, -1, 0, 1, n - 2, n - 1, n, n + 1, n + 2, 70])
        corners = [
            [a[None] for a in np.meshgrid(edges, edges, indexing="ij")],
            rng.integers(-45, 78, (2, 8, n, n)),
        ]
        for y0, x0 in corners:
            taps = _bilinear_taps(img, y0.copy(), x0.copy(), np.empty(y0.shape))
            for tap, (dy, dx) in zip(taps, ((0, 0), (0, 1), (1, 0), (1, 1))):
                yy, xx = y0 + dy, x0 + dx
                inside = (yy >= 0) & (yy < n) & (xx >= 0) & (xx < n)
                want = np.where(inside, img[np.clip(yy, 0, n - 1),
                                            np.clip(xx, 0, n - 1)], 0.0)
                assert tap.tobytes() == want.tobytes()

    def test_floor_into_an_int_buffer_equals_floor_then_astype(self):
        rng = np.random.default_rng(14)
        src = rng.uniform(-80.0, 80.0, (8, 32, 32))
        src[0, 0, :6] = [-2.0, -1.0, -0.0, 0.0, 1.0, 31.0]
        corners = np.empty(src.shape, dtype=np.intp)
        np.floor(src, out=corners, casting="unsafe")
        assert corners.tobytes() == np.floor(src).astype(np.intp).tobytes()
        frac = src.copy()
        np.subtract(frac, corners, out=frac)
        assert frac.tobytes() == (src - corners).tobytes()


def test_all_paths_produce_valid_samples(tmp_path):
    labels = LabelMap()
    rng = np.random.default_rng(6)
    d = tmp_path / labels[0]
    d.mkdir()
    for n in range(3):
        write_pgm(d / f"{n}.pgm",
                  rng.integers(0, 256, size=(40, 28)).astype(np.uint8))
    for label in labels.labels[1:]:
        sub = tmp_path / label
        sub.mkdir()
        write_pgm(sub / "0.pgm", np.zeros((32, 32), dtype=np.uint8))
    loaded = load_dataset_dir(tmp_path, labels)
    generated = generate_synthetic(SynthSpec(per_class_count=2, seed=0), labels)
    for ds in (loaded, generated):
        for s in ds.samples:
            assert s.image.shape == (1, 32, 32)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
