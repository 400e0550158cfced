"""Character-image ingestion and the synthetic 16-class glyph generator.

Samples are (C,H,W) float64 images in [0,1], 32x32 single-channel when
loaded or generated. Image files are binary portable anymaps (PGM P5 / PPM
P6, 8-bit), decoded here so loading stays dependency-free and bit-exact. A
dataset tree is decoded one class directory at a time, with one
normalization per raw image shape; each image's bytes equal those of
``normalize_image(read_pnm(path))``. The generator renders a distinct
procedural stroke pattern per class and perturbs it with one fixed recipe,
a random affine map (rotation, scale, translation, shear) plus Gaussian
noise, standing in for a real collection of plate-character crops. Its
random draws keep a fixed order, image after image; the images of a class
are warped 8 at a time, with the bytes of warping each one alone.
"""
from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor, as_tensor

IMAGE_SIZE = 32
PNM_MAX_FIELD_DIGITS = 9  # far below the digit limit of Python's int()
# One header field: skip whitespace and '#' comments, then take the run of
# non-whitespace bytes. The class is exactly what bytes.isspace() accepts.
_PNM_FIELD = re.compile(rb"(?:[ \t\n\r\x0b\x0c]+|#[^\n]*)*([^ \t\n\r\x0b\x0c]*)")

# Bangla digits 0-9; the six letter slots are placeholders a deployment
# overrides with the plate letters it actually encounters.
DEFAULT_LABELS = (
    "০", "১", "২", "৩", "৪",
    "৫", "৬", "৭", "৮", "৯",
    "ক", "খ", "গ", "ঘ", "ঙ", "চ",
)
CLASS_COUNT = len(DEFAULT_LABELS)


@dataclass(frozen=True)
class LabelMap:
    labels: tuple = DEFAULT_LABELS

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != CLASS_COUNT:
            raise ValueError(
                f"label map needs exactly {CLASS_COUNT} labels, got {len(labels)}"
            )
        for i, label in enumerate(labels):  # each names a class directory
            if label in ("", ".", "..", *labels[:i]) or "/" in label or "\0" in label:
                raise ValueError(f"label {label!r} is repeated or not a directory name")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> str:
        return self.labels[index]

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


@dataclass
class Sample:
    """A (C,H,W) image in [0,1] and its class; the network checks the shape."""

    image: Tensor
    class_index: int

    def __post_init__(self):
        self.image = as_tensor(self.image)
        if self.image.ndim != 3 or not self.image.size:
            raise ValueError("sample image must be a non-empty (C,H,W) array, "
                             f"got shape {self.image.shape}")
        lo, hi = float(self.image.min()), float(self.image.max())
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"pixel values must lie in [0,1], got [{lo}, {hi}]")


@dataclass
class Dataset:
    samples: list
    labels: LabelMap = field(default_factory=LabelMap)

    def __post_init__(self):
        for s in self.samples:
            if not 0 <= s.class_index < len(self.labels):
                raise ValueError(f"class index {s.class_index} outside label map")

    def __len__(self) -> int:
        return len(self.samples)


def one_hot(class_index: int, class_count: int) -> Tensor:
    if not 0 <= class_index < class_count:
        raise ValueError(
            f"class index {class_index} out of range [0,{class_count})"
        )
    v = np.zeros(class_count, dtype=np.float64)
    v[class_index] = 1.0
    return v


# ---------------------------------------------------------------------------
# Portable anymap I/O (binary P5 grayscale / P6 RGB, 8-bit)

def read_pnm(path) -> np.ndarray:
    """Read a binary PGM/PPM file into a uint8 (H,W) or (H,W,3) array."""
    with open(path, "rb", buffering=0) as f:
        raw = f.read()
    if raw[:2] not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if raw[:2] == b"P5" else 3
    pos, fields = 2, []
    for _ in range(3):
        m = _PNM_FIELD.match(raw, pos)
        fields.append(m[1])
        pos = m.end()
    if not all(f.isdigit() for f in fields):
        raise ValueError(f"{path}: malformed header")
    if max(map(len, fields)) > PNM_MAX_FIELD_DIGITS:
        raise ValueError(f"{path}: header field over {PNM_MAX_FIELD_DIGITS} digits")
    width, height, maxval = (int(f) for f in fields)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image is {width}x{height}, needs at least 1x1")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit depth supported, maxval={maxval}")
    pos += 1  # single whitespace byte after the header
    count = width * height * channels
    if len(raw) - pos < count:
        raise ValueError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    if channels == 1:
        return data.reshape(height, width).copy()
    return data.reshape(height, width, 3).copy()


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a non-empty (H,W) array of integers in 0..255 as a binary PGM;
    any other array raises ValueError naming the path, and nothing is written."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or not pixels.size:
        raise ValueError(f"{path}: expected a non-empty 2-D grayscale array, "
                         f"got shape {pixels.shape}")
    if pixels.dtype != np.uint8:
        if not ((pixels >= 0) & (pixels <= 255) & (np.floor(pixels) == pixels)).all():
            raise ValueError(f"{path}: pixel values must be integers in 0..255")
        pixels = pixels.astype(np.uint8)
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _atomic_write(path, header + pixels.tobytes())


def _atomic_write(path, payload: bytes) -> None:
    """Write through a sibling ``.tmp`` file, which is removed if anything fails."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


# ---------------------------------------------------------------------------
# Normalization

def normalize_image(raw: np.ndarray) -> Tensor:
    """Grayscale-convert (Rec.601 luma), scale to [0,1] and clip, as (1,32,32).

    A 32x32 image is only scaled; any other size is bilinear-resampled to
    32x32 first. Non-finite pixels are rejected with ValueError.
    """
    return _normalize_stack(np.asarray(raw)[None])[0]


def _normalize_stack(raw) -> Tensor:
    """``normalize_image`` of each image in an (N,H,W) or (N,H,W,3) stack, as
    (N,1,32,32); a list of same-shaped images is a stack too. Every step is
    elementwise, so each image gets the bytes it gets on its own."""
    pixels = np.array(raw, dtype=np.float64)  # the one copy; scaled in place
    if pixels.ndim == 4 and pixels.shape[3] == 3:
        gray = 0.299 * pixels[..., 0] + 0.587 * pixels[..., 1] + 0.114 * pixels[..., 2]
    elif pixels.ndim == 3:
        gray = pixels
    else:
        raise ValueError(
            f"expected (H,W) or (H,W,3) pixels, got shape {pixels.shape[1:]}"
        )
    if gray.size == 0:
        raise ValueError("empty image")
    if not np.isfinite(gray).all():
        raise ValueError("image has non-finite pixels")
    gray /= 255.0
    if gray.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE):
        # At scale 1 the resample is the identity (every weight is 0), so
        # skipping it for 32x32 input returns the same bytes.
        gray = _bilinear_resize(gray, IMAGE_SIZE, IMAGE_SIZE)
    return np.clip(gray, 0.0, 1.0, out=gray)[:, None]


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center bilinear resampling of the last two axes, with edge clamping."""
    in_h, in_w = img.shape[-2:]
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[..., y0[:, None], x0] * (1 - wx) + img[..., y0[:, None], x1] * wx
    bottom = img[..., y1[:, None], x0] * (1 - wx) + img[..., y1[:, None], x1] * wx
    return top * (1 - wy) + bottom * wy


# ---------------------------------------------------------------------------
# Directory loading

def load_dataset_dir(root, labels: LabelMap) -> Dataset:
    """Load `<root>/<label>/<file>` trees of PGM/PPM images, lexicographically.

    The tree is decoded one class directory at a time: each file is read
    with ``read_pnm``, and the images of one raw shape are normalized
    together, so each sample's bytes equal ``normalize_image(read_pnm(path))``.
    A sample's image is a view of its shape group's array, which holds
    nothing else. A directory inside a class directory is skipped; a
    symbolic link there that leads to no file or directory raises
    ValueError naming it.
    """
    root = Path(root)
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not subdirs:
        raise ValueError(f"{root}: no class subdirectories found")
    samples = []
    for sub in subdirs:
        try:
            class_index = labels.index_of(sub.name)
        except ValueError:
            raise ValueError(
                f"{root}: subdirectory {sub.name!r} is not in the label map"
            ) from None
        paths = []
        with os.scandir(sub) as entries:
            for e in entries:
                if e.is_file():
                    paths.append(e.path)
                elif e.is_symlink() and not e.is_dir():
                    raise ValueError(f"{e.path}: symbolic link to no file")
        paths.sort()  # one directory prefix, so this is the order of the names
        raws = [read_pnm(path) for path in paths]
        by_shape = {}
        for i, raw in enumerate(raws):
            by_shape.setdefault(raw.shape, []).append(i)
        images = {}
        for indices in by_shape.values():
            images.update(zip(indices, _normalize_stack([raws[i] for i in indices])))
        samples.extend(Sample(images[i], class_index) for i in range(len(raws)))
    if not samples:
        raise ValueError(f"{root}: no image files found")
    return Dataset(samples=samples, labels=labels)


# ---------------------------------------------------------------------------
# Synthetic glyph generation

@dataclass(frozen=True)
class SynthSpec:
    per_class_count: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.per_class_count < 1:
            raise ValueError("per_class_count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# One stroke pattern per class, drawn on a unit canvas. Segments are
# (x0,y0,x1,y1); rings are ("ring", cx, cy, r). Patterns only need to be
# mutually distinct, not typographically faithful.
_GLYPH_STROKES = (
    (("ring", 0.50, 0.50, 0.30),),                                         # 0
    ((0.50, 0.12, 0.50, 0.88), (0.32, 0.30, 0.50, 0.12)),                  # 1
    ((0.20, 0.20, 0.80, 0.20), (0.80, 0.20, 0.20, 0.80),
     (0.20, 0.80, 0.80, 0.80)),                                            # 2
    ((0.22, 0.18, 0.78, 0.18), (0.22, 0.50, 0.78, 0.50),
     (0.22, 0.82, 0.78, 0.82)),                                            # 3
    ((0.50, 0.12, 0.50, 0.88), (0.14, 0.50, 0.86, 0.50)),                  # 4
    ((0.18, 0.18, 0.82, 0.82), (0.82, 0.18, 0.18, 0.82)),                  # 5
    ((0.28, 0.14, 0.28, 0.84), (0.28, 0.84, 0.82, 0.84)),                  # 6
    ((0.14, 0.18, 0.86, 0.18), (0.50, 0.18, 0.50, 0.86)),                  # 7
    ((0.26, 0.14, 0.26, 0.86), (0.26, 0.14, 0.80, 0.14),
     (0.26, 0.50, 0.72, 0.50), (0.26, 0.86, 0.80, 0.86)),                  # 8
    ((0.50, 0.14, 0.84, 0.80), (0.84, 0.80, 0.16, 0.80),
     (0.16, 0.80, 0.50, 0.14)),                                            # 9
    ((0.20, 0.16, 0.50, 0.86), (0.50, 0.86, 0.80, 0.16)),                  # 10
    ((0.26, 0.14, 0.26, 0.86), (0.74, 0.14, 0.74, 0.86),
     (0.26, 0.50, 0.74, 0.50)),                                            # 11
    (("ring", 0.50, 0.50, 0.30), (0.50, 0.12, 0.50, 0.88)),                # 12
    ((0.22, 0.14, 0.22, 0.72), (0.22, 0.72, 0.50, 0.88),
     (0.50, 0.88, 0.78, 0.72), (0.78, 0.14, 0.78, 0.72)),                  # 13
    ((0.22, 0.86, 0.22, 0.14), (0.22, 0.14, 0.78, 0.86),
     (0.78, 0.86, 0.78, 0.14)),                                            # 14
    ((0.15, 0.24, 0.85, 0.24), (0.32, 0.24, 0.32, 0.84),
     (0.68, 0.24, 0.68, 0.84)),                                            # 15
)

_STROKE_THICKNESS = 0.10
_STROKE_SOFTNESS = 0.05
# The one distortion recipe: each image's uniform ranges, in draw order
# (the translation is drawn twice, x then y), and its noise's sigma.
_ROTATION_DEG = (-15.0, 15.0)
_SCALE = (0.85, 1.15)
_TRANSLATE_PX = (-3.0, 3.0)
_SHEAR = (-0.15, 0.15)
_NOISE_STD = 0.05
# Images of one class warped together; larger chunks time no better.
_WARP_CHUNK = 8


def base_glyph(class_index: int) -> Tensor:
    """Render the fixed 32x32 stroke pattern for a class (bright on dark)."""
    strokes = _GLYPH_STROKES[class_index % len(_GLYPH_STROKES)]
    coords = (np.arange(IMAGE_SIZE) + 0.5) / IMAGE_SIZE
    px, py = np.meshgrid(coords, coords)
    ink = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    for stroke in strokes:
        if stroke[0] == "ring":
            _, cx, cy, r = stroke
            dist = np.abs(np.hypot(px - cx, py - cy) - r)
        else:
            x0, y0, x1, y1 = stroke
            dx, dy = x1 - x0, y1 - y0
            length_sq = dx * dx + dy * dy
            t = ((px - x0) * dx + (py - y0) * dy) / length_sq
            t = np.clip(t, 0.0, 1.0)
            dist = np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))
        ink = np.maximum(
            ink, np.clip((_STROKE_THICKNESS - dist) / _STROKE_SOFTNESS + 1.0, 0.0, 1.0)
        )
    return ink


def _affine_warp(img: np.ndarray, angle_deg, scale, shear, tx_px, ty_px,
                 scratch: tuple) -> np.ndarray:
    """Sample ``img`` under the inverse of rotate*shear*scale about the
    center plus translation, bilinear with zero fill outside.

    Each parameter is a sequence with one entry per output image, and the
    result is a new (k, n, n) array for k entries; ``generate_synthetic``
    passes up to 8 images of one class at a time. The temporaries live in
    ``scratch``, a ``_warp_scratch`` for at least k images. Every image is
    computed with the same floating-point operations as when each was
    warped on its own: stacked 2x2 ``@`` and ``np.linalg.inv`` work matrix
    by matrix, and a tap outside the glyph reads the zero border of a
    padded copy instead of being zeroed after the fact, so the bytes do
    not depend on the chunking.
    """
    k = len(angle_deg)
    wx, wy, ux, uy, weight, tap, x0, y0 = (a[:k] for a in scratch)
    rot = np.array([[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
                    for t in map(math.radians, angle_deg)])
    shr = np.array([[[1.0, s], [0.0, 1.0]] for s in shear])
    scl = np.array([[[s, 0.0], [0.0, s]] for s in scale])
    inv = np.linalg.inv(rot @ shr @ scl)[:, :, :, None, None]
    n = img.shape[0]
    center = (n - 1) / 2.0
    grid = np.arange(n, dtype=np.float64) - center
    # Relative coordinates vary along one axis only: x across columns, y down rows.
    rel_x = (grid - np.asarray(tx_px, dtype=np.float64)[:, None])[:, None, :]
    rel_y = (grid - np.asarray(ty_px, dtype=np.float64)[:, None])[:, :, None]
    np.add(inv[:, 0, 0] * rel_x, inv[:, 0, 1] * rel_y, out=wx)
    wx += center  # source x
    np.add(inv[:, 1, 0] * rel_x, inv[:, 1, 1] * rel_y, out=wy)
    wy += center  # source y
    np.floor(wx, out=x0, casting="unsafe")
    np.floor(wy, out=y0, casting="unsafe")
    np.subtract(wx, x0, out=wx)
    np.subtract(wy, y0, out=wy)
    np.subtract(1, wx, out=ux)
    np.subtract(1, wy, out=uy)
    out = np.zeros((k, n, n))
    taps = _bilinear_taps(img, y0, x0, tap)
    for v, a, b in zip(taps, (uy, uy, wy, wy), (ux, wx, ux, wx)):
        np.multiply(a, b, out=weight)
        weight *= v
        out += weight
    return out


def _warp_scratch(k: int, n: int) -> tuple:
    """Temporaries of ``_affine_warp`` for up to k images of side n: six
    float arrays, then two integer ones. One reused for every chunk keeps
    the chunks off fresh pages, and separate arrays stay small enough for
    the allocator's heap rather than a mapping of their own."""
    return (tuple(np.empty((k, n, n)) for _ in range(6))
            + tuple(np.empty((k, n, n), dtype=np.intp) for _ in range(2)))


def _bilinear_taps(img: np.ndarray, y0: np.ndarray, x0: np.ndarray, out: np.ndarray):
    """Yield the pixels of the square ``img`` at (y0, x0), (y0, x0+1),
    (y0+1, x0) and (y0+1, x0+1) in turn, each written into ``out`` and
    0.0 where it falls outside the image. ``y0`` and ``x0`` are overwritten.

    The image is copied into two zero rows and columns on every side, and
    each corner is clamped into [-2, n]. Clamping keeps a tap that was
    outside on the zero border, so one flat index per corner gathers all
    four taps without a mask.
    """
    n = img.shape[0]
    side = n + 4
    padded = np.zeros((side, side))
    padded[2:n + 2, 2:n + 2] = img
    padded = padded.ravel()
    np.clip(y0, -2, n, out=y0)
    np.clip(x0, -2, n, out=x0)
    y0 *= side
    y0 += x0
    y0 += 2 * side + 2  # flat index of the top-left tap
    for offset in (0, 1, side, side + 1):
        # Every index is in range; mode="clip" only spares take a buffered copy.
        yield padded[offset:].take(y0, out=out, mode="clip")


def generate_synthetic(spec: SynthSpec, labels: LabelMap) -> Dataset:
    """Render per_class_count perturbed variants of every class glyph.

    Each image draws its five uniforms and then its noise in a fixed order,
    one image after another; the warps of up to eight images of a class are
    then rendered together. The bytes are those of warping one image at a
    time.
    """
    rng = np.random.default_rng(spec.seed)
    scratch = _warp_scratch(_WARP_CHUNK, IMAGE_SIZE)
    samples = []
    for class_index in range(len(labels)):
        base = base_glyph(class_index)
        for start in range(0, spec.per_class_count, _WARP_CHUNK):
            count = min(_WARP_CHUNK, spec.per_class_count - start)
            draws, noise = [], []
            for _ in range(count):
                angle = rng.uniform(*_ROTATION_DEG)
                scale = rng.uniform(*_SCALE)
                tx = rng.uniform(*_TRANSLATE_PX)
                ty = rng.uniform(*_TRANSLATE_PX)
                shear = rng.uniform(*_SHEAR)
                draws.append((angle, scale, shear, tx, ty))
                noise.append(rng.normal(0.0, _NOISE_STD, base.shape))
            imgs = _affine_warp(base, *zip(*draws), scratch)
            imgs += noise
            # A copy per image, so no sample keeps its whole chunk alive.
            for img in np.clip(imgs, 0.0, 1.0, out=imgs):
                samples.append(Sample(img[None, :, :].copy(), class_index))
    return Dataset(samples=samples, labels=labels)
