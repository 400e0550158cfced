"""Character-image ingestion and the synthetic 16-class glyph generator.

Samples are 32x32 single-channel float64 images in [0,1]. Image files are
binary portable anymaps (PGM P5 / PPM P6, 8-bit), decoded here so loading
stays dependency-free and bit-exact. The generator renders a distinct
procedural stroke pattern per class and perturbs it with a random affine
map (rotation, scale, translation, shear) plus Gaussian noise, standing in
for a real collection of plate-character crops.
"""
from __future__ import annotations

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
        if len(set(labels)) != len(labels) or any(not s for s in labels):
            raise ValueError("labels must be unique and non-empty")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> str:
        return self.labels[index]

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


@dataclass
class Sample:
    image: Tensor
    class_index: int

    def __post_init__(self):
        self.image = as_tensor(self.image)
        if self.image.shape != (1, IMAGE_SIZE, IMAGE_SIZE):
            raise ValueError(
                f"sample image must be (1,{IMAGE_SIZE},{IMAGE_SIZE}), "
                f"got {self.image.shape}"
            )
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
    raw = Path(path).read_bytes()
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
    """Write a uint8 (H,W) array as a binary PGM."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale array, got shape {pixels.shape}")
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _atomic_write(path, header + pixels.tobytes())


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Normalization

def normalize_image(raw: np.ndarray) -> Tensor:
    """Grayscale-convert (Rec.601 luma), scale to [0,1] and clip, as (1,32,32).

    A 32x32 image is only scaled; any other size is bilinear-resampled to
    32x32 first. Non-finite pixels are rejected with ValueError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 3 and raw.shape[2] == 3:
        gray = (0.299 * raw[:, :, 0] + 0.587 * raw[:, :, 1] + 0.114 * raw[:, :, 2])
    elif raw.ndim == 2:
        gray = raw
    else:
        raise ValueError(f"expected (H,W) or (H,W,3) pixels, got shape {raw.shape}")
    if gray.size == 0:
        raise ValueError("empty image")
    if not np.isfinite(gray).all():
        raise ValueError("image has non-finite pixels")
    scaled = gray / 255.0
    if scaled.shape != (IMAGE_SIZE, IMAGE_SIZE):
        # At scale 1 the resample is the identity (every weight is 0), so
        # skipping it for 32x32 input returns the same bytes.
        scaled = _bilinear_resize(scaled, IMAGE_SIZE, IMAGE_SIZE)
    return np.clip(scaled, 0.0, 1.0)[None, :, :]


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center bilinear resampling with edge clamping."""
    in_h, in_w = img.shape
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
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


# ---------------------------------------------------------------------------
# Directory loading

def load_dataset_dir(root, labels: LabelMap) -> Dataset:
    """Load `<root>/<label>/<file>` trees of PGM/PPM images, lexicographically."""
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
        with os.scandir(sub) as entries:
            names = sorted(e.name for e in entries if e.is_file())
        for name in names:
            samples.append(Sample(normalize_image(read_pnm(sub / name)), class_index))
    if not samples:
        raise ValueError(f"{root}: no image files found")
    return Dataset(samples=samples, labels=labels)


# ---------------------------------------------------------------------------
# Synthetic glyph generation

@dataclass(frozen=True)
class SynthSpec:
    per_class_count: int = 10
    rotation_range_deg: tuple = (-15.0, 15.0)
    scale_range: tuple = (0.85, 1.15)
    translate_range_px: tuple = (-3.0, 3.0)
    shear_range: tuple = (-0.15, 0.15)
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.per_class_count < 1:
            raise ValueError("per_class_count must be >= 1")
        for name in ("rotation_range_deg", "scale_range",
                     "translate_range_px", "shear_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is not well-ordered: ({lo}, {hi})")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


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


def _affine_warp(img: np.ndarray, angle_deg: float, scale: float,
                 shear: float, tx_px: float, ty_px: float) -> np.ndarray:
    """Sample ``img`` under the inverse of rotate*shear*scale about the
    center plus translation, bilinear with zero fill outside."""
    theta = math.radians(angle_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    shr = np.array([[1.0, shear], [0.0, 1.0]])
    fwd = rot @ shr @ np.array([[scale, 0.0], [0.0, scale]])
    inv = np.linalg.inv(fwd)
    n = img.shape[0]
    center = (n - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(n, dtype=np.float64),
                         np.arange(n, dtype=np.float64), indexing="ij")
    rel = np.stack([xs - center - tx_px, ys - center - ty_px])
    src_x = inv[0, 0] * rel[0] + inv[0, 1] * rel[1] + center
    src_y = inv[1, 0] * rel[0] + inv[1, 1] * rel[1] + center
    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    wx = src_x - x0
    wy = src_y - y0
    out = np.zeros_like(img)
    for dy in (0, 1):
        for dx in (0, 1):
            yy, xx = y0 + dy, x0 + dx
            inside = (yy >= 0) & (yy < n) & (xx >= 0) & (xx < n)
            weight = (wy if dy else 1 - wy) * (wx if dx else 1 - wx)
            vals = np.where(inside, img[np.clip(yy, 0, n - 1),
                                        np.clip(xx, 0, n - 1)], 0.0)
            out += weight * vals
    return out


def generate_synthetic(spec: SynthSpec, labels: LabelMap) -> Dataset:
    """Render per_class_count perturbed variants of every class glyph."""
    rng = np.random.default_rng(spec.seed)
    samples = []
    for class_index in range(len(labels)):
        base = base_glyph(class_index)
        for _ in range(spec.per_class_count):
            angle = rng.uniform(*spec.rotation_range_deg)
            scale = rng.uniform(*spec.scale_range)
            tx = rng.uniform(*spec.translate_range_px)
            ty = rng.uniform(*spec.translate_range_px)
            shear = rng.uniform(*spec.shear_range)
            img = _affine_warp(base, angle, scale, shear, tx, ty)
            if spec.noise_std > 0:
                img = img + rng.normal(0.0, spec.noise_std, img.shape)
            samples.append(
                Sample(np.clip(img, 0.0, 1.0)[None, :, :], class_index)
            )
    return Dataset(samples=samples, labels=labels)
