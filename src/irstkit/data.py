"""Dataset plumbing: YOLO-format labels, deterministic splits, and a
seeded synthetic infrared-scene generator.

Scenes are gray-level grids in [0, 1]: a smooth background gradient plus
seeded clutter blobs, with each target rendered as a small 2-D Gaussian
bump whose label box spans +-2 sigma.  Images are stored as 8-bit binary
PGM (P5); labels as YOLO text sidecars; a manifest lists pairs and split
membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError


# ---------------------------------------------------------------------------
# Ground-truth records (YOLO normalized format)
# ---------------------------------------------------------------------------


@dataclass
class GroundTruth:
    """One annotation: class id plus normalized center/size in [0, 1]."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float

    def validate(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise DataError(f"non-positive box size {self.w}x{self.h}")
        for lo, hi in ((self.cx - self.w / 2, self.cx + self.w / 2),
                       (self.cy - self.h / 2, self.cy + self.h / 2)):
            if lo < -1e-6 or hi > 1.0 + 1e-6:
                raise DataError(f"box extends outside the unit square: {self}")


CLAMP_TOL = 1e-6


def parse_yolo_labels(text: str) -> list[GroundTruth]:
    """Parse ``class cx cy w h`` lines; blank lines are ignored.

    Values may stray outside [0, 1] by at most 1e-6 (clamped); anything
    further raises, as does a malformed line, a negative class id, or a
    box whose clamped width or height is zero.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(fields)}")
        try:
            class_id = int(fields[0])
            vals = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if class_id < 0:
            raise ParseError(f"line {lineno}: negative class id {class_id}")
        for v in vals:
            if v < -CLAMP_TOL or v > 1.0 + CLAMP_TOL:
                raise ParseError(f"line {lineno}: value {v} outside [0, 1]")
        cx, cy, w, h = (min(max(v, 0.0), 1.0) for v in vals)
        if w == 0.0 or h == 0.0:
            raise ParseError(f"line {lineno}: zero-size box {w} x {h}")
        out.append(GroundTruth(class_id=class_id, cx=cx, cy=cy, w=w, h=h))
    return out


def serialize_yolo_labels(gts: list[GroundTruth]) -> str:
    return "".join(f"{g.class_id} {g.cx:.6f} {g.cy:.6f} {g.w:.6f} {g.h:.6f}\n"
                   for g in gts)


# ---------------------------------------------------------------------------
# Dataset split
# ---------------------------------------------------------------------------


def split_dataset(ids: list, seed: int) -> tuple[list, list, list]:
    """Seeded shuffle then a 60/20/20 train/val/test partition; rounding
    remainders go to train.  Partitions are disjoint and exhaustive."""
    n = len(ids)
    if n < 5:
        raise DataError(f"need at least 5 items to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    shuffled = [ids[i] for i in order]
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_val],
            shuffled[n_train + n_val:])


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


@dataclass
class SceneSpec:
    size: int = 96
    min_targets: int = 1
    max_targets: int = 3
    intensity_range: tuple[float, float] = (0.35, 0.7)
    sigma_range: tuple[float, float] = (0.8, 2.0)
    gradient_amplitude: float = 0.12
    blob_density: float = 3.0  # expected clutter blobs per scene
    box_sigmas: float = 2.0  # label box half-extent in target sigmas
    seed: int = 0

    def __post_init__(self):
        if self.sigma_range[0] <= 0:
            raise DataError(f"sigma must be > 0, got {self.sigma_range}")
        if not (0 <= self.intensity_range[0] <= self.intensity_range[1] <= 1):
            raise DataError(f"intensities must lie in [0, 1], got {self.intensity_range}")
        if self.min_targets < 0 or self.max_targets < self.min_targets:
            raise DataError(f"bad target count range "
                            f"({self.min_targets}, {self.max_targets})")


MAX_PLACEMENT_ATTEMPTS = 100


def generate_scene(spec: SceneSpec) -> tuple[np.ndarray, list[GroundTruth]]:
    """One synthetic scene: (gray image in [0, 1], labels).

    Deterministic for a given spec; raises when targets cannot be placed
    without box overlap after 100 attempts.
    """
    rng = np.random.default_rng(spec.seed)
    s = spec.size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)

    base = rng.uniform(0.15, 0.3)
    theta = rng.uniform(0, 2 * math.pi)
    amp = rng.uniform(0.3, 1.0) * spec.gradient_amplitude
    ramp = (xx * math.cos(theta) + yy * math.sin(theta)) / s
    image = base + amp * (ramp - ramp.mean())

    for _ in range(rng.poisson(spec.blob_density)):
        bx, by = rng.uniform(0, s, 2)
        bsig = rng.uniform(3.0, 8.0)
        bamp = rng.uniform(-0.06, 0.06)
        image += bamp * np.exp(-((xx - bx) ** 2 + (yy - by) ** 2) / (2 * bsig ** 2))

    n_targets = int(rng.integers(spec.min_targets, spec.max_targets + 1))
    labels: list[GroundTruth] = []
    placed_boxes: list[tuple[float, float, float, float]] = []
    for _ in range(n_targets):
        for attempt in range(MAX_PLACEMENT_ATTEMPTS + 1):
            if attempt == MAX_PLACEMENT_ATTEMPTS:
                raise DataError("target placement failed after "
                                f"{MAX_PLACEMENT_ATTEMPTS} attempts (scene overcrowded)")
            sigma = rng.uniform(*spec.sigma_range)
            half = spec.box_sigmas * sigma
            cx = rng.uniform(half + 1, s - half - 1)
            cy = rng.uniform(half + 1, s - half - 1)
            box = (cx - half, cy - half, cx + half, cy + half)
            if all(box[2] < b[0] or b[2] < box[0] or box[3] < b[1] or b[3] < box[1]
                   for b in placed_boxes):
                break
        intensity = rng.uniform(*spec.intensity_range)
        image += intensity * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
        placed_boxes.append(box)
        labels.append(GroundTruth(class_id=0, cx=cx / s, cy=cy / s,
                                  w=2 * half / s, h=2 * half / s))

    image = np.clip(image, 0.0, 1.0)
    for g in labels:
        g.validate()
    return image, labels


# ---------------------------------------------------------------------------
# PGM (P5) image files
# ---------------------------------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM from a [0, 1] float image."""
    data = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a [0, 1] float image."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    # header: magic, width, height, maxval, single whitespace, then data
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":  # comment line
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    pos += 1  # the single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"{path}: malformed PGM header") from None
    if w < 1 or h < 1:
        raise ParseError(f"{path}: bad PGM size {w}x{h}")
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(raw) - pos < w * h:
        raise ParseError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return data.reshape(h, w).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# On-disk datasets
# ---------------------------------------------------------------------------


@dataclass
class DatasetItem:
    stem: str
    image_path: str
    label_path: str
    split: str


def generate_dataset(spec: SceneSpec, count: int, out_dir, seed: int) -> list[DatasetItem]:
    """Write ``count`` scene/label pairs plus a manifest with a 60/20/20
    split; per-item seeds derive from the master seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    items: list[DatasetItem] = []
    stems = [f"scene_{i:04d}" for i in range(count)]
    split_of = {}
    train, val, test = split_dataset(stems, seed)
    for name, part in (("train", train), ("val", val), ("test", test)):
        for stem in part:
            split_of[stem] = name
    for i, stem in enumerate(stems):
        item_spec = SceneSpec(**{**spec.__dict__, "seed": seed * 100_003 + i})
        image, labels = generate_scene(item_spec)
        img_path = out / f"{stem}.pgm"
        lbl_path = out / f"{stem}.txt"
        write_pgm(img_path, image)
        lbl_path.write_text(serialize_yolo_labels(labels))
        items.append(DatasetItem(stem=stem, image_path=img_path.name,
                                 label_path=lbl_path.name, split=split_of[stem]))
    write_manifest(out / "manifest.txt", items)
    return items


def write_manifest(path, items: list[DatasetItem]) -> None:
    lines = [f"{it.stem} {it.image_path} {it.label_path} {it.split}" for it in items]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> list[DatasetItem]:
    items = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        items.append(DatasetItem(*fields))
    return items


def load_split(manifest_path, split: str):
    """Images (n, 1, h, w) and label lists for one split of a manifest."""
    root = Path(manifest_path).parent
    items = [it for it in read_manifest(manifest_path) if it.split == split]
    if not items:
        raise DataError(f"split {split!r} is empty in {manifest_path}")
    images = []
    labels = []
    for it in items:
        images.append(read_pgm(root / it.image_path)[None])
        labels.append(parse_yolo_labels((root / it.label_path).read_text()))
    return np.stack(images), labels
