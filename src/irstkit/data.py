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
        # written as "not inside" so a NaN fails every check
        if not (self.w > 0 and self.h > 0):
            raise DataError(f"non-positive box size {self.w}x{self.h}")
        for lo, hi in ((self.cx - self.w / 2, self.cx + self.w / 2),
                       (self.cy - self.h / 2, self.cy + self.h / 2)):
            if not (-CLAMP_TOL <= lo and hi <= 1.0 + CLAMP_TOL):
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
            if not -CLAMP_TOL <= v <= 1.0 + CLAMP_TOL:
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

SPLITS = ("train", "val", "test")


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
    """What ``generate_scene`` draws; every number must be finite.

    - ``size``: frame side in pixels, >= 1.
    - ``min_targets``, ``max_targets``: the target count is drawn
      uniformly from this inclusive range; 0 <= min <= max.
    - ``intensity_range``: peak gray level added by a target;
      0 <= low <= high <= 1.
    - ``sigma_range``: target Gaussian sigma in pixels; 0 < low <= high.
      A target whose label box plus a 1 px margin is wider than ``size``
      raises ``DataError`` when it is drawn.
    - ``gradient_amplitude``: scale of the background ramp's slope across
      the frame; any finite value.
    - ``blob_density``: expected number of clutter blobs, >= 0.
    - ``box_sigmas``: label box half-extent in target sigmas.
    - ``seed``: seed of the scene's random generator.
    """

    size: int = 96
    min_targets: int = 1
    max_targets: int = 3
    intensity_range: tuple[float, float] = (0.35, 0.7)
    sigma_range: tuple[float, float] = (0.8, 2.0)
    gradient_amplitude: float = 0.12
    blob_density: float = 3.0
    box_sigmas: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("size", "min_targets", "max_targets", "intensity_range",
                     "sigma_range", "gradient_amplitude", "blob_density", "box_sigmas"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise DataError(f"{name} must be finite, got {value!r}")
        if self.size < 1:
            raise DataError(f"size must be >= 1, got {self.size}")
        if not 0 < self.sigma_range[0] <= self.sigma_range[1]:
            raise DataError(f"sigma_range must satisfy 0 < low <= high, got {self.sigma_range}")
        if not (0 <= self.intensity_range[0] <= self.intensity_range[1] <= 1):
            raise DataError(f"intensities must lie in [0, 1], got {self.intensity_range}")
        if self.min_targets < 0 or self.max_targets < self.min_targets:
            raise DataError(f"bad target count range "
                            f"({self.min_targets}, {self.max_targets})")
        if self.blob_density < 0:
            raise DataError(f"blob_density must be >= 0, got {self.blob_density}")


MAX_PLACEMENT_ATTEMPTS = 100

# float64 exp(t) is exactly 0.0 for t below about -745.13, so a Gaussian
# term is +-0.0 wherever |x - cx| or |y - cy| exceeds this many sigmas
SPLAT_REACH = math.sqrt(2 * 746)


def _span(c: float, r: float, s: int) -> slice:
    """Pixel indices i in [0, s) with c - r <= i <= c + r."""
    return slice(max(math.ceil(c - r), 0), max(min(math.floor(c + r) + 1, s), 0))


def _splat(image: np.ndarray, coords: np.ndarray, amp, cx, cy, sigma) -> None:
    """Add ``amp * exp(-((x - cx)**2 + (y - cy)**2) / (2 * sigma**2))`` to
    ``image`` in place over the window where it can be nonzero;
    ``coords`` is ``arange(size)`` as float64."""
    r = sigma * SPLAT_REACH
    rows, cols = _span(cy, r, len(coords)), _span(cx, r, len(coords))
    # in place, one window-sized buffer: the values of amp * exp(-d2 / (2 * sigma**2))
    t = (coords[cols] - cx) ** 2 + (coords[rows, None] - cy) ** 2
    np.negative(t, out=t)
    t /= 2 * sigma ** 2
    np.exp(t, out=t)
    t *= amp
    image[rows, cols] += t


def generate_scene(spec: SceneSpec) -> tuple[np.ndarray, list[GroundTruth]]:
    """One synthetic scene: (gray image in [0, 1], labels).

    Deterministic for a given spec; raises when targets cannot be placed
    without box overlap after 100 attempts, or when a drawn target's box
    cannot fit the frame.

    Each blob and target is added only inside its ``_splat`` window, by the
    float64 operations of a full-frame Gaussian in the same order, so the
    pixels there get the same bits.  Outside it the full-frame term is
    ``amp * exp(t)`` with ``t`` below about -746, which is +-0.0 and
    changes no pixel, since a sum is -0.0 only when both terms are and
    every pixel starts from ``base > 0``.
    """
    rng = np.random.default_rng(spec.seed)
    s = spec.size
    coords = np.arange(s, dtype=np.float64)

    base = rng.uniform(0.15, 0.3)
    theta = rng.uniform(0, 2 * math.pi)
    amp = rng.uniform(0.3, 1.0) * spec.gradient_amplitude
    # base + amp * (ramp - ramp.mean()), in place in the ramp's buffer
    image = coords * math.cos(theta) + coords[:, None] * math.sin(theta)
    image /= s
    image -= image.mean()
    image *= amp
    image += base

    for _ in range(rng.poisson(spec.blob_density)):
        bx, by = rng.uniform(0, s, 2)
        bsig = rng.uniform(3.0, 8.0)
        bamp = rng.uniform(-0.06, 0.06)
        _splat(image, coords, bamp, bx, by, bsig)

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
            if s - half - 1 < half + 1:  # the bounds numpy's uniform would reject
                raise DataError(f"a target of sigma {sigma:.4g} from sigma_range needs a "
                                f"{2 * half + 2:.4g} px frame, but size is {s}")
            cx = rng.uniform(half + 1, s - half - 1)
            cy = rng.uniform(half + 1, s - half - 1)
            box = (cx - half, cy - half, cx + half, cy + half)
            if all(box[2] < b[0] or b[2] < box[0] or box[3] < b[1] or b[3] < box[1]
                   for b in placed_boxes):
                break
        intensity = rng.uniform(*spec.intensity_range)
        _splat(image, coords, intensity, cx, cy, sigma)
        placed_boxes.append(box)
        labels.append(GroundTruth(class_id=0, cx=cx / s, cy=cy / s,
                                  w=2 * half / s, h=2 * half / s))

    np.clip(image, 0.0, 1.0, out=image)
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
    for name, part in zip(SPLITS, (train, val, test)):
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
        if fields[3] not in SPLITS:
            raise ParseError(f"{path}:{lineno}: split {fields[3]!r} is not one of {SPLITS}")
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
