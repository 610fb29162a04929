"""Ground-truth records and a seeded synthetic infrared-scene generator.

Scenes are gray-level grids in [0, 1]: a smooth background gradient plus
seeded clutter blobs, with each target rendered as a small 2-D Gaussian
bump whose label box spans +-2 sigma.  Labels hold the class id and the
box's center and size as fractions of the frame side.  Scenes and labels
live in memory: the toolkit reads and writes no dataset files.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError


# ---------------------------------------------------------------------------
# Ground-truth records
# ---------------------------------------------------------------------------


@dataclass
class GroundTruth:
    """One annotation: class id plus normalized center/size in [0, 1]."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


@dataclass
class SceneSpec:
    """What ``generate_scene`` draws; every number must be finite.

    - ``size``: frame side in pixels, an integer >= 1.
    - ``min_targets``, ``max_targets``: the target count is drawn
      uniformly from this inclusive range of integers; 0 <= min <= max.
    - ``intensity_range``: peak gray level added by a target;
      0 <= low <= high <= 1.
    - ``sigma_range``: target Gaussian sigma in pixels; 0 < low <= high.
      A target whose label box plus a 1 px margin is wider than ``size``
      raises ``DataError`` when it is drawn.
    - ``gradient_amplitude``: scale of the background ramp's slope across
      the frame; any finite value.
    - ``blob_density``: expected number of clutter blobs, in [0, 9e18].
    - ``box_sigmas``: label box half-extent in target sigmas, > 0.
    - ``seed``: seed of the scene's random generator, an integer >= 0.
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
        for name in ("size", "min_targets", "max_targets", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DataError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.size < 1:
            raise DataError(f"size must be >= 1, got {self.size}")
        if not 0 < self.sigma_range[0] <= self.sigma_range[1]:
            raise DataError(f"sigma_range must satisfy 0 < low <= high, got {self.sigma_range}")
        if not (0 <= self.intensity_range[0] <= self.intensity_range[1] <= 1):
            raise DataError(f"intensities must lie in [0, 1], got {self.intensity_range}")
        if self.min_targets < 0 or self.max_targets < self.min_targets:
            raise DataError(f"bad target count range "
                            f"({self.min_targets}, {self.max_targets})")
        if not 0 <= self.blob_density <= 9e18:  # Generator.poisson takes lam up to about 9.2e18
            raise DataError(f"blob_density must lie in [0, 9e18], got {self.blob_density}")
        if self.box_sigmas <= 0:
            raise DataError(f"box_sigmas must be > 0, got {self.box_sigmas}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


MAX_PLACEMENT_ATTEMPTS = 100

# float64 exp(t) is 0.0 for t below about -745.13, so a Gaussian term is +-0.0
# beyond this many sigmas: _splat's window when its frame holds 0 or both signs
SPLAT_REACH = math.sqrt(2 * 746)


def _span(c: float, r: float, s: int) -> slice:
    """Pixel indices i in [0, s) with c - r <= i <= c + r."""
    return slice(max(math.ceil(c - r), 0), max(min(math.floor(c + r) + 1, s), 0))


def _splat(image: np.ndarray, coords: np.ndarray, amp, cx, cy, sigma) -> None:
    """Add ``amp * exp(-((x - cx)**2 + (y - cy)**2) / (2 * sigma**2))`` to
    ``image`` in place over the window where it can change a pixel;
    ``coords`` is ``arange(size)`` as float64.

    If the pixels of the ``SPLAT_REACH`` window share one sign, with least
    magnitude m, and amp is finite and nonzero, the window shrinks to
    half-width sigma * sqrt(2 * (ln|amp| - ln m + 57 ln 2)) + 1.  Beyond it
    |amp * exp(t)| < m * 2**-56, under half the float spacing on either side
    of any |p| >= m, so p + term rounds back to p.  Otherwise (a 0, NaN or
    both signs in the window) the full window is kept."""
    r = sigma * SPLAT_REACH
    window = image[_span(cy, r, len(coords)), _span(cx, r, len(coords))]
    if window.size and 0 < abs(amp) < math.inf:
        lo, hi = window.min(), window.max()
        m = lo if lo > 0 else -hi  # > 0 only when every pixel has one sign
        if m > 0:  # ln m, not ln(m * 2**-57), which underflows for tiny m
            a = math.log(abs(amp)) - math.log(m) + 57 * math.log(2)
            r = min(r, sigma * math.sqrt(2 * max(a, 0.0)) + 1)
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
    pixels there get the same bits.  Outside it the full-frame term changes
    no pixel: round-to-nearest absorbs it, or (``_splat``'s fallback) it is
    +-0.0, ``exp(t)`` of t below about -746, and a sum is -0.0 only when
    both terms are, while every pixel starts from ``base > 0``.
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
    return image, labels
