"""Seeded synthetic head outputs shaped like a trained detector's.

``eval_640`` needs realistic detection traffic without training a model:
per frame, one confident cell per ground truth (the cell ``assign_targets``
picks), whose bin logits decode to that ground-truth box; a few
lower-scoring duplicates in the neighbouring cells; and clutter false
positives away from every target.  Every other cell scores far below any
decode threshold, so decode, NMS and the metrics see tens of candidates
per frame, as they would behind a trained head.
"""

from __future__ import annotations

import numpy as np

from irstkit import detector as D
from irstkit.metrics import Box

BACKGROUND_LOGIT = -8.0   # sigmoid ~3e-4: never a candidate
PROB_FLOOR = 1e-6         # bin probability left on every other bin
CONFIDENT_LOGITS = (1.5, 4.0)     # scores 0.82 .. 0.98
DUPLICATE_LOGITS = (-0.8, 0.8)    # scores 0.31 .. 0.69, below every confident cell
CLUTTER_LOGITS = (-1.0, 2.0)      # scores 0.27 .. 0.88, interleaved with the targets
# fixed counts keep the work per frame nearly independent of the seed
DUPLICATES_PER_TARGET = 2
CLUTTER_PER_FRAME = 20
CLUTTER_SIDE_PX = (4.0, 16.0)
CLUTTER_CLEARANCE_PX = 32.0       # clutter centres keep this far from every target centre


def side_logits(t: float, bins: int) -> np.ndarray:
    """Bin logits whose softmax expectation is ``t`` (in bins), up to the
    floor mass: two-hot on the floor and ceil bins, clamped to the bin range."""
    t = min(max(t, 0.0), bins - 1.0)
    lo = int(np.floor(t))
    frac = t - lo
    p = np.full(bins, PROB_FLOOR)
    p[lo] += 1.0 - frac
    if frac > 0.0:
        p[lo + 1] += frac
    return np.log(p)


def cell_center(gy: int, gx: int, stride: int) -> tuple[float, float]:
    return (gx + 0.5) * stride, (gy + 0.5) * stride


def plant(heads: list[np.ndarray], cfg: D.ModelConfig, scale: int, b: int, gy: int,
          gx: int, box: Box, logit: float, class_id: int = 0) -> None:
    """Write one candidate cell: its class logit and the bin logits that
    decode (clamped to the bin range) to ``box`` from this cell's centre."""
    stride, bins, ncls = cfg.strides[scale], cfg.reg_bins, cfg.num_classes
    cx, cy = cell_center(gy, gx, stride)
    out = heads[scale]
    out[b, :ncls, gy, gx] = BACKGROUND_LOGIT
    out[b, class_id, gy, gx] = logit
    dists = ((cx - box.x1), (cy - box.y1), (box.x2 - cx), (box.y2 - cy))
    for side, d in enumerate(dists):
        lo = ncls + side * bins
        out[b, lo:lo + bins, gy, gx] = side_logits(d / stride, bins)


def synth_heads(gts_per_frame, cfg: D.ModelConfig,
                rng: np.random.Generator) -> tuple[list[np.ndarray], list[tuple]]:
    """Float32 head outputs for ``len(gts_per_frame)`` frames, plus the
    planted confident cells as (frame, scale, row, col, gt index)."""
    n = len(gts_per_frame)
    ncls, size = cfg.num_classes, cfg.input_size
    heads = []
    for scale in range(len(cfg.strides)):
        g = cfg.head_grid(scale)
        out = rng.normal(0.0, 0.5, (n, cfg.head_channels, g, g))
        out[:, :ncls] += BACKGROUND_LOGIT
        heads.append(out)

    occupied: set[tuple[int, int, int, int]] = set()
    confident = []
    assignment = D.assign_targets(gts_per_frame, cfg)
    for scale, cells in enumerate(assignment.per_scale):
        for (b, gy, gx), gi in sorted(cells.items()):
            gt = gts_per_frame[b][gi]
            plant(heads, cfg, scale, b, gy, gx, D.gt_to_box(gt, size),
                  rng.uniform(*CONFIDENT_LOGITS), gt.class_id)
            occupied.add((scale, b, gy, gx))
            confident.append((b, scale, gy, gx, gi))

    for b, scale, gy, gx, gi in confident:
        gt = gts_per_frame[b][gi]
        box = D.gt_to_box(gt, size)
        grid = cfg.head_grid(scale)
        ring = [(gy + dy, gx + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                if (dy or dx) and 0 <= gy + dy < grid and 0 <= gx + dx < grid
                and (scale, b, gy + dy, gx + dx) not in occupied]
        count = min(DUPLICATES_PER_TARGET, len(ring))
        for k in rng.choice(len(ring), size=count, replace=False):
            ny, nx = ring[int(k)]
            scale_f = rng.uniform(0.8, 1.25)
            w, h = box.w * scale_f, box.h * scale_f
            jitter = Box.from_center(box.cx + rng.normal(0.0, 0.2 * box.w),
                                     box.cy + rng.normal(0.0, 0.2 * box.h), w, h)
            plant(heads, cfg, scale, b, ny, nx, jitter,
                  rng.uniform(*DUPLICATE_LOGITS), gt.class_id)
            occupied.add((scale, b, ny, nx))

    for b, gts in enumerate(gts_per_frame):
        centers = np.array([(g.cx * size, g.cy * size) for g in gts]).reshape(-1, 2)
        placed = 0
        while placed < CLUTTER_PER_FRAME:
            # finer scales carry most clutter, as small IR clutter does
            scale = int(rng.choice(len(cfg.strides), p=(0.6, 0.3, 0.1)))
            stride, grid = cfg.strides[scale], cfg.head_grid(scale)
            gy, gx = (int(v) for v in rng.integers(0, grid, 2))
            cx, cy = cell_center(gy, gx, stride)
            if (scale, b, gy, gx) in occupied:
                continue
            if centers.size and np.min(np.hypot(centers[:, 0] - cx,
                                                centers[:, 1] - cy)) < CLUTTER_CLEARANCE_PX:
                continue
            w, h = rng.uniform(*CLUTTER_SIDE_PX, 2)
            plant(heads, cfg, scale, b, gy, gx, Box.from_center(cx, cy, w, h),
                  rng.uniform(*CLUTTER_LOGITS))
            occupied.add((scale, b, gy, gx))
            placed += 1

    return [h.astype(np.float32) for h in heads], confident
