"""Detection evaluation: IoU, precision/recall/F1, PR-curve AP, mAP@50,
and contrast-based AP (NoCo).

All operations are pure functions with deterministic, order-fixed
aggregation.  Boxes are axis-aligned with corner and center-size views.

Exactness rule: each metric equals its straightforward reference (full-frame
boolean masks, ``np.mean``/``np.std``, all-pairs loops, numpy PR arrays) bit
for bit, while skipping the per-call overhead.  Pixel picks are 1-D arrays in
the row-major order a boolean mask gives; a mean is ``np.add.reduce(v) / n``
and a standard deviation the same two-pass variance ``np.std`` runs; AP adds
its recall steps in rank order in Python floats, which round as numpy's
float64 scalars do.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count

import numpy as np

from .errors import DataError, NumericError, ShapeError


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; corners (x1, y1, x2, y2) with derived center view."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # a non-finite corner makes the sum NaN or infinite; only finite
        # corners whose sum overflows need the per-corner test
        if (not math.isfinite(self.x1 + self.y1 + self.x2 + self.y2)
                and not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2)))):
            raise NumericError(f"non-finite box ({self.x1},{self.y1},{self.x2},{self.y2})")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ShapeError(f"inverted box ({self.x1},{self.y1},{self.x2},{self.y2})")

    @staticmethod
    def from_center(cx: float, cy: float, w: float, h: float) -> "Box":
        return Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    @property
    def cx(self) -> float:
        return (self.x1 + self.x2) / 2.0

    @property
    def cy(self) -> float:
        return (self.y1 + self.y2) / 2.0

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.w * self.h

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def contains(self, x: float, y: float) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


@dataclass
class Detection:
    """Scored prediction for one image."""

    class_id: int
    score: float
    box: Box
    image_id: int | str = 0


@dataclass
class GTBox:
    """Ground-truth box in the same pixel space as detections."""

    image_id: int | str
    class_id: int
    box: Box


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint boxes and for two zero-area boxes."""
    # bench/spans.py wraps this function by name and parameter list
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box row of ``a`` (m, 4) against every row of ``b`` (n, 4),
    both as (x1, y1, x2, y2) in float64; entry [i, j] equals
    ``iou(a[i], b[j])`` exactly, including 0 where the union is empty."""
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


# ---------------------------------------------------------------------------
# Confusion counts and PR curves
# ---------------------------------------------------------------------------


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


def prf1(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Precision, recall, F1 with 0/0 -> 0 conventions."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass
class PRCurve:
    points: list[tuple[float, float]] = field(default_factory=list)  # (recall, precision)


def _score_order(scores) -> list[int]:
    # stable sort by descending score keeps tie order deterministic
    neg = [-s for s in scores]
    return sorted(range(len(neg)), key=neg.__getitem__)


def pr_curve(ranked: list[bool], n_gt: int) -> PRCurve:
    """(recall, precision) after each of the true-positive flags ``ranked``,
    which are in descending score order (stable for ties)."""
    tps = np.cumsum(np.asarray(ranked, dtype=bool))
    recalls, precisions = tps / n_gt, tps / np.arange(1, tps.size + 1)
    return PRCurve(points=list(zip(recalls.tolist(), precisions.tolist())))


def average_precision(scored: list[tuple[float, bool]], n_gt: int) -> float:
    """Area under the monotone precision envelope of the PR step curve.

    ``scored`` holds (score, is_true_positive) pairs from one-to-one greedy
    matching; all-point interpolation (exact area), not sampled.
    """
    if n_gt < 1:
        raise DataError("average precision undefined without ground truth")
    return _ranked_ap([scored[i][1] for i in _score_order([s for s, _ in scored])], n_gt)


def _ranked_ap(labels: list[bool], n_gt: int) -> float:
    """``average_precision`` of true-positive flags already in descending
    score order (stable for ties); n_gt >= 1, and 0 without any flag."""
    return _hit_ranks_ap(list(compress(count(), labels)), n_gt)


def _hit_ranks_ap(ranks: list[int], n_gt: int) -> float:
    """``_ranked_ap`` from the 0-based ranks of the true positives alone.

    Recall rises only at a hit, and the precision envelope there is the
    best precision at that hit or any later one: a miss after hit ``t``
    has precision t / rank below the hit's own."""
    env = [tp / (rank + 1) for tp, rank in enumerate(ranks, start=1)]
    for k in range(len(env) - 2, -1, -1):  # non-increasing from the right
        if env[k] < env[k + 1]:
            env[k] = env[k + 1]
    ap = 0.0
    prev_r = 0.0
    for tp, p in enumerate(env, start=1):
        r = tp / n_gt
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return ap


def match_detections(dets: list[Detection], gts: list[GTBox],
                     iou_thresh: float = 0.5,
                     order: list[int] | None = None) -> tuple[list[tuple[float, bool]], int]:
    """Greedy one-to-one matching by descending score within (image, class).

    A detection is a true positive when its best unmatched same-class
    ground truth in the same image exceeds the IoU threshold; each ground
    truth matches at most one detection.  Returns (score, tp) pairs aligned
    with the detections plus the matched count.  ``order``, when given, is
    the detections' ``_score_order``.
    """
    by_key: dict[tuple, list[int]] = {}
    for j, gt in enumerate(gts):
        by_key.setdefault((gt.image_id, gt.class_id), []).append(j)
    matched: set[int] = set()
    if order is None:
        order = _score_order([d.score for d in dets])
    labels: list[tuple[float, bool]] = [None] * len(dets)  # type: ignore[list-item]
    n_matched = 0
    for i in order:
        det = dets[i]
        best_j, best_iou = -1, 0.0
        for j in by_key.get((det.image_id, det.class_id), ()):
            if j in matched:
                continue
            v = iou(det.box, gts[j].box)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0 and best_iou > iou_thresh:
            matched.add(best_j)
            labels[i] = (det.score, True)
            n_matched += 1
        else:
            labels[i] = (det.score, False)
    return labels, n_matched


def _mean_class_ap(dets: list[Detection], labels: list[tuple[float, bool]],
                   gts: list[GTBox], order: list[int]) -> float:
    """Mean AP over the classes present in the ground truth, from the
    ``match_detections`` labels of ``dets`` and their descending-score
    ``order``; matching never crosses classes, so one pass over all classes
    labels each class as a per-class pass would, and each class's flags in
    ``order`` are in its own stable score order."""
    if not gts:
        raise DataError("mAP undefined: no ground truth at all")
    n_gt = Counter(g.class_id for g in gts)
    ranked: dict[int, list[bool]] = {cls: [] for cls in n_gt}
    for i in order:
        if dets[i].class_id in ranked:
            ranked[dets[i].class_id].append(labels[i][1])
    aps = [_ranked_ap(ranked[cls], n_gt[cls]) for cls in sorted(n_gt)]
    orphan = sorted({d.class_id for d in dets}.difference(n_gt))
    if orphan:
        warnings.warn(f"classes {orphan} have detections but no ground truth; skipped")
    return float(np.mean(aps))


def map50(dets: list[Detection], gts: list[GTBox], iou_thresh: float = 0.5) -> float:
    """Mean AP over the classes present in the ground truth (IoU > 0.5 match)."""
    order = _score_order([d.score for d in dets])
    labels, _ = match_detections(dets, gts, iou_thresh, order=order)
    return _mean_class_ap(dets, labels, gts, order)


# ---------------------------------------------------------------------------
# Normalized contrast (NoCo) and its AP sweep
# ---------------------------------------------------------------------------


@dataclass
class ContrastRegion:
    """Gray stats of a target and of its surrounding background annulus."""

    mu_t: float
    mu_b: float
    sigma_b: float


def _region_bounds(shape: tuple[int, int], box: Box) -> tuple[tuple, tuple]:
    """Pixel bounds (x1, y1, x2, y2) of a box's target and of its window,
    the target dilated by the box's own larger dimension on each side; both
    are clipped to the frame."""
    h, w = shape
    try:
        ix1 = max(math.floor(box.x1), 0)
        iy1 = max(math.floor(box.y1), 0)
        ix2 = min(math.ceil(box.x2), w)
        iy2 = min(math.ceil(box.y2), h)
        d = math.ceil(max(box.w, box.h))
    except (OverflowError, ValueError):  # an infinite or NaN corner or extent
        raise NumericError(f"non-finite box {box}") from None
    if ix2 <= ix1 or iy2 <= iy1:
        raise DataError(f"empty target region for box {box}")
    window = (max(ix1 - d, 0), max(iy1 - d, 0), min(ix2 + d, w), min(iy2 + d, h))
    return (ix1, iy1, ix2, iy2), window


class _EmptyAnnulus(DataError):
    """The box's window is its target: no background pixel is left."""


def build_contrast_region(image: np.ndarray, box: Box) -> ContrastRegion:
    """Discretize a box onto the pixel grid; the background annulus is the
    box dilated by its own larger dimension on each side, minus the target."""
    # bench/spans.py wraps this function by name and parameter list
    (ix1, iy1, ix2, iy2), window = _region_bounds(image.shape, box)
    if window == (ix1, iy1, ix2, iy2):
        raise _EmptyAnnulus(f"empty background annulus for box {box}")
    ox1, oy1, ox2, oy2 = window

    # both picks in the row-major order of a boolean mask over the window:
    # the annulus is the rows above the target, each target row's left and
    # right parts, then the rows below
    tvals = image[iy1:iy2, ix1:ix2].ravel()
    sides = np.concatenate((image[iy1:iy2, ox1:ix1], image[iy1:iy2, ix2:ox2]), axis=1)
    bvals = np.concatenate((image[oy1:iy1, ox1:ox2], sides, image[iy2:oy2, ox1:ox2]), axis=None)
    # np.mean and np.std's own arithmetic, without their wrappers
    mu_b = np.add.reduce(bvals) / bvals.size
    dev = bvals - mu_b
    np.multiply(dev, dev, out=dev)
    return ContrastRegion(float(np.add.reduce(tvals) / tvals.size), float(mu_b),
                          math.sqrt(np.add.reduce(dev) / dev.size))


def noco(region: ContrastRegion) -> float:
    """Normalized contrast (mu_T - mu_B) / sigma_B from the region's gray
    stats, with sigma guarded at 1e-6."""
    return (region.mu_t - region.mu_b) / max(region.sigma_b, 1e-6)


DEFAULT_DELTAS = tuple(round(0.1 * i, 1) for i in range(1, 10))


def mnocoap(dets: list[Detection], gts: list[GTBox], images: dict,
            deltas=DEFAULT_DELTAS,
            order: list[int] | None = None) -> tuple[float, dict[float, float]]:
    """Contrast-thresholded AP averaged over the delta sweep.

    For each threshold, a detection is a true positive when (a) its
    centroid lies inside a not-yet-matched ground-truth box of the same
    image and (b) its region contrast, normalized by the ground-truth
    region's contrast and clamped to [0, 1], reaches the threshold.
    Matching is greedy in descending score; the result is the mean of the
    per-threshold APs.  A detection whose window leaves no background pixel
    (a box covering the frame) has no local contrast and scores 0.
    ``order``, when given, is the detections' ``_score_order``.
    """
    if not gts:
        raise DataError("mNoCoAP undefined: no ground truth")
    for g in gts:
        if g.image_id not in images:
            raise DataError(f"missing image {g.image_id!r} for ground truth")

    denoms = []  # each truth's contrast, guarded away from 0
    by_image: dict = {}
    for j, g in enumerate(gts):
        v = noco(build_contrast_region(images[g.image_id], g.box))
        denoms.append(v if abs(v) > 1e-6 else 1e-6)
        by_image.setdefault(g.image_id, []).append(j)

    # candidates of the detections that have any: (gt index, normalized
    # contrast score), best first
    candidates: dict[int, list[tuple[int, float]]] = {}
    for i, det in enumerate(dets):
        if det.image_id not in images:
            raise DataError(f"missing image {det.image_id!r} for detection")
        box = det.box
        cx, cy = box.cx, box.cy
        inside = [j for j in by_image.get(det.image_id, ()) if gts[j].box.contains(cx, cy)]
        if not inside:
            continue
        try:
            det_noco = noco(build_contrast_region(images[det.image_id], box))
        except _EmptyAnnulus:
            det_noco = 0.0
        cands = [(j, min(max(det_noco / denoms[j], 0.0), 1.0)) for j in inside]
        cands.sort(key=lambda t: (-t[1], t[0]))
        candidates[i] = cands

    # stable descending-score order, as average_precision would sort the
    # hits; a detection without a candidate is never a hit, so each pass
    # visits only the others, at their rank in the full order
    if order is None:
        order = _score_order([d.score for d in dets])
    ranked = [(rank, candidates[i]) for rank, i in enumerate(order) if i in candidates]
    per_delta: dict[float, float] = {}
    for delta in deltas:
        matched: set[int] = set()
        hits = []
        for rank, cands in ranked:
            for j, nscore in cands:
                if j in matched:
                    continue
                if nscore >= delta:
                    matched.add(j)
                    hits.append(rank)
                break  # only the best unmatched candidate is considered
        per_delta[delta] = _hit_ranks_ap(hits, len(gts))
    value = float(np.mean(list(per_delta.values())))
    return value, per_delta


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    precision: float
    recall: float
    f1: float
    map50: float
    mnocoap: float | None
    per_delta: dict[float, float] | None
    counts: ConfusionCounts
    curve: PRCurve

    def to_text(self) -> str:
        lines = [
            f"precision {self.precision:.6f}",
            f"recall {self.recall:.6f}",
            f"f1 {self.f1:.6f}",
            f"map50 {self.map50:.6f}",
            f"tp {self.counts.tp}",
            f"fp {self.counts.fp}",
            f"fn {self.counts.fn}",
        ]
        if self.mnocoap is not None:
            lines.append(f"mnocoap {self.mnocoap:.6f}")
            for delta, ap in sorted(self.per_delta.items()):
                lines.append(f"ap_delta_{delta:.1f} {ap:.6f}")
        return "\n".join(lines) + "\n"

    def pr_csv(self) -> str:
        lines = ["recall,precision"]
        lines += [f"{r:.9f},{p:.9f}" for r, p in self.curve.points]
        return "\n".join(lines) + "\n"

    def delta_csv(self) -> str:
        lines = ["delta,ap"]
        if self.per_delta:
            lines += [f"{d:.1f},{a:.9f}" for d, a in sorted(self.per_delta.items())]
        return "\n".join(lines) + "\n"


def evaluate_detections(dets: list[Detection], gts: list[GTBox],
                        images: dict | None = None,
                        iou_thresh: float = 0.5) -> MetricReport:
    """Full metric bundle at the detections' operating point."""
    # one score order for matching, every class's AP, the curve and mNoCoAP
    order = _score_order([d.score for d in dets])
    labels, n_matched = match_detections(dets, gts, iou_thresh, order=order)
    counts = ConfusionCounts(tp=n_matched, fp=len(dets) - n_matched,
                             fn=len(gts) - n_matched)
    p, r, f1 = prf1(counts)
    m = _mean_class_ap(dets, labels, gts, order)
    curve = pr_curve([labels[i][1] for i in order], max(len(gts), 1))
    if images is not None:
        value, per_delta = mnocoap(dets, gts, images, order=order)
    else:
        value, per_delta = None, None
    return MetricReport(precision=p, recall=r, f1=f1, map50=m,
                        mnocoap=value, per_delta=per_delta,
                        counts=counts, curve=curve)
