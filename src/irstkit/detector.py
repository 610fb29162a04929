"""Scaled-down anchor-free detector: backbone, fused neck, three heads,
composite loss, target assignment, decoding, and the training loop.

The backbone stacks inverted-bottleneck blocks in the shallow stages and
partial-convolution bottlenecks in the deep stages; the neck fuses
top-down and bottom-up paths where downsampling is done by shuffle convs
and fusion nodes are attention-gated stems.  Each head emits, per cell,
``num_classes`` logits plus ``4 * reg_bins`` regression-bin logits; box
sides are decoded as bin-distribution expectations times the stride.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from . import tensor as T
from .blocks import (
    AVCStem,
    BSBlock,
    Conv2dLayer,
    ConvBnSilu,
    GSConvBlock,
    GSConvConfig,
    MBConvBlock,
    MBConvConfig,
    Module,
    fold_bn,
)
from .errors import ConfigError, DataError, NumericError, ShapeError
from .metrics import Box, Detection
from .tensor import Tensor4


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# the stride-2 stem and the stride-2 blocks opening stages a and b put head 0
# at stride 8; down_34 and down_45 halve the grid twice more
HEAD_STRIDES = (8, 16, 32)


@dataclass
class ModelConfig:
    input_size: int = 96
    widths: tuple[int, int, int, int] = (8, 16, 32, 64)
    reg_bins: int = 8
    num_classes: int = 1
    in_channels: int = 1

    def __post_init__(self):
        for name in ("input_size", "reg_bins", "num_classes", "in_channels"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        self.widths = tuple(self.widths) if np.iterable(self.widths) else (self.widths,)
        if len(self.widths) != 4 or not all(isinstance(w, numbers.Integral) and w >= 1
                                            for w in self.widths):
            raise ConfigError(f"widths must be four positive ints, got {self.widths}")
        if any(w % 2 for w in self.widths[1:]):
            raise ConfigError(f"stage widths beyond the stem must be even, got {self.widths}")
        if self.input_size < 32 or self.input_size % 32:
            raise ConfigError(f"input_size must be a positive multiple of 32, got {self.input_size}")
        for name, low in (("reg_bins", 2), ("num_classes", 1), ("in_channels", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def strides(self) -> tuple[int, int, int]:
        """Head strides, fixed by the architecture, not configurable."""
        return HEAD_STRIDES

    @property
    def head_channels(self) -> int:
        return self.num_classes + 4 * self.reg_bins

    def head_grid(self, scale: int) -> int:
        return self.input_size // self.strides[scale]


def paper_scale_config() -> ModelConfig:
    """640x640 configuration with full-scale stage widths, used by the
    complexity accounting to bracket production-size cost totals."""
    return ModelConfig(input_size=640, widths=(16, 32, 64, 144))


@dataclass
class LossWeights:
    lam_bce: float = 0.02
    lam_ciou: float = 0.49
    lam_dfl: float = 0.49

    def __post_init__(self):
        vals = (self.lam_bce, self.lam_ciou, self.lam_dfl)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ConfigError(f"loss weights must be finite and >= 0, got {vals}")


# the fixed parts of the YOLOv8 training schedule: cosine decay to half of
# lr0, momentum (AdamW's beta1) ramping from 0.8 to 0.937 over the warm-up,
# and decoupled weight decay
LR_FINAL_FRACTION = 0.5
MOMENTUM = 0.937
WARMUP_MOMENTUM = 0.8
WEIGHT_DECAY = 0.0005


@dataclass
class TrainConfig:
    batch: int = 16
    epochs: int = 100
    lr0: float = 0.001
    beta2: float = 0.999
    warmup_epochs: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("batch", "epochs", "warmup_epochs", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # each check written as "not inside" so a NaN fails it
        if not self.epochs >= 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ConfigError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0 <= self.beta2 < 1:
            raise ConfigError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if not self.warmup_epochs >= 0:
            raise ConfigError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.warmup_epochs > self.epochs:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


# prior probability the class-logit biases start at, so an untrained cell
# scores about 0.01 rather than 0.5 (Lin et al. 2017, Focal Loss,
# arXiv:1708.02002 Sec. 4.1; YOLOv8's ``Detect.bias_init``)
CLASS_PRIOR = 0.01


class Head(Module):
    def __init__(self, name: str, c_in: int, cfg: ModelConfig, rng, dtype):
        super().__init__(name)
        self.stem = ConvBnSilu(f"{name}.stem", c_in, c_in, 3, rng=rng, dtype=dtype)
        self.out = Conv2dLayer(f"{name}.out", c_in, cfg.head_channels, 1, bias=True,
                               rng=rng, dtype=dtype)
        self.out.bias.data[:, :cfg.num_classes] = math.log(CLASS_PRIOR / (1.0 - CLASS_PRIOR))

    def forward(self, x, training=False, seed=0):
        return self.out(self.stem(x, training=training))


class Detector(Module):
    """Backbone -> fused neck -> detection heads ``head0``-``head2``."""

    def __init__(self, cfg: ModelConfig, init_seed: int = 7, dtype=np.float64):
        super().__init__("model", in_channels=cfg.in_channels)
        self.cfg = cfg
        rng = np.random.default_rng(init_seed)
        w0, w1, w2, w3 = cfg.widths

        self.stem = ConvBnSilu("model.stem", cfg.in_channels, w0, 3,
                               stride=2, rng=rng, dtype=dtype)
        # shallow stages: inverted bottlenecks, one in stage a and two in stage b
        self.a0 = MBConvBlock("model.a0", MBConvConfig(w0, w1, stride=2),
                              rng=rng, dtype=dtype)
        self.b0 = MBConvBlock("model.b0", MBConvConfig(w1, w2, stride=2),
                              rng=rng, dtype=dtype)
        self.b1 = MBConvBlock("model.b1", MBConvConfig(w2, w2),
                              rng=rng, dtype=dtype)
        # deep stages: strided conv then partial-conv bottleneck
        self.down_c = ConvBnSilu("model.down_c", w2, w3, 3, stride=2,
                                 rng=rng, dtype=dtype)
        self.bs_c = BSBlock("model.bs_c", w3, rng=rng, dtype=dtype)
        self.down_d = ConvBnSilu("model.down_d", w3, w3, 3, stride=2,
                                 rng=rng, dtype=dtype)
        self.bs_d = BSBlock("model.bs_d", w3, rng=rng, dtype=dtype)
        # neck: top-down fusion then bottom-up re-aggregation
        self.fuse_t4 = AVCStem("model.fuse_t4", 2 * w3, w3, rng=rng, dtype=dtype)
        self.fuse_t3 = AVCStem("model.fuse_t3", w3 + w2, w2, rng=rng, dtype=dtype)
        self.down_34 = GSConvBlock("model.down_34",
                                   GSConvConfig(w2, w2 // 2, stride=2),
                                   rng=rng, dtype=dtype)
        self.fuse_m4 = AVCStem("model.fuse_m4", w2 + w3, w3, rng=rng, dtype=dtype)
        self.down_45 = GSConvBlock("model.down_45",
                                   GSConvConfig(w3, w3 // 2, stride=2),
                                   rng=rng, dtype=dtype)
        self.fuse_m5 = AVCStem("model.fuse_m5", 2 * w3, w3, rng=rng, dtype=dtype)
        self.head0 = Head("model.head0", w2, cfg, rng, dtype)
        self.head1 = Head("model.head1", w3, cfg, rng, dtype)
        self.head2 = Head("model.head2", w3, cfg, rng, dtype)
        self.dtype = dtype

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> list[Tensor4]:
        deepest = max(self.cfg.strides)
        if x.shape[2] % deepest or x.shape[3] % deepest:
            raise ShapeError(f"{self.name}: input {x.shape[2]}x{x.shape[3]} is not a multiple "
                             f"of the deepest stride {deepest} on each side")
        kw = dict(training=training, seed=seed)
        c3 = self.b1(self.b0(self.a0(self.stem(x, **kw), **kw), **kw), **kw)
        c4 = self.bs_c(self.down_c(c3, **kw), **kw)
        c5 = self.bs_d(self.down_d(c4, **kw), **kw)

        t4 = self.fuse_t4(T.concat_channels([T.upsample2x(c5), c4]), **kw)
        t3 = self.fuse_t3(T.concat_channels([T.upsample2x(t4), c3]), **kw)
        m4 = self.fuse_m4(T.concat_channels([self.down_34(t3, **kw), t4]), **kw)
        m5 = self.fuse_m5(T.concat_channels([self.down_45(m4, **kw), c5]), **kw)
        return [self.head0(t3, **kw), self.head1(m4, **kw), self.head2(m5, **kw)]

    def fused(self) -> "Detector":
        """Inference-only copy with each batch norm that directly follows a
        conv folded into it (``blocks.fold_bn``): its ``head0``-``head2``
        equal this model's inference-mode heads up to rounding, with 29 fewer
        batch-norm passes per forward (VKConv's four, which follow its
        sample, stay).  ``self`` is unchanged and the copy shares its
        unfolded parameters; build a new copy after the weights change."""
        return fold_bn(self)


# ---------------------------------------------------------------------------
# Target assignment
# ---------------------------------------------------------------------------


@dataclass
class Assignment:
    """Per-scale map from positive head cell (batch, row, col) to the index
    of the matched ground truth within that batch element."""

    per_scale: list[dict[tuple[int, int, int], int]] = field(default_factory=list)

    def num_positives(self) -> int:
        return sum(len(d) for d in self.per_scale)


def gt_to_box(gt, size: int) -> Box:
    """Normalized center-format ground truth to a pixel-space Box."""
    return Box(
        max((gt.cx - gt.w / 2.0) * size, 0.0),
        max((gt.cy - gt.h / 2.0) * size, 0.0),
        min((gt.cx + gt.w / 2.0) * size, float(size)),
        min((gt.cy + gt.h / 2.0) * size, float(size)),
    )


def _pick_scale(extent: float, strides) -> int:
    # first scale whose [2s, 8s) range holds the box extent, which is the
    # first with extent < 8s: below-all maps to the finest scale, above-all
    # to the coarsest
    for i, s in enumerate(strides):
        if extent < 8 * s:
            return i
    return len(strides) - 1


def assign_targets(batch_gts, cfg: ModelConfig) -> Assignment:
    """Map each ground truth to the center cell of one scale.

    The scale is chosen by the box's larger side; the positive cell is the
    cell containing the box center.  When two ground truths land on the
    same cell, the larger area wins.
    """
    per_scale: list[dict[tuple[int, int, int], int]] = [dict() for _ in cfg.strides]
    areas: list[dict[tuple[int, int, int], float]] = [dict() for _ in cfg.strides]
    for b, gts in enumerate(batch_gts):
        for gi, gt in enumerate(gts):
            box = gt_to_box(gt, cfg.input_size)
            scale = _pick_scale(max(box.w, box.h), cfg.strides)
            stride = cfg.strides[scale]
            grid = cfg.head_grid(scale)
            gy = min(int(box.cy // stride), grid - 1)
            gx = min(int(box.cx // stride), grid - 1)
            key = (b, gy, gx)
            if key in per_scale[scale] and areas[scale][key] >= box.area:
                continue
            per_scale[scale][key] = gi
            areas[scale][key] = box.area
    return Assignment(per_scale=per_scale)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _bce_terms(logits: Tensor4, y: Tensor4) -> Tensor4:
    """Per-element binary cross-entropy of logits against 0/1 targets in the
    logit-stable softplus form, whose gradient (sigmoid(z) - y) stays alive
    even where a cell saturates."""
    return T.add(T.mul(y, T.softplus(T.mul(logits, -1.0))),
                 T.mul(T.sub(1.0, y), T.softplus(logits)))


def _ciou_terms(px1, py1, px2, py2, gx1, gy1, gx2, gy2) -> Tensor4:
    """Per-row complete-IoU loss: 1 - IoU + center-distance and aspect terms."""
    ix = T.clamp(T.sub(T.minimum(px2, gx2), T.maximum(px1, gx1)), 0.0, None)
    iy = T.clamp(T.sub(T.minimum(py2, gy2), T.maximum(py1, gy1)), 0.0, None)
    inter = T.mul(ix, iy)
    area_p = T.mul(T.sub(px2, px1), T.sub(py2, py1))
    area_g = T.mul(T.sub(gx2, gx1), T.sub(gy2, gy1))
    union = T.sub(T.add(area_p, area_g), inter)
    iou = T.div(inter, union)

    d2 = T.add(
        T.power(T.mul(T.sub(T.add(px1, px2), T.add(gx1, gx2)), 0.5), 2.0),
        T.power(T.mul(T.sub(T.add(py1, py2), T.add(gy1, gy2)), 0.5), 2.0),
    )
    c2 = T.add(
        T.power(T.sub(T.maximum(px2, gx2), T.minimum(px1, gx1)), 2.0),
        T.power(T.sub(T.maximum(py2, gy2), T.minimum(py1, gy1)), 2.0),
    )

    v = T.mul(
        T.power(T.sub(T.arctan2(T.sub(gx2, gx1), T.sub(gy2, gy1)),
                      T.arctan2(T.sub(px2, px1), T.sub(py2, py1))), 2.0),
        4.0 / math.pi ** 2,
    )
    alpha = T.div(v, T.maximum(T.add(T.sub(1.0, iou), v), 1e-9))
    return T.add(T.add(T.sub(1.0, iou), T.div(d2, c2)), T.mul(alpha, v))


DFL_ALPHA = 0.25
DFL_GAMMA = 2.0


def _dfl_terms(probs: Tensor4, log_probs: Tensor4, targets: np.ndarray) -> Tensor4:
    """Per-row focal penalty on the (p, bins, 1, 1) box-side distribution:
    each target in [0, bins - 1] puts -alpha * (1 - p)^gamma * log(p) on its
    floor and ceil bins, weighted linearly by the fractional position.  In
    the graph, log p comes from a stable log-softmax, so the penalty keeps
    its gradient even when p underflows."""
    p, bins = probs.shape[:2]
    lo = np.floor(targets).astype(int)
    frac = targets - lo

    def focal(idx, w):
        pk, log_pk = T.gather_channel(probs, idx), T.gather_channel(log_probs, idx)
        term = T.mul(T.mul(T.power(T.sub(1.0, pk), DFL_GAMMA), log_pk), -DFL_ALPHA)
        return T.mul(term, Tensor4.const(w.reshape(p, 1, 1, 1).astype(probs.dtype)))

    term = focal(lo, 1.0 - frac)
    if np.any(frac > 0):
        term = T.add(term, focal(np.minimum(lo + 1, bins - 1), frac))
    return term


def total_loss(head_outs: list[Tensor4], assignment: Assignment, batch_gts,
               cfg: ModelConfig, weights: LossWeights = LossWeights()):
    """Composite objective: weighted sum of classification BCE summed over
    all cells and box losses (complete-IoU + focal bin regression) averaged
    over the positive cells.  As in YOLOv8's ``v8DetectionLoss``, the BCE
    sum is divided by the positive count (at least 1), not by the cell
    count, so a positive's class gradient does not shrink with the grid.
    Returns (scalar loss tensor, breakdown dict)."""
    ncls, bins = cfg.num_classes, cfg.reg_bins
    dtype = head_outs[0].dtype
    for b, gts in enumerate(batch_gts):
        for g in gts:
            if not 0 <= g.class_id < ncls:
                raise DataError(f"image {b}: class id {g.class_id} outside the model's "
                                f"{ncls} classes")

    n_pos = assignment.num_positives()
    bce_sum = ciou_sum = dfl_sum = None
    n_clamped = 0
    bin_idx = Tensor4.const(np.arange(bins, dtype=dtype).reshape(1, bins, 1, 1))
    for scale, out in enumerate(head_outs):
        # classification over every cell
        n, _, gh, gw = out.shape
        cells = assignment.per_scale[scale]
        y = np.zeros((n, ncls, gh, gw), dtype=dtype)
        for (b, gy, gx), gi in cells.items():
            y[b, batch_gts[b][gi].class_id, gy, gx] = 1.0
        s = T.sum_all(_bce_terms(T.slice_channels(out, 0, ncls), Tensor4.const(y)))
        bce_sum = s if bce_sum is None else T.add(bce_sum, s)
        if not cells:
            continue

        # regression over the positive cells
        stride = cfg.strides[scale]
        keys = sorted(cells.keys())
        p = len(keys)
        boxes = (gt_to_box(batch_gts[b][cells[(b, gy, gx)]], cfg.input_size)
                 for (b, gy, gx) in keys)
        corners = np.array([(g.x1, g.y1, g.x2, g.y2) for g in boxes]).T  # (4, p)
        idx = np.array(keys)
        centers = (idx[:, [2, 1]].T + 0.5) * stride  # (2, p): x, y

        def const(v):
            return Tensor4.const(v.reshape(p, 1, 1, 1).astype(dtype))

        # each side's ltrb/stride target, for the focal penalty on its floor/ceil bins
        raw_targets = np.concatenate([centers - corners[:2], corners[2:] - centers]) / stride
        n_clamped += int(np.count_nonzero((raw_targets < 0) | (raw_targets > bins - 1)))
        targets = np.clip(raw_targets, 0.0, bins - 1.0)

        cols = T.gather_cells(out, idx)  # (p, ncls + 4*bins, 1, 1)
        dists = []
        for side in range(4):
            lo = ncls + side * bins
            logits = T.slice_channels(cols, lo, lo + bins)
            probs = T.softmax_channels(logits)
            dists.append(T.mul(T.sum_channels(T.mul(probs, bin_idx)), float(stride)))
            s = T.sum_all(_dfl_terms(probs, T.log_softmax_channels(logits), targets[side]))
            dfl_sum = s if dfl_sum is None else T.add(dfl_sum, s)
        left, top, right, bottom = dists

        cx, cy = const(centers[0]), const(centers[1])
        losses = _ciou_terms(T.sub(cx, left), T.sub(cy, top),
                             T.add(cx, right), T.add(cy, bottom),
                             *(const(c) for c in corners))
        s = T.sum_all(losses)
        ciou_sum = s if ciou_sum is None else T.add(ciou_sum, s)

    bce = T.mul(bce_sum, 1.0 / max(n_pos, 1))
    zero = Tensor4.const(np.zeros((1, 1, 1, 1), dtype=dtype))
    ciou = T.mul(ciou_sum, 1.0 / n_pos) if ciou_sum is not None else zero
    dfl = T.mul(dfl_sum, 1.0 / (4 * n_pos)) if dfl_sum is not None else zero

    # the paper's 0.02/0.49/0.49 weights sit on YOLOv8's loss, whose BCE
    # is normalised by the positive count as above
    total = T.add(T.add(T.mul(bce, weights.lam_bce), T.mul(ciou, weights.lam_ciou)),
                  T.mul(dfl, weights.lam_dfl))
    breakdown = {
        "bce": bce.item(),
        "ciou": ciou.item(),
        "dfl": dfl.item(),
        "total": total.item(),
        "n_pos": n_pos,
        "clamped_targets": n_clamped,
    }
    return total, breakdown


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


# IoU rows per block in ``_nms``: a 640 px head whose 8400 cells all pass the
# threshold would need 560 MB for the full IoU matrix alone
NMS_BLOCK = 1024

# ``decode`` suppresses a box whose IoU with a kept box of its class reaches this
NMS_IOU = 0.45


def _greedy(flat: bytes, width: int, count: int, dead: int = 0) -> list[int]:
    """Greedy suppression over ``count`` packed clash rows of ``width`` bytes
    each: row i survives unless bit i of ``dead`` is set, and a survivor ORs
    its whole clash row into ``dead``, so suppression stays bit-parallel.
    Returns the surviving row positions."""
    keep: list[int] = []
    for i in range(count):
        if not dead >> i & 1:
            keep.append(i)
            dead |= int.from_bytes(flat[i * width:(i + 1) * width], "little")
    return keep


def _nms_padded(rows: np.ndarray, groups: list[tuple[int, int]], width: int,
                nms_iou: float) -> list[int]:
    """``_nms`` of consecutive groups (lo, hi) of at most ``width`` rows each,
    padded to ``width`` rows for one batched IoU pass; the padding repeats a
    real row and is never read."""
    starts = np.array([lo for lo, _ in groups])
    idx = np.minimum(starts[:, None] + np.arange(width), groups[-1][1] - 1)
    boxes = rows[idx, 1:]
    bits = np.packbits(metrics.iou_matrix(boxes, boxes) >= nms_iou, axis=-1, bitorder="little")
    nbytes = bits.shape[-1]
    keep: list[int] = []
    for g, (lo, hi) in enumerate(groups):
        keep += [lo + i for i in _greedy(bits[g].tobytes(), nbytes, hi - lo)]
    return keep


def _nms_blocked(boxes: np.ndarray, nms_iou: float) -> list[int]:
    """``_nms`` of one group's (n, 4) boxes in blocks of ``NMS_BLOCK`` rows:
    each block's rows start out suppressed by the earlier blocks' survivors."""
    keep: list[int] = []
    for lo in range(0, len(boxes), NMS_BLOCK):
        hi = min(lo + NMS_BLOCK, len(boxes))
        clash = metrics.iou_matrix(boxes[lo:hi], boxes[:hi]) >= nms_iou
        dead = 0
        if keep:
            earlier = np.packbits(clash[:, keep].any(axis=1), bitorder="little")
            dead = int.from_bytes(earlier.tobytes(), "little")
        bits = np.packbits(clash[:, lo:hi], axis=1, bitorder="little")
        keep += [lo + i for i in _greedy(bits.tobytes(), bits.shape[1], hi - lo, dead)]
    return keep


def _nms(rows: np.ndarray, nms_iou: float) -> list[int]:
    """Greedy NMS within groups, every group in one call.

    ``rows`` is an (n, 5) float64 array of (group id, x1, y1, x2, y2) rows;
    each group's rows are contiguous and in descending-score order.  A row
    is kept when its IoU with every kept row of its group is below
    ``nms_iou``.  Returns the kept row indices in ascending order.

    Consecutive groups of at most ``NMS_BLOCK`` rows share one batched IoU
    pass, each padded to the largest of them, as long as the padded rows
    number at most ``NMS_BLOCK``; a larger group runs alone in blocks of
    ``NMS_BLOCK`` rows.  Either way one pass holds at most ``NMS_BLOCK``
    IoU rows, and each group's packed clash bits then go through the
    greedy pass on their own."""
    # bench/spans.py wraps this function by name and parameter list
    if not len(rows):
        return []
    cuts = (np.flatnonzero(np.diff(rows[:, 0])) + 1).tolist()
    keep: list[int] = []
    run: list[tuple[int, int]] = []  # groups waiting for one padded pass
    width = 0
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        if run and (len(run) + 1) * max(width, hi - lo) > NMS_BLOCK:
            keep += _nms_padded(rows, run, width, nms_iou)
            run, width = [], 0
        if hi - lo > NMS_BLOCK:
            keep += [lo + i for i in _nms_blocked(rows[lo:hi, 1:], nms_iou)]
        else:
            run.append((lo, hi))
            width = max(width, hi - lo)
    if run:
        keep += _nms_padded(rows, run, width, nms_iou)
    return keep


def _check_heads(outs: list[np.ndarray], cfg: ModelConfig) -> None:
    """One rank-4 head per stride, each with one batch size and
    ``cfg.head_channels`` channels; a ``ShapeError`` names the scale."""
    if len(outs) != len(cfg.strides):
        raise ShapeError(f"decode needs {len(cfg.strides)} head outputs, one per stride, "
                         f"got {len(outs)}")
    for scale, out in enumerate(outs):
        if out.ndim != 4 or out.shape[1] != cfg.head_channels:
            raise ShapeError(f"head {scale} must be (n, {cfg.head_channels}, h, w), "
                             f"got shape {out.shape}")
        if out.shape[0] != outs[0].shape[0]:
            raise ShapeError(f"head {scale} holds {out.shape[0]} images, "
                             f"head 0 holds {outs[0].shape[0]}")


def decode(head_outs, cfg: ModelConfig, score_thresh: float = 0.25) -> list[list[Detection]]:
    """Head outputs to per-image detections: sigmoid class scores, score
    threshold, bin expectations to box sides for the passing cells, then
    greedy per-class NMS at ``NMS_IOU``.  Detections come back sorted by
    descending score; only the boxes NMS keeps become objects.

    NMS runs once for every image and class: the candidates go to ``_nms``
    as one (group, descending score) ordered array whose groups are the
    (image, class) pairs."""
    if not (isinstance(score_thresh, numbers.Real) and 0.0 < score_thresh < 1.0):
        raise ConfigError(f"score_thresh must be a real number in (0, 1), got {score_thresh!r}")
    ncls, bins = cfg.num_classes, cfg.reg_bins
    arange = np.arange(bins)
    outs = [o.data if isinstance(o, Tensor4) else np.asarray(o) for o in head_outs]
    _check_heads(outs, cfg)
    n = outs[0].shape[0]
    # candidates in (scale, row, column) order within each image and class
    cands = []
    for scale, out in enumerate(outs):
        stride = cfg.strides[scale]
        scores = T._logistic(out[:, :ncls])
        flat = np.flatnonzero(scores >= score_thresh)
        bs, cs, ys, xs = np.unravel_index(flat, scores.shape)
        cells = out[bs, ncls:, ys, xs]
        if not np.isfinite(cells).all():
            k = np.flatnonzero(~np.isfinite(cells).all(axis=1))[0]
            raise NumericError(f"non-finite box regression logits in image {bs[k]}, "
                               f"scale {scale}, cell (row {ys[k]}, column {xs[k]})")
        # (bin, cell, side): the bin axis stays outside the innermost one, as
        # on the full grid, so every sum over bins adds in the same order
        cells = cells.reshape(-1, 4, bins)
        reg = np.ascontiguousarray(cells.transpose(2, 0, 1))
        shifted = reg - reg.max(axis=0)
        e = np.exp(shifted)
        probs = e / e.sum(axis=0)
        dist = np.einsum("bks,b->ks", probs, arange) * stride
        cx = (xs + 0.5) * stride
        cy = (ys + 0.5) * stride
        box = np.column_stack((cx - dist[:, 0], cy - dist[:, 1], cx + dist[:, 2], cy + dist[:, 3]))
        cands.append((bs, cs, scores.ravel()[flat], box))
    img, cls, score, boxes = map(np.concatenate, zip(*cands))
    # one stable descending-score order per (image, class) group
    order = np.lexsort((-score, cls, img))
    kept = order[_nms(np.column_stack(((img * ncls + cls)[order], boxes[order])), NMS_IOU)]
    # per image by descending score; ties keep class order, then NMS order
    kept = kept[np.lexsort((-score[kept], img[kept]))]
    result: list[list[Detection]] = [[] for _ in range(n)]
    for b, c, s, (x1, y1, x2, y2) in zip(img[kept].tolist(), cls[kept].tolist(),
                                         score[kept].tolist(), boxes[kept].tolist()):
        result[b].append(Detection(class_id=c, score=s, box=Box(x1, y1, x2, y2), image_id=b))
    return result


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


ADAM_EPS = 1e-8  # added to AdamW's root second moment


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay and bias
    correction; the momentum coefficient is supplied per step so it can
    ramp during warm-up.  The optimizer owns each parameter's moments and
    step count: a moment is 0.0 until that parameter's first step
    allocates it, and a new optimizer starts from none."""

    def __init__(self, params, beta2: float = 0.999):
        self.params = list(params)
        self.beta2 = beta2
        self.moment1 = [0.0] * len(self.params)
        self.moment2 = [0.0] * len(self.params)
        self.step_counts = [0] * len(self.params)

    def step(self, lr: float, beta1: float, weight_decay: float) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            self.step_counts[i] += 1
            t = self.step_counts[i]
            m1 = self.moment1[i] = beta1 * self.moment1[i] + (1.0 - beta1) * g
            m2 = self.moment2[i] = self.beta2 * self.moment2[i] + (1.0 - self.beta2) * g * g
            m_hat = m1 / (1.0 - beta1 ** t)
            v_hat = m2 / (1.0 - self.beta2 ** t)
            update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if weight_decay:
                update = update + lr * weight_decay * p.data
            p.data = p.data - update.astype(p.data.dtype)


def lr_schedule(step: int, total_steps: int, steps_per_epoch: int,
                cfg: TrainConfig) -> tuple[float, float]:
    """(learning rate, momentum) at a step: linear warm-up for the first
    warm-up epochs (momentum ramps from ``WARMUP_MOMENTUM`` to
    ``MOMENTUM``), then cosine decay from lr0 to lr0 * ``LR_FINAL_FRACTION``
    at the final step."""
    warm = cfg.warmup_epochs * steps_per_epoch
    lr_final = cfg.lr0 * LR_FINAL_FRACTION
    if step < warm:
        frac = (step + 1) / warm
        return cfg.lr0 * frac, WARMUP_MOMENTUM + (MOMENTUM - WARMUP_MOMENTUM) * frac
    span = max(total_steps - 1 - warm, 1)
    t = min(max((step - warm) / span, 0.0), 1.0)
    lr = lr_final + 0.5 * (cfg.lr0 - lr_final) * (1.0 + math.cos(math.pi * t))
    return lr, MOMENTUM


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_step(model: Detector, optimizer: AdamW, images: np.ndarray, batch_gts,
               step: int, total_steps: int, steps_per_epoch: int,
               tcfg: TrainConfig, weights: LossWeights) -> dict:
    """One optimization step; returns the loss record.  Aborts with a
    diagnostic on a non-finite loss."""
    lr, beta1 = lr_schedule(step, total_steps, steps_per_epoch, tcfg)
    x = Tensor4(images.astype(model.dtype))
    step_seed = tcfg.seed * 1_000_003 + step
    outs = model(x, training=True, seed=step_seed)
    assignment = assign_targets(batch_gts, model.cfg)
    loss, breakdown = total_loss(outs, assignment, batch_gts, model.cfg, weights)
    if not math.isfinite(breakdown["total"]):
        raise NumericError(f"non-finite loss at step {step}: {breakdown}")
    model.zero_grads()
    T.backward(loss)
    optimizer.step(lr, beta1, WEIGHT_DECAY)
    record = {"step": step, "lr": lr}
    record.update(breakdown)
    return record


def predict(model: Detector, images: np.ndarray, score_thresh: float = 0.25,
            batch: int = 16) -> list[list[Detection]]:
    """Inference-mode detections for a stack of images (n, c, h, w).

    The heads come from ``model.fused()``, folded once per call and run
    without a tape, so the detections differ from decoding ``model(x)``
    only by the rounding of the fold.  Images already in the model's dtype
    are read in place, not copied.  Without a tape each MBConv block
    expands about ``MBCONV_BLOCK_BYTES`` of hidden channels at a time
    (Sandler et al. 2018, arXiv:1801.04381, Sec. 5.1): a forward holds one
    block of a 6x expanded activation, never the whole of one."""
    if not isinstance(batch, numbers.Integral):
        raise ConfigError(f"batch must be an integer, got {batch!r}")
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    fused = model.fused()
    dets: list[list[Detection]] = []
    with T.no_grad():
        for lo in range(0, images.shape[0], batch):
            x = Tensor4(images[lo:lo + batch].astype(model.dtype, copy=False))
            outs = fused(x, training=False)
            dets.extend(decode(outs, model.cfg, score_thresh))
    # re-stamp image ids to dataset indices
    for i, per_image in enumerate(dets):
        for d in per_image:
            d.image_id = i
    return dets


def train_loop(model: Detector, images: np.ndarray, gts, tcfg: TrainConfig,
               weights: LossWeights = LossWeights(), log_fn=None) -> list[dict]:
    """Seeded full training loop over an in-memory dataset: ``tcfg.epochs``
    epochs, with batches from a per-epoch seeded shuffle.  Each step's
    record goes to ``log_fn`` (when given) as it is made.  Identical
    configs and data give identical loss records.
    """
    n = images.shape[0]
    if len(gts) != n:
        raise DataError(f"{len(gts)} label lists for {n} images")
    steps_per_epoch = max(1, math.ceil(n / tcfg.batch))
    total_steps = tcfg.epochs * steps_per_epoch
    optimizer = AdamW(model.parameters(), beta2=tcfg.beta2)
    records: list[dict] = []
    rng = np.random.default_rng(tcfg.seed)
    for _epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, tcfg.batch):
            idx = order[lo:lo + tcfg.batch]
            rec = train_step(model, optimizer, images[idx], [gts[i] for i in idx],
                             len(records), total_steps, steps_per_epoch, tcfg, weights)
            records.append(rec)
            if log_fn:
                log_fn(rec)
    return records
