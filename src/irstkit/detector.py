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
import warnings
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

LOG_EPS = 1e-7  # probability clamp in bce_loss and dfl_loss; total_loss works on logits


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
        self.widths = tuple(self.widths)
        if any(w < 1 for w in self.widths) or len(self.widths) != 4:
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


@dataclass
class TrainConfig:
    batch: int = 16
    epochs: int = 100
    lr0: float = 0.001
    lr_final_fraction: float = 0.5
    momentum: float = 0.937
    beta2: float = 0.999
    weight_decay: float = 0.0005
    warmup_epochs: int = 3
    warmup_momentum: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if self.warmup_epochs > self.epochs:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class Head(Module):
    def __init__(self, name: str, c_in: int, c_out: int, rng, dtype):
        super().__init__(name)
        self.stem = ConvBnSilu(f"{name}.stem", c_in, c_in, 3, rng=rng, dtype=dtype)
        self.out = Conv2dLayer(f"{name}.out", c_in, c_out, 1, bias=True,
                               rng=rng, dtype=dtype)

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
        self.head0 = Head("model.head0", w2, cfg.head_channels, rng, dtype)
        self.head1 = Head("model.head1", w3, cfg.head_channels, rng, dtype)
        self.head2 = Head("model.head2", w3, cfg.head_channels, rng, dtype)
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


def bce_loss(p, y) -> Tensor4:
    """Mean binary cross-entropy over all elements; probabilities are
    clamped to [1e-7, 1 - 1e-7] and scored as logits by ``_bce_terms``."""
    p = p if isinstance(p, Tensor4) else Tensor4.const(np.asarray(p, dtype=np.float64).reshape(1, 1, 1, -1))
    y = y if isinstance(y, Tensor4) else Tensor4.const(np.asarray(y, dtype=np.float64).reshape(1, 1, 1, -1))
    pc = T.clamp(p, LOG_EPS, 1.0 - LOG_EPS)
    return T.mean_all(_bce_terms(T.sub(T.log(pc), T.log(T.sub(1.0, pc))), y))


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


def ciou_loss(pred: Box, gt: Box) -> float:
    """Complete-IoU loss between two boxes (scalar convenience form)."""
    if gt.area <= 0.0:
        raise NumericError(f"degenerate zero-area ground-truth box {gt}")

    def c(v):
        return Tensor4.const(np.full((1, 1, 1, 1), v, dtype=np.float64))

    out = _ciou_terms(c(pred.x1), c(pred.y1), c(pred.x2), c(pred.y2),
                      c(gt.x1), c(gt.y1), c(gt.x2), c(gt.y2))
    return out.item()


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


def dfl_loss(bin_probs: np.ndarray, target) -> float:
    """Mean ``_dfl_terms`` penalty over all leading dimensions of the bin
    probabilities.  Targets outside [0, bins - 1] are clamped (with a
    warning).  Each p is clamped at LOG_EPS before the log, so this matches
    the DFL term of ``total_loss`` (which uses the unclamped log-softmax)
    only where every gathered p >= LOG_EPS."""
    probs = np.asarray(bin_probs, dtype=np.float64)
    bins = probs.shape[-1]
    flat = np.clip(probs.reshape(-1, bins), LOG_EPS, 1.0)
    t = np.broadcast_to(np.asarray(target, dtype=np.float64).reshape(-1), flat.shape[:1])
    n_clamped = int(np.count_nonzero((t < 0) | (t > bins - 1)))
    if n_clamped:
        warnings.warn(f"{n_clamped} regression targets clamped into [0, {bins - 1}]")
    pc = Tensor4.const(flat.reshape(-1, bins, 1, 1))
    return T.mean_all(_dfl_terms(pc, T.log(pc), np.clip(t, 0.0, bins - 1.0))).item()


def total_loss(head_outs: list[Tensor4], assignment: Assignment, batch_gts,
               cfg: ModelConfig, weights: LossWeights = LossWeights()):
    """Composite objective: weighted sum of classification BCE over all
    cells and box losses (complete-IoU + focal bin regression) over the
    positive cells.  Returns (scalar loss tensor, breakdown dict)."""
    ncls, bins = cfg.num_classes, cfg.reg_bins
    dtype = head_outs[0].dtype
    for b, gts in enumerate(batch_gts):
        for g in gts:
            if not 0 <= g.class_id < ncls:
                raise DataError(f"image {b}: class id {g.class_id} outside the model's "
                                f"{ncls} classes")

    # classification over every cell of every scale
    bce_sum = None
    n_elems = 0
    for scale, out in enumerate(head_outs):
        n, _, gh, gw = out.shape
        logits = T.slice_channels(out, 0, ncls)
        y = np.zeros((n, ncls, gh, gw), dtype=dtype)
        for (b, gy, gx), gi in assignment.per_scale[scale].items():
            y[b, batch_gts[b][gi].class_id, gy, gx] = 1.0
        s = T.sum_all(_bce_terms(logits, Tensor4.const(y)))
        bce_sum = s if bce_sum is None else T.add(bce_sum, s)
        n_elems += y.size
    bce = T.mul(bce_sum, 1.0 / n_elems)

    # regression over positive cells, per scale
    ciou_sum = None
    dfl_sum = None
    n_pos = 0
    n_clamped = 0
    bin_idx = Tensor4.const(np.arange(bins, dtype=dtype).reshape(1, bins, 1, 1))
    for scale, out in enumerate(head_outs):
        cells = assignment.per_scale[scale]
        if not cells:
            continue
        stride = cfg.strides[scale]
        keys = sorted(cells.keys())
        p = len(keys)
        n_pos += p
        boxes = (gt_to_box(batch_gts[b][cells[(b, gy, gx)]], cfg.input_size)
                 for (b, gy, gx) in keys)
        corners = np.array([(g.x1, g.y1, g.x2, g.y2) for g in boxes]).T  # (4, p)
        idx = np.array(keys)
        centers = (idx[:, [2, 1]].T + 0.5) * stride  # (2, p): x, y

        def const(v):
            return Tensor4.const(v.reshape(p, 1, 1, 1).astype(dtype))

        reg = T.slice_channels(out, ncls, ncls + 4 * bins)
        cols = T.gather_cells(reg, idx)  # (p, 4*bins, 1, 1)
        cx, cy = const(centers[0]), const(centers[1])

        dists = []
        side_probs = []
        side_log_probs = []
        for side in range(4):
            logits = T.slice_channels(cols, side * bins, (side + 1) * bins)
            probs = T.softmax_channels(logits)
            side_probs.append(probs)
            side_log_probs.append(T.log_softmax_channels(logits))
            expect = T.sum_channels(T.mul(probs, bin_idx))
            dists.append(T.mul(expect, float(stride)))
        left, top, right, bottom = dists

        losses = _ciou_terms(T.sub(cx, left), T.sub(cy, top),
                             T.add(cx, right), T.add(cy, bottom),
                             *(const(c) for c in corners))
        s = T.sum_all(losses)
        ciou_sum = s if ciou_sum is None else T.add(ciou_sum, s)

        # focal penalty on the floor/ceil bins of each side's ltrb/stride target
        raw_targets = np.concatenate([centers - corners[:2], corners[2:] - centers]) / stride
        n_clamped += int(np.count_nonzero((raw_targets < 0) | (raw_targets > bins - 1)))
        targets = np.clip(raw_targets, 0.0, bins - 1.0)
        for side in range(4):
            s = T.sum_all(_dfl_terms(side_probs[side], side_log_probs[side], targets[side]))
            dfl_sum = s if dfl_sum is None else T.add(dfl_sum, s)

    zero = Tensor4.const(np.zeros((1, 1, 1, 1), dtype=dtype))
    ciou = T.mul(ciou_sum, 1.0 / n_pos) if ciou_sum is not None else zero
    dfl = T.mul(dfl_sum, 1.0 / (4 * n_pos)) if dfl_sum is not None else zero

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


# IoU rows per block in ``_nms``: an untrained 640 px head passes all 8400
# cells, whose full IoU matrix alone would take 560 MB
NMS_BLOCK = 1024


def _nms(dets: list[Detection], nms_iou: float) -> list[Detection]:
    """Greedy NMS over one image's detections of one class: in stable
    descending-score order, keep each box whose IoU with every kept box is
    below ``nms_iou``."""
    # bench/spans.py wraps this function by name and parameter list
    # a stable argsort of the negated scores: ties keep their input order
    order = np.argsort(-np.array([d.score for d in dets], dtype=np.float64), kind="stable")
    boxes = np.array([(b.x1, b.y1, b.x2, b.y2) for b in (d.box for d in dets)],
                     dtype=np.float64).reshape(-1, 4)[order]
    keep: list[int] = []
    for lo in range(0, len(dets), NMS_BLOCK):
        hi = min(lo + NMS_BLOCK, len(dets))
        clash = metrics.iou_matrix(boxes[lo:hi], boxes[:hi]) >= nms_iou
        # bit i of ``dead`` marks row lo + i suppressed; a kept row ORs in its
        # whole clash row at once, so suppression stays bit-parallel
        dead = 0
        if keep:
            earlier = np.packbits(clash[:, keep].any(axis=1), bitorder="little")
            dead = int.from_bytes(earlier.tobytes(), "little")
        rows = np.packbits(clash[:, lo:hi], axis=1, bitorder="little")
        width = rows.shape[1]
        flat = rows.tobytes()
        for i in range(hi - lo):
            if not dead >> i & 1:
                keep.append(lo + i)
                dead |= int.from_bytes(flat[i * width:(i + 1) * width], "little")
    order = order.tolist()
    return [dets[order[k]] for k in keep]


def decode(head_outs, cfg: ModelConfig, score_thresh: float = 0.25,
           nms_iou: float = 0.45) -> list[list[Detection]]:
    """Head outputs to per-image detections: sigmoid class scores, score
    threshold, bin expectations to box sides for the passing cells, then
    greedy per-class NMS.  Detections come back sorted by descending score."""
    if not (0.0 < score_thresh < 1.0) or not (0.0 < nms_iou < 1.0):
        raise ConfigError("score_thresh and nms_iou must lie in (0, 1)")
    ncls, bins = cfg.num_classes, cfg.reg_bins
    arange = np.arange(bins)
    outs = [o.data if isinstance(o, Tensor4) else np.asarray(o) for o in head_outs]
    n = outs[0].shape[0]
    # per image and class, candidates in (scale, row, column) order
    raw: list[list[list[Detection]]] = [[[] for _ in range(ncls)] for _ in range(n)]
    for scale, out in enumerate(outs):
        stride = cfg.strides[scale]
        scores = T._logistic(out[:, :ncls])
        bs, cs, ys, xs = np.nonzero(scores >= score_thresh)
        # (bin, cell, side): the bin axis stays outside the innermost one, as
        # on the full grid, so every sum over bins adds in the same order
        cells = out[bs, ncls:, ys, xs].reshape(-1, 4, bins)
        reg = np.ascontiguousarray(cells.transpose(2, 0, 1))
        shifted = reg - reg.max(axis=0)
        e = np.exp(shifted)
        probs = e / e.sum(axis=0)
        dist = np.einsum("bks,b->ks", probs, arange) * stride
        cx = (xs + 0.5) * stride
        cy = (ys + 0.5) * stride
        x1, y1 = (cx - dist[:, 0]).tolist(), (cy - dist[:, 1]).tolist()
        x2, y2 = (cx + dist[:, 2]).tolist(), (cy + dist[:, 3]).tolist()
        cand_scores = scores[bs, cs, ys, xs].tolist()
        for k, (b, cls) in enumerate(zip(bs.tolist(), cs.tolist())):
            raw[b][cls].append(Detection(class_id=cls, score=cand_scores[k],
                                         box=Box(x1[k], y1[k], x2[k], y2[k]), image_id=b))
    result = []
    for per_class in raw:
        kept: list[Detection] = []
        for cands in per_class:
            if cands:
                kept.extend(_nms(cands, nms_iou))
        result.append(sorted(kept, key=lambda d: -d.score))
    return result


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay and bias
    correction; the momentum coefficient is supplied per step so it can
    ramp during warm-up."""

    def __init__(self, params, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.beta2 = beta2
        self.eps = eps

    def step(self, lr: float, beta1: float, weight_decay: float) -> None:
        for p in self.params:
            g = p.value.grad
            if g is None:
                continue
            g = g.astype(np.float64)
            if p.moment1 is None:
                p.moment1 = np.zeros_like(g)
            if p.moment2 is None:
                p.moment2 = np.zeros_like(g)
            p.step_count += 1
            t = p.step_count
            p.moment1 = beta1 * p.moment1 + (1.0 - beta1) * g
            p.moment2 = self.beta2 * p.moment2 + (1.0 - self.beta2) * g * g
            m_hat = p.moment1 / (1.0 - beta1 ** t)
            v_hat = p.moment2 / (1.0 - self.beta2 ** t)
            update = lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if weight_decay:
                update = update + lr * weight_decay * p.value.data
            p.value.data = p.value.data - update.astype(p.value.data.dtype)


def lr_schedule(step: int, total_steps: int, steps_per_epoch: int,
                cfg: TrainConfig) -> tuple[float, float]:
    """(learning rate, momentum) at a step: linear warm-up for the first
    warm-up epochs (momentum ramps from its warm-up value), then cosine
    decay from lr0 to lr0 * lr_final_fraction at the final step."""
    warm = cfg.warmup_epochs * steps_per_epoch
    lr_final = cfg.lr0 * cfg.lr_final_fraction
    if step < warm:
        frac = (step + 1) / warm
        return cfg.lr0 * frac, cfg.warmup_momentum + (cfg.momentum - cfg.warmup_momentum) * frac
    span = max(total_steps - 1 - warm, 1)
    t = min(max((step - warm) / span, 0.0), 1.0)
    lr = lr_final + 0.5 * (cfg.lr0 - lr_final) * (1.0 + math.cos(math.pi * t))
    return lr, cfg.momentum


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
    optimizer.step(lr, beta1, tcfg.weight_decay)
    record = {"step": step, "lr": lr}
    record.update(breakdown)
    return record


def predict(model: Detector, images: np.ndarray, score_thresh: float = 0.25,
            nms_iou: float = 0.45, batch: int = 16) -> list[list[Detection]]:
    """Inference-mode detections for a stack of images (n, c, h, w).

    The heads come from ``model.fused()``, folded once per call and run
    without a tape, so the detections differ from decoding ``model(x)``
    only by the rounding of the fold.  Images already in the model's dtype
    are read in place, not copied.  Without a tape each MBConv block
    expands about ``MBCONV_BLOCK_BYTES`` of hidden channels at a time
    (Sandler et al. 2018, arXiv:1801.04381, Sec. 5.1): a forward holds one
    block of a 6x expanded activation, never the whole of one."""
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    fused = model.fused()
    dets: list[list[Detection]] = []
    with T.no_grad():
        for lo in range(0, images.shape[0], batch):
            x = Tensor4(images[lo:lo + batch].astype(model.dtype, copy=False))
            outs = fused(x, training=False)
            dets.extend(decode(outs, model.cfg, score_thresh, nms_iou))
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
