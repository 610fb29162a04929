"""Span tracer for the traced run.

It wraps the public functions of ``irstkit.tensor``, ``irstkit.blocks``,
``irstkit.detector`` and ``irstkit.metrics`` from outside the package and
restores them on exit; nothing in the package changes.  Spans (name,
parent, start, end, owning block family) are kept in memory and written
out when the run ends.

Attribution rules:

* A span's self time is its duration minus its direct children's.  Per
  layer (tensor, blocks, detector, metrics) these self times must sum to
  within 10% of the traced op time: that is the reconciliation.
* ``blocks.<Family>.fwd_self_ms`` subtracts only nested block spans, so
  a family keeps the tensor ops it runs itself, and
  ``blocks.<Family>.bwd_ms`` charges each backward closure to the family
  whose span was innermost when the tape node was recorded.
* ``tensor.backward.walk_ms`` is ``backward``'s own time: its duration
  minus every backward closure run inside it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from irstkit import blocks, detector, metrics, tensor

TENSOR_KINDS = ("conv2d_dense", "conv2d_dw", "batch_norm", "bilinear_sample",
                "dropout", "elementwise")
CONV_KINDS = ("conv2d_dense", "conv2d_dw")
ELEMENTWISE_FUNCS = ("add", "sub", "mul", "div", "exp", "log", "sqrt", "arctan",
                     "arctan2", "power", "clamp", "minimum", "maximum",
                     "activation", "softplus")
# tape op_kind strings written by the elementwise functions above
ELEMENTWISE_OPS = (frozenset(ELEMENTWISE_FUNCS) - {"activation"}) | {"sigmoid", "silu", "relu"}
BLOCK_FAMILIES = ("ConvBnSilu", "MBConvBlock", "CBAM", "BSBlock", "PartialConv",
                  "GSConvBlock", "GSBottleneck", "AVCStem", "VKConv")
DETECTOR_SPANS = {"forward_ms": "detector.forward", "assign_ms": "detector.assign",
                  "loss_ms": "detector.loss", "backward_ms": "tensor.backward",
                  "optim_ms": "detector.optim", "decode_ms": "detector.decode"}
DETECTOR_COUNTS = ("nms_candidates", "nms_kept", "nms_iou_calls")
METRICS_SPANS = {"match_ms": "metrics.match", "map50_ms": "metrics.map50",
                 "mnocoap_ms": "metrics.mnocoap",
                 "contrast_region_ms": "metrics.contrast_region"}
METRICS_COUNTS = ("contrast_regions", "iou_calls")
LAYERS = ("tensor", "blocks", "detector", "metrics")
ROOT = "op"


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for kind in TENSOR_KINDS:
        out[f"tensor.{kind}.calls"] = ("count", "lower")
        out[f"tensor.{kind}.fwd_ms"] = ("ms", "lower")
        out[f"tensor.{kind}.bwd_ms"] = ("ms", "lower")
    for kind in CONV_KINDS:
        out[f"tensor.{kind}.gflop"] = ("GFLOP", "lower")
        out[f"tensor.{kind}.fwd_gflop_s"] = ("GFLOP/s", "higher")
        out[f"tensor.{kind}.mb_moved"] = ("MB", "lower")
    out["tensor.backward.walk_ms"] = ("ms", "lower")
    out["tensor.tape_nodes"] = ("count", "lower")
    for fam in BLOCK_FAMILIES:
        out[f"blocks.{fam}.fwd_self_ms"] = ("ms", "lower")
        out[f"blocks.{fam}.bwd_ms"] = ("ms", "lower")
        out[f"blocks.{fam}.gflop"] = ("GFLOP", "lower")
    for key in DETECTOR_SPANS:
        out[f"detector.{key}"] = ("ms", "lower")
    for key in DETECTOR_COUNTS:
        out[f"detector.{key}"] = ("count", "lower")
    for key in METRICS_SPANS:
        out[f"metrics.{key}"] = ("ms", "lower")
    for key in METRICS_COUNTS:
        out[f"metrics.{key}"] = ("count", "lower")
    out["complexity.gflop_per_img"] = ("GFLOP", "lower")
    out["complexity.params"] = ("count", "lower")
    out["data.generate_scene_ms"] = ("ms", "lower")
    out["trace.overhead_ms"] = ("ms", "lower")
    out["trace.attributed_share"] = ("share", "higher")
    return out


def _conv_kind(x, weight, groups: int) -> str:
    c_out, c_in_g = weight.data.shape[:2]
    c_in = x.data.shape[1]
    # the same test conv2d uses to pick its depthwise path
    if groups == c_in and c_out == c_in and c_in_g == 1:
        return "conv2d_dw"
    return "conv2d_dense"


def _tape_kind(op_kind: str, backward_fn) -> str:
    if op_kind == "conv2d":
        return "conv2d_dw" if backward_fn.__name__ == "back_dw" else "conv2d_dense"
    if op_kind in ELEMENTWISE_OPS:
        return "elementwise"
    if op_kind in TENSOR_KINDS:
        return op_kind
    return "other"


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        # span: [name, parent index, start, end, owning block family]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.families: list[str] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.iou_counter = ["metrics.iou_calls"]
        self._saved: list[tuple[object, str, object]] = []

    # -- span plumbing ------------------------------------------------------

    def _open(self, name: str, owner: str | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter(), 0.0, owner])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def run_op(self, fn, *args):
        """One traced operation under a root span; returns its result."""
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- wrappers -----------------------------------------------------------

    def _family(self, fam: str, forward):
        name = f"blocks.{fam}"

        def wrapper(module, x, training=False, seed=0):
            idx = self._open(name)
            self.families.append(fam)
            try:
                return forward(module, x, training=training, seed=seed)
            finally:
                self.families.pop()
                self._close(idx)
        return wrapper

    def _conv(self, conv2d):
        counts = self.counts

        def wrapper(x, weight, bias=None, stride=1, pad=0, groups=1):
            kind = _conv_kind(x, weight, groups)
            idx = self._open(f"tensor.{kind}")
            try:
                out = conv2d(x, weight, bias=bias, stride=stride, pad=pad, groups=groups)
            finally:
                self._close(idx)
            n, c_out, ho, wo = out.data.shape
            _, c_in_g, k, _ = weight.data.shape
            gflop = 2.0 * n * c_out * c_in_g * k * k * ho * wo / 1e9
            moved = x.data.nbytes + weight.data.nbytes + out.data.nbytes
            if bias is not None:
                moved += bias.data.nbytes
            counts[f"tensor.{kind}.gflop"] += gflop
            counts[f"tensor.{kind}.mb_moved"] += moved / 1e6
            if self.families:
                counts[f"blocks.{self.families[-1]}.gflop"] += gflop
            return out
        return wrapper

    def _make(self, make):
        counts = self.counts

        def wrapper(data, op_kind, inputs, backward_fn):
            out = make(data, op_kind, inputs, backward_fn)
            if out.op is not None:
                counts["tensor.tape_nodes"] += 1
                out.op.backward_fn = self._timed_backward(
                    backward_fn, f"tensor.{_tape_kind(op_kind, backward_fn)}.bwd",
                    self.families[-1] if self.families else None)
            return out
        return wrapper

    def _timed_backward(self, fn, name: str, owner: str | None):
        def timed(g):
            idx = self._open(name, owner)
            try:
                return fn(g)
            finally:
                self._close(idx)
        return timed

    def _nms(self, nms):
        counts, counter = self.counts, self.iou_counter

        def wrapper(dets, nms_iou):
            idx = self._open("detector.nms")
            counter.append("detector.nms_iou_calls")
            try:
                keep = nms(dets, nms_iou)
            finally:
                counter.pop()
                self._close(idx)
            counts["detector.nms_candidates"] += len(dets)
            counts["detector.nms_kept"] += len(keep)
            return keep
        return wrapper

    def _iou(self, iou):
        counts, counter = self.counts, self.iou_counter

        def wrapper(a, b):
            counts[counter[-1]] += 1
            return iou(a, b)
        return wrapper

    def _contrast_region(self, build):
        spanned = self._spanned("metrics.contrast_region", build)

        def wrapper(image, box):
            self.counts["metrics.contrast_regions"] += 1
            return spanned(image, box)
        return wrapper

    def __enter__(self) -> "Tracer":
        T = tensor
        self._patch(T, "conv2d", self._conv(T.conv2d))
        for fn in ("batch_norm", "bilinear_sample", "dropout"):
            self._patch(T, fn, self._spanned(f"tensor.{fn}", getattr(T, fn)))
        for fn in ELEMENTWISE_FUNCS:
            self._patch(T, fn, self._spanned("tensor.elementwise", getattr(T, fn)))
        self._patch(T, "_make", self._make(T._make))
        self._patch(T, "backward", self._spanned("tensor.backward", T.backward))
        for fam in BLOCK_FAMILIES:
            cls = getattr(blocks, fam)
            self._patch(cls, "forward", self._family(fam, cls.forward))
        self._patch(detector.Detector, "forward",
                    self._spanned("detector.forward", detector.Detector.forward))
        self._patch(detector.AdamW, "step",
                    self._spanned("detector.optim", detector.AdamW.step))
        for fn, name in (("assign_targets", "assign"), ("total_loss", "loss"),
                         ("decode", "decode")):
            self._patch(detector, fn, self._spanned(f"detector.{name}", getattr(detector, fn)))
        self._patch(detector, "_nms", self._nms(detector._nms))
        for fn, name in (("match_detections", "match"), ("map50", "map50"),
                         ("mnocoap", "mnocoap")):
            self._patch(metrics, fn, self._spanned(f"metrics.{name}", getattr(metrics, fn)))
        self._patch(metrics, "build_contrast_region",
                    self._contrast_region(metrics.build_contrast_region))
        self._patch(metrics, "iou", self._iou(metrics.iou))
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-op means of the per-layer metrics, plus the reconciliation
        figures: op time, each layer's self time, and their shares."""
        spans = self.spans
        child = [0.0] * len(spans)         # all direct children
        child_module = [0.0] * len(spans)  # direct children other than tensor spans
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if not name.startswith("tensor."):
                    child_module[parent] += t1 - t0

        inclusive: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        family_self: defaultdict[str, float] = defaultdict(float)
        family_bwd: defaultdict[str, float] = defaultdict(float)
        walk = 0.0
        op_time = 0.0
        n_ops = 0
        for i, (name, parent, t0, t1, owner) in enumerate(spans):
            dur = t1 - t0
            if parent < 0:
                op_time += dur
                n_ops += 1
                continue
            inclusive[name] += dur
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += dur - child[i]
            if name.startswith("blocks."):
                family_self[name[len("blocks."):]] += dur - child_module[i]
            if owner is not None:
                family_bwd[owner] += dur
            if name == "tensor.backward":
                walk += dur - child[i]

        per_op = 1.0 / max(n_ops, 1)
        ms = 1e3 * per_op
        out: dict[str, float] = {}
        for kind in TENSOR_KINDS:
            out[f"tensor.{kind}.calls"] = calls[f"tensor.{kind}"] * per_op
            out[f"tensor.{kind}.fwd_ms"] = inclusive[f"tensor.{kind}"] * ms
            out[f"tensor.{kind}.bwd_ms"] = inclusive[f"tensor.{kind}.bwd"] * ms
        for kind in CONV_KINDS:
            gflop = self.counts[f"tensor.{kind}.gflop"]
            fwd_s = inclusive[f"tensor.{kind}"]
            out[f"tensor.{kind}.gflop"] = gflop * per_op
            out[f"tensor.{kind}.fwd_gflop_s"] = gflop / fwd_s if fwd_s else 0.0
            out[f"tensor.{kind}.mb_moved"] = self.counts[f"tensor.{kind}.mb_moved"] * per_op
        out["tensor.backward.walk_ms"] = walk * ms
        out["tensor.tape_nodes"] = self.counts["tensor.tape_nodes"] * per_op
        for fam in BLOCK_FAMILIES:
            out[f"blocks.{fam}.fwd_self_ms"] = family_self[fam] * ms
            out[f"blocks.{fam}.bwd_ms"] = family_bwd[fam] * ms
            out[f"blocks.{fam}.gflop"] = self.counts[f"blocks.{fam}.gflop"] * per_op
        for key, span in DETECTOR_SPANS.items():
            out[f"detector.{key}"] = inclusive[span] * ms
        for key in DETECTOR_COUNTS:
            out[f"detector.{key}"] = self.counts[f"detector.{key}"] * per_op
        for key, span in METRICS_SPANS.items():
            out[f"metrics.{key}"] = inclusive[span] * ms
        for key in METRICS_COUNTS:
            out[f"metrics.{key}"] = self.counts[f"metrics.{key}"] * per_op

        attributed = sum(layer_self.values())
        return {
            "metrics": out,
            "ops": n_ops,
            "op_ms": op_time * ms,
            "layer_self_ms": {k: v * ms for k, v in layer_self.items()},
            "attributed_share": attributed / op_time if op_time else 0.0,
        }

    def write_spans(self, path) -> None:
        """One JSON array per span: op, id, parent, name, start/end (us
        from the first span), owning family.  Spans of one op share ``op``."""
        origin = self.spans[0][2] if self.spans else 0.0
        op = -1
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, owner) in enumerate(self.spans):
                if parent < 0:
                    op += 1
                fh.write(json.dumps([op, i, parent, name, round((t0 - origin) * 1e6, 1),
                                     round((t1 - origin) * 1e6, 1), owner]) + "\n")
