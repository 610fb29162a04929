"""Differentiable building blocks for the lightweight detector.

Four block families over the tensor engine: an inverted-bottleneck unit
with channel/spatial attention (MBConv), a partial-convolution bottleneck
(BSBlock), a shuffle-based downsampling unit (GSConv), and a variable-
kernel convolution with learned sampling offsets (VKConv) used inside the
attention-gated fusion stem (AVCStem).

A forward leaves a block's configuration and parameters unchanged; only a
training-mode batch norm writes, to its running-statistic buffers.  A
checkpoint is one uncompressed ``.npz`` file holding each parameter and
buffer under its name at its own dtype, so a save/load round trip is exact.
"""

from __future__ import annotations

import copy
import math
import os
import tokenize
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npformat

from . import complexity
from . import tensor as T
from .errors import ConfigError, ContractError, DataError, ParseError, ShapeError
from .tensor import Tensor4


# ---------------------------------------------------------------------------
# Module base and leaf layers
# ---------------------------------------------------------------------------


class Module:
    """Named container of state tensors and child modules.  A call checks
    the input width against ``in_channels`` (when set), runs ``forward``,
    then records ``cost`` as this module's cost-tape row.

    Every :class:`Tensor4` attribute is state: a parameter when it requires
    grad (made by ``_param``), otherwise a buffer, such as batch norm's
    running statistics, that is saved and loaded but neither trained nor
    counted.  Every :class:`Module` attribute is a child.  Checkpoint order
    is pre-order over the modules, each module's own tensors before its
    children, each kind in the order its attribute name was first
    assigned; an attribute holding any other value is neither."""

    # (conv attribute, batch-norm attribute) pairs in which the batch norm
    # directly follows the conv; ``fold_bn`` merges each pair into the conv
    bn_pairs: tuple[tuple[str, str], ...] = ()

    def __init__(self, name: str, in_channels: int | None = None):
        self.name = name
        self.in_channels = in_channels

    def _own(self, kind) -> list:
        return [v for v in vars(self).values() if isinstance(v, kind)]

    def _param(self, suffix: str, array: np.ndarray) -> Tensor4:
        return Tensor4(array, requires_grad=True, name=f"{self.name}.{suffix}")

    def parameters(self) -> list[Tensor4]:
        return [t for t in self._tensors() if t.requires_grad]

    def num_scalars(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def sublayers(self):
        """This module and its descendants in pre-order (checkpoint order)."""
        yield self
        for c in self._own(Module):
            yield from c.sublayers()

    def _tensors(self) -> list[Tensor4]:
        return [t for m in self.sublayers() for t in m._own(Tensor4)]

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, rank-4 array) of every parameter and buffer, in checkpoint order."""
        return [(t.name, t.data) for t in self._tensors()]

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Check every name and shape against :meth:`state_arrays`, then copy
        the arrays into this module at the dtypes it holds."""
        tensors = self._tensors()
        for t in tensors:
            if t.name not in arrays:
                raise DataError(f"checkpoint has no tensor {t.name!r}")
            if arrays[t.name].shape != t.data.shape:
                raise ShapeError(f"{t.name}: checkpoint shape {arrays[t.name].shape} "
                                 f"!= model shape {t.data.shape}")
        for t in tensors:
            t.data = arrays[t.name].astype(t.data.dtype)

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def _site(self) -> int:
        # stable per-name stream id so dropout masks differ across sites
        return zlib.crc32(self.name.encode())

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        raise NotImplementedError

    def cost(self, x: Tensor4, out: Tensor4) -> tuple[int, int] | None:
        """(params, flops) of this call's own work, excluding children;
        None for modules whose work is all in their children."""
        return None

    def __call__(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        if self.in_channels is not None and x.shape[1] != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} channels, "
                             f"got {x.shape[1]}")
        out = self.forward(x, training=training, seed=seed)
        if complexity.tape_active():
            cost = self.cost(x, out)
            if cost is not None:
                complexity.record_cost(self.name, *cost)
        return out


class Conv2dLayer(Module):
    """Convolution with owned weight (He init) and optional bias."""

    def __init__(self, name: str, c_in: int, c_out: int, k: int,
                 stride: int = 1, pad: int = 0, groups: int = 1,
                 bias: bool = False, rng: np.random.Generator | None = None,
                 zero_init: bool = False, dtype=np.float64):
        super().__init__(name)
        if groups < 1 or c_in % groups or c_out % groups:
            raise ConfigError(f"{name}: groups {groups} must divide {c_in} and {c_out}")
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.pad, self.groups = stride, pad, groups
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = (c_in // groups) * k * k
        if zero_init:
            w = np.zeros((c_out, c_in // groups, k, k), dtype=dtype)
        else:
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in),
                           (c_out, c_in // groups, k, k)).astype(dtype)
        self.weight = self._param("weight", w)
        self.bias = self._param("bias", np.zeros((1, c_out, 1, 1), dtype=dtype)) if bias else None

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        return T.conv2d(x, self.weight, bias=self.bias,
                        stride=self.stride, pad=self.pad, groups=self.groups)

    def rows(self, x: Tensor4, lo: int, hi: int) -> Tensor4:
        """Output channels lo..hi-1 of an unrecorded ``forward``, for a dense
        or depthwise conv; a depthwise conv's x holds only those channels."""
        return T.conv2d(x, Tensor4(self.weight.data[lo:hi]),
                        bias=Tensor4(self.bias.data[:, lo:hi]) if self.bias is not None else None,
                        stride=self.stride, pad=self.pad,
                        groups=1 if self.groups == 1 else hi - lo)

    def cost(self, x, out):
        return complexity.count_conv(self.c_in, self.c_out, self.k,
                                     out.shape[2], out.shape[3],
                                     groups=self.groups, bias=self.bias is not None)


class BatchNormLayer(Module):
    """Batch norm over ``c`` channels: parameters ``gamma`` and ``beta`` in
    the model's dtype, then the buffers ``running_mean`` and
    ``running_var``, float64 at any model dtype, which a training-mode
    forward updates and an inference-mode forward reads."""

    def __init__(self, name: str, c: int, dtype=np.float64):
        super().__init__(name)
        self.c = c
        self.gamma = self._param("gamma", np.ones((1, c, 1, 1), dtype=dtype))
        self.beta = self._param("beta", np.zeros((1, c, 1, 1), dtype=dtype))
        self.running_mean = Tensor4(np.zeros((1, c, 1, 1)), name=f"{name}.running_mean")
        self.running_var = Tensor4(np.ones((1, c, 1, 1)), name=f"{name}.running_var")

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, training=training)

    def rows(self, x: Tensor4, lo: int, hi: int) -> Tensor4:
        """Channels lo..hi-1 of the inference-mode ``forward``, unrecorded;
        x holds only those channels."""
        return T.batch_norm(x, *(Tensor4(t.data[:, lo:hi]) for t in (
            self.gamma, self.beta, self.running_mean, self.running_var)), training=False)

    def cost(self, x, out):
        return 2 * self.c, 0


class PassThrough(Module):
    """Identity in place of a batch norm that ``fold_bn`` merged into the
    conv before it; such a model is inference-only."""

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        if training:
            raise ContractError(f"{self.name}: batch norm folded into its conv; "
                                "the model is inference-only")
        return x

    def rows(self, x: Tensor4, lo: int, hi: int) -> Tensor4:
        return x


def _copy_tree(module: Module) -> Module:
    """``fold_bn``'s copy of ``module``: its own copy of every module and
    buffer, sharing the parameters."""
    twin = copy.copy(module)
    for attr, v in vars(module).items():
        if isinstance(v, Module):
            setattr(twin, attr, _copy_tree(v))
        elif isinstance(v, Tensor4) and not v.requires_grad:
            setattr(twin, attr, Tensor4(v.data.copy(), name=v.name))
    return twin


def fold_bn(model: Module) -> Module:
    """Inference-only copy of ``model`` in which each conv -> batch-norm pair
    declared in ``bn_pairs`` is one conv with a bias.

    With s = gamma / sqrt(running_var + eps), the conv's weight becomes
    W * s per output channel and its bias beta + (b - running_mean) * s, so
    the conv's output equals the inference-mode batch norm of the old one up
    to rounding; the batch norm becomes a :class:`PassThrough`.  ``model``
    is not modified.

    The copy is shallow: each module is copied with ``copy.copy`` and its
    children are re-linked to their copies, so it keeps the block classes
    and shares every parameter it does not fold and every attribute that is
    neither state nor a child, such as a block's config.  Each buffer is a
    new :class:`Tensor4` over a copy of its array, so training ``model``
    afterwards leaves the running statistics of the batch norms the copy
    keeps (VKConv's) alone.
    """
    fused = _copy_tree(model)
    for m in list(fused.sublayers()):
        for conv_attr, bn_attr in m.bn_pairs:
            conv, bn = getattr(m, conv_attr), getattr(m, bn_attr)
            w = conv.weight.data
            scale = bn.gamma.data / np.sqrt(bn.running_var.data + T.BN_EPS)
            shift = -bn.running_mean.data
            if conv.bias is not None:
                shift = shift + conv.bias.data
            bias = bn.beta.data + shift * scale
            conv.weight = conv._param("weight", w * scale.astype(w.dtype).reshape(-1, 1, 1, 1))
            conv.bias = conv._param("bias", bias.astype(w.dtype))
            setattr(m, bn_attr, PassThrough(bn.name))
    return fused


class ConvBnSilu(Module):
    """Conv + batch norm + SiLU, the standard conditioning unit; the conv
    pads by k // 2, as YOLOv8's ``Conv`` does."""

    bn_pairs = (("conv", "bn"),)

    def __init__(self, name: str, c_in: int, c_out: int, k: int, stride: int = 1,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name)
        self.conv = Conv2dLayer(f"{name}.conv", c_in, c_out, k,
                                stride=stride, pad=k // 2, rng=rng, dtype=dtype)
        self.bn = BatchNormLayer(f"{name}.bn", c_out, dtype=dtype)

    def forward(self, x, training=False, seed=0):
        return T.silu_(self.bn(self.conv(x), training=training))

    def rows(self, x: Tensor4, lo: int, hi: int) -> Tensor4:
        """Output channels lo..hi-1 of the inference-mode ``forward``, unrecorded."""
        return T.silu_(self.bn.rows(self.conv.rows(x, lo, hi), lo, hi))


# ---------------------------------------------------------------------------
# CBAM: channel then spatial attention
# ---------------------------------------------------------------------------

CBAM_REDUCTION = 4  # channel-MLP width divisor in the paper's MBConv+CBAM block


class CBAM(Module):
    """Sequential channel and spatial gating.

    Channel gate: sigmoid(sharedMLP(avgpool) + sharedMLP(maxpool)) scales
    each channel; spatial gate: sigmoid(7x7 conv over the channelwise
    [mean, max] maps) scales each pixel.  Output shape equals input shape.
    """

    def __init__(self, name: str, c: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name)
        if c < CBAM_REDUCTION or c % CBAM_REDUCTION:
            raise ConfigError(f"{name}: channels {c} must be divisible by "
                              f"reduction {CBAM_REDUCTION}")
        hidden = c // CBAM_REDUCTION
        self.fc1 = Conv2dLayer(f"{name}.fc1", c, hidden, 1, bias=True,
                               rng=rng, dtype=dtype)
        self.fc2 = Conv2dLayer(f"{name}.fc2", hidden, c, 1, bias=True,
                               rng=rng, dtype=dtype)
        self.spatial = Conv2dLayer(f"{name}.spatial", 2, 1, 7, pad=3,
                                   bias=True, rng=rng, dtype=dtype)

    def forward(self, x, training=False, seed=0):
        avg = T.pool_global(x, "avg")
        mx = T.pool_global(x, "max")
        att = T.add(self.fc2(T.relu(self.fc1(avg))), self.fc2(T.relu(self.fc1(mx))))
        x = T.mul(x, T.sigmoid(att))
        smap = T.concat_channels([T.channel_reduce(x, "mean"), T.channel_reduce(x, "max")])
        gate = T.sigmoid(self.spatial(smap))
        return T.mul(x, gate)

    def cost(self, x, out):
        _, c, h, w = x.shape
        return 0, 4 * h * w * c  # avg and max pooling, over channels then pixels


# ---------------------------------------------------------------------------
# MBConv: inverted bottleneck with attention
# ---------------------------------------------------------------------------

MBCONV_EXPANSION = 6  # hidden width = 6 x input width, the paper's MBConv block
MBCONV_KERNEL = 3  # depthwise kernel of the paper's MBConv block
MBCONV_DROPOUT = 0.1  # drop rate on the paper's MBConv projection
# an unrecorded MBConv expands its hidden channels in blocks of about this
# many bytes and of no fewer than MBCONV_MIN_BLOCK channels: every block
# re-reads the whole input, so tiny blocks are slow
MBCONV_BLOCK_BYTES = 1 << 21
MBCONV_MIN_BLOCK = 8


def channel_blocks(c: int, per: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of ``per`` channels over c.  A
    one-channel tail joins the block before it: a one-row GEMM takes another
    BLAS path, whose rounding differs from the whole product's."""
    bounds = list(range(0, c, per)) + [c]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass
class MBConvConfig:
    c_in: int
    c_out: int
    stride: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")

    @property
    def hidden(self) -> int:
        return MBCONV_EXPANSION * self.c_in

    @property
    def has_residual(self) -> bool:
        return self.c_in == self.c_out and self.stride == 1


class MBConvBlock(Module):
    """1x1 expand -> depthwise -> attention -> 1x1 project, residual when
    the input and output shapes agree.

    SiLU follows the expansion and depthwise stages; the projection stays
    linear.  Expansion, depthwise conv, their batch norms and SiLUs all act
    on each hidden channel alone, so a forward that is neither recorded nor
    in training mode runs them one block of hidden channels at a time
    (``MBCONV_BLOCK_BYTES`` of expanded activation, at least
    ``MBCONV_MIN_BLOCK`` channels), as in Sandler et al. 2018 (MobileNetV2,
    arXiv:1801.04381, Sec. 5.1, "Memory efficient inference").  The 6x
    expanded activation never exists whole: beyond the input and the
    depthwise output, that stage holds one block's expansion, depthwise
    output and scratch.  The output bytes equal the whole-tensor path's.
    """

    bn_pairs = (("dw", "dw_bn"), ("project", "project_bn"))

    def __init__(self, name: str, cfg: MBConvConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c_in)
        self.cfg = cfg
        h = cfg.hidden
        self.expand = ConvBnSilu(f"{name}.expand", cfg.c_in, h, 1,
                                 rng=rng, dtype=dtype)
        self.dw = Conv2dLayer(f"{name}.dw", h, h, MBCONV_KERNEL,
                              stride=cfg.stride, pad=MBCONV_KERNEL // 2,
                              groups=h, rng=rng, dtype=dtype)
        self.dw_bn = BatchNormLayer(f"{name}.dw_bn", h, dtype=dtype)
        self.attn = CBAM(f"{name}.attn", h, rng=rng, dtype=dtype)
        self.project = Conv2dLayer(f"{name}.project", h, cfg.c_out, 1,
                                   rng=rng, dtype=dtype)
        self.project_bn = BatchNormLayer(f"{name}.project_bn", cfg.c_out,
                                         dtype=dtype)

    def forward(self, x, training=False, seed=0):
        if training or complexity.tape_active() or T._records(x, *self.parameters()):
            out = self.expand(x, training=training)
            out = T.silu_(self.dw_bn(self.dw(out), training=training))
        else:
            out = self.expanded_depthwise(x)
        out = self.attn(out, training=training)
        out = self.project_bn(self.project(out), training=training)
        out = T.dropout(out, MBCONV_DROPOUT, training=training,
                        seed=(seed, self._site()))
        if self.cfg.has_residual:
            out = T.add(out, x)
        return out

    def expanded_depthwise(self, x: Tensor4) -> Tensor4:
        """expand -> depthwise -> batch norm -> SiLU in inference mode,
        unrecorded, one block of hidden channels at a time, each written to
        its rows of the depthwise output."""
        n, _, h, w = x.shape
        itemsize = np.result_type(x.data, self.dw.weight.data).itemsize
        per = max(MBCONV_MIN_BLOCK, MBCONV_BLOCK_BYTES // (n * h * w * itemsize))
        out = None
        for lo, hi in channel_blocks(self.cfg.hidden, per):
            block = self.dw_bn.rows(self.dw.rows(self.expand.rows(x, lo, hi), lo, hi), lo, hi)
            if out is None:
                out = np.empty((n, self.cfg.hidden) + block.shape[2:], dtype=block.dtype)
            out[:, lo:hi] = T.silu_(block).data
        return Tensor4(out)


# ---------------------------------------------------------------------------
# Partial convolution and the bottleneck-structure block
# ---------------------------------------------------------------------------

PARTIAL_RATIO = 0.25  # share of channels a partial conv convolves, from FasterNet
BS_MLP_EXPANSION = 2  # pointwise MLP hidden width = 2 x c, from FasterNet's block
BS_DROPOUT = 0.2  # drop rate on the paper's BS-block branch


class PartialConv(Module):
    """3x3 convolution over the first ceil(c/4) channels; the rest pass
    through untouched, output ordered [convolved, untouched]."""

    def __init__(self, name: str, c: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=c)
        self.c = c
        self.cp = math.ceil(PARTIAL_RATIO * c)
        self.conv = Conv2dLayer(f"{name}.conv", self.cp, self.cp, 3,
                                pad=1, rng=rng, dtype=dtype)

    def forward(self, x, training=False, seed=0):
        head = T.slice_channels(x, 0, self.cp)
        tail = T.slice_channels(x, self.cp, self.c)
        return T.concat_channels([self.conv(head), tail])


class BSBlock(Module):
    """Residual block: partial convolution, pointwise MLP, dropout, skip."""

    def __init__(self, name: str, c: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=c)
        hid = BS_MLP_EXPANSION * c
        self.pconv = PartialConv(f"{name}.pconv", c, rng=rng, dtype=dtype)
        self.mlp_in = Conv2dLayer(f"{name}.mlp_in", c, hid, 1, bias=True,
                                  rng=rng, dtype=dtype)
        self.mlp_out = Conv2dLayer(f"{name}.mlp_out", hid, c, 1, bias=True,
                                   rng=rng, dtype=dtype)

    def forward(self, x, training=False, seed=0):
        branch = self.pconv(x, training=training)
        branch = self.mlp_out(T.silu_(self.mlp_in(branch)))
        branch = T.dropout(branch, BS_DROPOUT, training=training,
                           seed=(seed, self._site()))
        return T.add(x, branch)


# ---------------------------------------------------------------------------
# GSConv: shuffle-fused downsampling
# ---------------------------------------------------------------------------

SHUFFLE_GROUPS = 2  # GSConv's two-way shuffle of the dense and depthwise halves


@dataclass
class GSConvConfig:
    c_in: int
    c_out: int  # first-stage width; the block emits 2*c_out channels
    stride: int = 2

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


class GSConvBlock(Module):
    """Strided conv+BN+SiLU, then a cheap depthwise copy, concatenated and
    channel-shuffled so both pathways interleave."""

    def __init__(self, name: str, cfg: GSConvConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c_in)
        self.cbs = ConvBnSilu(f"{name}.cbs", cfg.c_in, cfg.c_out, 3,
                              stride=cfg.stride, rng=rng, dtype=dtype)
        self.dw = Conv2dLayer(f"{name}.dw", cfg.c_out, cfg.c_out, 3,
                              pad=1, groups=cfg.c_out, rng=rng, dtype=dtype)

    def forward(self, x, training=False, seed=0):
        fc = self.cbs(x, training=training)
        fd = self.dw(fc)
        return T.channel_shuffle(T.concat_channels([fc, fd]), SHUFFLE_GROUPS)


class GSBottleneck(Module):
    """Two stride-1 shuffle units plus the identity skip (width-preserving)."""

    def __init__(self, name: str, c: int, rng: np.random.Generator | None = None,
                 dtype=np.float64):
        super().__init__(name)
        if c % 2:
            raise ConfigError(f"{name}: width {c} must be even")
        self.gs1 = GSConvBlock(
            f"{name}.gs1", GSConvConfig(c, c // 2, stride=1), rng=rng, dtype=dtype)
        self.gs2 = GSConvBlock(
            f"{name}.gs2", GSConvConfig(c, c // 2, stride=1), rng=rng, dtype=dtype)

    def forward(self, x, training=False, seed=0):
        out = self.gs2(self.gs1(x, training=training), training=training)
        return T.add(out, x)


# ---------------------------------------------------------------------------
# VKConv: variable-kernel convolution with learned offsets
# ---------------------------------------------------------------------------

VK_POINTS = 5  # sampling points K of the paper's VKConv
VK_OFFSET_SCALE = 0.1  # initial value of VKConv's learnable offset factor


def vk_base_coords(num_points: int) -> np.ndarray:
    """Base sampling pattern: row-major points on a ceil(sqrt(K))-wide grid,
    shifted by their centroid so the pattern is zero-centered.

    Returns a (K, 2) float array of (row, col) offsets; the K points are
    distinct lattice points of the shifted grid.
    """
    if num_points < 1:
        raise ConfigError(f"need at least one sampling point, got {num_points}")
    side = int(math.ceil(math.sqrt(num_points)))
    pts = np.array([(i // side, i % side) for i in range(num_points)], dtype=np.float64)
    return pts - pts.mean(axis=0)


class VKConv(Module):
    """Stride-1 convolution over K = ``VK_POINTS`` sampling points.

    An offset branch predicts 2K per-location displacements, scaled by a
    learnable factor and added to the zero-centered base pattern anchored
    at each output location.  The input is projected 1x1 (no bias) to c_out
    channels, then one ``bilinear_sample`` call gathers all K points of the
    projection and combines them with K learned point weights; BN + SiLU
    follow.  The point weights are scalars shared by all channels, so the
    sample commutes with the per-pixel channel mix: this equals sampling
    the c_in inputs and projecting after, up to rounding, at the border too
    (an out-of-frame corner contributes zero either way).  The BN follows
    the sample, so ``fold_bn`` leaves it: a bias folded into ``project``
    would be zero-padded at the border.  Offset and coordinate channel
    layout is (dy_0, dx_0, dy_1, dx_1, ...).
    """

    def __init__(self, name: str, c_in: int, c_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=c_in)
        k = VK_POINTS
        self.base = vk_base_coords(k)
        # zero-init offsets: the initial pattern is the fixed base grid
        self.offset_conv = Conv2dLayer(
            f"{name}.offset", c_in, 2 * k, 3, pad=1, bias=True, zero_init=True,
            rng=rng, dtype=dtype)
        self.alpha = self._param("alpha", np.full((1, 1, 1, 1), VK_OFFSET_SCALE, dtype=dtype))
        self.point_w = self._param("point_w", np.full((1, k, 1, 1), 1.0 / k, dtype=dtype))
        self.project = Conv2dLayer(f"{name}.project", c_in, c_out, 1,
                                   rng=rng, dtype=dtype)
        self.bn = BatchNormLayer(f"{name}.bn", c_out, dtype=dtype)

    def sample_coords(self, x: Tensor4) -> Tensor4:
        """(n, 2K, h, w) sampling coordinates in the offset layout: scaled
        offsets plus the base pattern at each pixel (float64)."""
        off = T.mul(self.offset_conv(x), self.alpha)
        _, _, h, w = off.shape
        base = self.base[:, :, None, None] + np.mgrid[0:h, 0:w]
        return T.add(off, Tensor4.const(base.reshape(1, -1, h, w)))

    def forward(self, x, training=False, seed=0):
        coords = self.sample_coords(x)  # offset row before the project row
        acc = T.bilinear_sample(self.project(x), coords, self.point_w)
        return T.silu_(self.bn(acc, training=training))

    def cost(self, x, out):
        _, c, h, w = out.shape  # the c_out projected channels are the ones sampled
        return VK_POINTS + 1, (8 + 2) * VK_POINTS * c * h * w  # bilinear gather + contraction


# ---------------------------------------------------------------------------
# AVCStem: attention-gated dual-branch fusion ending in VKConv
# ---------------------------------------------------------------------------


class AVCStem(Module):
    """Two parallel branches fused under a multiplicative attention gate.

    Branch A is a pointwise conv+BN+SiLU to max(c_out // 2, 2) channels;
    branch B is a width-preserving shuffle bottleneck (so ``c_in`` must be
    even) modulated elementwise by sigmoid(conv1x1(x) * conv3x3(x)).  The
    concatenated branches feed a variable-kernel convolution that projects
    to ``c_out``.
    """

    def __init__(self, name: str, c_in: int, c_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=c_in)
        c_a = max(c_out // 2, 2)
        self.branch_a = ConvBnSilu(f"{name}.branch_a", c_in, c_a, 1,
                                   rng=rng, dtype=dtype)
        self.branch_b = GSBottleneck(f"{name}.branch_b", c_in,
                                     rng=rng, dtype=dtype)
        self.gate1 = Conv2dLayer(f"{name}.gate1", c_in, c_in, 1,
                                 bias=True, rng=rng, dtype=dtype)
        self.gate3 = Conv2dLayer(f"{name}.gate3", c_in, c_in, 3,
                                 pad=1, bias=True, rng=rng, dtype=dtype)
        self.vk = VKConv(f"{name}.vk", c_a + c_in, c_out, rng=rng, dtype=dtype)

    def gate(self, x: Tensor4) -> Tensor4:
        return T.sigmoid(T.mul(self.gate1(x), self.gate3(x)))

    def forward(self, x, training=False, seed=0):
        a = self.branch_a(x, training=training)
        b = T.mul(self.gate(x), self.branch_b(x, training=training))
        return self.vk(T.concat_channels([a, b]), training=training)


# ---------------------------------------------------------------------------
# Checkpoint files: one uncompressed .npz, one NPY member per state array
# ---------------------------------------------------------------------------


def save_checkpoint(module: Module, path) -> None:
    """Write ``module.state_arrays()`` to the ``.npz`` file ``path``."""
    with open(path, "wb") as fh:
        np.savez(fh, **dict(module.state_arrays()))


def _read_member(zf: zipfile.ZipFile, info: zipfile.ZipInfo, file_size: int) -> np.ndarray:
    """One stored NPY 1.0 float array whose header accounts for exactly the
    member's bytes, which must fit in the file; checked before the payload
    is read, and any failure is a ValueError."""
    if info.compress_type != zipfile.ZIP_STORED or info.file_size > file_size:
        raise ValueError(f"want a stored member that fits in the file's {file_size} bytes")
    with zf.open(info) as fh:
        if npformat.read_magic(fh) != (1, 0):
            raise ValueError("want NPY format 1.0")
        shape, fortran_order, dtype = npformat.read_array_header_1_0(fh)
        size = dtype.itemsize * math.prod(shape)  # Python ints, which do not overflow
        left = info.file_size - fh.tell()
        if dtype.kind != "f" or size != left:
            raise ValueError(f"want a float array filling the member's {left} bytes; "
                             f"header claims {dtype} {shape}, {size} bytes")
        order = "F" if fortran_order else "C"
        return np.frombuffer(fh.read(size), dtype).reshape(shape, order=order)


def load_checkpoint(module: Module, path) -> None:
    """Load a file written by :func:`save_checkpoint` into ``module``.  A
    malformed file raises ``ParseError``, before the payload of any member
    whose header does not match its bytes is read; a tensor that ``module``
    needs and the file lacks raises ``DataError``."""
    arrays: dict[str, np.ndarray] = {}
    where, file_size = path, os.path.getsize(path)
    try:
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                where = f"{path}, member {info.filename}"
                arrays[info.filename.removesuffix(".npy")] = _read_member(zf, info, file_size)
    # a garbled file can also make zipfile raise RuntimeError, EOFError or
    # OSError, and numpy TokenError; a missing file raises from getsize above
    except (zipfile.BadZipFile, RuntimeError, EOFError, OSError, ValueError,
            tokenize.TokenError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    module.load_state(arrays)
