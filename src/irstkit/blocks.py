"""Differentiable building blocks for the lightweight detector.

Four block families over the tensor engine: an inverted-bottleneck unit
with channel/spatial attention (MBConv), a partial-convolution bottleneck
(BSBlock), a shuffle-based downsampling unit (GSConv), and a variable-
kernel convolution with learned sampling offsets (VKConv) used inside the
attention-gated fusion stem (AVCStem).

Blocks hold immutable configuration and parameters during forward; a
parameter checkpoint is an ordered list of named tensors in the snapshot
format plus a text manifest.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import complexity
from . import tensor as T
from .errors import ConfigError, DataError, ParseError, ShapeError
from .tensor import ParamTensor, RunningStats, Tensor4


# ---------------------------------------------------------------------------
# Module base and leaf layers
# ---------------------------------------------------------------------------


class Module:
    """Named container of parameters, buffers, and child modules.  A call
    checks the input width against ``in_channels`` (when set), runs
    ``forward``, then records ``cost`` as this module's cost-tape row."""

    def __init__(self, name: str, in_channels: int | None = None):
        self.name = name
        self.in_channels = in_channels
        self._children: list[Module] = []
        self._local_params: list[ParamTensor] = []
        self._buffers: list[tuple[str, RunningStats]] = []

    def _child(self, module: "Module") -> "Module":
        self._children.append(module)
        return module

    def _param(self, suffix: str, array: np.ndarray) -> ParamTensor:
        t = Tensor4(array, requires_grad=True, name=f"{self.name}.{suffix}")
        p = ParamTensor(value=t)
        self._local_params.append(p)
        return p

    def parameters(self) -> list[ParamTensor]:
        return [p for m in self.sublayers() for p in m._local_params]

    def num_scalars(self) -> int:
        return sum(p.value.data.size for p in self.parameters())

    def sublayers(self):
        """This module and its descendants in pre-order (checkpoint order)."""
        yield self
        for c in self._children:
            yield from c.sublayers()

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, rank-4 array) pairs, per module: parameters then stat buffers."""
        out = []
        for m in self.sublayers():
            out += [(p.value.name, p.value.data) for p in m._local_params]
            for bname, stats in m._buffers:
                out.append((f"{bname}.running_mean", stats.mean.reshape(1, -1, 1, 1)))
                out.append((f"{bname}.running_var", stats.var.reshape(1, -1, 1, 1)))
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for m in self.sublayers():
            for p in m._local_params:
                src = arrays[p.value.name]
                if src.shape != p.value.data.shape:
                    raise ShapeError(f"{p.value.name}: checkpoint shape {src.shape} "
                                     f"!= model shape {p.value.data.shape}")
                p.value.data = src.astype(p.value.data.dtype)
            for bname, stats in m._buffers:
                stats.mean = arrays[f"{bname}.running_mean"].reshape(-1).astype(np.float64)
                stats.var = arrays[f"{bname}.running_var"].reshape(-1).astype(np.float64)

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.value.zero_grad()

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
        self.has_bias = bias
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = (c_in // groups) * k * k
        if zero_init:
            w = np.zeros((c_out, c_in // groups, k, k), dtype=dtype)
        else:
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in),
                           (c_out, c_in // groups, k, k)).astype(dtype)
        self.weight = self._param("weight", w)
        self.bias = self._param("bias", np.zeros((1, c_out, 1, 1), dtype=dtype)) if bias else None

    def spatial_out(self, h: int, w: int) -> tuple[int, int]:
        return ((h + 2 * self.pad - self.k) // self.stride + 1,
                (w + 2 * self.pad - self.k) // self.stride + 1)

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        return T.conv2d(x, self.weight.value,
                        bias=self.bias.value if self.bias else None,
                        stride=self.stride, pad=self.pad, groups=self.groups)

    def cost(self, x, out):
        return complexity.count_conv(self.c_in, self.c_out, self.k,
                                     out.shape[2], out.shape[3],
                                     groups=self.groups, bias=self.has_bias)


class BatchNormLayer(Module):
    def __init__(self, name: str, c: int, dtype=np.float64):
        super().__init__(name)
        self.c = c
        self.gamma = self._param("gamma", np.ones((1, c, 1, 1), dtype=dtype))
        self.beta = self._param("beta", np.zeros((1, c, 1, 1), dtype=dtype))
        self.stats = RunningStats.create(c)
        self._buffers.append((name, self.stats))

    def forward(self, x: Tensor4, training: bool = False, seed: int = 0) -> Tensor4:
        return T.batch_norm(x, self.gamma.value, self.beta.value, self.stats,
                            training=training)

    def cost(self, x, out):
        return 2 * self.c, 0


class ConvBnSilu(Module):
    """Conv + batch norm + SiLU, the standard conditioning unit."""

    def __init__(self, name: str, c_in: int, c_out: int, k: int,
                 stride: int = 1, pad: int | None = None,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name)
        pad = k // 2 if pad is None else pad
        self.conv = self._child(Conv2dLayer(f"{name}.conv", c_in, c_out, k,
                                            stride=stride, pad=pad, rng=rng, dtype=dtype))
        self.bn = self._child(BatchNormLayer(f"{name}.bn", c_out, dtype=dtype))

    def forward(self, x, training=False, seed=0):
        return T.silu(self.bn(self.conv(x), training=training))


# ---------------------------------------------------------------------------
# CBAM: channel then spatial attention
# ---------------------------------------------------------------------------


class CBAM(Module):
    """Sequential channel and spatial gating.

    Channel gate: sigmoid(sharedMLP(avgpool) + sharedMLP(maxpool)) scales
    each channel; spatial gate: sigmoid(7x7 conv over the channelwise
    [mean, max] maps) scales each pixel.  Output shape equals input shape.
    """

    def __init__(self, name: str, c: int, reduction: int = 4,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name)
        if c < reduction or c % reduction:
            raise ConfigError(f"{name}: channels {c} must be divisible by reduction {reduction}")
        hidden = c // reduction
        self.c = c
        self.fc1 = self._child(Conv2dLayer(f"{name}.fc1", c, hidden, 1, bias=True,
                                           rng=rng, dtype=dtype))
        self.fc2 = self._child(Conv2dLayer(f"{name}.fc2", hidden, c, 1, bias=True,
                                           rng=rng, dtype=dtype))
        self.spatial = self._child(Conv2dLayer(f"{name}.spatial", 2, 1, 7, pad=3,
                                               bias=True, rng=rng, dtype=dtype))

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


@dataclass
class MBConvConfig:
    c_in: int
    c_out: int
    expansion: int = 6
    kernel: int = 3
    stride: int = 1
    dropout_p: float = 0.1
    attn_reduction: int = 4

    def __post_init__(self):
        if self.expansion < 1:
            raise ConfigError(f"expansion must be >= 1, got {self.expansion}")
        if self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd, got {self.kernel}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")

    @property
    def hidden(self) -> int:
        return self.expansion * self.c_in

    @property
    def has_residual(self) -> bool:
        return self.c_in == self.c_out and self.stride == 1


class MBConvBlock(Module):
    """1x1 expand -> depthwise -> attention -> 1x1 project, residual when
    the input and output shapes agree.

    SiLU follows the expansion and depthwise stages; the projection stays
    linear.  An expansion ratio of 1 omits the expansion convolution.
    """

    def __init__(self, name: str, cfg: MBConvConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c_in)
        self.cfg = cfg
        h = cfg.hidden
        if cfg.expansion > 1:
            self.expand = self._child(ConvBnSilu(f"{name}.expand", cfg.c_in, h, 1,
                                                 rng=rng, dtype=dtype))
        else:
            self.expand = None
        self.dw = self._child(Conv2dLayer(f"{name}.dw", h, h, cfg.kernel,
                                          stride=cfg.stride, pad=cfg.kernel // 2,
                                          groups=h, rng=rng, dtype=dtype))
        self.dw_bn = self._child(BatchNormLayer(f"{name}.dw_bn", h, dtype=dtype))
        self.attn = self._child(CBAM(f"{name}.attn", h, reduction=cfg.attn_reduction,
                                     rng=rng, dtype=dtype))
        self.project = self._child(Conv2dLayer(f"{name}.project", h, cfg.c_out, 1,
                                               rng=rng, dtype=dtype))
        self.project_bn = self._child(BatchNormLayer(f"{name}.project_bn", cfg.c_out,
                                                     dtype=dtype))

    def forward(self, x, training=False, seed=0):
        out = self.expand(x, training=training) if self.expand else x
        out = T.silu(self.dw_bn(self.dw(out), training=training))
        out = self.attn(out, training=training)
        out = self.project_bn(self.project(out), training=training)
        out = T.dropout(out, self.cfg.dropout_p, training=training,
                        seed=(seed, self._site()))
        if self.cfg.has_residual:
            out = T.add(out, x)
        return out


# ---------------------------------------------------------------------------
# Partial convolution and the bottleneck-structure block
# ---------------------------------------------------------------------------


@dataclass
class BSConfig:
    c: int
    partial_ratio: float = 0.25
    mlp_expansion: int = 2
    dropout_p: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.partial_ratio <= 1.0):
            raise ConfigError(f"partial_ratio must be in (0, 1], got {self.partial_ratio}")
        if self.conv_channels < 1:
            raise ConfigError("partial slice would be empty")

    @property
    def conv_channels(self) -> int:
        return int(math.ceil(self.partial_ratio * self.c))


class PartialConv(Module):
    """3x3 convolution over the first ceil(r*c) channels; the rest pass
    through untouched, output ordered [convolved, untouched]."""

    def __init__(self, name: str, c: int, ratio: float = 0.25,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=c)
        self.c = c
        self.cp = int(math.ceil(ratio * c))
        if self.cp < 1:
            raise ConfigError(f"{name}: no channels selected for convolution")
        self.conv = self._child(Conv2dLayer(f"{name}.conv", self.cp, self.cp, 3,
                                            pad=1, rng=rng, dtype=dtype))

    def forward(self, x, training=False, seed=0):
        if self.cp == self.c:
            return self.conv(x)
        head = T.slice_channels(x, 0, self.cp)
        tail = T.slice_channels(x, self.cp, self.c)
        return T.concat_channels([self.conv(head), tail])


class BSBlock(Module):
    """Residual block: partial convolution, pointwise MLP, dropout, skip."""

    def __init__(self, name: str, cfg: BSConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c)
        self.cfg = cfg
        c, hid = cfg.c, cfg.mlp_expansion * cfg.c
        self.pconv = self._child(PartialConv(f"{name}.pconv", c, cfg.partial_ratio,
                                             rng=rng, dtype=dtype))
        self.mlp_in = self._child(Conv2dLayer(f"{name}.mlp_in", c, hid, 1, bias=True,
                                              rng=rng, dtype=dtype))
        self.mlp_out = self._child(Conv2dLayer(f"{name}.mlp_out", hid, c, 1, bias=True,
                                               rng=rng, dtype=dtype))

    def forward(self, x, training=False, seed=0):
        branch = self.pconv(x, training=training)
        branch = self.mlp_out(T.silu(self.mlp_in(branch)))
        branch = T.dropout(branch, self.cfg.dropout_p, training=training,
                           seed=(seed, self._site()))
        return T.add(x, branch)


# ---------------------------------------------------------------------------
# GSConv: shuffle-fused downsampling
# ---------------------------------------------------------------------------


@dataclass
class GSConvConfig:
    c_in: int
    c_out: int  # first-stage width; the block emits 2*c_out channels
    stride: int = 2
    shuffle_groups: int = 2

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if (2 * self.c_out) % self.shuffle_groups:
            raise ConfigError(f"2*c_out={2 * self.c_out} not divisible by "
                              f"shuffle_groups={self.shuffle_groups}")


class GSConvBlock(Module):
    """Strided conv+BN+SiLU, then a cheap depthwise copy, concatenated and
    channel-shuffled so both pathways interleave."""

    def __init__(self, name: str, cfg: GSConvConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c_in)
        self.cfg = cfg
        self.cbs = self._child(ConvBnSilu(f"{name}.cbs", cfg.c_in, cfg.c_out, 3,
                                          stride=cfg.stride, rng=rng, dtype=dtype))
        self.dw = self._child(Conv2dLayer(f"{name}.dw", cfg.c_out, cfg.c_out, 3,
                                          pad=1, groups=cfg.c_out, rng=rng, dtype=dtype))

    def forward(self, x, training=False, seed=0):
        fc = self.cbs(x, training=training)
        fd = self.dw(fc)
        return T.channel_shuffle(T.concat_channels([fc, fd]), self.cfg.shuffle_groups)


class GSBottleneck(Module):
    """Two stride-1 shuffle units plus the identity skip (width-preserving)."""

    def __init__(self, name: str, c: int, rng: np.random.Generator | None = None,
                 dtype=np.float64):
        super().__init__(name)
        if c % 2:
            raise ConfigError(f"{name}: width {c} must be even")
        self.c = c
        self.gs1 = self._child(GSConvBlock(
            f"{name}.gs1", GSConvConfig(c, c // 2, stride=1), rng=rng, dtype=dtype))
        self.gs2 = self._child(GSConvBlock(
            f"{name}.gs2", GSConvConfig(c, c // 2, stride=1), rng=rng, dtype=dtype))

    def forward(self, x, training=False, seed=0):
        out = self.gs2(self.gs1(x, training=training), training=training)
        return T.add(out, x)


# ---------------------------------------------------------------------------
# VKConv: variable-kernel convolution with learned offsets
# ---------------------------------------------------------------------------


@dataclass
class VKConvConfig:
    c_in: int
    c_out: int
    num_params: int = 5
    stride: int = 1
    offset_scale: float = 0.1

    def __post_init__(self):
        if self.num_params < 1:
            raise ConfigError(f"num_params must be >= 1, got {self.num_params}")
        if self.offset_scale <= 0:
            raise ConfigError(f"offset_scale must be > 0, got {self.offset_scale}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


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
    """Convolution over K arbitrary sampling points.

    An offset branch predicts 2K per-location displacements, scaled by a
    learnable factor and added to the zero-centered base pattern anchored
    at each output location.  One ``bilinear_sample`` call gathers all K
    points and combines them with K learned point weights; the result is
    projected 1x1 with BN + SiLU.  Offset and coordinate channel layout is
    (dy_0, dx_0, dy_1, dx_1, ...).
    """

    def __init__(self, name: str, cfg: VKConvConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c_in)
        self.cfg = cfg
        k = cfg.num_params
        self.base = vk_base_coords(k)
        # zero-init offsets: the initial pattern is the fixed base grid
        self.offset_conv = self._child(Conv2dLayer(
            f"{name}.offset", cfg.c_in, 2 * k, 3, stride=cfg.stride, pad=1,
            bias=True, zero_init=True, rng=rng, dtype=dtype))
        self.alpha = self._param("alpha", np.full((1, 1, 1, 1), cfg.offset_scale, dtype=dtype))
        self.point_w = self._param("point_w", np.full((1, k, 1, 1), 1.0 / k, dtype=dtype))
        self.project = self._child(Conv2dLayer(f"{name}.project", cfg.c_in, cfg.c_out, 1,
                                               rng=rng, dtype=dtype))
        self.bn = self._child(BatchNormLayer(f"{name}.bn", cfg.c_out, dtype=dtype))

    def sample_coords(self, x: Tensor4) -> Tensor4:
        """(n, 2K, ho, wo) sampling coordinates in the offset layout: scaled
        offsets plus the base pattern at each output location (float64)."""
        off = T.mul(self.offset_conv(x), self.alpha.value)
        _, _, ho, wo = off.shape
        base = self.base[:, :, None, None] + np.mgrid[0:ho, 0:wo] * float(self.cfg.stride)
        return T.add(off, Tensor4.const(base.reshape(1, -1, ho, wo)))

    def forward(self, x, training=False, seed=0):
        acc = T.bilinear_sample(x, self.sample_coords(x), self.point_w.value)
        return T.silu(self.bn(self.project(acc), training=training))

    def cost(self, x, out):
        ho, wo = self.offset_conv.spatial_out(x.shape[2], x.shape[3])
        kk = self.cfg.num_params
        return kk + 1, (8 + 2) * kk * self.cfg.c_in * ho * wo  # bilinear gather + contraction


# ---------------------------------------------------------------------------
# AVCStem: attention-gated dual-branch fusion ending in VKConv
# ---------------------------------------------------------------------------


@dataclass
class AVCStemConfig:
    c_in: int
    c_out: int
    branch_channels: int = 0  # 0 -> max(c_out // 2, 2)
    vk_points: int = 5
    vk_offset_scale: float = 0.1

    def __post_init__(self):
        if self.c_in % 2:
            raise ConfigError(f"c_in must be even for the bottleneck branch, got {self.c_in}")
        if self.branch_channels == 0:
            self.branch_channels = max(self.c_out // 2, 2)
        if self.branch_channels < 1:
            raise ConfigError("branch_channels must be >= 1")


class AVCStem(Module):
    """Two parallel branches fused under a multiplicative attention gate.

    Branch A is a pointwise conv+BN+SiLU; branch B is a width-preserving
    shuffle bottleneck modulated elementwise by
    sigmoid(conv1x1(x) * conv3x3(x)).  The concatenated branches feed a
    variable-kernel convolution that projects to ``c_out``.
    """

    def __init__(self, name: str, cfg: AVCStemConfig,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__(name, in_channels=cfg.c_in)
        self.cfg = cfg
        self.branch_a = self._child(ConvBnSilu(f"{name}.branch_a", cfg.c_in,
                                               cfg.branch_channels, 1, rng=rng, dtype=dtype))
        self.branch_b = self._child(GSBottleneck(f"{name}.branch_b", cfg.c_in,
                                                 rng=rng, dtype=dtype))
        self.gate1 = self._child(Conv2dLayer(f"{name}.gate1", cfg.c_in, cfg.c_in, 1,
                                             bias=True, rng=rng, dtype=dtype))
        self.gate3 = self._child(Conv2dLayer(f"{name}.gate3", cfg.c_in, cfg.c_in, 3,
                                             pad=1, bias=True, rng=rng, dtype=dtype))
        self.vk = self._child(VKConv(f"{name}.vk",
                                     VKConvConfig(c_in=cfg.branch_channels + cfg.c_in,
                                                  c_out=cfg.c_out,
                                                  num_params=cfg.vk_points,
                                                  offset_scale=cfg.vk_offset_scale),
                                     rng=rng, dtype=dtype))

    def gate(self, x: Tensor4) -> Tensor4:
        return T.sigmoid(T.mul(self.gate1(x), self.gate3(x)))

    def forward(self, x, training=False, seed=0):
        a = self.branch_a(x, training=training)
        b = T.mul(self.gate(x), self.branch_b(x, training=training))
        return self.vk(T.concat_channels([a, b]), training=training)


# ---------------------------------------------------------------------------
# Checkpoint files: snapshot records + text manifest
# ---------------------------------------------------------------------------


def save_checkpoint(module: Module, path_prefix) -> None:
    """Write ``{prefix}.bin`` (snapshot records) and ``{prefix}.manifest``."""
    entries = module.state_arrays()
    offset = 0
    lines = []
    with open(f"{path_prefix}.bin", "wb") as fh:
        for name, arr in entries:
            size = T.write_snapshot(fh, arr)
            n, c, h, w = arr.shape
            lines.append(f"{name} {n} {c} {h} {w} {offset}")
            offset += size
    with open(f"{path_prefix}.manifest", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(module: Module, path_prefix) -> None:
    arrays: dict[str, np.ndarray] = {}
    with open(f"{path_prefix}.manifest") as fh:
        manifest = [line.split() for line in fh if line.strip()]
    for fields in manifest:
        if len(fields) != 6 or not fields[5].isdigit():
            raise ParseError(f"{path_prefix}.manifest: bad line {' '.join(fields)!r}")
    with open(f"{path_prefix}.bin", "rb") as fh:
        for name, *_, offset in manifest:
            fh.seek(int(offset))
            arrays[name] = T.read_snapshot(fh)
    for name, _ in module.state_arrays():
        if name not in arrays:
            raise DataError(f"{path_prefix}.manifest has no tensor {name!r}")
    module.load_state(arrays)
