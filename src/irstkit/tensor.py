"""Minimal deterministic rank-4 tensor engine with reverse-mode autodiff.

Every tensor is an (n, c, h, w) array of floats.  Per-channel vectors
(biases, batch-norm scales) are stored as (1, c, 1, 1) tensors so that a
single broadcasting rule covers all arithmetic.  Each operation records
enough state on a tape node (:class:`OpRecord`) to push gradients back to
its inputs; ``backward`` walks the resulting DAG from a scalar root.

All forward primitives are deterministic: identical inputs and seeds give
bit-identical outputs.  Gradients accumulate additively when a tensor is
used more than once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DeterminismError,
    NumericError,
    ParseError,
    ShapeError,
)

DEFAULT_DTYPE = np.float64


# ---------------------------------------------------------------------------
# Core data structures
# ---------------------------------------------------------------------------


class OpRecord:
    """Tape node: the op kind, the input tensors, and a backward closure.

    ``backward_fn`` maps the gradient at this node's output to a tuple of
    gradients aligned with ``inputs`` (``None`` for inputs that need none).
    Op-specific cached arrays live in the closure; records form a DAG
    terminating at leaf tensors.
    """

    __slots__ = ("op_kind", "inputs", "backward_fn")

    def __init__(self, op_kind: str, inputs: tuple["Tensor4", ...],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op_kind = op_kind
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor4:
    """Dense (n, c, h, w) tensor with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "op", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 requires rank-4 data, got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"all dimensions must be >= 1, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op: OpRecord | None = None
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def const(data) -> "Tensor4":
        return Tensor4(data, requires_grad=False)

    @staticmethod
    def vector(values, dtype=None) -> "Tensor4":
        """Per-channel vector as a (1, c, 1, 1) tensor."""
        v = np.asarray(values, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        if v.ndim != 1:
            raise ShapeError(f"vector() expects 1-D values, got shape {v.shape}")
        return Tensor4(v.reshape(1, -1, 1, 1))

    @staticmethod
    def scalar(value, dtype=None) -> "Tensor4":
        return Tensor4(np.full((1, 1, 1, 1), value,
                               dtype=dtype if dtype is not None else DEFAULT_DTYPE))

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor4{tag}{self.shape} dtype={self.data.dtype}"

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)


@dataclass
class ParamTensor:
    """A trainable tensor with first/second moment buffers for the optimizer."""

    value: Tensor4
    moment1: np.ndarray = field(default=None)  # type: ignore[assignment]
    moment2: np.ndarray = field(default=None)  # type: ignore[assignment]
    step_count: int = 0

    def __post_init__(self):
        if self.moment1 is None:
            self.moment1 = np.zeros_like(self.value.data, dtype=np.float64)
        if self.moment2 is None:
            self.moment2 = np.zeros_like(self.value.data, dtype=np.float64)
        if self.moment1.size != self.value.data.size or self.moment2.size != self.value.data.size:
            raise ShapeError("moment buffers must match value size")
        self.value.requires_grad = True

    @property
    def name(self) -> str:
        return self.value.name


# ---------------------------------------------------------------------------
# Graph plumbing
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


class no_grad:
    """Context manager suppressing tape recording (pure inference)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _make(data: np.ndarray, op_kind: str, inputs: tuple[Tensor4, ...],
          backward_fn) -> Tensor4:
    out = Tensor4(data)
    out.requires_grad = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        out.op = OpRecord(op_kind, inputs, backward_fn)
    return out


def _coerce(x, like: "Tensor4 | None" = None) -> Tensor4:
    if isinstance(x, Tensor4):
        return x
    dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
    if np.isscalar(x):
        return Tensor4.scalar(x, dtype=dtype)
    return Tensor4(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    axes = tuple(ax for ax in range(4) if shape[ax] == 1 and g.shape[ax] != 1)
    return g.sum(axis=axes, keepdims=True)


def backward(root: Tensor4) -> None:
    """Populate gradients of all reachable tensors that require them.

    ``root`` must hold a single element.  Gradients accumulate additively,
    so a tensor consumed twice receives the sum of both path gradients.
    """
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")

    topo: list[Tensor4] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor4, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.op is not None:
            for parent in node.op.inputs:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.op is None or node.grad is None:
            continue
        grads = node.op.backward_fn(node.grad)
        for parent, g in zip(node.op.inputs, grads):
            if g is None or not parent.requires_grad:
                continue
            if g.shape != parent.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} != tensor shape {parent.data.shape} "
                    f"in backward of {node.op.op_kind}")
            if parent.grad is None:
                # copy when the closure handed back a view or the node's own
                # grad buffer; later += must not corrupt shared storage
                if g is node.grad or g.base is not None or not g.flags.owndata:
                    parent.grad = g.copy()
                else:
                    parent.grad = g
            else:
                parent.grad += g


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor4:
    a = _coerce(a, like=b if isinstance(b, Tensor4) else None)
    b = _coerce(b, like=a)
    out = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, "add", (a, b), back)


def sub(a, b) -> Tensor4:
    a = _coerce(a, like=b if isinstance(b, Tensor4) else None)
    b = _coerce(b, like=a)
    out = a.data - b.data

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, "sub", (a, b), back)


def mul(a, b) -> Tensor4:
    a = _coerce(a, like=b if isinstance(b, Tensor4) else None)
    b = _coerce(b, like=a)
    out = a.data * b.data

    def back(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _make(out, "mul", (a, b), back)


def div(a, b) -> Tensor4:
    a = _coerce(a, like=b if isinstance(b, Tensor4) else None)
    b = _coerce(b, like=a)
    out = a.data / b.data

    def back(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out, "div", (a, b), back)


def exp(x: Tensor4) -> Tensor4:
    out = np.exp(x.data)
    return _make(out, "exp", (x,), lambda g: (g * out,))


def log(x: Tensor4) -> Tensor4:
    xd = x.data
    return _make(np.log(xd), "log", (x,), lambda g: (g / xd,))


def sqrt(x: Tensor4) -> Tensor4:
    out = np.sqrt(x.data)
    return _make(out, "sqrt", (x,), lambda g: (g * 0.5 / out,))


def arctan(x: Tensor4) -> Tensor4:
    xd = x.data
    return _make(np.arctan(xd), "arctan", (x,), lambda g: (g / (1.0 + xd * xd),))


def arctan2(y, x) -> Tensor4:
    """Elementwise atan2(y, x); well-defined (0) at the origin."""
    y = _coerce(y, like=x if isinstance(x, Tensor4) else None)
    x = _coerce(x, like=y)
    yd, xd = y.data, x.data
    out = np.arctan2(yd, xd)
    denom = yd * yd + xd * xd

    def back(g):
        safe = np.where(denom > 0, denom, 1.0)
        gy = np.where(denom > 0, g * xd / safe, 0.0)
        gx = np.where(denom > 0, -g * yd / safe, 0.0)
        return _unbroadcast(gy, yd.shape), _unbroadcast(gx, xd.shape)

    return _make(out, "arctan2", (y, x), back)


def power(x: Tensor4, exponent: float) -> Tensor4:
    xd = x.data
    out = np.power(xd, exponent)

    def back(g):
        return (g * exponent * np.power(xd, exponent - 1.0),)

    return _make(out, "power", (x,), back)


def clamp(x: Tensor4, lo: float | None = None, hi: float | None = None) -> Tensor4:
    xd = x.data
    out = np.clip(xd, lo, hi)
    inside = np.ones_like(xd, dtype=bool)
    if lo is not None:
        inside &= xd >= lo
    if hi is not None:
        inside &= xd <= hi

    def back(g):
        return (g * inside,)

    return _make(out, "clamp", (x,), back)


def minimum(a, b) -> Tensor4:
    a = _coerce(a, like=b if isinstance(b, Tensor4) else None)
    b = _coerce(b, like=a)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)

    def back(g):
        return (_unbroadcast(g * take_a, a.data.shape),
                _unbroadcast(g * ~take_a, b.data.shape))

    return _make(out, "minimum", (a, b), back)


def maximum(a, b) -> Tensor4:
    a = _coerce(a, like=b if isinstance(b, Tensor4) else None)
    b = _coerce(b, like=a)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)

    def back(g):
        return (_unbroadcast(g * take_a, a.data.shape),
                _unbroadcast(g * ~take_a, b.data.shape))

    return _make(out, "maximum", (a, b), back)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def _logistic(xd: np.ndarray) -> np.ndarray:
    # exp(-x) overflows for x below about -88 in float32; IEEE inf then
    # gives the exact limit 1 / (1 + inf) = 0
    with np.errstate(over="ignore"):
        e = np.exp(-xd)
    return 1.0 / (1.0 + e)


def activation(x: Tensor4, kind: str) -> Tensor4:
    """Elementwise activation; kind is one of silu, sigmoid, relu."""
    xd = x.data
    if kind == "sigmoid":
        out = _logistic(xd)
        return _make(out, "sigmoid", (x,), lambda g: (g * out * (1.0 - out),))
    if kind == "silu":
        sig = _logistic(xd)
        out = xd * sig

        def back(g):
            return (g * sig * (1.0 + xd * (1.0 - sig)),)

        return _make(out, "silu", (x,), back)
    if kind == "relu":
        mask = xd > 0
        return _make(xd * mask, "relu", (x,), lambda g: (g * mask,))
    raise ConfigError(f"unknown activation kind {kind!r}")


def softplus(x: Tensor4) -> Tensor4:
    """log(1 + exp(x)) computed without overflow; gradient is sigmoid(x)."""
    xd = x.data
    out = np.log1p(np.exp(-np.abs(xd))) + np.maximum(xd, 0.0)
    sig = _logistic(xd)
    return _make(out, "softplus", (x,), lambda g: (g * sig,))


def sigmoid(x: Tensor4) -> Tensor4:
    return activation(x, "sigmoid")


def silu(x: Tensor4) -> Tensor4:
    return activation(x, "silu")


def relu(x: Tensor4) -> Tensor4:
    return activation(x, "relu")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum_all(x: Tensor4) -> Tensor4:
    out = np.full((1, 1, 1, 1), x.data.sum(), dtype=x.data.dtype)

    def back(g):
        return (np.broadcast_to(g, x.data.shape),)

    return _make(out, "sum_all", (x,), back)


def mean_all(x: Tensor4) -> Tensor4:
    return mul(sum_all(x), 1.0 / x.data.size)


def sum_channels(x: Tensor4) -> Tensor4:
    """Sum over the channel axis, keeping a singleton channel."""
    out = x.data.sum(axis=1, keepdims=True)

    def back(g):
        return (np.broadcast_to(g, x.data.shape),)

    return _make(out, "sum_channels", (x,), back)


def channel_reduce(x: Tensor4, kind: str) -> Tensor4:
    """Per-pixel reduction over channels to an (n, 1, h, w) map."""
    if kind == "mean":
        c = x.data.shape[1]
        out = x.data.mean(axis=1, keepdims=True)

        def back(g):
            return (np.broadcast_to(g / c, x.data.shape),)

        return _make(out, "channel_mean", (x,), back)
    if kind == "max":
        am = x.data.argmax(axis=1)  # (n, h, w), first max wins
        out = np.take_along_axis(x.data, am[:, None], axis=1)

        def back(g):
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, am[:, None], g, axis=1)
            return (gx,)

        return _make(out, "channel_max", (x,), back)
    raise ConfigError(f"unknown channel reduction {kind!r}")


def pool_global(x: Tensor4, kind: str) -> Tensor4:
    """Global spatial pooling to (n, c, 1, 1); kind is avg or max."""
    n, c, h, w = x.data.shape
    if kind == "avg":
        out = x.data.mean(axis=(2, 3), keepdims=True)

        def back(g):
            return (np.broadcast_to(g / (h * w), x.data.shape),)

        return _make(out, "pool_avg", (x,), back)
    if kind == "max":
        flat = x.data.reshape(n, c, h * w)
        am = flat.argmax(axis=2)  # first max wins
        out = np.take_along_axis(flat, am[:, :, None], axis=2).reshape(n, c, 1, 1)

        def back(g):
            gx = np.zeros_like(flat)
            np.put_along_axis(gx, am[:, :, None], g.reshape(n, c, 1), axis=2)
            return (gx.reshape(x.data.shape),)

        return _make(out, "pool_max", (x,), back)
    raise ConfigError(f"unknown pooling kind {kind!r}")


# ---------------------------------------------------------------------------
# Shape & channel manipulation
# ---------------------------------------------------------------------------


def concat_channels(xs: Sequence[Tensor4]) -> Tensor4:
    if not xs:
        raise ShapeError("concat_channels of an empty list")
    n, _, h, w = xs[0].data.shape
    for t in xs[1:]:
        tn, _, th, tw = t.data.shape
        if (tn, th, tw) != (n, h, w):
            raise ShapeError(f"concat_channels spatial mismatch: {t.data.shape} vs {xs[0].data.shape}")
    sizes = [t.data.shape[1] for t in xs]
    out = np.concatenate([t.data for t in xs], axis=1)
    bounds = np.cumsum([0] + sizes)

    def back(g):
        return tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(sizes)))

    return _make(out, "concat_channels", tuple(xs), back)


def split_channels(x: Tensor4, sizes: Sequence[int]) -> list[Tensor4]:
    if sum(sizes) != x.data.shape[1]:
        raise ShapeError(f"split sizes {sizes} do not sum to {x.data.shape[1]} channels")
    bounds = np.cumsum([0] + list(sizes))
    return [slice_channels(x, int(bounds[i]), int(bounds[i + 1])) for i in range(len(sizes))]


def slice_channels(x: Tensor4, lo: int, hi: int) -> Tensor4:
    if not (0 <= lo < hi <= x.data.shape[1]):
        raise ShapeError(f"channel slice [{lo}:{hi}] outside 0..{x.data.shape[1]}")
    out = x.data[:, lo:hi].copy()

    def back(g):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        return (gx,)

    return _make(out, "slice_channels", (x,), back)


def channel_shuffle(x: Tensor4, groups: int) -> Tensor4:
    """Interleave channel groups: view as (groups, c/groups), transpose, flatten."""
    c = x.data.shape[1]
    if groups < 1 or c % groups != 0:
        raise ConfigError(f"channels {c} not divisible by groups {groups}")
    perm = np.arange(c).reshape(groups, c // groups).T.ravel()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(c)
    out = x.data[:, perm].copy()

    def back(g):
        return (g[:, inv].copy(),)

    return _make(out, "channel_shuffle", (x,), back)


def upsample2x(x: Tensor4) -> Tensor4:
    """Nearest-neighbour 2x spatial upsampling."""
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)
    n, c, h, w = x.data.shape

    def back(g):
        return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _make(out, "upsample2x", (x,), back)


def gather_cells(x: Tensor4, cells: np.ndarray) -> Tensor4:
    """Pick per-cell feature columns: cells is (p, 3) int (batch, row, col).

    Returns a (p, c, 1, 1) tensor; the backward pass scatter-adds into the
    source positions (duplicate cells accumulate).
    """
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    b, r, co = cells[:, 0], cells[:, 1], cells[:, 2]
    out = x.data[b, :, r, co][:, :, None, None].copy()

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (b, slice(None), r, co), g[:, :, 0, 0])
        return (gx,)

    return _make(out, "gather_cells", (x,), back)


def gather_channel(x: Tensor4, idx: np.ndarray) -> Tensor4:
    """Per-row channel pick: x is (p, c, 1, 1), idx is (p,) ints -> (p, 1, 1, 1)."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    p = x.data.shape[0]
    if idx.shape[0] != p:
        raise ShapeError(f"index count {idx.shape[0]} != rows {p}")
    rows = np.arange(p)
    out = x.data[rows, idx, 0, 0].reshape(p, 1, 1, 1).copy()

    def back(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx, 0, 0] = g[:, 0, 0, 0]
        return (gx,)

    return _make(out, "gather_channel", (x,), back)


def softmax_channels(x: Tensor4) -> Tensor4:
    """Channel-axis softmax, numerically shifted by the (detached) max."""
    shift = Tensor4.const(x.data.max(axis=1, keepdims=True))
    e = exp(sub(x, shift))
    return div(e, sum_channels(e))


def log_softmax_channels(x: Tensor4) -> Tensor4:
    """Channel-axis log-softmax, z - log sum exp z, shifted by the (detached)
    max so it stays finite where the softmax itself underflows to 0."""
    z = sub(x, Tensor4.const(x.data.max(axis=1, keepdims=True)))
    return sub(z, log(sum_channels(exp(z))))


# ---------------------------------------------------------------------------
# Convolution family
# ---------------------------------------------------------------------------


def _patches(xp: np.ndarray, k: int, stride: int):
    """Strided (n, c, k, k, ho, wo) view over a padded input."""
    n, c, hp, wp = xp.shape
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    sn, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False)
    return view, ho, wo


def _pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _col2im(grad_cols: np.ndarray, xp_shape, k: int, stride: int, ho: int, wo: int):
    """Scatter (n, c, k, k, ho, wo) gradients back onto the padded input."""
    gxp = np.zeros(xp_shape, dtype=grad_cols.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += grad_cols[:, :, i, j]
    return gxp


def conv2d(x: Tensor4, weight: Tensor4, bias: Tensor4 | None = None,
           stride: int = 1, pad: int = 0, groups: int = 1) -> Tensor4:
    """2-D cross-correlation with zero padding.

    weight is (c_out, c_in/groups, k, k); output spatial dims follow
    floor((h + 2 pad - k) / stride) + 1.
    """
    n, c_in, h, w = x.data.shape
    c_out, c_in_g, kh, kw = weight.data.shape
    if kh != kw:
        raise ShapeError(f"square kernels only, got {kh}x{kw}")
    k = kh
    if groups < 1 or c_in % groups != 0 or c_out % groups != 0:
        raise ConfigError(f"groups {groups} must divide c_in {c_in} and c_out {c_out}")
    if c_in_g != c_in // groups:
        raise ShapeError(f"weight expects {c_in_g * groups} input channels, got {c_in}")
    if k > h + 2 * pad or k > w + 2 * pad:
        raise ShapeError(f"kernel {k} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")

    xp = _pad_input(x.data, pad)
    inputs: tuple[Tensor4, ...] = (x, weight) if bias is None else (x, weight, bias)

    if groups == c_in and c_out == c_in and c_in_g == 1:
        # depthwise path: nine shifted multiply-adds beat einsum here
        ho = (xp.shape[2] - k) // stride + 1
        wo = (xp.shape[3] - k) // stride + 1
        wv = weight.data[:, 0]  # (c, k, k)
        out = np.zeros((n, c_in, ho, wo), dtype=xp.dtype)
        for i in range(k):
            for j in range(k):
                seg = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
                out += seg * wv[:, i, j][None, :, None, None]
        if bias is not None:
            out = out + bias.data.reshape(1, c_out, 1, 1)

        need_x = x.requires_grad

        def back_dw(g):
            gw = np.empty_like(weight.data)
            gxp = np.zeros(xp.shape, dtype=g.dtype) if need_x else None
            for i in range(k):
                for j in range(k):
                    seg = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
                    gw[:, 0, i, j] = np.einsum("nchw,nchw->c", g, seg)
                    if need_x:
                        gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += (
                            g * wv[:, i, j][None, :, None, None])
            gx = None
            if need_x:
                gx = gxp[:, :, pad:pad + h, pad:pad + w] if pad else gxp
            gb = g.sum(axis=(0, 2, 3)).reshape(bias.data.shape) if bias is not None else None
            return (gx, gw, gb) if bias is not None else (gx, gw)

        return _make(out, "conv2d", inputs, back_dw)

    # one batched matmul over groups; groups == 1 is its one-group case
    cg, cog = c_in // groups, c_out // groups
    view, ho, wo = _patches(xp, k, stride)
    cols = view.reshape(n, groups, cg * k * k, ho * wo)
    wmat = weight.data.reshape(groups, cog, cg * k * k)
    out = np.matmul(wmat, cols).reshape(n, c_out, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    need_x = x.requires_grad

    def back(g):
        go = g.reshape(n, groups, cog, ho * wo)
        gw = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weight.data.shape)
        gx = None
        if need_x:
            grad_cols = np.matmul(wmat.transpose(0, 2, 1), go).reshape(n, c_in, k, k, ho, wo)
            gxp = _col2im(grad_cols, xp.shape, k, stride, ho, wo)
            gx = gxp[:, :, pad:pad + h, pad:pad + w] if pad else gxp
        gb = g.sum(axis=(0, 2, 3)).reshape(bias.data.shape) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    return _make(out, "conv2d", inputs, back)


def depthwise_conv2d(x: Tensor4, weight: Tensor4, stride: int = 1, pad: int = 0) -> Tensor4:
    """Per-channel convolution: weight (c, 1, k, k) applied channelwise."""
    c = x.data.shape[1]
    if weight.data.shape[0] != c or weight.data.shape[1] != 1:
        raise ShapeError(f"depthwise weight {weight.data.shape} does not match {c} channels")
    return conv2d(x, weight, bias=None, stride=stride, pad=pad, groups=c)


# ---------------------------------------------------------------------------
# Normalisation, dropout, sampling
# ---------------------------------------------------------------------------


@dataclass
class RunningStats:
    """Per-channel running mean/variance for batch norm inference."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1

    @staticmethod
    def create(channels: int, momentum: float = 0.1) -> "RunningStats":
        return RunningStats(np.zeros(channels), np.ones(channels), momentum)


def batch_norm(x: Tensor4, gamma: Tensor4, beta: Tensor4,
               running_stats: RunningStats, training: bool,
               eps: float = 1e-5) -> Tensor4:
    """Channelwise batch normalisation.

    Training mode normalises by batch statistics over (n, h, w) and updates
    the running stats in place with momentum; inference mode uses the
    running stats.
    """
    n, c, h, w = x.data.shape
    if gamma.data.shape != (1, c, 1, 1) or beta.data.shape != (1, c, 1, 1):
        raise ShapeError(f"gamma/beta must be (1,{c},1,1)")
    if training:
        m = n * h * w
        if m == 1:
            raise NumericError("batch norm in training mode needs n*h*w > 1")
        mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
        var = x.data.var(axis=(0, 2, 3), keepdims=True)
        mom = running_stats.momentum
        running_stats.mean = (1 - mom) * running_stats.mean + mom * mean.reshape(-1)
        running_stats.var = (1 - mom) * running_stats.var + mom * var.reshape(-1)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mean) * inv_std
        out = gamma.data * xhat + beta.data

        def back(g):
            gg = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
            gb = g.sum(axis=(0, 2, 3), keepdims=True)
            gx = (gamma.data * inv_std / m) * (m * g - gb - xhat * gg)
            return gx, gg, gb

        return _make(out, "batch_norm", (x, gamma, beta), back)

    inv_std = (1.0 / np.sqrt(running_stats.var.reshape(1, c, 1, 1) + eps)).astype(x.data.dtype)
    mean = running_stats.mean.reshape(1, c, 1, 1).astype(x.data.dtype)
    xhat = (x.data - mean) * inv_std
    out = gamma.data * xhat + beta.data

    def back_eval(g):
        gg = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gb = g.sum(axis=(0, 2, 3), keepdims=True)
        return g * gamma.data * inv_std, gg, gb

    return _make(out, "batch_norm", (x, gamma, beta), back_eval)


def dropout(x: Tensor4, p: float, training: bool, seed: int = 0) -> Tensor4:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity in inference mode or at p=0; deterministic for a given seed.
    """
    if not (0.0 <= p < 1.0):
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = np.random.default_rng(seed)
    keep = rng.random(x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    factor = keep * scale
    out = x.data * factor
    return _make(out, "dropout", (x,), lambda g: (g * factor,))


def bilinear_sample(x: Tensor4, coords, point_w: Tensor4 | None = None) -> Tensor4:
    """Sum over K points of point_w[k] times the bilinear sample of x at point k.

    coords is a (n, 2K, ho, wo) tensor or array in VKConv's offset layout
    (y_0, x_0, y_1, x_1, ...), in input pixel units; point_w is (1, K, 1, 1),
    and may be omitted only for K = 1 (a plain bilinear sample).  Positions
    outside [0, h-1] x [0, w-1] contribute zero, matching the zero-padding
    convention of conv2d.  Gradients flow to x, coords and point_w.
    """
    coords = _coerce(coords, like=x)
    kk, odd = divmod(coords.data.shape[1], 2)
    if odd:
        raise ShapeError(f"coords must have 2K channels (y, x per point), got {coords.data.shape}")
    if point_w is None and kk == 1:
        point_w = Tensor4.const(np.ones((1, 1, 1, 1), dtype=x.data.dtype))
    if point_w is None or point_w.data.shape != (1, kk, 1, 1):
        raise ShapeError(f"{kk} sampling points need (1, {kk}, 1, 1) point weights")
    if not np.isfinite(coords.data).all():
        raise NumericError("bilinear_sample received non-finite coordinates")
    n, c, h, w = x.data.shape
    if coords.data.shape[0] != n:
        raise ShapeError(f"coords batch {coords.data.shape[0]} != input batch {n}")
    _, _, ho, wo = coords.data.shape
    L = ho * wo

    yx = coords.data.reshape(n, kk, 2, L)
    y0 = np.floor(yx[:, :, 0])
    x0 = np.floor(yx[:, :, 1])
    fy = yx[:, :, 0] - y0
    fx = yx[:, :, 1] - x0
    pw = point_w.data.reshape(1, kk, 1).astype(np.float64)

    # per corner: (n, K, L) pixel indices and float64 point x corner weights;
    # each (b, k) row of indices gathers all channels into one accumulator
    flat = x.data.reshape(n, c, h * w)
    corners = []
    out = np.zeros((n, c, L), dtype=x.data.dtype)
    for dy, dx, wgt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                        (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        yc = y0 + dy
        xc = x0 + dx
        valid = (yc >= 0) & (yc <= h - 1) & (xc >= 0) & (xc <= w - 1)
        idx = (np.clip(yc, 0, h - 1) * w + np.clip(xc, 0, w - 1)).astype(np.int64)
        weight = pw * wgt * valid
        cast = weight.astype(x.data.dtype)
        for b in range(n):
            for k in range(kk):
                out[b] += np.take(flat[b], idx[b, k], axis=1) * cast[b, k]
        corners.append((idx, valid, wgt, weight))

    def back(g):
        go = g.reshape(n, c, L)
        size = n * c * h * w
        base = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
        gx = np.zeros(size)
        s = []  # per corner, (n, K, L): go dotted over channels with the corner's values
        for idx, valid, _, weight in corners:
            gx += np.bincount((base + idx[:, None]).ravel(), minlength=size,
                              weights=(go[:, :, None, :] * weight[:, None]).ravel())
            sj = np.array([[np.einsum("cl,cl->l", np.take(flat[b], idx[b, k], axis=1), go[b])
                            for k in range(kk)] for b in range(n)])
            s.append(sj * valid)
        s00, s01, s10, s11 = s
        gy = pw * ((1 - fx) * (s10 - s00) + fx * (s11 - s01))
        gxc = pw * ((1 - fy) * (s01 - s00) + fy * (s11 - s10))
        gpw = sum(wgt * sj for (_, _, wgt, _), sj in zip(corners, s)).sum(axis=(0, 2))
        return (gx.reshape(x.data.shape).astype(x.data.dtype),
                np.stack([gy, gxc], axis=2).reshape(coords.data.shape).astype(coords.data.dtype),
                gpw.reshape(point_w.data.shape).astype(point_w.data.dtype))

    return _make(out.reshape(n, c, ho, wo), "bilinear_sample", (x, coords, point_w), back)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def grad_check(op_closure: Callable[..., Tensor4], inputs: Iterable[Tensor4],
               tolerance: float = 1e-5, eps: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``op_closure`` must map the given leaf tensors to a scalar tensor and
    be deterministic; determinism is verified by evaluating twice.  The
    relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    leaves = list(inputs)
    for t in leaves:
        t.requires_grad = True
        t.zero_grad()
        t.data = np.ascontiguousarray(t.data)

    first = op_closure(*leaves)
    second = op_closure(*leaves)
    if first.data.size != 1:
        raise ContractError("grad_check closure must return a scalar tensor")
    if not np.array_equal(first.data, second.data):
        raise DeterminismError("closure produced differing outputs on repeated evaluation")

    for t in leaves:
        t.zero_grad()
    out = op_closure(*leaves)
    backward(out)

    max_err = 0.0
    n_checked = 0
    for t in leaves:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = op_closure(*leaves).item()
            flat[i] = orig - eps
            f_minus = op_closure(*leaves).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            a = analytic.reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, abs(a - numeric) / denom)
            n_checked += 1

    return GradCheckReport(max_rel_error=max_err, tolerance=tolerance, n_checked=n_checked)


# ---------------------------------------------------------------------------
# Tensor snapshot file format
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"LET4"
SNAPSHOT_VERSION = 1


def write_snapshot(fh, array: np.ndarray) -> int:
    """Append one tensor record (magic, version, dims, f32 data); returns byte size."""
    arr = np.asarray(array)
    if arr.ndim != 4:
        raise ShapeError(f"snapshot requires rank-4 data, got shape {arr.shape}")
    header = SNAPSHOT_MAGIC + struct.pack("<I", SNAPSHOT_VERSION)
    header += struct.pack("<4Q", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    fh.write(header)
    fh.write(payload)
    return len(header) + len(payload)


def _read_exact(fh, size: int, part: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ParseError(f"truncated snapshot {part}")
    return raw


def read_snapshot(fh) -> np.ndarray:
    """Read one tensor record written by write_snapshot."""
    magic = fh.read(4)
    if magic != SNAPSHOT_MAGIC:
        raise ParseError(f"bad snapshot magic {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "header"))
    if version != SNAPSHOT_VERSION:
        raise ParseError(f"unsupported snapshot version {version}")
    dims = struct.unpack("<4Q", _read_exact(fh, 32, "header"))
    count = int(np.prod(dims))
    payload = _read_exact(fh, count * 4, "payload")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)


def save_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_snapshot(fh, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_snapshot(fh)
