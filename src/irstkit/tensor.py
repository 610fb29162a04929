"""Minimal deterministic rank-4 tensor engine with reverse-mode autodiff.

Every tensor is an (n, c, h, w) array of floats.  Per-channel vectors
(biases, batch-norm scales) are stored as (1, c, 1, 1) tensors so that a
single broadcasting rule covers all arithmetic.  An operation whose
inputs are recorded (grad mode on and an input requiring grad, see
``_records``) puts a tape node (:class:`OpRecord`) on its output that can
push gradients back to its inputs; ``backward`` walks the resulting DAG
from a scalar root.  A forward op builds only what its output needs:
state that only the backward reads is computed in the backward closure,
and state the forward shares with it (a sigmoid, a normalised input) is
kept in a buffer of its own only when the op is recorded.

All forward primitives are deterministic: identical inputs and seeds give
bit-identical outputs.  Gradients accumulate additively when a tensor is
used more than once.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DeterminismError,
    NumericError,
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


# ---------------------------------------------------------------------------
# Graph plumbing
# ---------------------------------------------------------------------------

# context-local, so no_grad in one thread or task leaves the others recording
_GRAD_ENABLED: ContextVar[bool] = ContextVar("irstkit_grad_enabled", default=True)


class no_grad:
    """Context manager suppressing tape recording (pure inference) in the
    current thread or task."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def _records(*inputs: Tensor4) -> bool:
    """Whether an op on these inputs goes on the tape, so its backward can run."""
    return _GRAD_ENABLED.get() and any(t.requires_grad for t in inputs)


def _make(data: np.ndarray, op_kind: str, inputs: tuple[Tensor4, ...],
          backward_fn) -> Tensor4:
    out = Tensor4(data)
    out.requires_grad = _records(*inputs)
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

    ``root`` must hold a single element.  Each gradient has its tensor's
    dtype.  Gradients accumulate additively, so a tensor consumed twice
    receives the sum of both path gradients.
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
            if g.dtype != parent.data.dtype:
                # a float32 tensor that met a float64 one (VKConv's sampling
                # coordinates) still gets a float32 gradient
                g = g.astype(parent.data.dtype)
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

    def back(g):
        denom = yd * yd + xd * xd
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

    def back(g):
        inside = np.ones_like(xd, dtype=bool)
        if lo is not None:
            inside &= xd >= lo
        if hi is not None:
            inside &= xd <= hi
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
    # 1 / (1 + exp(-x)) in one buffer.  exp(-x) overflows for x below about
    # -88 in float32; IEEE inf then gives the exact limit 1 / (1 + inf) = 0
    e = np.negative(xd)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def activation(x: Tensor4, kind: str) -> Tensor4:
    """Elementwise activation; kind is one of silu, sigmoid, relu.

    SiLU's backward reads its sigmoid, so SiLU keeps that in a buffer of
    its own; ``silu_`` is the in-place form for an unrecorded SiLU.
    """
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
    return _make(out, "softplus", (x,), lambda g: (g * _logistic(xd),))


def sigmoid(x: Tensor4) -> Tensor4:
    return activation(x, "sigmoid")


def silu(x: Tensor4) -> Tensor4:
    return activation(x, "silu")


def silu_(x: Tensor4) -> Tensor4:
    """``silu`` of a tensor nothing else reads, such as a layer's fresh output:
    unrecorded, it overwrites x block by block, with no full-size buffer."""
    if _records(x):
        return silu(x)
    xd = x.data
    step = max(1, _BROADCAST_BLOCK_BYTES // max(1, xd[:, :1].nbytes))
    for c in range(0, xd.shape[1], step):
        block = xd[:, c:c + step]
        block *= _logistic(block)  # x * sigmoid(x), the bytes silu gives
    return x


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
        out = x.data.max(axis=1, keepdims=True)

        def back(g):
            am = x.data.argmax(axis=1)  # (n, h, w), first max wins
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
        out = x.data.max(axis=(2, 3), keepdims=True)

        def back(g):
            flat = x.data.reshape(n, c, h * w)
            am = flat.argmax(axis=2)  # first max wins
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
    # np.take, not x[:, perm]: that is laid out channels-first for batch > 1
    out = np.take(x.data, perm, axis=1)

    def back(g):
        return (np.take(g, inv, axis=1),)

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


def _phase_regions(h: int, w: int, stride: int, pad: int, m: int, rows: int, ws: int):
    """For each of the m x m phase planes of ``_tap_planes``: (a, b, plane
    index, input index), where plane (a, b), viewed as (n, c, rows, ws),
    holds input pixels, and which pixels they are."""
    def span(size, phase, length):
        # plane positions lo..hi-1 hold input positions first, first + stride, ...
        lo = max(0, -((phase - pad) // stride))
        hi = max(lo, min(length, (size - 1 + pad - phase) // stride + 1))
        first = phase + stride * lo - pad
        return slice(lo, hi), slice(first, first + stride * (hi - lo), stride)

    for a in range(m):
        pr, xr = span(h, a, rows)
        for b in range(m):
            pc, xc = span(w, b, ws)
            yield a, b, (..., pr, pc), (..., xr, xc)


def _tap_geometry(h: int, w: int, k: int, stride: int, pad: int):
    """(ho, wo, ws, rows): the output size, and each phase plane's row width
    ceil(padded width / stride) and row count, ``_tap_planes``' layout."""
    ho, reach = (h + 2 * pad - k) // stride + 1, (k - 1) // stride
    return ho, (w + 2 * pad - k) // stride + 1, -(-(w + 2 * pad) // stride), ho + reach + (reach > 0)


def _tap_planes(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """The zero-padded input split into stride x stride phase planes.

    Returns planes of shape (m, m, n, c, rows * ws), with m = min(stride, k)
    and ws = ceil(padded width / stride): plane (a, b) holds padded pixel
    (a + stride r, b + stride q) at r * ws + q and is zero past the input.
    Kernel tap (i, j) is then the contiguous slice of plane
    (i % stride, j % stride) of length ho * ws that starts at
    (i // stride) * ws + j // stride: row y, column x of that slice is the
    input under output (y, x) for x < wo, and columns x >= wo are discarded.
    A trailing zero row keeps the last taps' slices inside the plane.  For
    a 1 x 1 kernel at stride 1 without padding the plane is a view of x.
    """
    n, c, h, w = x.shape
    if k == 1 and stride == 1 and pad == 0:
        return x.reshape(1, 1, n, c, h * w)
    m = min(stride, k)
    _, _, ws, rows = _tap_geometry(h, w, k, stride, pad)
    planes = np.zeros((m, m, n, c, rows, ws), dtype=x.dtype)
    for a, b, at_plane, at_x in _phase_regions(h, w, stride, pad, m, rows, ws):
        planes[a, b][at_plane] = x[at_x]
    return planes.reshape(m, m, n, c, rows * ws)


def _from_tap_planes(planes: np.ndarray, shape, k: int, stride: int, pad: int, ws: int):
    """The input gradient from gradient planes laid out as ``_tap_planes``:
    each input pixel's entry, read back out of its phase; padding dropped."""
    n, c, h, w = shape
    if k == 1 and stride == 1 and pad == 0:
        return planes.reshape(shape)
    m, rows = planes.shape[0], planes.shape[-1] // ws
    grid = planes.reshape(m, m, n, c, rows, ws)
    gx = np.zeros(shape, dtype=planes.dtype)  # pixels no tap reads get zero
    for a, b, at_plane, at_x in _phase_regions(h, w, stride, pad, m, rows, ws):
        gx[at_x] = grid[a, b][at_plane]
    return gx


# bytes per block of conv2d's broadcast taps (input planes, output and
# product rows), of silu_ and of bilinear_sample's gathered rows: a block
# stays in a core's L2 cache across its passes, where whole-tensor passes
# stream through L3, and no scratch grows with the input
_BROADCAST_BLOCK_BYTES = 1 << 19


def _tap_blocks(groups: int, cog: int, cg: int, out_bytes: int,
                plane_bytes: int) -> list[tuple[slice, slice]]:
    """(group, output channel within group) slices that split the output for
    conv2d's tap sum: the whole output for matmul taps (cg > 1), blocks of
    about ``_BROADCAST_BLOCK_BYTES`` for broadcast taps (cg == 1), counting
    each output channel's output and product rows (``out_bytes`` each over
    the batch) and each group's input planes (``plane_bytes``), which the
    group's output channels share.  A block of one channel may exceed it."""
    group = plane_bytes + 2 * cog * out_bytes
    if cg > 1 or _BROADCAST_BLOCK_BYTES >= groups * group:
        return [(slice(None), slice(None))]
    if _BROADCAST_BLOCK_BYTES >= group:  # whole groups per block
        per = _BROADCAST_BLOCK_BYTES // group
        return [(slice(g, g + per), slice(None)) for g in range(0, groups, per)]
    per = max(1, (_BROADCAST_BLOCK_BYTES - plane_bytes) // (2 * out_bytes))
    return [(slice(g, g + 1), slice(o, o + per)) for g in range(groups) for o in range(0, cog, per)]


def _tap_product(wm: np.ndarray, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per group, (m, q) tap weights times (q, L) slices: wm is (g, m, q),
    xs is (n, g, q, L) and out (n, g, m, L).  With q == 1 (depthwise convs,
    a one-channel input) a broadcast multiply, which beats a K=1 matmul."""
    if wm.shape[2] == 1:
        return np.multiply(xs, wm, out=out)
    return np.matmul(wm, xs, out=out)


def conv2d(x: Tensor4, weight: Tensor4, bias: Tensor4 | None = None,
           stride: int = 1, pad: int = 0, groups: int = 1) -> Tensor4:
    """2-D cross-correlation with zero padding.

    weight is (c_out, c_in/groups, k, k); output spatial dims follow
    floor((h + 2 pad - k) / stride) + 1.  No patch matrix is built: the
    padded input is laid out as stride-phase planes (``_tap_planes``), in
    which each kernel tap is a contiguous slice, and the output is the sum
    over taps, in row-major order, of the tap's (c_out/g x c_in/g) weight
    times its slice, on an (ho, ws) grid whose columns past wo are dropped.
    Matmul taps are one matmul batched over images and groups, over planes
    of the whole input.  Broadcast taps (c_in/g == 1) are summed block by
    block of channels (``_tap_blocks``), each over planes and a grid of its
    own channels, so the input is never copied whole.  The backward pass
    lays out the whole input and accumulates its gradient in the same layout.
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

    ho, wo, ws, rows = _tap_geometry(h, w, k, stride, pad)
    cg, cog, span = c_in // groups, c_out // groups, ho * ws
    taps = [(i, j) for i in range(k) for j in range(k)]
    # (k*k, groups, c_out/g, c_in/g): each tap's weights contiguous for BLAS
    wt = np.ascontiguousarray(
        weight.data.reshape(groups, cog, cg, k * k).transpose(3, 0, 1, 2))
    # matmul taps read the whole input's planes, broadcast taps each block's own
    whole = _tap_planes(x.data, k, stride, pad) if cg > 1 else None

    def tap_slice(arr, i, j):
        off = (i // stride) * ws + j // stride
        return arr[i % stride, j % stride, :, :, off:off + span].reshape(n, -1, cg, span)

    out = np.empty((n, groups, cog, ho, wo), dtype=np.result_type(x.data, weight.data))
    b = None if bias is None else bias.data.reshape(groups, cog, 1, 1)
    planes, laid, grid, prod = whole, None, None, None  # scratch reused across blocks
    for gs, cs in _tap_blocks(groups, cog, cg, n * span * out.itemsize,
                              n * min(stride, k) ** 2 * rows * ws * x.data.itemsize):
        if whole is None and gs != laid:
            planes = xs = None  # free the last block's planes before laying out these
            planes, laid = _tap_planes(x.data[:, gs], k, stride, pad), gs
        dst = out[:, gs, cs]
        if ws == wo:  # no column to drop: sum straight into the output
            block = dst.reshape(dst.shape[:3] + (span,))
        else:
            if grid is None:
                grid = np.empty(dst.shape[:3] + (span,), dtype=out.dtype)
            block = grid[:, :dst.shape[1], :dst.shape[2]]
        if prod is None and k > 1:
            prod = np.empty_like(block)
        for t, (i, j) in enumerate(taps):
            xs, wm = tap_slice(planes, i, j), wt[t][gs, cs]
            if t == 0:
                _tap_product(wm, xs, out=block)
            else:
                block += _tap_product(wm, xs, out=prod[:, :block.shape[1], :block.shape[2]])
        crop = block.reshape(block.shape[:3] + (ho, ws))[..., :wo]
        if b is not None:  # the crop and the bias in one pass
            np.add(crop, b[gs, cs], out=dst)
        elif ws != wo:
            dst[...] = crop
    out = out.reshape(n, c_out, ho, wo)

    inputs: tuple[Tensor4, ...] = (x, weight) if bias is None else (x, weight, bias)
    need_x = x.requires_grad

    def back(g):
        gg = g
        if ws != wo:
            gg = np.zeros((n, c_out, ho, ws), dtype=g.dtype)
            gg[:, :, :, :wo] = g
        gg = gg.reshape(n, groups, cog, span)
        # broadcast taps lay the whole input out again, as batch_norm recomputes xhat
        planes = whole if whole is not None else _tap_planes(x.data, k, stride, pad)
        gw = np.empty(wt.shape, dtype=np.result_type(g, planes))
        gplanes = np.zeros(planes.shape, dtype=np.result_type(g, wt)) if need_x else None
        buf = np.empty((n, groups, cg, span), dtype=gplanes.dtype) if need_x else None
        for t, (i, j) in enumerate(taps):
            gw[t] = np.matmul(gg, tap_slice(planes, i, j).swapaxes(2, 3)).sum(axis=0)
            if need_x:
                gslice = tap_slice(gplanes, i, j)
                gslice += _tap_product(wt[t].swapaxes(1, 2), gg, out=buf)
        gw = gw.transpose(1, 2, 3, 0).reshape(weight.data.shape)
        gx = _from_tap_planes(gplanes, x.data.shape, k, stride, pad, ws) if need_x else None
        gb = g.sum(axis=(0, 2, 3)).reshape(bias.data.shape) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    def back_dw(g):
        # the same gradients under the name per-op timing keys depthwise convs on
        return back(g)

    depthwise = groups == c_in and c_out == c_in and c_in_g == 1
    return _make(out, "conv2d", inputs, back_dw if depthwise else back)


# ---------------------------------------------------------------------------
# Normalisation, dropout, sampling
# ---------------------------------------------------------------------------


BN_EPS = 1e-5  # batch norm's variance floor, shared with the inference-time fold
BN_MOMENTUM = 0.1  # running-stat update rate, PyTorch's BatchNorm2d default


def _normalize(x: np.ndarray, mean: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """xhat = (x - mean) * inv_std in one fresh buffer; mean and inv_std are
    in x's dtype."""
    xhat = x - mean
    xhat *= inv_std
    return xhat


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, keep_xhat: bool) -> np.ndarray:
    """gamma * xhat + beta: in a fresh buffer when ``keep_xhat`` (a recorded
    backward reads xhat) or when gamma or beta would promote xhat's dtype,
    otherwise in xhat's own buffer."""
    if keep_xhat or np.result_type(xhat, gamma, beta) != xhat.dtype:
        out = gamma * xhat
    else:
        out = xhat
        out *= gamma
    out += beta
    return out


def batch_norm(x: Tensor4, gamma: Tensor4, beta: Tensor4, running_mean: Tensor4,
               running_var: Tensor4, training: bool) -> Tensor4:
    """Channelwise batch normalisation with variance floor ``BN_EPS``.

    ``gamma`` and ``beta`` are parameters; ``running_mean`` and
    ``running_var`` are buffers, never inputs of the op's tape node.
    Training mode normalises by batch statistics over (n, h, w) and
    replaces the buffers' ``data`` with their momentum ``BN_MOMENTUM``
    update; inference mode normalises by the buffers.  All four are
    (1, c, 1, 1).  Training mode keeps the normalised input for the
    backward only when the op is recorded; inference mode never keeps it,
    and its backward recomputes it.
    """
    n, c, h, w = x.data.shape
    if any(t.data.shape != (1, c, 1, 1) for t in (gamma, beta, running_mean, running_var)):
        raise ShapeError(f"gamma, beta, running_mean and running_var must be (1,{c},1,1)")
    if training:
        m = n * h * w
        if m == 1:
            raise NumericError("batch norm in training mode needs n*h*w > 1")
        mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
        var = x.data.var(axis=(0, 2, 3), keepdims=True)
        decay = 1 - BN_MOMENTUM
        running_mean.data = decay * running_mean.data + BN_MOMENTUM * mean
        running_var.data = decay * running_var.data + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = _normalize(x.data, mean, inv_std)
        out = _affine(xhat, gamma.data, beta.data, keep_xhat=_records(x, gamma, beta))

        def back(g):
            gg = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
            gb = g.sum(axis=(0, 2, 3), keepdims=True)
            gx = (gamma.data * inv_std / m) * (m * g - gb - xhat * gg)
            return gx, gg, gb

        return _make(out, "batch_norm", (x, gamma, beta), back)

    inv_std = (1.0 / np.sqrt(running_var.data + BN_EPS)).astype(x.data.dtype)
    mean = running_mean.data.astype(x.data.dtype)
    out = _affine(_normalize(x.data, mean, inv_std), gamma.data, beta.data, keep_xhat=False)

    def back_eval(g):
        xhat = _normalize(x.data, mean, inv_std)
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
    factor = (keep * scale).astype(x.data.dtype, copy=False)  # float32 stays float32
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

    # per corner: (n, K, L) pixel indices and float64 point x corner weights
    flat = x.data.reshape(n, c, h * w)
    corners = []
    for dy, dx, wgt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                        (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        yc = y0 + dy
        xc = x0 + dx
        valid = (yc >= 0) & (yc <= h - 1) & (xc >= 0) & (xc <= w - 1)
        idx = (np.clip(yc, 0, h - 1) * w + np.clip(xc, 0, w - 1)).astype(np.int64)
        corners.append((idx, valid, wgt, pw * wgt * valid))

    # per image, a channels-last (h*w, c) copy; per block of output
    # positions, each (corner, point) gathers whole pixel rows of it into one
    # reused buffer (the indices are clipped already; mode="clip" lets take
    # write to it directly, where the default mode would gather into a
    # hidden copy), scales them by a weight column and adds them into an
    # accumulator, which is transposed into the output.  Each output element
    # sums its terms corner by corner, point by point within a corner, as a
    # channel-major gather would; the two buffers fill one cache block.
    dt = x.data.dtype
    step = max(1, _BROADCAST_BLOCK_BYTES // (2 * c * dt.itemsize))
    out = np.empty((n, c, L), dtype=dt)
    acc = np.empty((min(step, L), c), dtype=dt)
    buf = np.empty_like(acc)
    casts = [weight.astype(dt)[..., None] for _, _, _, weight in corners]
    for b in range(n):
        rows = np.ascontiguousarray(flat[b].T)
        for lo in range(0, L, step):
            hi = min(lo + step, L)
            part, taken = acc[:hi - lo], buf[:hi - lo]
            part[...] = 0
            for (idx, _, _, _), cast in zip(corners, casts):
                for k in range(kk):
                    np.take(rows, idx[b, k, lo:hi], axis=0, out=taken, mode="clip")
                    taken *= cast[b, k, lo:hi]
                    part += taken
            out[b, :, lo:hi] = part.T

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
