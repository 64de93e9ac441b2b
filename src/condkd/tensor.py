"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Data lives in float64 numpy arrays; the computation graph is built dynamically
by every operation whose inputs require gradients and is dropped once the loss
tensor goes out of scope. ``backward`` accumulates into leaf ``grad`` buffers
until they are explicitly zeroed, so optimizers own the zeroing step.

Only the operations the rest of the package needs are provided; there is no
general broadcasting beyond numpy-compatible suffix/broadcast shapes, no view
ops in the graph (a reshape may share its input's buffer, but no op writes
through one), and no graph reuse machinery. Each registered parameter's
``data`` and ``grad`` are views into its group's flat buffers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphError(RuntimeError):
    """Misuse of the computation graph (non-scalar backward, ...)."""


class NondeterminismError(RuntimeError):
    """A function re-evaluated at the same point produced a different value."""


class _Node:
    """One op in the graph: the input tensors and a vector-Jacobian closure."""

    __slots__ = ("inputs", "vjp")

    def __init__(self, inputs: tuple["Tensor", ...], vjp: Callable):
        self.inputs = inputs
        self.vjp = vjp


class Tensor:
    """Dense float64 array with optional gradient tracking.

    ``grad`` is allocated for gradient-requiring leaves; op outputs carry a
    ``node`` back-reference instead and receive their adjoints transiently
    during ``backward``. Detached tensors have neither.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("grad")
        if self.node is not None:
            flags.append("op")
        tag = f" [{','.join(flags)}]" if flags else ""
        return f"Tensor(shape={self.shape}{tag})"

    # arithmetic sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Constant leaf: never tracked, never receives gradient."""
    return Tensor(x, requires_grad=False)


def _from_op(data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    # Graphs rooted entirely in constants are pruned at construction.
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray and data.dtype == np.float64 \
        else np.asarray(data, dtype=np.float64)
    out.grad = None
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            out.node = _Node(inputs, vjp)
            return out
    out.requires_grad = False
    out.node = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _from_op(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _from_op(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _from_op(out, (a, b), vjp)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return _from_op(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _from_op(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _from_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _from_op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
    return _from_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a) -> Tensor:
    """log(1 + e^x), overflow-safe."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def vjp(g):
        return (g * _sigmoid(a.data),)

    return _from_op(out, (a,), vjp)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _from_op(out, (a,), lambda g: (g * inside,))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        buf = np.empty(a.data.shape)
        buf[...] = g
        return (buf,)

    return _from_op(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.divide(g, count, out=np.empty(a.data.shape)),)

    return _from_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and structural ops


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _from_op(out, (a, b), vjp)


def linear(x, w, b, heads: int = 1) -> Tensor:
    """x w^T + b for x [N x in], w [out x in], b [out], as one graph node.

    The arithmetic is that of add(matmul(x, transpose(w)), b), operation for
    operation, so results and gradients match the three-node form bit for bit.
    With heads > 1 the rows of w form that many equal blocks, one per
    attention head. x is then listed once per block, and its gradient comes
    back as one partial product per block, added in block order: the order in
    which backward adds the input gradients of one linear node per block. So
    results and gradients also match that per-head form bit for bit.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1] \
            or w.shape[0] % heads:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape}^T "
                         f"in {heads} heads")
    n, d = x.shape[0], w.shape[0] // heads
    wt = w.data.reshape(heads, d, -1).transpose(0, 2, 1).copy()  # w_j^T per head
    out = np.matmul(x.data, wt).transpose(1, 0, 2).reshape(n, -1) + b.data

    def vjp(g):
        g3 = g.reshape(n, heads, d).transpose(1, 0, 2)
        gx = tuple(g3[j] @ wt[j].T for j in range(heads)) if x.requires_grad \
            else (None,) * heads
        return gx + (
            (x.data.T @ g).T if w.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _from_op(out, (x,) * heads + (w, b), vjp)


def mlp(x, layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Affine layers with a ReLU between consecutive ones, as one graph node:
    for layers [(w1, b1), ..., (wn, bn)] with w [out x in], the result is
    linear(relu(... relu(linear(x, w1, b1)) ...), wn, bn) for x [N x in].

    The arithmetic is that of the chain of linear and relu nodes, operation
    for operation, so results and gradients match it bit for bit.
    """
    x = as_tensor(x)
    params = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    if not params:
        raise ShapeError("mlp needs at least one layer")
    ins, pre, wts = [x.data], [], []
    for i, (w, b) in enumerate(params):
        h = ins[-1]
        if h.ndim != 2 or w.data.ndim != 2 or h.shape[1] != w.shape[1]:
            raise ShapeError(f"mlp layer {i}: incompatible shapes {h.shape} x {w.shape}^T")
        wts.append(w.data.T.copy())
        pre.append(h @ wts[-1] + b.data)
        if i + 1 < len(params):
            ins.append(np.maximum(pre[-1], 0.0))
    # gradient must flow below layer i if x or any earlier parameter needs it
    below = [x.requires_grad]
    for w, b in params[:-1]:
        below.append(below[-1] or w.requires_grad or b.requires_grad)

    def vjp(g):
        grads = [None] * (1 + 2 * len(params))
        for i in range(len(params) - 1, -1, -1):
            w, b = params[i]
            g_in = g @ wts[i].T if below[i] else None
            grads[1 + 2 * i] = (ins[i].T @ g).T if w.requires_grad else None
            grads[2 + 2 * i] = _unbroadcast(g, b.shape) if b.requires_grad else None
            if i == 0 or g_in is None:
                grads[0] = g_in
                break
            g = g_in * (pre[i - 1] > 0.0)
        return tuple(grads)

    inputs = (x,) + tuple(t for wb in params for t in wb)
    return _from_op(pre[-1], inputs, vjp)


def scaled_scores(q, k, scale: float, heads: int = 1) -> Tensor:
    """Per-head (q_j k_j^T) * scale for q [N x D] and k [L x D], where head j
    owns columns j*d:(j+1)*d of both (d = D / heads), stacked into one
    [heads x N x L] graph node.

    The arithmetic is that of mul(matmul(q_j, transpose(k_j)), scale) per
    head, operation for operation, so results and gradients match that
    composed form bit for bit.
    """
    q, k = as_tensor(q), as_tensor(k)
    if q.data.ndim != 2 or k.data.ndim != 2 or q.shape[1] != k.shape[1] \
            or q.shape[1] % heads:
        raise ShapeError(f"scaled_scores: incompatible shapes {q.shape} x {k.shape}^T "
                         f"in {heads} heads")
    (n, width), l = q.shape, k.shape[0]
    d = width // heads
    q3 = q.data.reshape(n, heads, d).transpose(1, 0, 2)  # [heads x N x d]
    kt = k.data.reshape(l, heads, d).transpose(1, 2, 0).copy()  # [heads x d x L]
    scale = np.asarray(float(scale))
    out = np.matmul(q3, kt) * scale

    def vjp(g):
        g = g * scale
        return (
            np.matmul(g, kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n, width)
            if q.requires_grad else None,
            np.matmul(q3.transpose(0, 2, 1), g).transpose(2, 0, 1).reshape(l, width)
            if k.requires_grad else None,
        )

    return _from_op(out, (q, k), vjp)


def attend(masks, values) -> Tensor:
    """Per-head mask-weighted values m_j v_j for masks [heads x N x L] and
    values [L x D], where head j owns columns j*d:(j+1)*d of values, placed
    side by side into one [N x D] graph node.

    The arithmetic is that of concat([matmul(m_j, v_j) for each head], -1),
    operation for operation, so results and gradients match that composed
    form bit for bit.
    """
    masks, values = as_tensor(masks), as_tensor(values)
    if masks.data.ndim != 3 or values.data.ndim != 2 or masks.shape[2] != values.shape[0] \
            or values.shape[1] % masks.shape[0]:
        raise ShapeError(f"attend: incompatible shapes {masks.shape} x {values.shape}")
    heads, n, l = masks.shape
    width = values.shape[1]
    v3 = values.data.reshape(l, heads, width // heads).transpose(1, 0, 2)  # [heads x L x d]
    out = np.matmul(masks.data, v3).transpose(1, 0, 2).reshape(n, width)

    def vjp(g):
        g3 = g.reshape(n, heads, width // heads).transpose(1, 0, 2)
        return (
            np.matmul(g3, v3.transpose(0, 2, 1)) if masks.requires_grad else None,
            np.matmul(masks.data.transpose(0, 2, 1), g3).transpose(1, 0, 2).reshape(l, width)
            if values.requires_grad else None,
        )

    return _from_op(out, (masks, values), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _from_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    # no op writes into its inputs' data, so the result may share a's buffer
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _from_op(out, (a,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    bounds = [0]
    for t in ts:
        bounds.append(bounds[-1] + t.data.shape[axis])

    def vjp(g):
        index = [slice(None)] * g.ndim
        pieces = []
        for t, lo, hi in zip(ts, bounds, bounds[1:]):
            index[axis] = slice(lo, hi)
            pieces.append(g[tuple(index)] if t.requires_grad else None)
        return tuple(pieces)

    return _from_op(out, tuple(ts), vjp)


def gather_rows(a, idx) -> Tensor:
    """Select rows along axis 0; duplicate indices accumulate gradient."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return _from_op(out.copy(), (a,), vjp)


def gather_flat(a, idx: np.ndarray, out_shape: tuple[int, ...]) -> Tensor:
    """Gather arbitrary elements from the flattened tensor into ``out_shape``."""
    a = as_tensor(a)
    flat_idx = idx.ravel()
    out = a.data.ravel()[flat_idx].reshape(out_shape)

    def vjp(g):
        buf = np.bincount(flat_idx, weights=g.ravel(), minlength=a.data.size)
        return (buf.reshape(a.shape),)

    return _from_op(out, (a,), vjp)


def slice_last(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    out = a.data[..., start:stop].copy()

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[..., start:stop] = g
        return (buf,)

    return _from_op(out, (a,), vjp)


def pad_hw(a, pad: int) -> Tensor:
    """Zero-pad the H and W axes of a [..., H, W, C] tensor by pad >= 1."""
    if pad < 1:
        raise ValueError(f"pad_hw needs pad >= 1, got {pad}")
    a = as_tensor(a)
    width = [(0, 0)] * a.data.ndim
    width[-3] = (pad, pad)
    width[-2] = (pad, pad)
    out = np.pad(a.data, width)

    def vjp(g):
        sl = [slice(None)] * a.data.ndim
        sl[-3] = slice(pad, -pad)
        sl[-2] = slice(pad, -pad)
        return (g[tuple(sl)],)

    return _from_op(out, (a,), vjp)


@functools.lru_cache(maxsize=64)
def _patch_index(h: int, w: int, c: int, kernel: int, stride: int) -> np.ndarray:
    """Flat index into the padded [H+2p, W+2p, C] array of every element of
    _im2col's output, row-major; cached per geometry, so read-only."""
    pad = (kernel - 1) // 2
    wp = w + 2 * pad
    oy = np.arange(h // stride)[:, None, None, None, None] * stride
    ox = np.arange(w // stride)[None, :, None, None, None] * stride
    ky = np.arange(kernel)[None, None, :, None, None]
    kx = np.arange(kernel)[None, None, None, :, None]
    idx = (((oy + ky) * wp + ox + kx) * c + np.arange(c)).ravel()
    idx.flags.writeable = False
    return idx


def _im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """im2col for an odd ``kernel``: zero-pad the H and W axes of an
    [H, W, C] array by kernel // 2 and lay every kernel x kernel window at
    ``stride`` out as one row, giving [Ho*Wo x kernel*kernel*C] with
    Ho = H // stride. Values equal pad_hw followed by gather_flat; the copy
    goes through a strided view instead of an index gather."""
    h, w, c = x.shape
    pad = (kernel - 1) // 2
    ho, wo = h // stride, w // stride
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c))
    padded[pad:pad + h, pad:pad + w] = x
    sh, sw, sc = padded.strides
    # the last window ends at row (ho - 1) * stride + kernel - 1 <= h + 2 * pad - 1
    windows = np.ndarray((ho, wo, kernel, kernel, c), padded.dtype, padded, 0,
                         (sh * stride, sw * stride, sh, sw, sc))
    return windows.reshape(ho * wo, kernel * kernel * c)


def _col2im(g: np.ndarray, shape: tuple[int, ...], kernel: int, stride: int) -> np.ndarray:
    """Adjoint of _im2col: sum every row element back onto the input element
    it was copied from, in row-major order of the rows, via one bincount over
    a cached index."""
    h, w, c = shape
    pad = (kernel - 1) // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    idx = _patch_index(h, w, c, kernel, stride)
    buf = np.bincount(idx, weights=g.ravel(), minlength=hp * wp * c).reshape(hp, wp, c)
    return buf[pad:pad + h, pad:pad + w]


def conv2d(x, w, b, kernel: int, stride: int) -> Tensor:
    """Convolution of one [H, W, C] map with w [out x kernel*kernel*C] and
    b [out], giving [H // stride, W // stride, out], as one graph node.

    The arithmetic is that of reshape(linear(gather_flat(pad_hw(x, ...), ...),
    w, b), ...) with the im2col index of _patch_index, operation for
    operation, so results and gradients match that composed form bit for bit.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 3 or kernel % 2 != 1:
        raise ShapeError(f"conv2d needs [H, W, C] and an odd kernel, "
                         f"got shape {x.shape} and kernel {kernel}")
    h, wd, c = x.data.shape
    if w.data.ndim != 2 or w.shape[1] != kernel * kernel * c:
        raise ShapeError(f"conv2d: weight {w.shape} does not fit kernel {kernel} on {c} channels")
    cols = _im2col(x.data, kernel, stride)
    wt = w.data.T.copy()
    out = cols @ wt + b.data

    def vjp(g):
        g = g.reshape(out.shape)
        return (
            _col2im(g @ wt.T, x.data.shape, kernel, stride) if x.requires_grad else None,
            (cols.T @ g).T if w.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _from_op(out.reshape(h // stride, wd // stride, w.shape[0]), (x, w, b), vjp)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for stability."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _from_op(out, (x,), vjp)


def _layernorm_rows(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """layernorm_pf's forward on an array: (out, centered rows c, row scale s)."""
    mu = x.mean(axis=-1, keepdims=True)
    c = x + -mu
    s = np.sqrt((c * c).mean(axis=-1, keepdims=True) + eps)
    return c / s, c, s


def _layernorm_rows_vjp(g: np.ndarray, c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """layernorm_pf's two contributions to the input gradient, in the order
    the composed form adds them."""
    count = c.shape[-1]
    g_c = g / s
    g_s = _unbroadcast(-g * c / (s * s), s.shape)
    # per-row factors; broadcasting them repeats the composed form's
    # elementwise arithmetic exactly
    g_sq = g_s * 0.5 / s / count
    # one term per factor of c * c, added in turn as the composed graph does
    g_c = g_c + g_sq * c
    g_c = g_c + g_sq * c
    g_mu = -_unbroadcast(g_c, s.shape)
    return g_c, np.divide(g_mu, count, out=np.empty(c.shape))


def layernorm_pf(x, eps: float = 1e-5) -> Tensor:
    """Parameter-free row standardization: zero mean, unit population variance.

    Works on the last axis. Constant rows map to zero rows (eps keeps it
    finite). One graph node whose forward and backward repeat, operation for
    operation and in the same order, the arithmetic of the composition
    c = x - tmean(x); c / sqrt(tmean(c * c) + eps), so results match that
    eight-node form bit for bit. x is listed twice as an input because the
    composed form adds its two contributions to x's gradient one at a time.
    """
    x = as_tensor(x)
    if x.data.shape[-1] < 1:
        raise ShapeError("layernorm_pf needs a non-empty last axis")
    out, c, s = _layernorm_rows(x.data, eps)
    return _from_op(out, (x, x), lambda g: _layernorm_rows_vjp(g, c, s))


def weighted_row_mse(weights: np.ndarray, target: np.ndarray, x, eps: float = 1e-5) -> Tensor:
    """sum_j sum_ik weights[j, i, k] * mean_c (layernorm_pf(x_j)[k, c] - target_j[k, c])^2
    for x [L x D], a constant target [L x D] and constant weights
    [heads x N x L], where head j owns columns j*d:(j+1)*d of x and target,
    as one graph node with gradient to x only.

    The arithmetic is that of the per-head composition
    tsum(weights[j] * reshape(tmean((layernorm_pf(x_j) - target_j)^2, -1), (1, L)))
    with the square written mul(d, d), the head terms added in head order,
    operation for operation, so results and gradients match that form bit
    for bit when each x_j has no other consumer.
    """
    x = as_tensor(x)
    weights, target = np.asarray(weights, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if x.data.ndim != 2 or target.shape != x.shape or weights.ndim != 3 \
            or weights.shape[2] != x.shape[0] or x.shape[1] % weights.shape[0]:
        raise ShapeError(f"weighted_row_mse: weights {weights.shape}, target {target.shape}, "
                         f"x {x.shape}")
    heads = weights.shape[0]
    (l, width), d = x.shape, x.shape[1] // heads
    ns, c, s = _layernorm_rows(x.data.reshape(l, heads, d), eps)  # [L x heads x d]
    diff = ns + -target.reshape(l, heads, d)
    rows = (diff * diff).mean(axis=-1).T[:, None, :]  # [heads x 1 x L]
    out = functools.reduce(np.add, [(w * r).sum() for w, r in zip(weights, rows)])

    def vjp(g):
        g_prod = np.empty(weights.shape)
        g_prod[...] = g
        g_rows = (g_prod * weights).sum(axis=1).T[:, :, None]  # [L x heads x 1]
        g_sq = np.divide(g_rows, d, out=np.empty(diff.shape))
        g_d = g_sq * diff
        g_d = g_d + g_sq * diff
        first, second = _layernorm_rows_vjp(g_d, c, s)
        return ((first + second).reshape(l, width),)

    return _from_op(out, (x,), vjp)


def detach(x) -> Tensor:
    """Value copy with no graph node; backward never traverses past it."""
    x = as_tensor(x)
    return Tensor(x.data.copy())


# ---------------------------------------------------------------------------
# reverse-mode differentiation


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    pop, push, visit = stack.pop, stack.append, seen.add
    while stack:
        t, expanded = pop()
        if expanded:
            order.append(t)
            continue
        key = id(t)
        if key in seen or t.node is None:
            continue
        visit(key)
        push((t, True))
        for inp in t.node.inputs:
            if inp.node is not None and id(inp) not in seen:
                push((inp, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable gradient-requiring leaf.

    Repeated calls keep accumulating; unreachable leaves are untouched.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            loss.grad += 1.0
        return
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    pop = adjoint.pop
    for t in reversed(_topo_order(loss)):
        g = pop(id(t), None)
        if g is None:
            continue
        node = t.node
        for inp, gi in zip(node.inputs, node.vjp(g)):
            if gi is None or not inp.requires_grad:
                continue
            if type(gi) is not np.ndarray or gi.dtype != np.float64:
                gi = np.asarray(gi, dtype=np.float64)
            if inp.node is None:
                inp.grad += gi
                continue
            key = id(inp)
            prev = adjoint.get(key)
            adjoint[key] = gi if prev is None else prev + gi


# ---------------------------------------------------------------------------
# parameter bookkeeping


GROUP_NAMES = ("teacher", "student", "decoder", "aux")
_FIRST_ROOM = 4096  # values a group's first buffers hold; a mini system's groups never grow


class ParamGroup:
    """Named, ordered collection of trainable tensors over flat storage.

    Every trainable tensor in a training context belongs to exactly one group,
    whose ``data`` and ``grad`` buffers hold all their values and gradients in
    registration order; each tensor's ``.data`` and ``.grad`` are views into
    them, which only ``bind`` moves. The teacher group is frozen for
    distillation: its tensors stop requiring gradients, and it holds no
    gradient storage.
    """

    def __init__(self, name: str):
        if name not in GROUP_NAMES:
            raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
        self.name = name
        self.params: dict[str, Tensor] = {}
        self.data = np.empty(0)
        self.grad: np.ndarray | None = np.empty(0)  # None once frozen
        self._room = (self.data, self.grad)  # the arrays data and grad are prefixes of

    def add(self, name: str, init) -> Tensor:
        """Register a new tensor holding a copy of `init`; it requires
        gradients unless the group is frozen."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r} in group {self.name!r}")
        init = np.asarray(init, dtype=np.float64)
        lo, hi = self.data.size, self.data.size + init.size
        if hi > self._room[0].size:  # doubling keeps registration linear in the group size
            size = max(hi, 2 * self._room[0].size, _FIRST_ROOM)
            self.bind(np.empty(size), None if self.grad is None else np.zeros(size))
        room, grad_room = self._room
        self.data = room[:hi]
        t = Tensor(room[lo:hi].reshape(init.shape))
        t.data[...] = init
        if grad_room is not None:  # past the used prefix, the room was never written: zeros
            self.grad = grad_room[:hi]
            t.requires_grad, t.grad = True, grad_room[lo:hi].reshape(init.shape)
        self.params[name] = t
        return t

    def bind(self, data: np.ndarray, grad: np.ndarray | None = None) -> None:
        """Move the group's values to the front of the flat array `data`,
        and its gradients to the front of `grad` if given; every tensor's
        views follow, and the rest of the arrays is room for later adds."""
        n = self.data.size
        data[:n] = self.data
        self.data = data[:n]
        if grad is not None:
            grad[:n] = self.grad
            self.grad = grad[:n]
        self._room = (data, self._room[1] if grad is None else grad)
        lo = 0
        for t in self.params.values():
            hi = lo + t.data.size
            t.data = data[lo:hi].reshape(t.data.shape)
            if grad is not None:
                t.grad = grad[lo:hi].reshape(t.data.shape)
            lo = hi

    def trim(self) -> None:
        """Move values and gradients to private arrays of exactly their size."""
        self.bind(np.empty(self.data.size), None if self.grad is None else np.empty(self.data.size))

    def named(self) -> Iterable[tuple[str, Tensor]]:
        return self.params.items()

    def tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def freeze(self) -> None:
        """Drop the gradient storage; tensors added later are frozen too."""
        self.grad = None
        self._room = (self._room[0], None)
        for t in self.params.values():
            t.requires_grad, t.grad = False, None

    def max_abs_grad(self) -> float:
        """Largest |gradient| over the group; NaN if any gradient is NaN."""
        if self.grad is None or not self.grad.size:
            return 0.0
        return float(np.abs(self.grad).max())

    def __repr__(self) -> str:
        return f"ParamGroup({self.name!r}, {len(self.params)} params)"


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckEntry:
    param: str
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def __str__(self) -> str:
        lines = [f"gradient check vs central differences (tol {self.tol:g})"]
        for e in self.entries:
            lines.append(f"  {'ok  ' if e.passed else 'FAIL'} {e.param:<40s} max_rel_err={e.max_rel_err:.3e}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'} (worst {self.worst:.3e})")
        return "\n".join(lines)


# Below this magnitude the comparison is absolute: central differences carry
# ~|f|*1e-16/step of roundoff noise, meaningless as a relative target.
_REL_FLOOR = 1e-4


def finite_diff_check(
    f: Callable[[], Tensor],
    params: ParamGroup | dict[str, Tensor],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare autodiff gradients of ``f()`` against central finite differences.

    ``f`` must be deterministic for fixed parameters; it is probed twice and
    the check aborts with ``NondeterminismError`` on any discrepancy.
    """
    named = list(params.named()) if isinstance(params, ParamGroup) else list(params.items())
    base = float(f().data.reshape(()))
    again = float(f().data.reshape(()))
    if base != again:
        raise NondeterminismError(
            f"f() is not deterministic: {base!r} != {again!r}; freeze RNG state before checking"
        )

    for _, t in named:
        t.zero_grad()
    backward(f())
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data)) for name, t in named}

    report = GradCheckReport(tol=tol)
    for name, t in named:
        flat = t.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f().data.reshape(()))
            flat[i] = orig - step
            fm = float(f().data.reshape(()))
            flat[i] = orig
            fd[i] = (fp - fm) / (2.0 * step)
        ad = grads[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), _REL_FLOOR)
        err = float(np.max(np.abs(ad - fd) / denom)) if flat.size else 0.0
        report.entries.append(GradCheckEntry(name, err, err < tol))
    return report
