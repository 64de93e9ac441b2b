"""Parameterized building blocks: linear layers, small MLPs, fixed positional
embeddings, one-hot encoding, and the optimizer the trainers use.

Every trainable tensor is registered in exactly one ParamGroup at construction
so that gradient routing between detector, decoder, and auxiliary heads stays
auditable.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .tensor import ParamGroup, ShapeError, Tensor


def kaiming_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """Fan-in scaled uniform init, gain for ReLU: bound = sqrt(6/fan_in)."""
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class Linear:
    """Affine map x -> x W^T + b with W of shape [out x in]."""

    def __init__(self, in_dim: int, out_dim: int, group: ParamGroup, rng: np.random.Generator, name: str):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = group.add(f"{name}.w", kaiming_uniform(rng, out_dim, in_dim))
        self.bias = group.add(f"{name}.b", np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"linear expects trailing dim {self.in_dim}, got input shape {x.shape}")
        lead = x.shape[:-1]
        flat = T.reshape(x, (-1, self.in_dim)) if x.data.ndim != 2 else x
        out = T.linear(flat, self.weight, self.bias)
        if x.data.ndim != 2:
            out = T.reshape(out, lead + (self.out_dim,))
        return out


class Mlp3:
    """Linear -> ReLU -> Linear -> ReLU -> Linear."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, group: ParamGroup, rng: np.random.Generator, name: str):
        self.l1 = Linear(in_dim, hidden, group, rng, f"{name}.l1")
        self.l2 = Linear(hidden, hidden, group, rng, f"{name}.l2")
        self.l3 = Linear(hidden, out_dim, group, rng, f"{name}.l3")

    def __call__(self, x: Tensor) -> Tensor:
        """[N x in] -> [N x out] as one `mlp` graph node."""
        return T.mlp(x, [(l.weight, l.bias) for l in (self.l1, self.l2, self.l3)])


def sine_pos_embed(u, dim: int) -> np.ndarray:
    """Fixed interleaved sin/cos encoding of normalized coordinates in [0,1].

    Component pair k holds sin(u*s_k), cos(u*s_k) with s_k = 10000^(-2k/dim).
    Accepts a scalar or an array of coordinates; appends the dim axis last.
    """
    if dim % 2 != 0:
        raise ValueError(f"sine_pos_embed needs an even dim, got {dim}")
    u = np.asarray(u, dtype=np.float64)
    angles = u[..., None] * _sine_scales(dim)
    out = np.empty(u.shape + (dim,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


@functools.lru_cache(maxsize=32)
def _sine_scales(dim: int) -> np.ndarray:
    scale = 10000.0 ** (-2.0 * np.arange(dim // 2) / dim)
    scale.flags.writeable = False
    return scale


def one_hot(c: int, num_categories: int) -> np.ndarray:
    if not 0 <= c < num_categories:
        raise IndexError(f"category {c} out of range [0, {num_categories})")
    v = np.zeros(num_categories)
    v[c] = 1.0
    return v


class MomentumSGD:
    """Classic momentum: buf = mu*buf + grad; p -= lr*buf. Decoupled decay.
    Elementwise on the group's flat buffers; a frozen group does not move."""

    def __init__(self, group: ParamGroup, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.group = group
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buf = np.zeros_like(group.data)

    def step(self) -> None:
        g = self.group
        if g.grad is None:
            return
        self.buf *= self.momentum
        self.buf += g.grad
        g.data *= 1.0 - self.lr * self.weight_decay
        g.data -= self.lr * self.buf
        g.grad[...] = 0.0
