"""Instance-conditional decoding: keys/values from flattened features,
per-instance per-head attention masks, and the aggregation that feeds the
auxiliary task.

Keys see positional information, values do not; the same value projections
serve teacher and student features so the distillation loss compares features,
not projections. All parameters live in the `decoder` group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Linear, Mlp3
from .pyramid import FlatPyramid
from .tensor import ParamGroup, Tensor


class DecoderLayer:
    """One cross-attention block: M heads of width d = D/M plus aggregation.
    Head j owns columns j*d:(j+1)*d of the key, query and value projections."""

    def __init__(self, dim: int, heads: int, pos_width: int, group: ParamGroup,
                 rng: np.random.Generator, name: str = "dec0"):
        if dim % heads:
            raise ValueError(f"head count {heads} must divide feature width {dim}")
        self.heads = heads
        self.head_dim = dim // heads
        self.f_k = Linear(dim, dim, group, rng, f"{name}.f_k")
        self.f_v = Linear(dim, dim, group, rng, f"{name}.f_v")
        self.f_q = Linear(dim, dim, group, rng, f"{name}.f_q")
        self.f_pe = Linear(pos_width, dim, group, rng, f"{name}.f_pe")
        self.out_proj = Linear(dim, dim, group, rng, f"{name}.out")
        self.ffn = Mlp3(dim, dim, dim, group, rng, f"{name}.ffn")

    def project(self, f: Linear, x: Tensor, detach_weights: bool = False) -> Tensor:
        """One of the per-head projections f_k, f_v, f_q, applied to all heads."""
        w, b = (T.detach(f.weight), T.detach(f.bias)) if detach_weights else (f.weight, f.bias)
        return T.linear(x, w, b, heads=self.heads)


@dataclass
class Knowledge:
    """Attention masks [M x N x L] paired with values [L x D], whose columns
    j*d:(j+1)*d belong to head j."""

    masks: Tensor
    values: Tensor

    @property
    def num_heads(self) -> int:
        return self.masks.shape[0]


def compute_keys(layer: DecoderLayer, flat: FlatPyramid) -> Tensor:
    """K = F_k(A + F_pe(P)); positions enter keys only."""
    return layer.project(layer.f_k, T.add(flat.A, layer.f_pe(T.constant(flat.pos))))


def compute_values(layer: DecoderLayer, flat: FlatPyramid, detach_weights: bool = False) -> Tensor:
    """V = F_v(A); positions never enter values.

    detach_weights applies the projection as constants, so gradient reaches
    only the features. Used on the student path of the distillation loss.
    """
    return layer.project(layer.f_v, flat.A, detach_weights)


def attention_masks(layer: DecoderLayer, keys: Tensor, queries: Tensor) -> Tensor:
    """m_ij = softmax over all L positions of K_j q_ij / sqrt(d)."""
    scores = T.scaled_scores(layer.project(layer.f_q, queries), keys,
                             1.0 / np.sqrt(layer.head_dim), heads=layer.heads)
    return T.softmax(scores, axis=-1)


def decode_knowledge(layer: DecoderLayer, flat: FlatPyramid, queries: Tensor) -> Knowledge:
    return Knowledge(
        masks=attention_masks(layer, compute_keys(layer, flat), queries),
        values=compute_values(layer, flat),
    )


def aggregate(k: Knowledge, queries: Tensor, layer: DecoderLayer) -> Tensor:
    """g = norm(u + FFN(norm(u))) with u = q + OutProj(concat_j m_j V_j)."""
    u = T.add(queries, layer.out_proj(T.attend(k.masks, k.values)))
    return T.layernorm_pf(T.add(u, layer.ffn(T.layernorm_pf(u))))


class ConditionalDecoder:
    """Cascade of decoder layers; the final layer's knowledge is what the
    distillation loss consumes."""

    def __init__(self, dim: int, heads: int, pos_width: int, group: ParamGroup,
                 rng: np.random.Generator, depth: int = 1):
        if depth < 1:
            raise ValueError("cascade depth must be >= 1")
        self.layers = [DecoderLayer(dim, heads, pos_width, group, rng, name=f"dec{i}")
                       for i in range(depth)]

    def decode(self, flat: FlatPyramid, queries: Tensor) -> tuple[Tensor, Knowledge]:
        for layer in self.layers:  # at least one: the constructor checks
            k = decode_knowledge(layer, flat, queries)
            queries = aggregate(k, queries, layer)
        return queries, k

    def student_values(self, flat: FlatPyramid, detach_weights: bool = True) -> Tensor:
        """Student-side V from the final layer's (shared) value projection."""
        return compute_values(self.layers[-1], flat, detach_weights=detach_weights)
