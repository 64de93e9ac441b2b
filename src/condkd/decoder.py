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
    """One cross-attention block: M heads of width d = D/M plus aggregation."""

    def __init__(self, dim: int, heads: int, pos_width: int, group: ParamGroup,
                 rng: np.random.Generator, name: str = "dec0"):
        if dim % heads:
            raise ValueError(f"head count {heads} must divide feature width {dim}")
        self.head_dim = dim // heads
        self.f_k = [Linear(dim, self.head_dim, group, rng, f"{name}.h{j}.f_k") for j in range(heads)]
        self.f_v = [Linear(dim, self.head_dim, group, rng, f"{name}.h{j}.f_v") for j in range(heads)]
        self.f_q = [Linear(dim, self.head_dim, group, rng, f"{name}.h{j}.f_q") for j in range(heads)]
        self.f_pe = Linear(pos_width, dim, group, rng, f"{name}.f_pe")
        self.out_proj = Linear(dim, dim, group, rng, f"{name}.out")
        self.ffn = Mlp3(dim, dim, dim, group, rng, f"{name}.ffn")


@dataclass
class Knowledge:
    """Per-head attention masks [N x L] paired with per-head values [L x d]."""

    masks: list[Tensor]
    values: list[Tensor]

    @property
    def num_heads(self) -> int:
        return len(self.masks)


def compute_keys(layer: DecoderLayer, flat: FlatPyramid) -> list[Tensor]:
    """K_j = F_k_j(A + F_pe(P)): one shared positional sum, per-head keys."""
    base = T.add(flat.A, layer.f_pe(T.constant(flat.pos)))
    return [f(base) for f in layer.f_k]


def compute_values(layer: DecoderLayer, flat: FlatPyramid, detach_weights: bool = False) -> list[Tensor]:
    """V_j = F_v_j(A); positions never enter values.

    detach_weights applies the projections as constants, so gradient reaches
    only the features. Used on the student path of the distillation loss.
    """
    if detach_weights:
        return [T.linear(flat.A, T.detach(f.weight), T.detach(f.bias))
                for f in layer.f_v]
    return [f(flat.A) for f in layer.f_v]


def attention_masks(layer: DecoderLayer, keys: list[Tensor], queries: Tensor) -> list[Tensor]:
    """m_ij = softmax over all L positions of K_j q_ij / sqrt(d)."""
    scale = 1.0 / np.sqrt(layer.head_dim)
    out = []
    for f_q, k in zip(layer.f_q, keys):
        qj = f_q(queries)
        out.append(T.softmax(T.scaled_scores(qj, k, scale), axis=-1))
    return out


def decode_knowledge(layer: DecoderLayer, flat: FlatPyramid, queries: Tensor) -> Knowledge:
    return Knowledge(
        masks=attention_masks(layer, compute_keys(layer, flat), queries),
        values=compute_values(layer, flat),
    )


def aggregate(k: Knowledge, queries: Tensor, layer: DecoderLayer) -> Tensor:
    """g = norm(u + FFN(norm(u))) with u = q + OutProj(concat_j m_j V_j)."""
    per_head = [T.matmul(m, v) for m, v in zip(k.masks, k.values)]
    o = layer.out_proj(T.concat(per_head, axis=-1))
    u = T.add(queries, o)
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
        q = queries
        k: Knowledge | None = None
        for layer in self.layers:
            k = decode_knowledge(layer, flat, q)
            q = aggregate(k, q, layer)
        assert k is not None
        return q, k

    def student_values(self, flat: FlatPyramid, detach_weights: bool = True) -> list[Tensor]:
        """Student-side V_j from the final layer's (shared) value projections."""
        return compute_values(self.layers[-1], flat, detach_weights=detach_weights)
