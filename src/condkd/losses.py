"""Auxiliary and distillation losses plus the gradient-routing audit.

Routing contract: the auxiliary loss trains only the decoder and the auxiliary
heads; the distillation loss trains only the student (its masks and teacher
values are detached, and the shared value projections are applied with frozen
weights on the student side); the detection loss trains only the student.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decoder import Knowledge
from .instances import ConditionSet
from .nn import Linear, Mlp3
from .tensor import ParamGroup, Tensor


class AuxHeads:
    """Shared 3-layer trunk with sigmoid identification and box predictors."""

    def __init__(self, dim: int, group: ParamGroup, rng: np.random.Generator):
        self.trunk = Mlp3(dim, dim, dim, group, rng, "aux.trunk")
        self.f_obj = Linear(dim, 1, group, rng, "aux.f_obj")
        self.f_reg = Linear(dim, 4, group, rng, "aux.f_reg")

    def __call__(self, g: Tensor) -> tuple[Tensor, Tensor]:
        z = self.trunk(g)
        n = g.shape[0]
        obj = T.reshape(T.sigmoid(self.f_obj(z)), (n,))
        reg = T.sigmoid(self.f_reg(z))
        return obj, reg


def identification_loss(preds: Tensor, flags: np.ndarray) -> Tensor:
    """Mean BCE over ALL instances, real and fake; preds are probabilities."""
    p = T.clamp(preds, 1e-7, 1.0 - 1e-7)
    d = T.constant(flags)
    ll = T.add(T.mul(d, T.log(p)), T.mul(T.constant(1.0 - flags), T.log(T.constant(1.0) - p)))
    return T.neg(T.tmean(ll))


def localization_loss(preds: Tensor, targets: np.ndarray, flags: np.ndarray,
                      sizes: np.ndarray) -> Tensor:
    """Side-wise L1 scaled by 1/w (left/right) and 1/h (top/bottom), averaged
    over real instances only; fakes never contribute."""
    real = np.flatnonzero(flags > 0)
    if real.size == 0:
        warnings.warn("localization_loss: no real instances, returning 0")
        return T.constant(0.0)
    scale = 1.0 / sizes[real][:, [0, 1, 0, 1]]  # [w, h, w, h] per row
    diff = T.gather_rows(preds, real) - T.constant(targets[real])
    return T.tsum(T.mul(T.absolute(diff), T.constant(scale))) * (1.0 / real.size)


def aux_loss(g: Tensor, conditions: ConditionSet, heads: AuxHeads,
             use_idf: bool = True, use_loc: bool = True) -> tuple[Tensor, Tensor]:
    """Identification BCE plus localization L1 on the aggregated features.

    The sub-task flags reproduce the auxiliary-task ablation: either term can
    be switched off, leaving a zero constant in its place.
    """
    if g.shape[0] != len(conditions):
        raise ValueError(f"{g.shape[0]} aggregated rows vs {len(conditions)} conditions")
    obj, reg = heads(g)
    flags = conditions.flags
    idf = identification_loss(obj, flags) if use_idf else T.constant(0.0)
    if use_loc:
        # [l, t, r, b] from each (jittered) center to its box sides
        sizes = np.array([[inst.w, inst.h] for inst in conditions.instances])
        xy = np.array([[inst.x, inst.y] for inst in conditions.instances])
        near = xy - sizes / 2
        far = xy + sizes / 2
        targets = np.concatenate([conditions.centers - near, far - conditions.centers], axis=1)
        loc = localization_loss(reg, targets, flags, sizes)
    else:
        loc = T.constant(0.0)
    return idf, loc


def distill_loss(teacher_k: Knowledge, student_values: Tensor, flags: np.ndarray,
                 detach_inputs: bool = True) -> Tensor:
    """Attention-weighted feature matching, Σ_j Σ_i δ_i <m_ij, mse_j> / (M N_r).

    mse_j is the per-position mean over head j's channels of the squared
    difference of parameter-free-normalized value rows. Masks and teacher
    values are detached (detach_inputs=False exists only for the routing
    mutation test).
    """
    v_t, v_s, m_heads = teacher_k.values, student_values, teacher_k.num_heads
    if v_t.shape != v_s.shape:
        raise ValueError(f"teacher values {v_t.shape} vs student values {v_s.shape}")
    if v_t.shape[1] % m_heads:
        raise ValueError(f"{m_heads} heads do not divide value width {v_t.shape[1]}")
    real = np.flatnonzero(flags > 0)
    if real.size == 0:
        warnings.warn("distill_loss: no real instances, returning 0")
        return T.constant(0.0)
    l = v_t.shape[0]
    per_head = (l, m_heads, v_t.shape[1] // m_heads)
    if detach_inputs:
        # masks and teacher values enter as constants: one fused node
        nt = T.layernorm_pf(T.reshape(T.detach(v_t), per_head))
        total = T.weighted_row_mse(teacher_k.masks.data[:, real],
                                   nt.data.reshape(v_t.shape), v_s)
    else:
        d = T.layernorm_pf(T.reshape(v_s, per_head)) - T.layernorm_pf(T.reshape(v_t, per_head))
        row_mse = T.reshape(T.transpose(T.tmean(T.mul(d, d), axis=-1)), (m_heads, 1, l))
        is_real = T.constant((flags > 0).astype(float).reshape(1, -1, 1))
        total = T.tsum(T.mul(T.mul(teacher_k.masks, is_real), row_mse))
    return total * (1.0 / (m_heads * real.size))


@dataclass
class LossBundle:
    det: Tensor
    aux_idf: Tensor
    aux_reg: Tensor
    distill: Tensor
    total: Tensor


def total_loss(det: Tensor, aux_idf: Tensor, aux_reg: Tensor, distill: Tensor, lam: float) -> LossBundle:
    """L_total = L_det + L_aux + lambda * L_distill."""
    total = T.add(T.add(det, T.add(aux_idf, aux_reg)), distill * lam)
    return LossBundle(det, aux_idf, aux_reg, distill, total)


# which (loss, group) cells of the routing matrix must stay exactly zero
_ZERO_CELLS = {
    ("det", "decoder"), ("det", "aux"),
    ("aux", "student"),
    ("distill", "decoder"), ("distill", "aux"),
}


@dataclass
class RoutingReport:
    cells: dict[tuple[str, str], float]
    violations: list[tuple[str, str, str, float]]  # loss, group, param, grad norm
    teacher_frozen: bool

    @property
    def passed(self) -> bool:
        return self.teacher_frozen and not self.violations

    def __str__(self) -> str:
        lines = ["gradient routing audit (max |grad| per loss x group)"]
        losses = sorted({l for l, _ in self.cells})
        groups = sorted({g for _, g in self.cells})
        for l in losses:
            row = "  ".join(f"{g}={self.cells[(l, g)]:.3e}{'*' if (l, g) in _ZERO_CELLS else ''}"
                            for g in groups)
            lines.append(f"  {l:<8s} {row}")
        lines.append("  (* must be exactly zero)")
        for l, g, p, n in self.violations:
            lines.append(f"  LEAK {l} -> {g}.{p}: |grad|={n:.3e}")
        if not self.teacher_frozen:
            lines.append("  teacher group not frozen")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_gradient_routing(bundle: LossBundle, groups: dict[str, ParamGroup]) -> RoutingReport:
    """Backward each loss component separately and audit the 3x3 grid of
    (loss, trainable group) gradient magnitudes; teacher must carry no
    gradient state at all."""
    audited = {name: groups[name] for name in ("student", "decoder", "aux")}
    losses = [
        ("det", bundle.det),
        ("aux", T.add(bundle.aux_idf, bundle.aux_reg)),
        ("distill", bundle.distill),
    ]
    cells: dict[tuple[str, str], float] = {}
    violations: list[tuple[str, str, str, float]] = []
    for lname, loss in losses:
        for g in audited.values():
            g.zero_grad()
        T.backward(loss)
        for gname, g in audited.items():
            cells[(lname, gname)] = g.max_abs_grad()
            if (lname, gname) in _ZERO_CELLS and g.grad.any():
                # one scan per group; the tensors are walked only to name the leak
                violations += [(lname, gname, pname, float(np.abs(p.grad).max()))
                               for pname, p in g.named() if p.grad.any()]
    for g in audited.values():
        g.zero_grad()
    teacher = groups.get("teacher")
    teacher_frozen = teacher is None or (
        teacher.grad is None and not any(p.requires_grad for p in teacher.tensors()))
    return RoutingReport(cells, violations, teacher_frozen)
