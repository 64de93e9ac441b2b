"""Self-verification entry points: exhaustive finite-difference gradient
checks (every differentiable op, then the fully composed training loss) and
the gradient-routing audit. The CLI and the acceptance suite both call these.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ExperimentConfig
from .losses import RoutingReport, total_loss, verify_gradient_routing
from .tensor import GradCheckReport, Tensor, finite_diff_check
from .train import TRAINED_GROUPS, build_system, dataset_stats, scene_losses, train_scene


def mini_config(**overrides) -> ExperimentConfig:
    """Smallest config that exercises every code path; sized so elementwise
    finite differences over all trainable parameters stay under a minute."""
    base = dict(
        image_size=16, num_classes=2, feat_dim=8, heads=2, depth=1,
        teacher_widths=(2, 3, 4, 4), student_widths=(2, 2, 3, 3), pos_dim=4,
        enc_pos_dim=4, enc_scale_dim=4, max_log2=4, fake_ratio=2,
        stats_scenes=16, eval_scenes=4, batch_size=2,
        teacher_iters=0, student_iters=0, warmup_iters=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def _param(rng, shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _kink_free(rng, shape, margin=0.1) -> Tensor:
    """Values pushed away from zero so |x| and relu stay differentiable at
    every probe point."""
    x = rng.normal(size=shape)
    return Tensor(x + np.sign(x) * margin, requires_grad=True)


def _off_unit_kinks(x: Tensor, margin=0.1) -> Tensor:
    """Entries within `margin` of +-1 moved out to that distance, so clamp to
    [-1, 1] stays differentiable at every probe point."""
    mag = np.abs(x.data)
    near = np.abs(mag - 1.0) < margin
    x.data[near] = np.sign(x.data[near]) * np.where(mag[near] < 1.0, 1.0 - margin, 1.0 + margin)
    return x


def _pieces(p: Tensor, *shapes) -> list[Tensor]:
    """Cut the flat parameter `p` into consecutive tensors of `shapes`."""
    out, lo = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(T.reshape(T.slice_last(p, lo, lo + n), shape))
        lo += n
    if lo != p.shape[0]:
        raise ValueError(f"pieces use {lo} of {p.shape[0]} entries")
    return out


def _mlp_pieces(p: Tensor, widths, rows: int):
    """(x, [(w1, b1), ...]) for T.mlp with layer widths `widths`, cut from `p`."""
    shapes = [(rows, widths[0])]
    for fan_in, fan_out in zip(widths, widths[1:]):
        shapes += [(fan_out, fan_in), (fan_out,)]
    x, *wb = _pieces(p, *shapes)
    return x, list(zip(wb[0::2], wb[1::2]))


def gradcheck_ops(seed: int = 0, tol: float = 1e-4) -> GradCheckReport:
    """One finite-difference sweep per differentiable op. Each case reduces
    the op output against a fixed random weight so every output element
    influences the scalar."""
    rng = np.random.default_rng(seed)

    def w(*shape):
        return T.constant(rng.normal(size=shape))

    w34 = w(3, 4)
    cases = [
        ("add", _param(rng, (3, 4)), lambda x: T.mul(T.add(x, w34), w34)),
        ("broadcast_add", _param(rng, (1, 4)), lambda x: T.mul(T.add(x, w34), w34)),
        ("neg", _param(rng, (3, 4)), lambda x: T.mul(T.neg(x), w34)),
        ("mul", _param(rng, (3, 4)), lambda x: T.mul(T.mul(x, w34), w34)),
        ("div", _kink_free(rng, (3, 4), 0.5), lambda x: T.mul(T.div(w34, x), w34)),
        ("absolute", _kink_free(rng, (3, 4)), lambda x: T.mul(T.absolute(x), w34)),
        ("exp", _param(rng, (3, 4)), lambda x: T.mul(T.exp(x), w34)),
        ("log", Tensor(rng.uniform(0.5, 3.0, (3, 4)), requires_grad=True),
         lambda x: T.mul(T.log(x), w34)),
        ("sqrt", Tensor(rng.uniform(0.5, 3.0, (3, 4)), requires_grad=True),
         lambda x: T.mul(T.sqrt(x), w34)),
        ("relu", _kink_free(rng, (3, 4)), lambda x: T.mul(T.relu(x), w34)),
        ("sigmoid", _param(rng, (3, 4)), lambda x: T.mul(T.sigmoid(x), w34)),
        ("softplus", _param(rng, (3, 4)), lambda x: T.mul(T.softplus(x), w34)),
        ("clamp", _off_unit_kinks(_kink_free(rng, (3, 4), 0.3)),
         lambda x: T.mul(T.clamp(x, -1.0, 1.0), w34)),
        ("tsum_axis", _param(rng, (3, 4)),
         lambda x, c=w(1, 4): T.mul(T.tsum(x, axis=0, keepdims=True), c)),
        ("tmean", _param(rng, (3, 4)), lambda x, c=w(3): T.mul(T.tmean(x, axis=-1), c)),
        ("matmul", _param(rng, (3, 4)),
         lambda x, a=w(4, 5), c=w(3, 5): T.mul(T.matmul(x, a), c)),
        ("transpose", _param(rng, (3, 4)), lambda x, c=w(4, 3): T.mul(T.transpose(x), c)),
        ("reshape", _param(rng, (3, 4)), lambda x, c=w(2, 6): T.mul(T.reshape(x, (2, 6)), c)),
        ("concat", _param(rng, (3, 4)),
         lambda x, c=w(3, 8): T.mul(T.concat([x, T.mul(x, x)], axis=1), c)),
        ("gather_rows", _param(rng, (5, 4)),
         lambda x, c=w(4, 4): T.mul(T.gather_rows(x, np.array([0, 2, 2, 4])), c)),
        ("gather_flat", _param(rng, (3, 4)),
         lambda x, c=w(5): T.mul(T.gather_flat(x, np.array([0, 5, 5, 11, 3]), (5,)), c)),
        ("slice_last", _param(rng, (3, 6)),
         lambda x, c=w(3, 4): T.mul(T.slice_last(x, 1, 5), c)),
        ("pad_hw", _param(rng, (2, 3, 4, 2)),
         lambda x, c=w(2, 5, 6, 2): T.mul(T.pad_hw(x, 1), c)),
        ("softmax", _param(rng, (3, 4)), lambda x: T.mul(T.softmax(x, axis=-1), w34)),
        ("layernorm_pf", _param(rng, (3, 4)), lambda x: T.mul(T.layernorm_pf(x), w34)),
        # fused ops: one flat parameter is cut into all their inputs, so every
        # branch of their backward is checked
        ("linear", _param(rng, (22,)),
         lambda p, c=w(3, 2): T.mul(T.linear(*_pieces(p, (3, 4), (2, 4), (2,))), c)),
        ("linear_heads", _param(rng, (32,)),
         lambda p, c=w(3, 4): T.mul(T.linear(*_pieces(p, (3, 4), (4, 4), (4,)), heads=2), c)),
        ("mlp", _param(rng, (79,)),
         lambda p, c=w(3, 2): T.mul(T.mlp(*_mlp_pieces(p, (4, 5, 5, 2), 3)), c)),
        ("conv2d", _param(rng, (89,)),
         lambda p, c=w(2, 2, 3): T.mul(
             T.conv2d(*_pieces(p, (4, 4, 2), (3, 18), (3,)), kernel=3, stride=2), c)),
        ("scaled_scores", _param(rng, (32,)),
         lambda p, c=w(2, 3, 5): T.mul(
             T.scaled_scores(*_pieces(p, (3, 4), (5, 4)), 0.5, heads=2), c)),
        ("attend", _param(rng, (48,)),
         lambda p, c=w(3, 6): T.mul(T.attend(*_pieces(p, (2, 3, 4), (4, 6))), c)),
        ("weighted_row_mse", _param(rng, (4, 6)),
         lambda x, m=rng.uniform(0.0, 1.0, (2, 3, 4)), t=rng.normal(size=(4, 6)):
         T.weighted_row_mse(m, t, x)),
    ]

    report = GradCheckReport(tol=tol)
    for name, x, op in cases:
        sub = finite_diff_check(lambda x=x, op=op: T.tsum(op(x)), {name: x}, tol=tol)
        report.entries.extend(sub.entries)
    return report


def _composed_total(cfg: ExperimentConfig, sys, stats, detach: bool):
    scene = train_scene(cfg, 0)
    rng = np.random.default_rng((cfg.seed, 20))
    det, idf, loc, dis = scene_losses(cfg, sys, scene, stats, rng,
                                      distill_active=True, distill_detach=detach)
    return total_loss(det, idf, loc, dis, cfg.lam)


def gradcheck_composed(seed: int = 0, tol: float = 1e-4) -> GradCheckReport:
    """Elementwise finite differences of the full training objective over
    every trainable parameter (teacher stays frozen).

    The stop-gradients are disabled for this check: finite differences always
    measure the true sensitivity of the scalar, so a detached path would
    disagree by design. What the detaches block is verified by the routing
    audit instead.
    """
    cfg = mini_config(seed=seed)
    sys = build_system(cfg)
    stats = dataset_stats(cfg)

    def f():
        return _composed_total(cfg, sys, stats, detach=False).total

    params = {}
    for gname in TRAINED_GROUPS:
        for pname, p in sys.groups[gname].named():
            params[f"{gname}.{pname}"] = p
    return finite_diff_check(f, params, tol=tol)


def routing_audit(seed: int = 0, mutated: bool = False) -> RoutingReport:
    """Nine-cell (loss x group) gradient audit on a fresh mini system.

    mutated=True removes the distillation stop-gradients; a correct
    implementation must then FAIL the audit (the mutation check).
    """
    cfg = mini_config(seed=seed)
    sys = build_system(cfg)
    stats = dataset_stats(cfg)
    bundle = _composed_total(cfg, sys, stats, detach=not mutated)
    return verify_gradient_routing(bundle, sys.groups)
