"""Shared mini-system builder for decoder/loss/routing tests.

Small enough for finite differences: image 16x16, two classes, width 8,
two heads, L = 5 pyramid cells.
"""

from dataclasses import dataclass

import numpy as np

from condkd import tensor as T
from condkd.decoder import ConditionalDecoder
from condkd.instances import EncoderSpec, Instance, encode_set, make_instance, make_query
from condkd.losses import AuxHeads, LossBundle, aux_loss, distill_loss, total_loss
from condkd.nn import Mlp3
from condkd.pyramid import DetectorConfig, ToyDetector, det_loss, flatten_pyramid
from condkd.tensor import ParamGroup, Tensor


@dataclass
class MiniSystem:
    groups: dict
    teacher: ToyDetector
    student: ToyDetector
    decoder: ConditionalDecoder
    aux: AuxHeads
    f_q: Mlp3
    espec: EncoderSpec
    cfg: DetectorConfig


def build_system(seed=0, depth=1, heads=2, freeze_teacher=True) -> MiniSystem:
    cfg = DetectorConfig(image_size=16, num_classes=2, feat_dim=8, widths=(2, 3, 4, 4), pos_dim=4)
    s_cfg = DetectorConfig(image_size=16, num_classes=2, feat_dim=8, widths=(2, 2, 3, 3), pos_dim=4)
    groups = {name: ParamGroup(name) for name in ("teacher", "student", "decoder", "aux")}
    rng = np.random.default_rng(seed)
    teacher = ToyDetector(cfg, groups["teacher"], rng)
    student = ToyDetector(s_cfg, groups["student"], rng)
    decoder = ConditionalDecoder(cfg.feat_dim, heads, cfg.pos_dim + 2, groups["decoder"], rng, depth)
    espec = EncoderSpec(num_classes=2, pos_dim=4, scale_dim=4, max_log2=4)
    f_q = Mlp3(espec.width, cfg.feat_dim, cfg.feat_dim, groups["decoder"], rng, "f_q")
    aux = AuxHeads(cfg.feat_dim, groups["aux"], rng)
    if freeze_teacher:
        groups["teacher"].freeze()
    return MiniSystem(groups, teacher, student, decoder, aux, f_q, espec, cfg)


def pixel_instance(category, px1, py1, px2, py2, image=16, is_real=True):
    """Instance with pixel-aligned corners (exact dyadic coordinates)."""
    w, h = (px2 - px1) / image, (py2 - py1) / image
    cx, cy = (px1 + px2) / 2 / image, (py1 + py2) / 2 / image
    return make_instance(category, cx, cy, w, h, image, image, is_real)


def sample_scene(seed, image=16):
    rng = np.random.default_rng(seed)
    img = T.constant(rng.normal(size=(3, image, image)) * 0.3)
    reals = [
        pixel_instance(int(rng.integers(2)), 2, 2, 9, 10, image),
        pixel_instance(int(rng.integers(2)), 8, 6, 14, 13, image),
    ]
    return img, reals


def sample_fake_instances(rng, n, image=16):
    out = []
    for _ in range(n):
        px1, py1 = rng.integers(0, 8, 2)
        out.append(pixel_instance(int(rng.integers(2)), px1, py1,
                                  px1 + rng.integers(3, 8), py1 + rng.integers(3, 8),
                                  image, is_real=False))
    return out


def forward_bundle(sys: MiniSystem, img: Tensor, reals, cond_rng, lam=8.0,
                   detach_inputs=True, detach_fv=True, n_fakes=3) -> tuple[LossBundle, dict]:
    """One full per-scene forward pass, mirroring a training iteration."""
    conds = list(reals) + sample_fake_instances(cond_rng, n_fakes)
    cset = encode_set(conds, sys.espec, cond_rng)
    queries = make_query(cset.vectors, sys.f_q)
    t_flat = flatten_pyramid(sys.teacher.backbone_forward(img), sys.cfg.pos_dim)
    s_pyr = sys.student.backbone_forward(img)
    s_flat = flatten_pyramid(s_pyr, sys.cfg.pos_dim)
    g, knowledge = sys.decoder.decode(t_flat, queries)
    idf, loc = aux_loss(g, cset, sys.aux)
    det = det_loss(sys.student.det_head_forward(s_pyr), reals, sys.cfg)
    student_v = sys.decoder.student_values(s_flat, detach_weights=detach_fv)
    dis = distill_loss(knowledge, student_v, cset.flags, detach_inputs=detach_inputs)
    bundle = total_loss(det, idf, loc, dis, lam)
    extras = {"knowledge": knowledge, "conditions": cset, "t_flat": t_flat,
              "s_flat": s_flat, "g": g, "student_values": student_v}
    return bundle, extras
