"""Toy detector, pyramid flattening, and detection loss tests."""

import numpy as np
import pytest

from condkd import tensor as T
from condkd.instances import make_instance
from condkd.nn import MomentumSGD, sine_pos_embed
from condkd.pyramid import (
    STRIDES,
    DensePredictions,
    DetectorConfig,
    FeaturePyramid,
    ToyDetector,
    assign_cells,
    det_loss,
    flatten_pyramid,
    inherit_parameters,
    layout,
)
from condkd.tensor import ParamGroup, ShapeError, Tensor, backward, finite_diff_check

TINY = DetectorConfig(image_size=16, num_classes=2, feat_dim=4, widths=(2, 3, 4, 4))
DESK = DetectorConfig()


def build(cfg, group_name="teacher", seed=0):
    g = ParamGroup(group_name)
    return ToyDetector(cfg, g, np.random.default_rng(seed)), g


def rand_image(cfg, seed=0):
    return T.constant(np.random.default_rng(seed).normal(size=(cfg.image_size, cfg.image_size, 3)))


def test_backbone_level_shapes():
    det, _ = build(DESK)
    pyr = det.backbone_forward(rand_image(DESK))
    assert [(s, f.shape) for s, f in pyr.levels] == [(8, (8, 8, 32)), (16, (4, 4, 32))]


def test_backbone_rejects_wrong_image_size():
    det, _ = build(DESK)
    with pytest.raises(ShapeError, match=r"\[64, 64, 3\]"):
        det.backbone_forward(T.constant(np.zeros((60, 60, 3))))
    with pytest.raises(ShapeError, match=r"\[64, 64, 3\]"):  # channel-first
        det.backbone_forward(T.constant(np.zeros((3, 64, 64))))
    with pytest.raises(ValueError):
        ToyDetector(DetectorConfig(image_size=60), ParamGroup("teacher"), np.random.default_rng(0))


def test_zero_weight_backbone_constant_features():
    det, g = build(TINY)
    for name, p in g.named():
        if name.startswith(("backbone.", "lateral.")):
            p.data[...] = 0.0
    pyr = det.backbone_forward(rand_image(TINY))
    for _, feat in pyr.levels:
        assert np.all(feat.data == feat.data.reshape(-1, feat.shape[-1])[0])


def test_backbone_gradcheck():
    det, g = build(TINY)
    img = rand_image(TINY, seed=1)
    rng = np.random.default_rng(2)
    weights = None

    def f():
        nonlocal weights
        pyr = det.backbone_forward(img)
        flat = flatten_pyramid(pyr, 4)
        if weights is None:
            weights = T.constant(rng.normal(size=flat.A.shape))
        return T.tsum(T.mul(flat.A, weights))

    report = finite_diff_check(f, g, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_flatten_shapes_and_roundtrip():
    det, _ = build(DESK)
    pyr = det.backbone_forward(rand_image(DESK))
    flat = flatten_pyramid(pyr, 8)
    assert flat.A.shape == (80, 32)  # 64 + 16 rows
    assert flat.pos.shape == (80, 8 + 2)
    assert flat.layout is layout(DESK.image_size)
    offset = 0
    for (_, feat), (h, w) in zip(pyr.levels, flat.layout.shapes):
        block = flat.A.data[offset:offset + h * w]
        assert np.array_equal(block.reshape(h, w, DESK.feat_dim), feat.data)
        offset += h * w
    assert offset == flat.num_rows


def test_flatten_row_order_is_level_then_row_major():
    feat8 = np.arange(2 * 2 * 3).reshape(2, 2, 3).astype(float)
    feat16 = -np.arange(1 * 1 * 3).reshape(1, 1, 3).astype(float)
    pyr = FeaturePyramid([(8, Tensor(feat8)), (16, Tensor(feat16))], 16)
    flat = flatten_pyramid(pyr, 4)
    assert np.array_equal(flat.A.data[0], feat8[0, 0])
    assert np.array_equal(flat.A.data[1], feat8[0, 1])
    assert np.array_equal(flat.A.data[2], feat8[1, 0])
    assert np.array_equal(flat.A.data[4], feat16[0, 0])
    # the layout's centres run in the same order: level-major, then row-major
    np.testing.assert_array_equal(
        flat.layout.centers, [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75], [0.5, 0.5]])
    np.testing.assert_array_equal(flat.layout.sides, [0.5, 0.5, 0.5, 0.5, 1.0])


def test_layout_is_cached_and_read_only():
    lay = layout(64)
    assert layout(64) is lay and lay.shapes == ((8, 8), (4, 4))
    np.testing.assert_array_equal(lay.sides, [0.125] * 64 + [0.25] * 16)
    np.testing.assert_array_equal(lay.centers[[0, 1, 8, 64, 79]],
                                  [[1 / 16, 1 / 16], [3 / 16, 1 / 16], [1 / 16, 3 / 16],
                                   [1 / 8, 1 / 8], [7 / 8, 7 / 8]])
    for arr in (lay.centers, lay.sides):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_positional_rows_distinct_across_levels():
    det, _ = build(DESK)
    flat = flatten_pyramid(det.backbone_forward(rand_image(DESK)), 8)
    a = flat.pos[:64]  # stride-8 rows
    b = flat.pos[64:]  # stride-16 rows
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert d2.min() > 1e-12
    # same normalized center, different level: rows differ exactly in the tag
    row = lambda u, tag: np.concatenate([sine_pos_embed(u, 2), sine_pos_embed(u, 2), tag])
    tag0, tag1 = sine_pos_embed(0.25, 2), sine_pos_embed(0.75, 2)
    delta = row(0.4, tag0) - row(0.4, tag1)
    assert np.all(delta[:4] == 0.0) and np.linalg.norm(delta[4:]) > 1e-3


def test_head_zero_weights_give_prior_outputs():
    det, g = build(TINY)
    det.head_conv.weight.data[...] = 0.0
    det.head_conv.bias.data[...] = 0.0
    det.head_out.weight.data[...] = 0.0
    det.head_out.bias.data[...] = 0.0
    preds = det.det_head_forward(det.backbone_forward(rand_image(TINY)))
    for stride, logits, ltrb in preds.levels:
        assert np.all(logits.data == 0.0)
        assert np.allclose(ltrb.data, stride / TINY.image_size)


def test_head_single_cell_prediction_shape():
    det, _ = build(TINY)
    pyr = FeaturePyramid([(16, Tensor(np.random.default_rng(3).normal(size=(1, 1, 4))))], 16)
    preds = det.det_head_forward(pyr)
    logits, ltrb = preds.flat()
    assert T.concat([logits, ltrb], axis=-1).shape == (1, TINY.num_classes + 4)


def test_head_gradcheck():
    det, g = build(TINY)
    img = rand_image(TINY, seed=4)
    rng = np.random.default_rng(5)
    w = {}

    def f():
        preds = det.det_head_forward(det.backbone_forward(img))
        logits, ltrb = preds.flat()
        if not w:
            w["lg"] = T.constant(rng.normal(size=logits.shape))
            w["lt"] = T.constant(rng.normal(size=ltrb.shape))
        return T.tsum(T.mul(logits, w["lg"])) + T.tsum(T.mul(ltrb, w["lt"]))

    report = finite_diff_check(f, det.group, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


def num_cells(cfg):
    return layout(cfg.image_size).centers.shape[0]


def manual_preds(cfg, logits, ltrb):
    levels, off = [], 0
    for s, (h, w) in zip(STRIDES, layout(cfg.image_size).shapes):
        n = h * w
        levels.append((s, Tensor(logits[off : off + n]), Tensor(ltrb[off : off + n])))
        off += n
    return DensePredictions(levels, cfg.image_size)


def test_det_loss_no_instances_is_negative_bce():
    cfg = TINY
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(num_cells(cfg), cfg.num_classes))
    ltrb = np.abs(rng.normal(size=(num_cells(cfg), 4)))
    loss = det_loss(manual_preds(cfg, logits, ltrb), [], cfg)
    expected = np.log1p(np.exp(logits)).sum()  # all-negative BCE, hand form
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_det_loss_perfect_predictions_near_zero():
    cfg = TINY
    inst = make_instance(1, 0.5, 0.5, 0.6, 0.6, cfg.image_size, cfg.image_size)
    centers = layout(cfg.image_size).centers
    assign, ltrb_tgt = assign_cells(centers, [inst])
    logits = np.full((num_cells(cfg), cfg.num_classes), -20.0)
    logits[assign >= 0, inst.category] = 20.0
    loss = det_loss(manual_preds(cfg, logits, ltrb_tgt), [inst], cfg)
    assert (assign >= 0).sum() > 0
    assert loss.item() < 1e-3


def test_det_loss_permutation_invariant():
    cfg = TINY
    rng = np.random.default_rng(7)
    insts = [
        make_instance(0, 0.3, 0.3, 0.4, 0.5, cfg.image_size, cfg.image_size),
        make_instance(1, 0.6, 0.6, 0.5, 0.4, cfg.image_size, cfg.image_size),
        make_instance(1, 0.5, 0.4, 0.3, 0.3, cfg.image_size, cfg.image_size),
    ]
    logits = rng.normal(size=(num_cells(cfg), cfg.num_classes))
    ltrb = np.abs(rng.normal(size=(num_cells(cfg), 4)))
    a = det_loss(manual_preds(cfg, logits, ltrb), insts, cfg).item()
    b = det_loss(manual_preds(cfg, logits, ltrb), insts[::-1], cfg).item()
    assert a == b


def test_det_loss_smallest_box_wins_overlap():
    big = make_instance(0, 0.5, 0.5, 0.9, 0.9, 64, 64)
    small = make_instance(1, 0.5, 0.5, 0.2, 0.2, 64, 64)
    centers = np.array([[0.5, 0.5], [0.1, 0.1]])
    assign, _ = assign_cells(centers, [big, small])
    assert assign[0] == 1  # center cell goes to the smaller box
    assert assign[1] == 0


def test_det_loss_nonnegative():
    cfg = TINY
    rng = np.random.default_rng(8)
    for _ in range(10):
        insts = [make_instance(int(rng.integers(cfg.num_classes)), *rng.uniform(0.3, 0.7, 2),
                               *rng.uniform(0.2, 0.5, 2), cfg.image_size, cfg.image_size)]
        logits = rng.normal(size=(num_cells(cfg), cfg.num_classes))
        ltrb = np.abs(rng.normal(size=(num_cells(cfg), 4)))
        assert det_loss(manual_preds(cfg, logits, ltrb), insts, cfg).item() >= 0.0


def test_det_loss_rejects_fakes():
    cfg = TINY
    fake = make_instance(0, 0.5, 0.5, 0.3, 0.3, 16, 16, is_real=False)
    logits = np.zeros((num_cells(cfg), cfg.num_classes))
    with pytest.raises(ValueError):
        det_loss(manual_preds(cfg, logits, np.ones((num_cells(cfg), 4))), [fake], cfg)


def test_inherit_identical_architectures():
    t, _ = build(TINY, "teacher", seed=10)
    s, _ = build(TINY, "student", seed=11)
    assert not np.array_equal(s.lat8.weight.data, t.lat8.weight.data)
    copied = inherit_parameters(s, t)
    assert copied == 8  # two laterals + two head convs, weight and bias each
    for attr in ("lat8", "lat16", "head_conv", "head_out"):
        assert np.array_equal(getattr(s, attr).weight.data, getattr(t, attr).weight.data)
    assert not np.array_equal(s.conv1.weight.data, t.conv1.weight.data)


def test_inherit_shape_filter_skips_mismatched_laterals():
    t, _ = build(TINY, "teacher", seed=10)
    s, _ = build(DetectorConfig(image_size=16, num_classes=2, feat_dim=4, widths=(2, 2, 3, 3)),
                 "student", seed=11)
    before = s.conv1.weight.data.copy()
    copied = inherit_parameters(s, t)
    # head (4 tensors) plus lateral biases, whose width-D shape still matches
    assert copied == 6
    assert np.array_equal(s.head_conv.weight.data, t.head_conv.weight.data)
    assert not np.array_equal(s.lat8.weight.data, t.lat8.weight.data)
    assert np.array_equal(s.lat8.bias.data, t.lat8.bias.data)
    assert np.array_equal(s.conv1.weight.data, before)


def test_inherit_nothing_matches_warns():
    t, _ = build(TINY, "teacher", seed=10)
    # different pyramid width and class count: no non-backbone shape survives
    s, _ = build(DetectorConfig(image_size=16, num_classes=3, feat_dim=6, widths=(2, 3, 4, 4)),
                 "student", seed=11)
    with pytest.warns(UserWarning):
        assert inherit_parameters(s, t) == 0


def test_inherit_lowers_initial_loss_after_teacher_training():
    # seeded run: the trained head carries class-rate and box-scale calibration
    # that transfers even onto an untrained student backbone
    cfg = DetectorConfig(image_size=32, num_classes=2, feat_dim=8, widths=(4, 6, 8, 8))
    rng = np.random.default_rng(100)
    scenes = []
    for _ in range(6):
        img = T.constant(rng.normal(size=(32, 32, 3)) * 0.1)
        insts = []
        for _ in range(rng.integers(1, 3)):
            c = int(rng.integers(2))
            cx, cy = rng.uniform(0.3, 0.7, 2)
            w, h = rng.uniform(0.25, 0.45, 2)
            insts.append(make_instance(c, cx, cy, w, h, 32, 32))
        scenes.append((img, insts))

    def total_loss(det):
        tot = None
        for img, insts in scenes:
            l = det_loss(det.det_head_forward(det.backbone_forward(img)), insts, cfg)
            tot = l if tot is None else tot + l
        return tot

    teacher, tg = build(cfg, "teacher", seed=0)
    opt = MomentumSGD(tg, lr=0.01, momentum=0.9)
    first = total_loss(teacher).item()
    for _ in range(200):
        backward(total_loss(teacher))
        opt.step()
    assert total_loss(teacher).item() < first  # teacher actually trained

    fresh, _ = build(cfg, "student", seed=50)
    inherited, _ = build(cfg, "student", seed=50)
    inherit_parameters(inherited, teacher)
    assert total_loss(inherited).item() <= total_loss(fresh).item()
