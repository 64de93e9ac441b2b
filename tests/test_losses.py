"""Auxiliary losses, attention-weighted distillation, and gradient routing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from condkd import tensor as T
from condkd.decoder import Knowledge, compute_values
from condkd.instances import ConditionSet, EncoderSpec, condition_center, make_instance
from condkd.losses import (
    AuxHeads,
    aux_loss,
    distill_loss,
    identification_loss,
    localization_loss,
    total_loss,
    verify_gradient_routing,
)
from condkd.pyramid import flatten_pyramid
from condkd.tensor import ParamGroup, finite_diff_check
from condkd.train import dataset_stats, scene_losses, train_scene

from helpers import mini_system, pixel_instance, regression_targets


class TestRegressionTargets:
    def test_centered_box_gives_symmetric_distances(self):
        inst = make_instance(0, 0.4, 0.4, 0.4, 0.4, 64, 64)
        np.testing.assert_allclose(regression_targets(inst, (0.4, 0.4)),
                                   [0.2, 0.2, 0.2, 0.2], rtol=0, atol=1e-15)

    def test_offset_center_shifts_the_sides(self):
        inst = make_instance(0, 0.4, 0.4, 0.4, 0.4, 64, 64)
        np.testing.assert_allclose(regression_targets(inst, (0.3, 0.4)),
                                   [0.1, 0.2, 0.3, 0.2], rtol=0, atol=1e-15)

    def test_opposite_sides_sum_to_box_size_exactly(self):
        # with pixel-aligned corners the float identities l+r == w and
        # t+b == h hold bit-exactly for any jittered interior center
        spec = EncoderSpec(num_classes=3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x1, y1 = rng.integers(0, 56, 2)
            w_px = int(rng.integers(2, 64 - x1))
            h_px = int(rng.integers(2, 64 - y1))
            inst = pixel_instance(0, int(x1), int(y1), int(x1) + w_px, int(y1) + h_px, image=64)
            center = condition_center(inst, spec, rng)
            l, t, r, b = regression_targets(inst, center)
            assert l + r == inst.w
            assert t + b == inst.h


class TestIdentificationLoss:
    def test_coin_flip_prediction_costs_log_two(self):
        preds = T.constant(np.full(6, 0.5))
        flags = np.array([1.0, 0, 1, 0, 1, 0])
        assert abs(identification_loss(preds, flags).item() - math.log(2.0)) < 1e-12

    def test_two_instance_hand_value(self):
        preds = T.constant(np.array([0.8, 0.3]))
        flags = np.array([1.0, 0.0])
        want = -0.5 * (math.log(0.8) + math.log(0.7))
        assert abs(identification_loss(preds, flags).item() - want) < 1e-12

    def test_confident_correct_predictions_cost_the_clamp_floor(self):
        preds = T.constant(np.array([1.0, 0.0]))
        flags = np.array([1.0, 0.0])
        assert identification_loss(preds, flags).item() == pytest.approx(1e-7, rel=1e-6)


class TestLocalizationLoss:
    def test_perfect_predictions_cost_zero(self):
        targets = np.array([[0.1, 0.2, 0.3, 0.2]])
        loss = localization_loss(T.constant(targets.copy()), targets,
                                 np.array([1.0]), np.array([[0.4, 0.4]]))
        assert loss.item() == 0.0

    def test_uniform_offset_hand_value(self):
        # each side off by 0.04 on a 0.4-sized box: 4 * 0.04/0.4 = 0.4
        targets = np.array([[0.2, 0.2, 0.2, 0.2]])
        preds = T.constant(targets + 0.04)
        loss = localization_loss(preds, targets, np.array([1.0]), np.array([[0.4, 0.4]]))
        assert abs(loss.item() - 0.4) < 1e-12

    def test_fake_rows_never_contribute(self):
        targets = np.array([[0.2, 0.2, 0.2, 0.2], [0.1, 0.1, 0.1, 0.1]])
        sizes = np.array([[0.4, 0.4], [0.2, 0.2]])
        flags = np.array([1.0, 0.0])
        base = localization_loss(T.constant(targets + 0.04), targets, flags, sizes)
        wrecked = targets + 0.04
        wrecked[1] = [9.0, -9.0, 9.0, -9.0]
        after = localization_loss(T.constant(wrecked), targets, flags, sizes)
        assert base.item() == after.item()

    def test_no_real_instances_warns_and_returns_zero(self):
        targets = np.zeros((2, 4))
        with pytest.warns(UserWarning, match="no real instances"):
            loss = localization_loss(T.constant(targets), targets,
                                     np.zeros(2), np.ones((2, 2)))
        assert loss.item() == 0.0


class TestAuxLoss:
    def test_zeroed_heads_give_hand_computable_losses(self):
        _, sys = mini_system(20)
        for lin in (sys.aux.trunk.l1, sys.aux.trunk.l2, sys.aux.trunk.l3,
                    sys.aux.f_obj, sys.aux.f_reg):
            lin.weight.data[...] = 0.0
            lin.bias.data[...] = 0.0
        inst = make_instance(0, 0.5, 0.5, 0.5, 0.5, 16, 16)
        cset = ConditionSet(instances=[inst],
                            vectors=np.zeros((1, sys.espec.width)),
                            centers=np.array([[0.5, 0.5]]))
        g = T.constant(np.zeros((1, 8)))
        idf, loc = aux_loss(g, cset, sys.aux)
        assert abs(idf.item() - math.log(2.0)) < 1e-12  # sigmoid(0) on a real
        assert abs(loc.item() - 2.0) < 1e-12  # 4 sides, |0.5-0.25| / 0.5 each

    def test_subtask_toggles_replace_terms_with_zero(self):
        _, sys = mini_system(21)
        inst = make_instance(1, 0.5, 0.5, 0.5, 0.5, 16, 16)
        cset = ConditionSet(instances=[inst], vectors=np.zeros((1, sys.espec.width)),
                            centers=np.array([[0.5, 0.5]]))
        g = T.constant(np.random.default_rng(0).normal(size=(1, 8)))
        idf, loc = aux_loss(g, cset, sys.aux, use_idf=False, use_loc=True)
        assert idf.item() == 0.0 and loc.item() != 0.0
        idf, loc = aux_loss(g, cset, sys.aux, use_idf=True, use_loc=False)
        assert idf.item() != 0.0 and loc.item() == 0.0

    def test_row_count_mismatch_is_rejected(self):
        _, sys = mini_system(22)
        inst = make_instance(1, 0.5, 0.5, 0.5, 0.5, 16, 16)
        cset = ConditionSet(instances=[inst], vectors=np.zeros((1, sys.espec.width)),
                            centers=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="conditions"):
            aux_loss(T.constant(np.zeros((3, 8))), cset, sys.aux)


def heads_side_by_side(values):
    """Per-head [L x d] value arrays as one [L x M*d] constant."""
    return T.constant(np.concatenate(values, axis=-1))


def hand_knowledge(masks, values):
    return Knowledge(masks=T.constant(np.stack(masks)), values=heads_side_by_side(values))


class TestDistillLoss:
    def test_equal_features_cost_exactly_zero(self):
        cfg, sys = mini_system(23)
        flat = flatten_pyramid(sys.teacher.backbone_forward(train_scene(cfg, 3).image),
                               cfg.pos_dim)
        layer = sys.decoder.layers[-1]
        k = Knowledge(masks=T.constant(np.full((2, 2, 5), 0.2)),
                      values=compute_values(layer, flat))
        sv = sys.decoder.student_values(flat)  # same features, same projections
        loss = distill_loss(k, sv, np.array([1.0, 1.0]))
        assert loss.item() == 0.0

    def test_uniform_masks_reduce_to_mean_over_positions(self):
        rng = np.random.default_rng(1)
        v_t = [rng.normal(size=(5, 4)) for _ in range(2)]
        v_s = [rng.normal(size=(5, 4)) for _ in range(2)]
        masks = [np.full((3, 5), 0.2)] * 2
        k = hand_knowledge(masks, v_t)
        loss = distill_loss(k, heads_side_by_side(v_s), np.array([1.0, 1.0, 0.0]))

        def norm(x):
            mu = x.mean(axis=-1, keepdims=True)
            return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)

        want = np.mean([((norm(s) - norm(t)) ** 2).mean(axis=-1).mean()
                        for s, t in zip(v_s, v_t)])
        assert abs(loss.item() - want) < 1e-10

    def test_fake_mask_rows_are_ignored(self):
        rng = np.random.default_rng(2)
        v_t = [rng.normal(size=(5, 4))]
        v_s = heads_side_by_side([rng.normal(size=(5, 4))])
        masks = rng.dirichlet(np.ones(5), size=3)
        flags = np.array([1.0, 0.0, 1.0])
        base = distill_loss(hand_knowledge([masks], v_t), v_s, flags)
        wrecked = masks.copy()
        wrecked[1] = [1.0, 0.0, 0.0, 0.0, 0.0]
        after = distill_loss(hand_knowledge([wrecked], v_t), v_s, flags)
        assert base.item() == after.item()

    def test_instance_and_head_order_invariance(self):
        rng = np.random.default_rng(3)
        v_t = [rng.normal(size=(5, 4)) for _ in range(2)]
        v_s = [rng.normal(size=(5, 4)) for _ in range(2)]
        masks = [rng.dirichlet(np.ones(5), size=4) for _ in range(2)]
        flags = np.array([1.0, 0.0, 1.0, 1.0])
        base = distill_loss(hand_knowledge(masks, v_t),
                            heads_side_by_side(v_s), flags).item()
        perm = np.array([2, 0, 3, 1])
        shuffled = distill_loss(hand_knowledge([m[perm] for m in masks], v_t),
                                heads_side_by_side(v_s), flags[perm]).item()
        assert shuffled == pytest.approx(base, rel=1e-12)
        swapped = distill_loss(hand_knowledge(masks[::-1], v_t[::-1]),
                               heads_side_by_side(v_s[::-1]), flags).item()
        assert swapped == pytest.approx(base, rel=1e-12)

    def test_mismatched_heads_and_shapes_are_rejected(self):
        rng = np.random.default_rng(4)
        k = hand_knowledge([rng.normal(size=(2, 5))] * 3, [rng.normal(size=(5, 4))])
        with pytest.raises(ValueError, match="heads"):
            distill_loss(k, T.constant(np.zeros((5, 4))), np.ones(2))
        k = hand_knowledge([rng.normal(size=(2, 5))], [rng.normal(size=(5, 4))])
        with pytest.raises(ValueError, match="values"):
            distill_loss(k, T.constant(np.zeros((5, 3))), np.ones(2))

    def test_no_real_instances_warns_and_returns_zero(self):
        rng = np.random.default_rng(5)
        k = hand_knowledge([rng.dirichlet(np.ones(5), size=2)], [rng.normal(size=(5, 4))])
        with pytest.warns(UserWarning, match="no real instances"):
            loss = distill_loss(k, T.constant(rng.normal(size=(5, 4))), np.zeros(2))
        assert loss.item() == 0.0


class TestTotalLoss:
    def test_weighted_sum(self):
        bundle = total_loss(T.constant(1.0), T.constant(0.3), T.constant(0.2),
                            T.constant(0.25), lam=8.0)
        assert abs(bundle.total.item() - 3.5) < 1e-12
        assert bundle.det.item() == 1.0


def scene_bundle(cfg, sys, i, rng, distill_detach=True):
    """total_loss over scene_losses of training scene i, distillation on."""
    parts = scene_losses(cfg, sys, train_scene(cfg, i), dataset_stats(cfg), rng,
                         distill_active=True, distill_detach=distill_detach)
    return total_loss(*parts, cfg.lam)


class TestRouting:
    # the passing audit and the stop-gradient mutation are in test_verify.py
    def test_unfrozen_teacher_fails_the_audit(self):
        cfg, sys = mini_system(27)
        for _, p in sys.groups["teacher"].named():  # undo build_system's freeze
            p.requires_grad, p.grad = True, np.zeros_like(p.data)
        bundle = scene_bundle(cfg, sys, 8, np.random.default_rng(9))
        report = verify_gradient_routing(bundle, sys.groups)
        assert not report.teacher_frozen
        assert not report.passed

    def test_a_single_nonzero_in_a_zero_cell_is_named(self):
        cfg, sys = mini_system(29)
        bundle = scene_bundle(cfg, sys, 8, np.random.default_rng(9))
        w = dict(sys.groups["aux"].named())["aux.f_reg.w"]
        pick = np.zeros(w.shape)
        pick[2, 3] = 0.25  # d(det)/dw is zero everywhere else
        leaky = replace(bundle, det=T.add(bundle.det, T.tsum(T.mul(w, T.constant(pick)))))
        report = verify_gradient_routing(leaky, sys.groups)
        assert report.violations == [("det", "aux", "aux.f_reg.w", 0.25)]
        assert report.cells[("det", "aux")] == 0.25
        assert "LEAK det -> aux.aux.f_reg.w: |grad|=2.500e-01" in str(report)
        assert not report.passed


class TestComposedGradients:
    def test_total_loss_gradients_match_finite_differences_spot_check(self):
        # elementwise sweep over a slice of every group; the exhaustive sweep
        # runs in the acceptance suite. The graph is built without the
        # stop-gradients: finite differences always measure the true
        # sensitivity, so detached paths would disagree by construction.
        # Detachment is what the routing audit verifies.
        cfg, sys = mini_system(28)

        def f():
            return scene_bundle(cfg, sys, 9, np.random.default_rng(10),
                                distill_detach=False).total

        names = dict(sys.groups["student"].named())
        params = {
            "student.head_out.w": names["head.out.w"],
            "student.lat8.w": names["lateral.s8.w"],
            "student.conv1.w": names["backbone.conv1.w"],
            "decoder.f_q": dict(sys.groups["decoder"].named())["dec0.f_q.w"],
            "decoder.f_pe": dict(sys.groups["decoder"].named())["dec0.f_pe.w"],
            "aux.f_reg.w": dict(sys.groups["aux"].named())["aux.f_reg.w"],
        }
        report = finite_diff_check(f, params)
        assert report.passed, str(report)
