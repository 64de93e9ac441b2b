"""Conditional decoder: keys/values/masks against hand math, aggregation
oracles, head independence, cascade depth, and finite-difference gradients."""

import math

import numpy as np
import pytest

from condkd import tensor as T
from condkd.decoder import (
    ConditionalDecoder,
    DecoderLayer,
    Knowledge,
    aggregate,
    attention_masks,
    compute_keys,
    compute_values,
    decode_knowledge,
)
from condkd.instances import sample_fakes
from condkd.pyramid import FlatPyramid, flatten_pyramid, layout
from condkd.tensor import ParamGroup, Tensor, finite_diff_check
from condkd.train import dataset_stats, decode_conditions, train_scene

from helpers import mini_system


def hand_flat(a, pos=None, pos_width=6):
    """FlatPyramid around a raw [5 x D] array: the 5 cells of a 16px image."""
    arr = a if isinstance(a, Tensor) else T.constant(np.asarray(a, dtype=float))
    if pos is None:
        pos = np.zeros((arr.shape[0], pos_width))
    return FlatPyramid(arr, pos, layout(16))


def zero_linear(lin):
    lin.weight.data[...] = 0.0
    lin.bias.data[...] = 0.0


def identity_linear(lin):
    lin.weight.data[...] = np.eye(*lin.weight.shape)
    lin.bias.data[...] = 0.0


def manual_layernorm(x):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5)


def teacher_flat(cfg, sys):
    """The flat teacher pyramid of training scene 0."""
    return flatten_pyramid(sys.teacher.backbone_forward(train_scene(cfg, 0).image),
                           cfg.pos_dim)


def decode_fakes(cfg, sys, n, rng):
    """decode_conditions on n fake conditions over training scene 0."""
    conds = sample_fakes(dataset_stats(cfg), 1, n, rng)
    return decode_conditions(cfg, sys, train_scene(cfg, 0).image, conds, rng)


class TestKeys:
    def test_zero_positional_branch_keys_match_plain_projection(self):
        cfg, sys = mini_system(1)
        layer = sys.decoder.layers[0]
        zero_linear(layer.f_pe)
        flat = teacher_flat(cfg, sys)
        keys = compute_keys(layer, flat)
        want = flat.A.data @ layer.f_k.weight.data.T + layer.f_k.bias.data
        np.testing.assert_allclose(keys.data, want, rtol=0, atol=1e-12)

    def test_zero_features_keys_see_only_positions(self):
        _, sys = mini_system(2)
        layer = sys.decoder.layers[0]
        pos = np.random.default_rng(0).normal(size=(5, 6))
        flat = hand_flat(np.zeros((5, 8)), pos=pos)
        keys = compute_keys(layer, flat)
        pe = pos @ layer.f_pe.weight.data.T + layer.f_pe.bias.data
        want = pe @ layer.f_k.weight.data.T + layer.f_k.bias.data
        np.testing.assert_allclose(keys.data, want, rtol=0, atol=1e-12)

    def test_key_path_gradients_match_finite_differences(self):
        _, sys = mini_system(3)
        layer = sys.decoder.layers[0]
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(5, 6))
        a = rng.normal(size=(5, 8))
        w = rng.normal(size=(5, 8))

        def f():
            keys = compute_keys(layer, hand_flat(a, pos=pos))
            return T.tsum(T.mul(keys, T.constant(w)))

        params = {"f_k.w": layer.f_k.weight, "f_k.b": layer.f_k.bias,
                  "f_pe.w": layer.f_pe.weight, "f_pe.b": layer.f_pe.bias}
        report = finite_diff_check(f, params)
        assert report.passed, str(report)


class TestValues:
    def test_identity_projection_returns_features(self):
        _, sys = mini_system(4, heads=1)
        layer = sys.decoder.layers[0]
        identity_linear(layer.f_v)
        a = np.random.default_rng(1).normal(size=(5, 8))
        vals = compute_values(layer, hand_flat(a))
        np.testing.assert_array_equal(vals.data, a)

    def test_zero_projection_returns_bias_rows(self):
        _, sys = mini_system(5)
        layer = sys.decoder.layers[0]
        layer.f_v.bias.data[...] = np.tile(np.arange(layer.head_dim, dtype=float), 2)
        layer.f_v.weight.data[...] = 0.0
        vals = compute_values(layer, hand_flat(np.ones((5, 8))))
        np.testing.assert_array_equal(vals.data, np.tile(np.arange(4.0), (5, 2)))

    def test_detached_weights_same_forward_value(self):
        cfg, sys = mini_system(6)
        layer = sys.decoder.layers[0]
        flat = teacher_flat(cfg, sys)
        plain = compute_values(layer, flat, detach_weights=False)
        frozen = compute_values(layer, flat, detach_weights=True)
        np.testing.assert_array_equal(plain.data, frozen.data)

    def test_detached_weights_route_gradient_to_features_only(self):
        _, sys = mini_system(7)
        layer = sys.decoder.layers[0]
        a = Tensor(np.random.default_rng(2).normal(size=(5, 8)), requires_grad=True)
        vals = compute_values(layer, hand_flat(a), detach_weights=True)
        T.backward(T.tsum(vals))
        assert np.all(layer.f_v.weight.grad == 0.0)
        assert np.all(layer.f_v.bias.grad == 0.0)
        assert np.abs(a.grad).max() > 0.0

    def test_same_projection_on_equal_features_gives_equal_values(self):
        _, sys = mini_system(8)
        layer = sys.decoder.layers[0]
        a = np.random.default_rng(3).normal(size=(5, 8))
        teacher_v = compute_values(layer, hand_flat(a.copy()))
        student_v = compute_values(layer, hand_flat(a.copy()), detach_weights=True)
        np.testing.assert_array_equal(teacher_v.data, student_v.data)


class TestMasks:
    def test_constant_keys_give_uniform_masks(self):
        cfg, sys = mini_system(9)
        layer = sys.decoder.layers[0]
        layer.f_k.weight.data[...] = 0.0  # keys collapse to the bias row
        zero_linear(layer.f_pe)
        flat = teacher_flat(cfg, sys)
        queries = T.constant(np.random.default_rng(4).normal(size=(3, 8)))
        masks = attention_masks(layer, compute_keys(layer, flat), queries)
        np.testing.assert_allclose(masks.data, np.full((2, 3, 5), 0.2), rtol=0, atol=1e-12)

    def test_hand_computed_softmax_single_head(self):
        group = ParamGroup("decoder")
        layer = DecoderLayer(4, 1, 6, group, np.random.default_rng(0), name="d")
        identity_linear(layer.f_q)
        identity_linear(layer.f_k)
        zero_linear(layer.f_pe)
        a = np.array([[1.0, 0.0, 0.0, 0.0],
                      [0.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 0.5, 0.0]])
        q = np.array([[1.0, 1.0, 1.0, 1.0]])
        flat = hand_flat(a)
        masks = attention_masks(layer, compute_keys(layer, flat), T.constant(q))
        logits = (q @ a.T / 2.0)[0]
        e = [math.exp(v - max(logits)) for v in logits]
        want = np.array([v / sum(e) for v in e])
        np.testing.assert_allclose(masks.data[0, 0], want, rtol=1e-12, atol=0)

    def test_dominant_key_soaks_up_the_mass(self):
        group = ParamGroup("decoder")
        layer = DecoderLayer(4, 1, 6, group, np.random.default_rng(0), name="d")
        identity_linear(layer.f_q)
        identity_linear(layer.f_k)
        zero_linear(layer.f_pe)
        a = np.zeros((5, 4))
        a[3] = [100.0, 100.0, 100.0, 100.0]
        masks = attention_masks(layer, compute_keys(layer, hand_flat(a)),
                                T.constant(np.ones((1, 4))))
        assert masks.data[0, 0, 3] > 1.0 - 1e-12
        np.testing.assert_allclose(masks.data[0, 0].sum(), 1.0, rtol=0, atol=1e-12)

    def test_mask_rows_are_probability_distributions(self):
        for seed in range(20):
            cfg, sys = mini_system(seed)
            _, _, _, k = decode_fakes(cfg, sys, 3, np.random.default_rng(seed))
            assert np.all(k.masks.data >= 0.0)
            np.testing.assert_allclose(k.masks.data.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


class TestDecodeKnowledge:
    def test_shapes(self):
        cfg, sys = mini_system(10)
        flat = teacher_flat(cfg, sys)
        queries = T.constant(np.random.default_rng(5).normal(size=(4, 8)))
        k = decode_knowledge(sys.decoder.layers[0], flat, queries)
        assert k.num_heads == 2
        assert k.masks.shape == (2, 4, 5)
        assert k.values.shape == (5, 8)

    def test_repeated_decode_is_bit_identical(self):
        cfg, sys = mini_system(11)
        flat = teacher_flat(cfg, sys)
        queries = T.constant(np.random.default_rng(6).normal(size=(4, 8)))
        k1 = decode_knowledge(sys.decoder.layers[0], flat, queries)
        k2 = decode_knowledge(sys.decoder.layers[0], flat, queries)
        np.testing.assert_array_equal(k1.masks.data, k2.masks.data)
        np.testing.assert_array_equal(k1.values.data, k2.values.data)


class TestAggregate:
    def test_one_hot_masks_select_value_rows(self):
        _, sys = mini_system(12)
        layer = sys.decoder.layers[0]
        identity_linear(layer.out_proj)
        for lin in (layer.ffn.l1, layer.ffn.l2, layer.ffn.l3):
            zero_linear(lin)
        rng = np.random.default_rng(7)
        v0, v1 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        onehot = np.zeros((2, 5))
        onehot[0, 3] = 1.0
        onehot[1, 1] = 1.0
        k = Knowledge(masks=T.constant(np.stack([onehot, onehot])),
                      values=T.constant(np.concatenate([v0, v1], axis=-1)))
        g = aggregate(k, T.constant(np.zeros((2, 8))), layer)
        want = manual_layernorm(np.concatenate(
            [np.stack([v0[3], v0[1]]), np.stack([v1[3], v1[1]])], axis=-1))
        np.testing.assert_allclose(g.data, want, rtol=0, atol=1e-12)

    def test_zero_projections_pass_queries_through_norm(self):
        _, sys = mini_system(13)
        layer = sys.decoder.layers[0]
        zero_linear(layer.out_proj)
        for lin in (layer.ffn.l1, layer.ffn.l2, layer.ffn.l3):
            zero_linear(lin)
        q = np.random.default_rng(8).normal(size=(3, 8))
        k = Knowledge(masks=T.constant(np.full((2, 3, 5), 0.2)),
                      values=T.constant(np.ones((5, 8))))
        g = aggregate(k, T.constant(q), layer)
        np.testing.assert_allclose(g.data, manual_layernorm(q), rtol=0, atol=1e-12)

    def test_attended_rows_stay_inside_value_hull(self):
        # m_j V_j is a convex combination of value rows, columnwise bounded
        cfg, sys = mini_system(14)
        _, _, _, k = decode_fakes(cfg, sys, 4, np.random.default_rng(9))
        for m, v in zip(k.masks.data, np.split(k.values.data, k.num_heads, axis=-1)):
            mixed = m @ v
            lo, hi = v.min(axis=0), v.max(axis=0)
            assert np.all(mixed >= lo - 1e-12)
            assert np.all(mixed <= hi + 1e-12)

    def test_decode_and_aggregate_gradients_match_finite_differences(self):
        cfg, sys = mini_system(15)
        rng = np.random.default_rng(10)
        conds = sample_fakes(dataset_stats(cfg), 1, 3, rng)
        w = rng.normal(size=(3, 8))
        image = train_scene(cfg, 0).image

        def f():
            _, _, g, _ = decode_conditions(cfg, sys, image, conds, np.random.default_rng(11))
            return T.tsum(T.mul(g, T.constant(w)))

        report = finite_diff_check(f, sys.groups["decoder"])
        assert report.passed, str(report)


class TestHeadIndependence:
    def test_perturbing_one_head_leaves_the_other_untouched(self):
        cfg, sys = mini_system(16)
        layer = sys.decoder.layers[0]
        flat = teacher_flat(cfg, sys)
        queries = T.constant(np.random.default_rng(11).normal(size=(3, 8)))
        before = decode_knowledge(layer, flat, queries)
        for lin in (layer.f_k, layer.f_v, layer.f_q):
            lin.weight.data[:4] *= -3.0  # head 0's rows
        after = decode_knowledge(layer, flat, queries)
        assert np.any(before.masks.data[0] != after.masks.data[0])
        assert np.any(before.values.data[:, :4] != after.values.data[:, :4])
        np.testing.assert_array_equal(before.masks.data[1], after.masks.data[1])
        np.testing.assert_array_equal(before.values.data[:, 4:], after.values.data[:, 4:])


class TestCascade:
    def test_depth_two_feeds_aggregate_back_as_queries(self):
        cfg, sys = mini_system(17, depth=2)
        names = dict(sys.groups["decoder"].named())
        assert "dec0.f_k.w" in names and "dec1.f_k.w" in names
        flat = teacher_flat(cfg, sys)
        queries = T.constant(np.random.default_rng(12).normal(size=(3, 8)))
        g, k_final = sys.decoder.decode(flat, queries)
        assert g.shape == (3, 8)
        k_first = decode_knowledge(sys.decoder.layers[0], flat, queries)
        assert np.any(k_final.masks.data != k_first.masks.data)

    def test_bad_construction_is_rejected(self):
        group = ParamGroup("decoder")
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            DecoderLayer(8, 3, 6, group, rng)
        with pytest.raises(ValueError):
            ConditionalDecoder(8, 2, 6, group, rng, depth=0)


class TestStudentValues:
    def test_uses_final_layer_and_matches_teacher_on_equal_features(self):
        _, sys = mini_system(18, depth=2)
        a = np.random.default_rng(13).normal(size=(5, 8))
        sv = sys.decoder.student_values(hand_flat(a))
        tv = compute_values(sys.decoder.layers[-1], hand_flat(a))
        np.testing.assert_array_equal(sv.data, tv.data)
