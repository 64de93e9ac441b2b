"""Layer, embedding, and optimizer tests with in-test oracles."""

import math

import numpy as np
import pytest

from condkd import tensor as T
from condkd.nn import Linear, Mlp3, MomentumSGD, one_hot, sine_pos_embed
from condkd.tensor import ParamGroup, ShapeError, Tensor, backward, finite_diff_check


def test_linear_identity():
    g = ParamGroup("decoder")
    layer = Linear(3, 3, g, np.random.default_rng(0), "f")
    layer.weight.data[...] = np.eye(3)
    layer.bias.data[...] = 0.0
    x = Tensor([[1.0, -2.0, 0.5]])
    assert np.array_equal(layer(x).data, x.data)


def test_linear_constant_when_zero_weight():
    g = ParamGroup("decoder")
    layer = Linear(4, 2, g, np.random.default_rng(0), "f")
    layer.weight.data[...] = 0.0
    layer.bias.data[...] = [3.0, -1.0]
    out = layer(Tensor(np.random.default_rng(1).normal(size=(5, 4))))
    assert np.array_equal(out.data, np.tile([3.0, -1.0], (5, 1)))


def test_linear_width_mismatch():
    g = ParamGroup("decoder")
    layer = Linear(4, 2, g, np.random.default_rng(0), "f")
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((3, 5))))


def test_linear_gradcheck():
    g = ParamGroup("decoder")
    layer = Linear(3, 2, g, np.random.default_rng(2), "f")
    x = T.constant(np.random.default_rng(3).normal(size=(4, 3)))
    w = T.constant(np.random.default_rng(4).normal(size=(4, 2)))
    report = finite_diff_check(lambda: T.tsum(T.mul(layer(x), w)), g, step=1e-5, tol=1e-6)
    assert report.passed, str(report)


def test_linear_leading_dims():
    g = ParamGroup("decoder")
    layer = Linear(3, 2, g, np.random.default_rng(5), "f")
    x3 = np.random.default_rng(6).normal(size=(2, 4, 3))
    out = layer(Tensor(x3))
    assert out.shape == (2, 4, 2)
    flat = layer(Tensor(x3.reshape(8, 3)))
    assert np.allclose(out.data.reshape(8, 2), flat.data)


def test_mlp3_zero_weights_pass_last_bias():
    g = ParamGroup("aux")
    net = Mlp3(3, 5, 2, g, np.random.default_rng(0), "m")
    for layer in (net.l1, net.l2, net.l3):
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = 0.0
    net.l3.bias.data[...] = [7.0, -3.0]
    out = net(Tensor([[1.0, 2.0, 3.0]]))
    assert np.array_equal(out.data, [[7.0, -3.0]])


def test_mlp3_positive_path_is_affine():
    # with positive weights/biases and nonnegative input the ReLUs are inert
    g = ParamGroup("aux")
    net = Mlp3(2, 2, 2, g, np.random.default_rng(0), "m")
    for layer in (net.l1, net.l2, net.l3):
        layer.weight.data[...] = np.abs(layer.weight.data) + 0.1
        layer.bias.data[...] = 0.2
    x = np.array([[0.5, 1.5]])
    out = net(Tensor(x)).data
    w1, b1 = net.l1.weight.data, net.l1.bias.data
    w2, b2 = net.l2.weight.data, net.l2.bias.data
    w3, b3 = net.l3.weight.data, net.l3.bias.data
    affine = ((x @ w1.T + b1) @ w2.T + b2) @ w3.T + b3
    assert np.allclose(out, affine, atol=1e-12)


def test_mlp3_gradcheck():
    g = ParamGroup("aux")
    net = Mlp3(3, 4, 2, g, np.random.default_rng(7), "m")
    x = T.constant(np.random.default_rng(8).normal(size=(3, 3)))
    w = T.constant(np.random.default_rng(9).normal(size=(3, 2)))
    report = finite_diff_check(lambda: T.tsum(T.mul(net(x), w)), g, step=1e-5, tol=1e-5)
    assert report.passed, str(report)


def test_sine_embed_at_zero():
    v = sine_pos_embed(0.0, 8)
    assert np.array_equal(v[0::2], np.zeros(4))
    assert np.array_equal(v[1::2], np.ones(4))


def test_sine_embed_bounded():
    rng = np.random.default_rng(10)
    for u in rng.uniform(0, 1, size=20):
        v = sine_pos_embed(u, 12)
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_sine_embed_hand_formula():
    dim, u = 4, 0.25
    s0 = 10000.0 ** (-0.0 / dim)
    s1 = 10000.0 ** (-2.0 / dim)
    expected = [math.sin(u * s0), math.cos(u * s0), math.sin(u * s1), math.cos(u * s1)]
    assert np.allclose(sine_pos_embed(u, dim), expected, atol=1e-15)


def test_sine_embed_rejects_odd_dim():
    with pytest.raises(ValueError):
        sine_pos_embed(0.5, 5)


def test_sine_embed_injective_on_grid():
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    emb = sine_pos_embed(grid, 8)
    sq = (emb * emb).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (emb @ emb.T)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 1e-12  # pairwise distance > 1e-6


def test_one_hot():
    assert np.array_equal(one_hot(2, 4), [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(one_hot(0, 1), [1.0])
    for c in range(6):
        assert one_hot(c, 6).sum() == 1.0
    with pytest.raises(IndexError):
        one_hot(4, 4)
    with pytest.raises(IndexError):
        one_hot(-1, 4)


def test_sgd_momentum_matches_hand_rollout():
    g = ParamGroup("student")
    p = g.add("p", 2.0)
    opt = MomentumSGD(g, lr=0.1, momentum=0.9)
    theta, buf = 2.0, 0.0
    for _ in range(5):
        p.zero_grad()
        backward(T.mul(p, p))
        opt.step()
        buf = 0.9 * buf + 2.0 * theta
        theta = theta - 0.1 * buf
    assert float(p.data) == pytest.approx(theta, abs=1e-12)


def test_zero_learning_rate_never_moves_parameters():
    g = ParamGroup("student")
    p = g.add("p", [1.0, 2.0])
    before = p.data.copy()
    opt = MomentumSGD(g, lr=0.0, weight_decay=0.3)
    for _ in range(3):
        p.grad[...] = [5.0, -5.0]
        opt.step()
    assert np.array_equal(p.data, before)


def test_stepping_a_frozen_group_moves_no_parameter():
    g = ParamGroup("decoder")
    p = g.add("p", [1.0])
    opt = MomentumSGD(g, lr=0.1, weight_decay=0.5)
    g.freeze()
    opt.step()
    assert np.array_equal(p.data, [1.0])


def test_fused_step_matches_a_per_tensor_loop_bit_for_bit():
    shapes = [(3, 4), (4,), (), (2, 3, 2)]
    rng = np.random.default_rng(5)
    g = ParamGroup("student")
    ps = [g.add(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    ref = [p.data.copy() for p in ps]
    ref_buf = [np.zeros_like(r) for r in ref]
    lr, mu, wd = 0.05, 0.9, 0.01
    opt = MomentumSGD(g, lr, mu, wd)
    for _ in range(5):
        grads = [rng.normal(size=s) for s in shapes]
        for p, grad in zip(ps, grads):
            p.grad[...] = grad
        opt.step()
        for r, b, grad in zip(ref, ref_buf, grads):  # the per-tensor update
            b *= mu
            b += grad
            r *= 1.0 - lr * wd
            r -= lr * b
        for p, r in zip(ps, ref):
            assert p.data.tobytes() == r.tobytes()
        assert not g.grad.any()


def test_registry_union_covers_all_trainables():
    g = ParamGroup("decoder")
    rng = np.random.default_rng(0)
    layer = Linear(3, 2, g, rng, "lin")
    net = Mlp3(2, 4, 1, g, rng, "mlp")
    registered = {id(t) for t in g.tensors()}
    direct = {id(layer.weight), id(layer.bias)}
    for sub in (net.l1, net.l2, net.l3):
        direct |= {id(sub.weight), id(sub.bias)}
    assert registered == direct
    assert len(g.tensors()) == 8
