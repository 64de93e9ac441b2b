"""Unit tests for the autodiff substrate.

Expected values come from hand evaluation of the defining formulas or from
central finite differences computed inside the test; nothing is copied from
the implementation under test.
"""

import functools
import math
import zlib

import numpy as np
import pytest

from condkd import tensor as T
from condkd.tensor import (
    GraphError,
    NondeterminismError,
    ParamGroup,
    ShapeError,
    Tensor,
    backward,
    finite_diff_check,
)


def scalar_loss(t):
    """Reduce any tensor to a scalar with a fixed weighting, for grad checks."""
    rng = np.random.default_rng(7)
    w = T.constant(rng.normal(size=t.shape))
    return T.tsum(T.mul(t, w))


def fd_grad(f, x, step=5e-4):
    """Five-point central differences of scalar f w.r.t. array x, elementwise.

    At this step the truncation error, O(step**4), and the roundoff,
    ~eps*|f|/step, stay far below the tests' 1e-6 relative bound: the worst
    case over 200 input seeds of test_op_gradient_vs_fd was 5.7e-8."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        probes = []
        for k in (2, 1, -1, -2):
            flat[i] = orig + k * step
            probes.append(f())
        flat[i] = orig
        f2, f1, m1, m2 = probes
        gf[i] = (8.0 * (f1 - m1) - (f2 - m2)) / (12.0 * step)
    return g


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_selection_row():
    out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
    assert np.array_equal(out.data, [[2.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
    assert "(2, 3)" in str(e.value) and "(2, 2)" in str(e.value)


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    backward(scalar_loss(T.matmul(a, b)))
    for t in (a, b):
        fd = fd_grad(lambda: scalar_loss(T.matmul(a, b)).item(), t.data)
        assert np.max(np.abs(t.grad - fd)) < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_equal_logits():
    out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 0.25, atol=1e-12)


def test_softmax_extreme_logits_no_overflow():
    out = T.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert abs(out.data[0] - 1.0) < 1e-12 and abs(out.data[1]) < 1e-12


def test_softmax_hand_formula():
    out = T.softmax(Tensor([1.0, 2.0, 3.0]))
    z = [math.exp(v) for v in (1.0, 2.0, 3.0)]
    expected = [v / sum(z) for v in z]
    assert np.allclose(out.data, expected, atol=1e-12)


def test_softmax_rows_sum_to_one_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = Tensor(rng.normal(scale=100.0, size=(4, 7)))
        s = T.softmax(x).data.sum(axis=-1)
        assert np.all(np.abs(s - 1.0) < 1e-9)
        assert np.all(T.softmax(x).data >= 0.0)


def test_softmax_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    backward(scalar_loss(T.softmax(x)))
    fd = fd_grad(lambda: scalar_loss(T.softmax(x)).item(), x.data)
    assert np.max(np.abs(x.grad - fd)) < 1e-6


# ---------------------------------------------------------------------------
# layernorm_pf


def test_layernorm_two_point_row():
    out = T.layernorm_pf(Tensor([[1.0, 3.0]]))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layernorm_constant_row_is_zero():
    out = T.layernorm_pf(Tensor([[5.0, 5.0, 5.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0, 0.0]])


def test_layernorm_recompute_moments():
    rng = np.random.default_rng(5)
    out = T.layernorm_pf(Tensor(rng.normal(size=(6, 16)))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-3


def test_layernorm_gradient():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    backward(scalar_loss(T.layernorm_pf(x)))
    fd = fd_grad(lambda: scalar_loss(T.layernorm_pf(x)).item(), x.data)
    assert np.max(np.abs(x.grad - fd)) < 1e-6


def _composed_layernorm(x, eps=1e-5):
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = T.tmean(centered * centered, axis=-1, keepdims=True)
    return centered / T.sqrt(var + eps)


def _shared_input_grads(norm, shape, norm_first):
    """Gradients of a graph where the normalized tensor's input is a non-leaf
    with a second consumer, so the order of adjoint sums shows in the bits.
    The operand order decides whether backward reaches that consumer before
    or after the normalization."""
    rng = np.random.default_rng(9)
    w = Tensor(rng.normal(size=shape), requires_grad=True)
    u = T.mul(w, T.constant(rng.normal(size=shape)))
    other = T.mul(u, T.constant(rng.normal(size=shape)))
    out = T.add(norm(u), other) if norm_first else T.add(other, norm(u))
    backward(scalar_loss(norm(out)))
    return out.data, w.grad


@pytest.mark.parametrize("norm_first", [True, False])
@pytest.mark.parametrize("shape", [(3, 8), (5,), (2, 3, 4), (4, 1)])
def test_layernorm_matches_composed_form_bit_for_bit(shape, norm_first):
    fused_out, fused_grad = _shared_input_grads(T.layernorm_pf, shape, norm_first)
    ref_out, ref_grad = _shared_input_grads(_composed_layernorm, shape, norm_first)
    assert np.array_equal(fused_out, ref_out)
    assert np.array_equal(fused_grad, ref_grad)


# ---------------------------------------------------------------------------
# linear


def _linear_grads(op):
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    out = op(T.relu(x), w, b)
    backward(scalar_loss(T.add(op(out, T.constant(rng.normal(size=(3, 3))), b), out)))
    return out.data, x.grad, w.grad, b.grad


def test_linear_matches_composed_form_bit_for_bit():
    fused = _linear_grads(T.linear)
    composed = _linear_grads(lambda x, w, b: T.add(T.matmul(x, T.transpose(w)), b))
    for got, want in zip(fused, composed):
        assert np.array_equal(got, want)


def test_linear_gradient():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    backward(scalar_loss(T.linear(x, w, b)))
    for t in (x, w, b):
        fd = fd_grad(lambda: scalar_loss(T.linear(x, w, b)).item(), t.data)
        assert np.max(np.abs(t.grad - fd)) < 1e-6


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# detach


def test_detach_blocks_gradient():
    a = Tensor([2.0, -1.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    backward(T.tsum(T.mul(T.detach(a), b)))
    assert np.array_equal(a.grad, [0.0, 0.0])
    assert np.array_equal(b.grad, a.data)


def test_detach_idempotent_by_value():
    x = Tensor([1.0, 2.0], requires_grad=True)
    once = T.detach(x)
    twice = T.detach(once)
    assert np.array_equal(once.data, twice.data)
    assert once.node is None and twice.node is None


# ---------------------------------------------------------------------------
# backward


def test_backward_square_at_three():
    x = Tensor(3.0, requires_grad=True)
    backward(T.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_backward_accumulates_until_zeroed():
    x = Tensor([1.0, -2.0], requires_grad=True)
    loss = lambda: T.tsum(T.mul(T.mul(x, x), T.constant([0.5, 2.0])))
    backward(loss())
    once = x.grad.copy()
    backward(loss())
    assert np.allclose(x.grad, 2.0 * once)
    x.zero_grad()
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(T.mul(x, x))


def test_backward_unreachable_leaf_untouched():
    x = Tensor([1.0], requires_grad=True)
    y = Tensor([4.0], requires_grad=True)
    backward(T.tsum(T.mul(x, x)))
    assert np.array_equal(y.grad, [0.0])


def test_backward_shared_subexpression():
    # y = (x*x) used twice: loss = x^2 + 3 x^2 -> d/dx = 8x
    x = Tensor(2.0, requires_grad=True)
    sq = T.mul(x, x)
    backward(T.add(sq, T.mul(sq, T.constant(3.0))))
    assert x.grad == pytest.approx(16.0)


# ---------------------------------------------------------------------------
# finite_diff_check


def test_finite_diff_quadratic_bowl():
    g = ParamGroup("student")
    theta = g.add("theta", [0.3, -1.2, 4.0])
    center = T.constant([1.0, 2.0, 3.0])

    def f():
        d = T.add(theta, T.neg(center))
        return T.tsum(T.mul(d, d))

    report = finite_diff_check(f, g, step=1e-5, tol=1e-9)
    assert report.passed, str(report)


def test_finite_diff_softmax_cross_entropy():
    rng = np.random.default_rng(11)
    g = ParamGroup("decoder")
    w = g.add("w", rng.normal(size=(3, 4)))
    x = T.constant(rng.normal(size=(4, 1)))

    def f():
        logits = T.reshape(T.matmul(w, x), (1, 3))
        probs = T.softmax(logits)
        return T.neg(T.tsum(T.log(T.gather_rows(T.reshape(probs, (3,)), np.array([1])))))

    report = finite_diff_check(f, g, step=1e-5, tol=1e-6)
    assert report.passed, str(report)


def test_finite_diff_rejects_nondeterministic_f():
    g = ParamGroup("aux")
    x = g.add("x", 1.0)
    calls = [0]

    def f():
        calls[0] += 1
        return T.add(T.mul(x, x), T.constant(float(calls[0])))

    with pytest.raises(NondeterminismError):
        finite_diff_check(f, g, step=1e-5, tol=1e-6)


# ---------------------------------------------------------------------------
# remaining op gradients vs finite differences


@pytest.mark.parametrize(
    "name,make",
    [
        ("add", lambda x: T.add(x, T.constant(np.linspace(0.1, 1.0, x.data.size).reshape(x.shape)))),
        ("sub_via_neg", lambda x: T.add(T.neg(x), x * 2.0)),
        ("mul_self", lambda x: T.mul(x, x)),
        ("div", lambda x: T.div(T.constant(np.ones(x.shape)), T.add(T.mul(x, x), T.constant(1.0)))),
        ("abs_shifted", lambda x: T.absolute(T.add(x, T.constant(5.0)))),
        ("exp", lambda x: T.exp(x)),
        ("log_shifted", lambda x: T.log(T.add(T.mul(x, x), T.constant(1.5)))),
        ("sqrt_shifted", lambda x: T.sqrt(T.add(T.mul(x, x), T.constant(2.0)))),
        ("relu_shifted", lambda x: T.relu(T.add(x, T.constant(3.0)))),
        ("sigmoid", lambda x: T.sigmoid(x)),
        ("softplus", lambda x: T.softplus(x)),
        ("clamp_wide", lambda x: T.clamp(x, -50.0, 50.0)),
        ("sum_axis", lambda x: T.tsum(x, axis=1, keepdims=True) * 0.5 + x),
        ("mean_axis", lambda x: T.matmul(T.reshape(T.tmean(x, axis=0), (1, 4)),
                                         T.constant(np.ones((4, 2))))),
        ("reshape", lambda x: T.reshape(x, (4, 3))),
        ("transpose", lambda x: T.transpose(x)),
        ("slice_last", lambda x: T.slice_last(x, 1, 3)),
        ("softmax_rows", lambda x: T.softmax(x)),
        ("layernorm", lambda x: T.layernorm_pf(x)),
    ],
)
def test_op_gradient_vs_fd(name, make):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.normal(size=(3, 4)) * 0.7, requires_grad=True)
    loss = lambda: scalar_loss(make(x))
    x.zero_grad()
    backward(loss())
    fd = fd_grad(lambda: loss().item(), x.data)
    denom = np.maximum(np.maximum(np.abs(x.grad), np.abs(fd)), 1e-4)
    assert np.max(np.abs(x.grad - fd) / denom) < 1e-6, name


def test_concat_gradient():
    rng = np.random.default_rng(21)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    loss = lambda: scalar_loss(T.concat([a, b], axis=-1))
    backward(loss())
    for t in (a, b):
        fd = fd_grad(lambda: loss().item(), t.data)
        assert np.max(np.abs(t.grad - fd)) < 1e-6


def test_gather_rows_duplicate_indices_accumulate():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = T.gather_rows(x, np.array([0, 0, 1]))
    backward(T.tsum(out))
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_gather_flat_gradient():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    idx = rng.integers(0, 20, size=(3, 6))
    loss = lambda: scalar_loss(T.gather_flat(x, idx, (3, 6)))
    backward(loss())
    fd = fd_grad(lambda: loss().item(), x.data)
    assert np.max(np.abs(x.grad - fd)) < 1e-6


def test_pad_hw_gradient_and_values():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(2, 3, 3, 2)), requires_grad=True)
    out = T.pad_hw(x, 1)
    assert out.shape == (2, 5, 5, 2)
    assert np.array_equal(out.data[:, 1:-1, 1:-1, :], x.data)
    assert np.all(out.data[:, 0, :, :] == 0.0)
    loss = lambda: scalar_loss(T.pad_hw(x, 1))
    backward(loss())
    fd = fd_grad(lambda: loss().item(), x.data)
    assert np.max(np.abs(x.grad - fd)) < 1e-6
    with pytest.raises(ValueError, match="pad >= 1"):
        T.pad_hw(x, 0)


def _reference_patches(x, kernel, stride):
    """pad_hw then gather_flat with an index built by explicit loops."""
    h, w, c = x.shape
    pad = (kernel - 1) // 2
    wp = w + 2 * pad
    idx = np.array([[((oy * stride + ky) * wp + ox * stride + kx) * c + ci
                     for ky in range(kernel) for kx in range(kernel) for ci in range(c)]
                    for oy in range(h // stride) for ox in range(w // stride)])
    padded = T.pad_hw(x, pad) if pad else x
    return T.gather_flat(padded, idx, idx.shape)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _fused_and_composed(build, seed):
    """Run ``build(fused)`` for both forms on fresh leaves drawn from one seed;
    each returns (output, leaves) after backward. Returns both results."""
    results = []
    for fused in (True, False):
        out, leaves = build(np.random.default_rng(seed), fused)
        results.append([out.data] + [t.grad for t in leaves])
    return results


@pytest.mark.parametrize("h, c, kernel, stride, out_ch", [
    (8, 3, 3, 2, 4), (4, 5, 3, 1, 3), (6, 4, 1, 1, 2), (8, 2, 1, 2, 5)])
def test_conv2d_matches_composed_form_bit_for_bit(h, c, kernel, stride, out_ch):
    def build(rng, fused):
        x = Tensor(rng.normal(size=(h, h, c)), requires_grad=True)
        w = Tensor(rng.normal(size=(out_ch, kernel * kernel * c)), requires_grad=True)
        bias = Tensor(rng.normal(size=out_ch), requires_grad=True)
        if fused:
            y = T.conv2d(T.relu(x), w, bias, kernel, stride)
        else:
            cols = _reference_patches(T.relu(x), kernel, stride)
            y = T.reshape(T.linear(cols, w, bias), (h // stride, h // stride, out_ch))
        backward(scalar_loss(T.mul(y, y)))
        return y, (x, w, bias)

    fused, composed = _fused_and_composed(build, h * c + kernel)
    assert all(_same_bits(got, want) for got, want in zip(fused, composed))


def test_conv2d_rejects_mismatched_weight_and_even_kernel():
    x = Tensor(np.zeros((4, 4, 2)))
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((3, 9))), Tensor(np.zeros(3)), 3, 1)
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((3, 8))), Tensor(np.zeros(3)), 2, 1)
    with pytest.raises(ShapeError):  # a batch axis
        T.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 18))), Tensor(np.zeros(3)),
                 3, 1)


@pytest.mark.parametrize("widths, x_grad", [((5, 4, 4, 3), True), ((5, 4, 4, 3), False),
                                             ((3, 2), True), ((4, 6, 2), False)])
def test_mlp_matches_composed_form_bit_for_bit(widths, x_grad):
    def build(rng, fused):
        x = Tensor(rng.normal(size=(7, widths[0])), requires_grad=x_grad)
        layers = [(Tensor(rng.normal(size=(o, i)), requires_grad=True),
                   Tensor(rng.normal(size=o), requires_grad=True))
                  for i, o in zip(widths, widths[1:])]
        if fused:
            y = T.mlp(x, layers)
        else:
            y = x
            for k, (w, bias) in enumerate(layers):
                y = T.linear(T.relu(y) if k else y, w, bias)
        backward(scalar_loss(y))
        leaves = [t for wb in layers for t in wb] + ([x] if x_grad else [])
        return y, leaves

    fused, composed = _fused_and_composed(build, len(widths))
    assert all(_same_bits(got, want) for got, want in zip(fused, composed))


def test_mlp_leaves_frozen_layers_without_gradient():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)))
    w1, b1 = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=5))
    w2, b2 = Tensor(rng.normal(size=(2, 5)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    backward(scalar_loss(T.mlp(x, [(w1, b1), (w2, b2)])))
    assert w1.grad is None and b1.grad is None
    assert np.any(w2.grad != 0.0)
    with pytest.raises(ShapeError):
        T.mlp(x, [(Tensor(np.zeros((5, 4))), Tensor(np.zeros(5)))])


def _head_leaves(rng, heads, shape):
    """One gradient-requiring leaf per head, and the fused form's leaf: their
    data placed side by side along the last axis."""
    parts = [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(heads)]
    return parts, Tensor(np.concatenate([p.data for p in parts], axis=-1), requires_grad=True)


def _side_by_side(parts):
    return np.concatenate([p.grad for p in parts], axis=-1)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_linear_heads_matches_per_head_form_bit_for_bit(heads):
    # x is an op output with a residual consumer, as the decoder's queries
    # are: its gradient sums the residual's and then every head's share
    rng = np.random.default_rng(heads)
    x = rng.normal(size=(9, 16))
    w = rng.normal(size=(16, 16))
    b = rng.normal(size=16)
    d = 16 // heads
    x_f, w_f, b_f = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    r = T.relu(x_f)
    fused = T.add(r, T.linear(r, w_f, b_f, heads=heads))
    backward(scalar_loss(T.mul(fused, fused)))

    x_c = Tensor(x.copy(), requires_grad=True)
    w_c = [Tensor(w[j * d:(j + 1) * d].copy(), requires_grad=True) for j in range(heads)]
    b_c = [Tensor(b[j * d:(j + 1) * d].copy(), requires_grad=True) for j in range(heads)]
    r = T.relu(x_c)
    composed = T.add(r, T.concat([T.linear(r, wj, bj) for wj, bj in zip(w_c, b_c)], axis=-1))
    backward(scalar_loss(T.mul(composed, composed)))

    assert _same_bits(fused.data, composed.data)
    assert _same_bits(x_f.grad, x_c.grad)
    assert _same_bits(w_f.grad, np.concatenate([t.grad for t in w_c]))
    assert _same_bits(b_f.grad, np.concatenate([t.grad for t in b_c]))


def test_scaled_scores_matches_composed_form_bit_for_bit():
    for heads in (1, 2, 4, 8):
        rng = np.random.default_rng(12)
        q_c, q_f = _head_leaves(rng, heads, (6, 32 // heads))
        k_c, k_f = _head_leaves(rng, heads, (9, 32 // heads))
        weights = rng.normal(size=(heads, 6, 9))
        scale = 1.0 / np.sqrt(32 // heads)
        fused = T.scaled_scores(T.relu(q_f), k_f, scale, heads=heads)
        backward(T.tsum(T.mul(T.softmax(fused, axis=-1), weights)))
        composed = [T.matmul(T.relu(q), T.transpose(k)) * scale for q, k in zip(q_c, k_c)]
        backward(functools.reduce(T.add, [T.tsum(T.mul(T.softmax(y, axis=-1), wj))
                                          for y, wj in zip(composed, weights)]))
        assert _same_bits(fused.data, np.stack([y.data for y in composed]))
        assert _same_bits(q_f.grad, _side_by_side(q_c))
        assert _same_bits(k_f.grad, _side_by_side(k_c))


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_attend_matches_composed_form_bit_for_bit(heads):
    rng = np.random.default_rng(13)
    m_c = [Tensor(rng.normal(size=(5, 9)), requires_grad=True) for _ in range(heads)]
    m_f = Tensor(np.stack([m.data for m in m_c]), requires_grad=True)
    v_c, v_f = _head_leaves(rng, heads, (9, 32 // heads))
    fused = T.attend(T.softmax(m_f, axis=-1), v_f)
    backward(scalar_loss(T.mul(fused, fused)))
    composed = T.concat([T.matmul(T.softmax(m, axis=-1), v) for m, v in zip(m_c, v_c)], axis=-1)
    backward(scalar_loss(T.mul(composed, composed)))
    assert _same_bits(fused.data, composed.data)
    assert _same_bits(m_f.grad, np.stack([m.grad for m in m_c]))
    assert _same_bits(v_f.grad, _side_by_side(v_c))


def test_head_axis_ops_reject_widths_the_heads_do_not_divide():
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)), heads=2)
    with pytest.raises(ShapeError):
        T.scaled_scores(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6))), 1.0, heads=4)
    with pytest.raises(ShapeError):
        T.attend(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((3, 6))))
    with pytest.raises(ShapeError):
        T.weighted_row_mse(np.zeros((4, 2, 3)), np.zeros((3, 6)), Tensor(np.zeros((3, 6))))


@pytest.mark.parametrize("n_rows", [1, 3])
def test_weighted_row_mse_matches_composed_form_bit_for_bit(n_rows):
    for heads in (1, 2, 4, 8):
        rng = np.random.default_rng(n_rows * heads)
        x_c, x_f = _head_leaves(rng, heads, (10, 4))
        weights = rng.uniform(size=(heads, n_rows, 10))
        targets = [T.layernorm_pf(T.constant(rng.normal(size=(10, 4)))) for _ in range(heads)]
        fused = T.weighted_row_mse(weights, np.concatenate([t.data for t in targets], axis=-1),
                                   T.relu(x_f))
        backward(T.mul(fused, fused))
        terms = []
        for x, wj, t in zip(x_c, weights, targets):
            d = T.layernorm_pf(T.relu(x)) - t
            rows = T.tmean(T.mul(d, d), axis=-1)
            terms.append(T.tsum(T.mul(T.constant(wj), T.reshape(rows, (1, 10)))))
        composed = functools.reduce(T.add, terms)
        backward(T.mul(composed, composed))
        assert _same_bits(fused.data, composed.data)
        assert _same_bits(x_f.grad, _side_by_side(x_c))


def test_weighted_row_mse_gradient():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    weights, target = rng.uniform(size=(2, 2, 5)), rng.normal(size=(5, 4))
    backward(T.weighted_row_mse(weights, target, x))
    fd = fd_grad(lambda: T.weighted_row_mse(weights, target, x).item(), x.data)
    assert np.max(np.abs(x.grad - fd)) < 1e-6
    with pytest.raises(ShapeError):
        T.weighted_row_mse(weights, target[:4], x)


def test_broadcast_unreduction():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    backward(T.tsum(T.mul(a, b)))
    assert np.array_equal(a.grad, np.tile(np.arange(3.0), (2, 1)))
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# ParamGroup


def test_param_group_rules():
    g = ParamGroup("teacher")
    t = g.add("w", [1.0])
    assert t.requires_grad
    with pytest.raises(ValueError):
        g.add("w", [2.0])
    with pytest.raises(ValueError):
        ParamGroup("oracle")
    g.freeze()
    assert not t.requires_grad and t.grad is None
    late = g.add("late", [2.0])  # a frozen group registers frozen tensors
    assert not late.requires_grad and late.grad is None


def test_group_storage_is_flat_views_in_registration_order():
    g = ParamGroup("student")
    rng = np.random.default_rng(0)
    inits = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "c": 2.5,
             "d": rng.normal(size=(2, 3, 700))}  # d outgrows the first buffers
    ts = {}
    for name, init in inits.items():
        ts[name] = g.add(name, init)
        ts[name].grad[...] = 1.0  # must survive the buffers growing
    np.testing.assert_array_equal(g.data, np.concatenate([np.ravel(v) for v in inits.values()]))
    np.testing.assert_array_equal(g.grad, np.ones(g.data.size))
    lo = 0
    for name, t in ts.items():
        assert t.shape == np.shape(inits[name])
        hi = lo + t.data.size
        assert np.shares_memory(t.data, g.data[lo:hi]) and np.shares_memory(t.grad, g.grad[lo:hi])
        lo = hi
    ts["b"].data[1] = 7.0
    assert g.data[13] == 7.0
    g.zero_grad()
    assert not ts["d"].grad.any()
    g.bind(np.empty(g.data.size))
    assert all(np.shares_memory(t.data, g.data) for t in ts.values())
    assert g.data[13] == 7.0 and ts["c"].item() == 2.5


def test_frozen_group_holds_no_gradient_storage():
    g = ParamGroup("teacher")
    g.add("w", np.ones((2, 2)))
    g.freeze()
    assert g.grad is None and g.max_abs_grad() == 0.0
    g.zero_grad()  # a no-op, not an error


@pytest.mark.parametrize("grads, want", [
    (([0.5, -2.0], [np.nan]), "nan"),  # Python's max(2.0, nan) kept 2.0
    (([np.nan], [3.0]), "nan"),
    (([0.5, -2.0], [1.0]), 2.0),
    ((), 0.0),  # empty group
], ids=["nan-last", "nan-first", "finite", "empty"])
def test_max_abs_grad(grads, want):
    g = ParamGroup("aux")
    for i, grad in enumerate(grads):
        g.add(f"p{i}", np.zeros(len(grad))).grad[...] = grad
    got = g.max_abs_grad()
    assert np.isnan(got) if want == "nan" else got == want


def test_frozen_tensors_build_no_graph():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    out = T.mul(a, b)
    assert out.node is None and not out.requires_grad
