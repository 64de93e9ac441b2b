"""Instance encoding, jitter, scale bins, and fake sampling tests.

Monte-Carlo expectations are checked against the generating distributions.
"""

import numpy as np
import pytest

from condkd.instances import (
    DatasetStats,
    EncoderSpec,
    Instance,
    build_conditions,
    compute_stats,
    encode_set,
    jitter_center,
    make_instance,
    make_query,
    sample_fakes,
    scale_indicator,
)
from condkd.nn import Mlp3
from condkd.tensor import ParamGroup


def small_stats(image=64):
    return DatasetStats(
        class_freq=np.array([10.0, 30.0]),
        mean_w=np.array([6.0, 8.0]),
        std_w=np.array([1.0, 1.5]),
        mean_h=np.array([6.0, 8.0]),
        std_h=np.array([1.0, 1.5]),
        image_w=image,
        image_h=image,
    )


def test_make_instance_clips_and_rederives():
    inst = make_instance(0, 0.05, 0.5, 0.2, 0.2, 64, 64)
    x1, y1, x2, y2 = inst.corners()
    assert x1 >= -1e-12 and x2 <= 1.0 + 1e-12
    assert inst.w == pytest.approx(0.15)  # right half kept, left clipped at 0
    assert inst.w_px == pytest.approx(0.15 * 64)
    assert inst.h == pytest.approx(0.2)


def test_jitter_zero_amplitude_is_identity():
    rng = np.random.default_rng(0)
    assert jitter_center((0.4, 0.6, 0.2, 0.1), 0.0, rng) == (0.4, 0.6)


def test_jitter_forced_offset():
    # phi_x = +0.3 with w = 0.5 must move the center by exactly 0.15
    class Forced:
        def uniform(self, lo, hi, size=None):
            return np.array([hi, 0.0])

    x, y = jitter_center((0.3, 0.5, 0.5, 0.2), 0.3, Forced())
    assert x == pytest.approx(0.45)
    assert y == pytest.approx(0.5)


def test_jitter_monte_carlo_bounds_and_mean():
    rng = np.random.default_rng(1)
    a, w, h = 0.3, 0.4, 0.25
    offsets = []
    for _ in range(10_000):
        x, y = jitter_center((0.5, 0.5, w, h), a, rng)
        assert abs(x - 0.5) <= a * w + 1e-12
        assert abs(y - 0.5) <= a * h + 1e-12
        offsets.append(x - 0.5)
    # U[-aw, aw] has sd aw/sqrt(3); mean of 1e4 draws within 3 standard errors
    se = (a * w / np.sqrt(3.0)) / np.sqrt(10_000.0)
    assert abs(np.mean(offsets)) < 3 * se


def test_scale_indicator_values():
    assert scale_indicator(8, 32) == (3, 5)
    assert scale_indicator(10, 10) == (3, 3)
    assert scale_indicator(1, 1) == (0, 0)


def test_scale_indicator_subpixel_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert scale_indicator(0.5, 2.0) == (0, 1)


def test_scale_indicator_constant_within_bin():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = rng.uniform(8.0, 15.999)
        assert scale_indicator(s, s) == (3, 3)


def encode_one(inst, spec, rng):
    """The condition vector of a single instance."""
    return encode_set([inst], spec, rng).vectors[0]


def test_encoding_deterministic_without_dropping():
    spec = EncoderSpec(num_classes=3, jitter=0.0)
    inst = Instance(1, 0.3, 0.7, 0.2, 0.1, 12.8, 6.4)
    a = encode_set([inst], spec, np.random.default_rng(0))
    b = encode_set([inst], spec, np.random.default_rng(99))
    assert np.array_equal(a.vectors, b.vectors)
    assert a.centers.tolist() == [[0.3, 0.7]]  # jitter 0 keeps the exact center


def test_encoding_differs_only_in_one_hot_for_category_change():
    spec = EncoderSpec(num_classes=3, jitter=0.0)
    a = encode_one(Instance(0, 0.3, 0.7, 0.2, 0.1, 12.8, 6.4), spec, np.random.default_rng(0))
    b = encode_one(Instance(2, 0.3, 0.7, 0.2, 0.1, 12.8, 6.4), spec, np.random.default_rng(0))
    assert not np.array_equal(a[:3], b[:3])
    assert np.array_equal(a[3:], b[3:])


def test_encoding_width_matches_spec():
    spec = EncoderSpec(num_classes=5, pos_dim=16, scale_dim=8)
    assert spec.width == 5 + 32 + 16
    inst = Instance(4, 0.5, 0.5, 0.25, 0.25, 16.0, 16.0)
    assert encode_set([inst] * 3, spec, np.random.default_rng(0)).vectors.shape == (3, spec.width)


def test_dropping_changes_only_positional_blocks():
    spec = EncoderSpec(num_classes=3, pos_dim=8, scale_dim=4, jitter=0.3)
    inst = Instance(1, 0.5, 0.5, 0.3, 0.3, 19.2, 19.2)
    a = encode_one(inst, spec, np.random.default_rng(1))
    b = encode_one(inst, spec, np.random.default_rng(2))
    C, P = 3, 8
    assert np.array_equal(a[:C], b[:C])  # one-hot block
    assert not np.array_equal(a[C : C + 2 * P], b[C : C + 2 * P])  # jittered positions
    assert np.array_equal(a[C + 2 * P :], b[C + 2 * P :])  # scale block


def test_make_query_zero_weights_gives_bias_rows():
    g = ParamGroup("decoder")
    spec = EncoderSpec(num_classes=2, pos_dim=4, scale_dim=4, jitter=0.0)
    f_q = Mlp3(spec.width, 8, 6, g, np.random.default_rng(3), "f_q")
    for layer in (f_q.l1, f_q.l2, f_q.l3):
        layer.weight.data[...] = 0.0
    f_q.l3.bias.data[...] = np.arange(6.0)
    insts = [Instance(0, 0.2, 0.2, 0.1, 0.1, 6.4, 6.4), Instance(1, 0.8, 0.8, 0.2, 0.2, 12.8, 12.8)]
    enc = encode_set(insts, spec, np.random.default_rng(0)).vectors
    q = make_query(enc, f_q)
    assert q.shape == (2, 6)
    assert np.array_equal(q.data, np.tile(np.arange(6.0), (2, 1)))


def test_query_rows_independent():
    g = ParamGroup("decoder")
    spec = EncoderSpec(num_classes=2, pos_dim=4, scale_dim=4, jitter=0.0)
    f_q = Mlp3(spec.width, 8, 6, g, np.random.default_rng(4), "f_q")
    i1 = Instance(0, 0.2, 0.2, 0.1, 0.1, 6.4, 6.4)
    i2 = Instance(1, 0.8, 0.8, 0.2, 0.2, 12.8, 12.8)
    both = make_query(encode_set([i1, i2], spec, np.random.default_rng(0)).vectors, f_q)
    solo = make_query(encode_set([i1], spec, np.random.default_rng(0)).vectors, f_q)
    assert np.allclose(both.data[0], solo.data[0])


def test_sample_fakes_count_and_flags():
    fakes = sample_fakes(small_stats(), n_real=2, ratio=5, rng=np.random.default_rng(5))
    assert len(fakes) == 10
    assert all(not f.is_real for f in fakes)


def test_sample_fakes_single_class():
    stats = small_stats()
    stats.class_freq = np.array([0.0, 7.0])
    fakes = sample_fakes(stats, 4, 5, np.random.default_rng(6))
    assert all(f.category == 1 for f in fakes)


def test_sample_fakes_empty_stats_rejected():
    stats = small_stats()
    stats.class_freq = np.array([0.0, 0.0])
    with pytest.raises(ValueError):
        sample_fakes(stats, 1, 5, np.random.default_rng(0))


def test_sample_fakes_size_statistics_match_generator():
    # large image relative to box size keeps border clipping rare (~2% of
    # draws), so the sample moments track the generating Gaussian
    stats = small_stats(image=256)
    stats.class_freq = np.array([1.0, 0.0])  # isolate class 0: mean 6, std 1
    fakes = sample_fakes(stats, 2000, 5, np.random.default_rng(7))
    widths = np.array([f.w_px for f in fakes])
    assert len(widths) == 10_000
    assert abs(widths.mean() - 6.0) / 6.0 < 0.05
    assert abs(widths.std(ddof=1) - 1.0) / 1.0 < 0.05


def test_fakes_stay_inside_image():
    fakes = sample_fakes(small_stats(), 200, 5, np.random.default_rng(8))
    for f in fakes:
        x1, y1, x2, y2 = f.corners()
        assert -1e-9 <= x1 and x2 <= 1 + 1e-9 and -1e-9 <= y1 and y2 <= 1 + 1e-9
        assert f.w_px >= 1.0 and f.h_px >= 1.0


def test_build_conditions_composition():
    reals = [make_instance(0, 0.3, 0.3, 0.2, 0.2, 64, 64), make_instance(1, 0.7, 0.7, 0.15, 0.2, 64, 64)]
    conds = build_conditions(reals, small_stats(), 5, np.random.default_rng(9))
    assert len(conds) == 2 * (1 + 5)
    assert sum(c.is_real for c in conds) == 2
    assert conds[0] is reals[0] and conds[1] is reals[1]


def test_compute_stats_single_sample_floors_std():
    scene = [make_instance(0, 0.5, 0.5, 10 / 64, 10 / 64, 64, 64)]
    stats = compute_stats([scene], 2, 64, 64)
    assert stats.mean_w[0] == pytest.approx(10.0)
    assert stats.std_w[0] == 1.0
    assert stats.class_freq.tolist() == [1.0, 0.0]


def test_compute_stats_two_sample_mean():
    scenes = [
        [make_instance(0, 0.5, 0.5, 8 / 64, 8 / 64, 64, 64)],
        [make_instance(0, 0.5, 0.5, 12 / 64, 12 / 64, 64, 64)],
    ]
    stats = compute_stats(scenes, 1, 64, 64)
    assert stats.mean_w[0] == pytest.approx(10.0)


def test_compute_stats_recovers_generator_parameters():
    rng = np.random.default_rng(10)
    scenes = []
    for _ in range(1000):
        w = float(np.clip(rng.normal(12.0, 2.0), 4.0, 30.0))
        h = float(np.clip(rng.normal(9.0, 1.5), 4.0, 30.0))
        scenes.append([make_instance(0, 0.5, 0.5, w / 64, h / 64, 64, 64)])
    stats = compute_stats(scenes, 1, 64, 64)
    assert abs(stats.mean_w[0] - 12.0) / 12.0 < 0.02
    assert abs(stats.mean_h[0] - 9.0) / 9.0 < 0.02


def test_compute_stats_rejects_empty():
    with pytest.raises(ValueError):
        compute_stats([], 2, 64, 64)
    with pytest.raises(ValueError):
        compute_stats([[]], 2, 64, 64)
