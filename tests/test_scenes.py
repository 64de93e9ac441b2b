"""Scene generator: determinism, pixel alignment, textures, size statistics."""

import numpy as np
import pytest

from condkd.scenes import (Scene, SceneSpec, SceneStream, _paint, class_colors, generate_scene,
                           scene_instances)


class TestDeterminism:
    def test_same_seed_same_bits(self):
        spec = SceneSpec()
        a = generate_scene(spec, (7, 3))
        b = generate_scene(spec, (7, 3))
        np.testing.assert_array_equal(a.image.data, b.image.data)
        assert len(a.instances) == len(b.instances)
        for x, y in zip(a.instances, b.instances):
            assert x.corners() == y.corners() and x.category == y.category

    def test_different_index_different_scene(self):
        spec = SceneSpec()
        a = generate_scene(spec, (7, 3))
        b = generate_scene(spec, (7, 4))
        assert np.any(a.image.data != b.image.data)

    def test_instances_without_rendering_match_the_scene(self):
        spec = SceneSpec()
        for i in range(50):
            assert scene_instances(spec, (5, 1, i)) == generate_scene(spec, (5, 1, i)).instances

    def test_dataset_is_prefix_stable(self):
        # scene i depends on (seed, i) alone, not on how many scenes are drawn
        spec = SceneSpec()
        short, long = SceneStream(spec, (11,), 4), SceneStream(spec, (11,), 7)
        for i, a in enumerate(short):
            np.testing.assert_array_equal(a.image.data, long[i].image.data)
            np.testing.assert_array_equal(a.image.data, generate_scene(spec, (11, i)).image.data)

    def test_stream_generates_each_scene_when_read(self):
        spec = SceneSpec(image_size=16)
        stream = SceneStream(spec, (9, 2), 3)
        assert len(stream) == 3
        for i, scene in enumerate(stream):
            assert scene.seed == (9, 2, i)
            np.testing.assert_array_equal(scene.image.data,
                                          generate_scene(spec, (9, 2, i)).image.data)
        assert stream[-1].seed == (9, 2, 2)
        with pytest.raises(IndexError):
            stream[3]


class TestGeometry:
    def test_boxes_inside_image_and_pixel_aligned(self):
        spec = SceneSpec()
        for scene in SceneStream(spec, (3,), 100):
            for inst in scene.instances:
                x1, y1, x2, y2 = inst.corners()
                assert 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0
                for c in (x1, y1, x2, y2):
                    assert (c * spec.image_size).is_integer()

    def test_instance_count_range(self):
        spec = SceneSpec(min_instances=2, max_instances=3)
        counts = {len(generate_scene(spec, (0, i)).instances) for i in range(50)}
        assert counts == {2, 3}

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="per class"):
            SceneSpec(num_classes=2)
        with pytest.raises(ValueError, match="min_instances"):
            SceneSpec(min_instances=3, max_instances=1,
                      size_means=(10.0, 10.0, 10.0), size_stds=(1.0, 1.0, 1.0))


class TestTextures:
    def test_image_is_channel_last_with_the_box_in_place(self):
        spec = SceneSpec(num_classes=1, noise_sigma=0.0, max_instances=1,
                         size_means=(18.0,), size_stds=(3.0,))
        scene = generate_scene(spec, (5, 0))
        assert scene.image.shape == (64, 64, 3)
        x1, y1, x2, y2 = (round(c * 64) for c in scene.instances[0].corners())
        inside = np.zeros((64, 64), dtype=bool)
        inside[y1:y2, x1:x2] = True
        np.testing.assert_array_equal(scene.image.data[inside],
                                      np.tile(class_colors(0)[0], (inside.sum(), 1)))
        assert np.all(scene.image.data[~inside] == spec.background)

    def test_noiseless_solid_rectangle_has_two_color_regions(self):
        # class 0 paints solid, so background + box = exactly two pixel values
        spec = SceneSpec(num_classes=1, noise_sigma=0.0, max_instances=1,
                         size_means=(18.0,), size_stds=(3.0,))
        scene = generate_scene(spec, (5, 0))
        pixels = scene.image.data.reshape(-1, 3)
        assert len(np.unique(pixels, axis=0)) == 2

    def test_stripes_alternate_every_two_rows(self):
        canvas = np.zeros((12, 12, 3))
        _paint(canvas, 1, 0, 0, 12, 12)
        primary, secondary = class_colors(1)
        np.testing.assert_array_equal(canvas[0, 0], primary)
        np.testing.assert_array_equal(canvas[1, 0], primary)
        np.testing.assert_array_equal(canvas[2, 0], secondary)
        np.testing.assert_array_equal(canvas[3, 0], secondary)
        np.testing.assert_array_equal(canvas[4, 0], primary)

    def test_checkerboard_alternates_in_both_axes(self):
        canvas = np.zeros((8, 8, 3))
        _paint(canvas, 2, 0, 0, 8, 8)
        primary, secondary = class_colors(2)
        np.testing.assert_array_equal(canvas[0, 0], primary)
        np.testing.assert_array_equal(canvas[0, 2], secondary)
        np.testing.assert_array_equal(canvas[2, 0], secondary)
        np.testing.assert_array_equal(canvas[2, 2], primary)

    def test_later_paint_occludes_earlier(self):
        canvas = np.zeros((10, 10, 3))
        _paint(canvas, 0, 0, 0, 8, 8)
        _paint(canvas, 2, 4, 4, 10, 10)
        primary0, _ = class_colors(0)
        primary2, _ = class_colors(2)
        np.testing.assert_array_equal(canvas[1, 1], primary0)
        np.testing.assert_array_equal(canvas[4, 4], primary2)

    def test_palette_is_distinct_across_classes(self):
        prims = [class_colors(c)[0] for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(prims[i] - prims[j]).max() > 0.1


class TestSizeStatistics:
    def test_monte_carlo_recovers_generator_parameters(self):
        spec = SceneSpec()
        sizes = {c: [] for c in range(spec.num_classes)}
        for i in range(1000):
            for inst in scene_instances(spec, (123, i)):
                sizes[inst.category].append((inst.w_px, inst.h_px))
        for c in range(spec.num_classes):
            arr = np.array(sizes[c], dtype=float)
            assert arr.shape[0] > 200
            mean = arr.mean()
            std = arr.std(ddof=1)
            assert abs(mean - spec.size_means[c]) / spec.size_means[c] < 0.05
            assert abs(std - spec.size_stds[c]) / spec.size_stds[c] < 0.05
