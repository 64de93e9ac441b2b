"""Heatmap export: PGM/PPM encoding, quantization, and argmax round trips."""

import numpy as np
import pytest

from condkd import tensor as T
from condkd.decoder import Knowledge
from condkd.heatmap import (
    colorize,
    export_attention,
    quantize_mask,
    write_pgm,
    write_ppm,
)
from condkd.pyramid import FlatPyramid, layout

from helpers import read_pgm


def two_level_flat():
    # a 16px image: 2x2 stride-8 grid plus 1x1 stride-16 grid, 5 rows
    return FlatPyramid(T.constant(np.zeros((5, 4))), np.zeros((5, 6)), layout(16))


def knowledge_for(mask_rows):
    m = T.constant(np.asarray(mask_rows, dtype=float)[None])
    v = T.constant(np.zeros((m.shape[2], 4)))
    return Knowledge(masks=m, values=v)


class TestPgmIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "x.pgm")
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_header_is_plain_p5(self, tmp_path):
        path = str(tmp_path / "x.pgm")
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        blob = open(path, "rb").read()
        assert blob.startswith(b"P5\n3 2\n255\n")
        assert len(blob) == len(b"P5\n3 2\n255\n") + 6

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(str(tmp_path / "x.pgm"), np.zeros((2, 2)))

    def test_ppm_size(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        blob = open(path, "rb").read()
        assert blob.startswith(b"P6\n3 2\n255\n")
        assert len(blob) == len(b"P6\n3 2\n255\n") + 18

    def test_missing_directory_raises_with_path(self, tmp_path):
        bad = str(tmp_path / "no" / "dir" / "x.pgm")
        with pytest.raises(OSError, match="no"):
            write_pgm(bad, np.zeros((2, 2), dtype=np.uint8))


class TestQuantize:
    def test_constant_row_maps_to_mid_gray(self):
        np.testing.assert_array_equal(quantize_mask(np.full((2, 2), 0.2)),
                                      np.full((2, 2), 128, dtype=np.uint8))

    def test_min_max_hit_the_rails(self):
        q = quantize_mask(np.array([[0.1, 0.3], [0.2, 0.1]]))
        assert q.min() == 0 and q.max() == 255

    def test_colorize_ramp(self):
        rgb = colorize(np.array([[0, 255]], dtype=np.uint8))
        assert rgb[0, 0, 2] > rgb[0, 0, 0]  # cold end: blue dominates
        assert rgb[0, 1, 0] > rgb[0, 1, 2]  # hot end: red dominates


class TestExport:
    def test_uniform_mask_writes_constant_gray(self, tmp_path):
        flat = two_level_flat()
        k = knowledge_for([np.full(5, 0.2)])
        paths = export_attention(k, flat, 0, 0, str(tmp_path / "u"))
        assert len(paths) == 4
        img = read_pgm(paths[0])
        assert img.shape == (2, 2)
        assert np.all(img == 128)

    def test_one_hot_mask_writes_single_white_pixel(self, tmp_path):
        flat = two_level_flat()
        row = np.zeros(5)
        row[2] = 1.0
        k = knowledge_for([row])
        paths = export_attention(k, flat, 0, 0, str(tmp_path / "h"))
        img = read_pgm(paths[0])
        assert img[1, 0] == 255
        assert np.sum(img == 255) == 1

    def test_argmax_round_trip_per_level(self, tmp_path):
        rng = np.random.default_rng(4)
        flat = two_level_flat()
        row = rng.dirichlet(np.ones(5))
        k = knowledge_for([row])
        paths = export_attention(k, flat, 0, 0, str(tmp_path / "r"))
        level0 = read_pgm(paths[0])
        assert level0.argmax() == row[:4].argmax()

    def test_bad_indices_rejected(self, tmp_path):
        flat = two_level_flat()
        k = knowledge_for([np.full(5, 0.2)])
        with pytest.raises(ValueError, match="head"):
            export_attention(k, flat, 0, 3, str(tmp_path / "x"))
        with pytest.raises(ValueError, match="instance"):
            export_attention(k, flat, 5, 0, str(tmp_path / "x"))
