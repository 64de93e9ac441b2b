"""Shared test helpers: pixel-aligned instances, the production system on
the mini config (image 16x16, two classes, width 8, two heads, L = 5
pyramid cells), small enough for finite differences, and loop references
for code that production computes with array operations."""

import numpy as np

from condkd.instances import make_instance
from condkd.pyramid import STRIDES
from condkd.train import build_system
from condkd.verify import mini_config


def mini_system(seed=0, **overrides):
    """(cfg, train.build_system(cfg)) for verify.mini_config(seed=seed, ...)."""
    cfg = mini_config(seed=seed, **overrides)
    return cfg, build_system(cfg)


def pixel_instance(category, px1, py1, px2, py2, image=16, is_real=True):
    """Instance with pixel-aligned corners (exact dyadic coordinates)."""
    w, h = (px2 - px1) / image, (py2 - py1) / image
    cx, cy = (px1 + px2) / 2 / image, (py1 + py2) / 2 / image
    return make_instance(category, cx, cy, w, h, image, image, is_real)


def regression_targets(inst, center):
    """[l, t, r, b]: distances from the (jittered) center to the box sides,
    in normalized image coordinates; `aux_loss` forms the same for every
    condition at once. Negative values pass through when clipping pushed the
    center outside the box."""
    x1, y1, x2, y2 = inst.corners()
    cx, cy = center
    return np.array([cx - x1, cy - y1, x2 - cx, y2 - cy])


def loop_mask_row(variant, instances, image_size):
    """`train.baseline_mask_row` for "foreground" or "fine_grained" as one
    Python loop over the cells (level-major, then row-major), each cell's
    geometry from its index: the form the rows had before they became array
    operations over `pyramid.layout`."""
    cells = [(stride / image_size, y, x) for stride in STRIDES
             for y in range(image_size // stride) for x in range(image_size // stride)]
    boxes = [inst.corners() for inst in instances if inst.is_real]
    row = np.zeros(len(cells))
    for r, (s, y, x) in enumerate(cells):
        if variant == "foreground":
            cx, cy = (x + 0.5) * s, (y + 0.5) * s
            if any(x1 < cx < x2 and y1 < cy < y2 for x1, y1, x2, y2 in boxes):
                row[r] = 1.0
        else:
            gx1, gy1 = x * s, y * s
            best = 0.0
            for x1, y1, x2, y2 in boxes:
                ox = max(0.0, min(x2, gx1 + s) - max(x1, gx1))
                oy = max(0.0, min(y2, gy1 + s) - max(y1, gy1))
                best = max(best, (ox * oy) / (s * s))
            row[r] = best
    n = len(cells)
    return row / row.sum() if row.sum() > 0 else np.full(n, 1.0 / n)
