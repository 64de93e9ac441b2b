"""Shared test helpers: pixel-aligned instances, and the production system on
the mini config (image 16x16, two classes, width 8, two heads, L = 5
pyramid cells), small enough for finite differences."""

from condkd.instances import make_instance
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
