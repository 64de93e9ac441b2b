"""Synthetic detection scenes: colored rectangles on a gray background.

The generator reads the `ExperimentConfig` fields it uses (image_size,
num_classes, noise_sigma); the knobs no config sets are the constants
below. Rectangles are drawn on the pixel grid, so every box corner is an
exact multiple of 1/image_size. That keeps the side-distance identities
(l + r == w, t + b == h) bit-exact downstream and makes scenes reproducible
to the last bit from their seed.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .instances import Instance, make_instance
from .tensor import Tensor

if TYPE_CHECKING:
    from .config import ExperimentConfig

MIN_INSTANCES, MAX_INSTANCES = 1, 4  # instances per scene, both inclusive
BACKGROUND = 0.12
# Gaussian pixel sizes of class c mod 3, as its texture: spread-out means keep
# classes distinguishable by scale, and dataset statistics informative.
SIZE_MEANS = (18.0, 12.0, 26.0)
SIZE_STDS = (3.0, 2.0, 4.0)


@dataclass
class Scene:
    image: Tensor  # [H, W, 3], constant
    instances: list[Instance]  # paint order; later boxes occlude earlier ones
    seed: tuple[int, ...]  # entropy the scene was drawn from, e.g. (run seed, stream, index)


def class_colors(category: int) -> tuple[np.ndarray, np.ndarray]:
    """Primary/secondary paint colors from a fixed trigonometric palette."""
    phase = 2.1 * category
    primary = 0.55 + 0.4 * np.sin([phase + 0.3, phase + 2.4, phase + 4.5])
    return primary, primary * 0.45


def _paint(canvas: np.ndarray, category: int, x1: int, y1: int, x2: int, y2: int) -> None:
    """Fill [y1:y2, x1:x2] with the class texture: solid, 2px horizontal
    stripes, or a 2px checkerboard, cycling with the class index."""
    canvas[y1:y2, x1:x2] = _texture(category, *canvas.shape[:2])[:y2 - y1, :x2 - x1]


@functools.lru_cache(maxsize=64)
def _texture(category: int, h: int, w: int) -> np.ndarray:
    """The class texture over an h x w canvas, anchored at its top-left
    corner; its top-left corner of any size is that size's patch. Cached per
    canvas size, so read-only."""
    primary, secondary = class_colors(category)
    patch = np.tile(primary, (h, w, 1))
    kind = category % 3
    if kind == 1:
        rows = (np.arange(h) // 2) % 2 == 1
        patch[rows] = secondary
    elif kind == 2:
        yy, xx = np.meshgrid(np.arange(h) // 2, np.arange(w) // 2, indexing="ij")
        patch[(yy + xx) % 2 == 1] = secondary
    patch.flags.writeable = False
    return patch


def _sample_box(s: int, category: int, rng: np.random.Generator) -> tuple[int, int, int, int]:
    mean, std = SIZE_MEANS[category % len(SIZE_MEANS)], SIZE_STDS[category % len(SIZE_STDS)]
    w = min(max(round(rng.normal(mean, std)), 3), s - 2)
    h = min(max(round(rng.normal(mean, std)), 3), s - 2)
    x1 = int(rng.integers(0, s - w + 1))
    y1 = int(rng.integers(0, s - h + 1))
    return x1, y1, x1 + w, y1 + h


def instance_count(rng: np.random.Generator) -> int:
    """A scene's number of instances: the first draw of its stream."""
    return int(rng.integers(MIN_INSTANCES, MAX_INSTANCES + 1))


def _draw_layout(cfg: ExperimentConfig, rng: np.random.Generator):
    """Every draw of a scene but its noise: (instance, pixel box) pairs in
    paint order."""
    s = cfg.image_size
    layout = []
    for _ in range(instance_count(rng)):
        category = int(rng.integers(cfg.num_classes))
        x1, y1, x2, y2 = box = _sample_box(s, category, rng)
        layout.append((make_instance(category, (x1 + x2) / 2 / s, (y1 + y2) / 2 / s,
                                     (x2 - x1) / s, (y2 - y1) / s, s, s), box))
    return layout


def scene_instances(cfg: ExperimentConfig, seed: tuple[int, ...]) -> list[Instance]:
    """The instances of generate_scene(cfg, seed), without rendering it."""
    return [inst for inst, _ in _draw_layout(cfg, np.random.default_rng(seed))]


def generate_scene(cfg: ExperimentConfig, seed: tuple[int, ...]) -> Scene:
    rng = np.random.default_rng(seed)
    s = cfg.image_size
    canvas = np.full((s, s, 3), BACKGROUND)
    layout = _draw_layout(cfg, rng)
    for inst, box in layout:
        _paint(canvas, inst.category, *box)
    instances = [inst for inst, _ in layout]
    if cfg.noise_sigma > 0:
        canvas = canvas + rng.normal(0.0, cfg.noise_sigma, canvas.shape)
    return Scene(T.constant(canvas), instances, seed)


@dataclass(frozen=True)
class SceneStream(Sequence):
    """The scenes generate_scene(cfg, prefix + (i,)) for i < n, each
    generated when it is read, so a pass over them holds one at a time."""

    cfg: ExperimentConfig
    prefix: tuple[int, ...]
    n: int

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Scene:
        return generate_scene(self.cfg, self.prefix + (range(self.n)[i],))

