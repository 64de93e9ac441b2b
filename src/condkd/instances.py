"""Instances, dataset statistics, and condition encoding with information
dropping.

The decoder is conditioned on annotations, not on exact geometry: centers are
jittered within the box, sizes are coarsened to power-of-two bins, and fake
instances sampled from dataset statistics are mixed in. The encoder output is
deliberately too coarse to reconstruct the annotation, which forces the
decoder to consult teacher features instead of copying its input through.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Mlp3, one_hot, sine_pos_embed
from .tensor import Tensor


@dataclass
class Instance:
    """One annotation: category, box as normalized center+size, pixel size.

    Fake instances carry is_real=False and exist only as negative conditions
    for the identification task.
    """

    category: int
    x: float
    y: float
    w: float
    h: float
    w_px: float
    h_px: float
    is_real: bool = True

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x - self.w / 2, self.y - self.h / 2, self.x + self.w / 2, self.y + self.h / 2)


def make_instance(category: int, cx: float, cy: float, w: float, h: float,
                  image_w: int, image_h: int, is_real: bool = True) -> Instance:
    """Build an Instance from a proposed normalized box, clipping to the image.

    Corners are clipped to [0,1] and the center/size re-derived, so boxes that
    grow outside shrink rather than leak out; a one-pixel floor keeps sizes
    positive.
    """
    x1 = max(0.0, cx - w / 2)
    y1 = max(0.0, cy - h / 2)
    x2 = min(1.0, cx + w / 2)
    y2 = min(1.0, cy + h / 2)
    w_c = max(x2 - x1, 1.0 / image_w)
    h_c = max(y2 - y1, 1.0 / image_h)
    cx_c = min(max((x1 + x2) / 2, w_c / 2), 1.0 - w_c / 2)
    cy_c = min(max((y1 + y2) / 2, h_c / 2), 1.0 - h_c / 2)
    return Instance(category, cx_c, cy_c, w_c, h_c, w_c * image_w, h_c * image_h, is_real)


@dataclass
class DatasetStats:
    """Per-class frequency and Gaussian pixel-size statistics of real boxes."""

    class_freq: np.ndarray  # [C] counts
    mean_w: np.ndarray  # [C] pixels
    std_w: np.ndarray
    mean_h: np.ndarray
    std_h: np.ndarray
    image_w: int
    image_h: int

    @property
    def num_classes(self) -> int:
        return int(self.class_freq.shape[0])

    @property
    def total(self) -> int:
        return int(self.class_freq.sum())


def compute_stats(scenes: list[list[Instance]], num_classes: int, image_w: int, image_h: int) -> DatasetStats:
    """Exact class frequencies plus unbiased per-class size moments (1 px floor)."""
    if not scenes or all(len(s) == 0 for s in scenes):
        raise ValueError("compute_stats needs at least one instance")
    freq = np.zeros(num_classes)
    widths: list[list[float]] = [[] for _ in range(num_classes)]
    heights: list[list[float]] = [[] for _ in range(num_classes)]
    for scene in scenes:
        for inst in scene:
            if not inst.is_real:
                continue
            freq[inst.category] += 1
            widths[inst.category].append(inst.w_px)
            heights[inst.category].append(inst.h_px)
    mean_w = np.zeros(num_classes)
    std_w = np.ones(num_classes)
    mean_h = np.zeros(num_classes)
    std_h = np.ones(num_classes)
    for c in range(num_classes):
        if widths[c]:
            mean_w[c] = float(np.mean(widths[c]))
            mean_h[c] = float(np.mean(heights[c]))
            if len(widths[c]) > 1:
                std_w[c] = max(1.0, float(np.std(widths[c], ddof=1)))
                std_h[c] = max(1.0, float(np.std(heights[c], ddof=1)))
    return DatasetStats(freq, mean_w, std_w, mean_h, std_h, image_w, image_h)


def jitter_center(box: tuple[float, float, float, float], a: float, rng: np.random.Generator) -> tuple[float, float]:
    """Shift the center by U[-a,a] of the box size per axis, clipped to [0,1]."""
    x, y, w, h = box
    if a == 0.0:
        return x, y
    phi_x, phi_y = rng.uniform(-a, a, size=2)
    return (min(max(x + phi_x * w, 0.0), 1.0), min(max(y + phi_y * h, 0.0), 1.0))


def scale_indicator(w_px: float, h_px: float) -> tuple[int, int]:
    """Box size coarsened to its power-of-two bin: floor(log2(size in px))."""
    if w_px < 1.0 or h_px < 1.0:
        warnings.warn(f"sub-pixel box ({w_px:.3g}, {h_px:.3g}) clamped to 1 px for scale binning")
        w_px = max(w_px, 1.0)
        h_px = max(h_px, 1.0)
    return (int(math.floor(math.log2(w_px))), int(math.floor(math.log2(h_px))))


@dataclass(frozen=True)
class EncoderSpec:
    """Fixed layout of the condition vector.

    concat[ one_hot(category, C) | sine(x', pos_dim) | sine(y', pos_dim)
          | sine(iw/max_log2, scale_dim) | sine(ih/max_log2, scale_dim) ]
    """

    num_classes: int
    pos_dim: int = 16
    scale_dim: int = 8
    max_log2: int = 6  # largest expected floor(log2(size px)); normalizes indicators
    jitter: float = 0.3

    @property
    def width(self) -> int:
        return self.num_classes + 2 * self.pos_dim + 2 * self.scale_dim


def condition_center(inst: Instance, spec: EncoderSpec, rng: np.random.Generator) -> tuple[float, float]:
    """The jittered center the condition vector will encode; jitter 0 draws
    nothing and keeps the exact center."""
    return jitter_center((inst.x, inst.y, inst.w, inst.h), spec.jitter, rng)


@functools.lru_cache(maxsize=1024)
def _scale_block(iw: int, ih: int, max_log2: int, scale_dim: int) -> np.ndarray:
    """Sine codes of the two integer scale bins; cached, so read-only."""
    block = np.concatenate([sine_pos_embed(iw / max_log2, scale_dim),
                            sine_pos_embed(ih / max_log2, scale_dim)])
    block.flags.writeable = False
    return block


@dataclass
class ConditionSet:
    """One scene's conditions: instances, encoded vectors, and the centers the
    encoder actually used (the regression targets must share the jitter)."""

    instances: list[Instance]
    vectors: np.ndarray  # [N x width]
    centers: np.ndarray  # [N x 2]

    @property
    def flags(self) -> np.ndarray:
        return np.array([1.0 if i.is_real else 0.0 for i in self.instances])

    def __len__(self) -> int:
        return len(self.instances)


def encode_set(instances: list[Instance], spec: EncoderSpec, rng: np.random.Generator,
               include_scale: bool = True) -> ConditionSet:
    """Condition vectors of `instances`, one row each in the EncoderSpec
    layout, with one center draw per instance in order and the sine codes of
    all centers computed in one call per axis. include_scale=False zeroes the
    scale-indicator block (the scale-hint ablation)."""
    if not instances:
        return ConditionSet([], np.zeros((0, spec.width)), np.zeros((0, 2)))
    c, p = spec.num_classes, spec.pos_dim
    centers = np.array([condition_center(inst, spec, rng) for inst in instances])
    out = np.zeros((len(instances), spec.width))
    for i, inst in enumerate(instances):
        out[i, :c] = one_hot(inst.category, c)
        iw, ih = scale_indicator(inst.w_px, inst.h_px)
        if include_scale:
            out[i, c + 2 * p:] = _scale_block(iw, ih, spec.max_log2, spec.scale_dim)
    out[:, c:c + p] = sine_pos_embed(centers[:, 0], p)
    out[:, c + p:c + 2 * p] = sine_pos_embed(centers[:, 1], p)
    return ConditionSet(list(instances), out, centers)


def make_query(encoded: np.ndarray, f_q: Mlp3) -> Tensor:
    """q_i rows from the shared query MLP; gradient reaches f_q only."""
    return f_q(T.constant(encoded))


def sample_fakes(stats: DatasetStats, n_real: int, ratio: int, rng: np.random.Generator) -> list[Instance]:
    """ratio*n_real fake instances drawn from dataset statistics.

    Category follows class frequency; pixel sizes follow the per-class
    Gaussians (clamped to [1 px, image extent]); centers are uniform over the
    image; boxes growing outside are clipped.
    """
    if stats.total == 0:
        raise ValueError("sample_fakes needs nonempty dataset statistics")
    n = ratio * n_real
    probs = stats.class_freq / stats.class_freq.sum()
    cats = rng.choice(stats.num_classes, size=n, p=probs)
    out = []
    for c in cats:
        w_px = min(max(rng.normal(stats.mean_w[c], stats.std_w[c]), 1.0), float(stats.image_w))
        h_px = min(max(rng.normal(stats.mean_h[c], stats.std_h[c]), 1.0), float(stats.image_h))
        cx, cy = rng.uniform(0.0, 1.0, size=2).tolist()
        out.append(make_instance(int(c), cx, cy, w_px / stats.image_w, h_px / stats.image_h,
                                 stats.image_w, stats.image_h, is_real=False))
    return out


def build_conditions(reals: list[Instance], stats: DatasetStats, ratio: int,
                     rng: np.random.Generator) -> list[Instance]:
    """Per-scene condition set: the real instances followed by sampled fakes."""
    return list(reals) + sample_fakes(stats, len(reals), ratio, rng)
