"""Instances, dataset statistics, and condition encoding with information
dropping.

The decoder is conditioned on annotations, not on exact geometry: centers are
jittered within the box, sizes are coarsened to power-of-two bins, and fake
instances sampled from dataset statistics are mixed in. The encoder output is
deliberately too coarse to reconstruct the annotation, which forces the
decoder to consult teacher features instead of copying its input through.
The encoder reads its layout, jitter and scale switch from `ExperimentConfig`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .nn import Mlp3, one_hot, sine_pos_embed
from .tensor import Tensor

if TYPE_CHECKING:
    from .config import ExperimentConfig


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
    cats, widths, heights = np.array([(inst.category, inst.w_px, inst.h_px) for scene in scenes
                                      for inst in scene if inst.is_real]).reshape(-1, 3).T
    freq, mean_w, mean_h = np.zeros((3, num_classes))
    std_w, std_h = np.ones((2, num_classes))
    for c in range(num_classes):
        w, h = widths[cats == c], heights[cats == c]
        freq[c] = w.size
        if w.size:
            mean_w[c], mean_h[c] = np.mean(w), np.mean(h)
        if w.size > 1:
            std_w[c] = max(1.0, np.std(w, ddof=1))
            std_h[c] = max(1.0, np.std(h, ddof=1))
    return DatasetStats(freq, mean_w, std_w, mean_h, std_h, image_w, image_h)


def jitter_draws(n: int, a: float, rng: np.random.Generator) -> np.ndarray:
    """The center jitter of n boxes, U[-a,a] per axis: [n x 2]; a = 0 draws nothing."""
    return rng.uniform(-a, a, (n, 2)) if a != 0.0 else np.zeros((n, 2))


def scale_indicator(w_px: float, h_px: float) -> tuple[int, int]:
    """Box size coarsened to its power-of-two bin: floor(log2(size in px))."""
    if w_px < 1.0 or h_px < 1.0:
        warnings.warn(f"sub-pixel box ({w_px:.3g}, {h_px:.3g}) clamped to 1 px for scale binning")
        w_px = max(w_px, 1.0)
        h_px = max(h_px, 1.0)
    return (int(math.floor(math.log2(w_px))), int(math.floor(math.log2(h_px))))


def condition_width(cfg: ExperimentConfig) -> int:
    """Width of a condition vector: concat[ one_hot(category, C)
    | sine(x', enc_pos_dim) | sine(y', enc_pos_dim) | sine(iw/max_log2, enc_scale_dim)
    | sine(ih/max_log2, enc_scale_dim) ], max_log2 the largest expected floor(log2(size px))."""
    return cfg.num_classes + 2 * cfg.enc_pos_dim + 2 * cfg.enc_scale_dim


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


def encode_set(instances: list[Instance], cfg: ExperimentConfig,
               rng: np.random.Generator) -> ConditionSet:
    """Condition vectors of `instances`, one row each in the condition_width
    layout; each center moves by jitter_draws times its box size, clipped to
    [0,1], and the sine codes of all centers take one call per axis.
    A config with use_scale=False zeroes the scale-indicator block (scale-hint ablation)."""
    if not instances:
        return ConditionSet([], np.zeros((0, condition_width(cfg))), np.zeros((0, 2)))
    c, p = cfg.num_classes, cfg.enc_pos_dim
    boxes = np.array([(i.x, i.y, i.w, i.h) for i in instances])
    centers = np.clip(boxes[:, :2] + jitter_draws(len(boxes), cfg.jitter, rng) * boxes[:, 2:], 0, 1)
    out = np.zeros((len(instances), condition_width(cfg)))
    for i, inst in enumerate(instances):
        out[i, :c] = one_hot(inst.category, c)
        iw, ih = scale_indicator(inst.w_px, inst.h_px)
        if cfg.use_scale:
            out[i, c + 2 * p:] = _scale_block(iw, ih, cfg.max_log2, cfg.enc_scale_dim)
    out[:, c:c + p] = sine_pos_embed(centers[:, 0], p)
    out[:, c + p:c + 2 * p] = sine_pos_embed(centers[:, 1], p)
    return ConditionSet(list(instances), out, centers)


def make_query(encoded: np.ndarray, f_q: Mlp3) -> Tensor:
    """q_i rows from the shared query MLP; gradient reaches f_q only."""
    return f_q(T.constant(encoded))


def fake_draws(stats: DatasetStats, n: int, rng: np.random.Generator) -> list[tuple]:
    """Every draw of n fakes in order: categories, then per fake (c, w_px, h_px, cx, cy)."""
    cats = rng.choice(stats.num_classes, size=n, p=stats.class_freq / stats.class_freq.sum())
    return [(int(c), rng.normal(stats.mean_w[c], stats.std_w[c]),
             rng.normal(stats.mean_h[c], stats.std_h[c]), *rng.uniform(0.0, 1.0, 2).tolist())
            for c in cats]


def sample_fakes(stats: DatasetStats, n_real: int, ratio: int, rng: np.random.Generator) -> list[Instance]:
    """ratio*n_real fake instances drawn from dataset statistics.

    Category follows class frequency; pixel sizes follow the per-class
    Gaussians (clamped to [1 px, image extent]); centers are uniform over the
    image; boxes growing outside are clipped.
    """
    if stats.total == 0:
        raise ValueError("sample_fakes needs nonempty dataset statistics")
    out = []
    for c, w_px, h_px, cx, cy in fake_draws(stats, ratio * n_real, rng):
        w_px = min(max(w_px, 1.0), float(stats.image_w))
        h_px = min(max(h_px, 1.0), float(stats.image_h))
        out.append(make_instance(c, cx, cy, w_px / stats.image_w, h_px / stats.image_h,
                                 stats.image_w, stats.image_h, is_real=False))
    return out


def build_conditions(reals: list[Instance], stats: DatasetStats, ratio: int,
                     rng: np.random.Generator) -> list[Instance]:
    """Per-scene condition set: the real instances followed by sampled fakes."""
    return list(reals) + sample_fakes(stats, len(reals), ratio, rng)


def skip_conditions(n_real: int, stats: DatasetStats, cfg: ExperimentConfig, rng) -> None:
    """Advance `rng` past a scene of n_real real instances exactly as
    build_conditions (at cfg.fake_ratio) and then encode_set do, making only
    their draws."""
    jitter_draws(n_real + len(fake_draws(stats, cfg.fake_ratio * n_real, rng)), cfg.jitter, rng)
