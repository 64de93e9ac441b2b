"""Toy multi-scale detector and the flattened feature-pyramid view.

The detector is deliberately small plumbing: a strided conv backbone, 1x1
lateral projections onto a shared width at the two levels of STRIDES, and a
dense per-cell head predicting class logits and ltrb box distances. It stands
in for a real dense detector so the distillation machinery has genuine
multi-scale features to work with. It reads image_size, num_classes and
feat_dim from the `ExperimentConfig`; its backbone widths are the config's
teacher_widths or student_widths, passed in.

Images and backbone maps are channel-last: [H, W, 3] and [H, W, C]. From the
laterals on, a level is one row per cell, [H*W x D] in row-major order, and
the levels stack level-major in the row order of `layout`.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .instances import Instance
from .nn import Linear, kaiming_uniform, sine_pos_embed
from .tensor import ParamGroup, ShapeError, Tensor

if TYPE_CHECKING:
    from .config import ExperimentConfig

STRIDES = (8, 16)  # the pyramid levels the backbone is wired for
# cap on the box-regression exponent: a diverging step stays finite, while a
# distance of exp(10) cell sides is far beyond any box the image can hold
EXP_CAP = 10.0


class Conv2d:
    """3x3 convolution of one channel-last [H, W, C] map.

    One `conv2d` node: im2col followed by the arithmetic of `linear`,
    differentiated as that composition.
    """

    def __init__(self, in_ch: int, out_ch: int, group: ParamGroup, rng: np.random.Generator,
                 name: str, stride: int = 1):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.stride = stride
        self.weight = group.add(f"{name}.w", kaiming_uniform(rng, out_ch, 3 * 3 * in_ch))
        self.bias = group.add(f"{name}.b", np.zeros(out_ch))

    def __call__(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got input shape {x.shape}")
        if h % self.stride or w % self.stride:
            raise ValueError(f"spatial size {h}x{w} not divisible by stride {self.stride}")
        return T.conv2d(x, self.weight, self.bias, 3, self.stride)


@dataclass(frozen=True)
class PyramidLayout:
    """The cell geometry of the pyramid over STRIDES at one image size, in
    the row order of the flattened pyramid: level-major, then row-major
    within a level. Cached, so the arrays are shared and read-only."""

    shapes: tuple[tuple[int, int], ...]  # (H, W) per level of STRIDES
    centers: np.ndarray  # [L x 2] normalized (cx, cy)
    sides: np.ndarray  # [L] normalized cell side, stride / image_size


@functools.lru_cache(maxsize=16)
def layout(image_size: int) -> PyramidLayout:
    """The PyramidLayout of `image_size`: the cell in row y, column x of the
    stride-s level is centred at ((x + 0.5) * s / image_size,
    (y + 0.5) * s / image_size)."""
    shapes, centers, sides = [], [], []
    for stride in STRIDES:
        n = image_size // stride
        ys, xs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        centers.append(np.stack([(xs.ravel() + 0.5) * stride / image_size,
                                 (ys.ravel() + 0.5) * stride / image_size], axis=1))
        sides.append(np.full(n * n, stride / image_size))
        shapes.append((n, n))
    lay = PyramidLayout(tuple(shapes), np.concatenate(centers), np.concatenate(sides))
    lay.centers.flags.writeable = False
    lay.sides.flags.writeable = False
    return lay


@dataclass
class FlatPyramid:
    """All pyramid cells stacked into one matrix, in `layout`'s row order.

    A holds the features [L x D]; pos holds fixed positional rows (sine x,
    sine y, level tag).
    """

    A: Tensor
    pos: np.ndarray  # read-only, shared by every pyramid of the same geometry
    layout: PyramidLayout

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]


class ToyDetector:
    """Strided conv backbone + 1x1 laterals + shared dense head.

    Teacher and student differ only in backbone widths; laterals and head live
    at the shared pyramid width so parameters there are inheritable when
    shapes agree.
    """

    def __init__(self, cfg: ExperimentConfig, widths: tuple[int, ...], group: ParamGroup,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.group = group
        w1, w2, w3, w4 = widths  # backbone stage channels
        d = cfg.feat_dim  # the shared pyramid width
        self.conv1 = Conv2d(3, w1, group, rng, "backbone.conv1", stride=2)
        self.conv2 = Conv2d(w1, w2, group, rng, "backbone.conv2", stride=2)
        self.conv3 = Conv2d(w2, w3, group, rng, "backbone.conv3", stride=2)
        self.conv4 = Conv2d(w3, w4, group, rng, "backbone.conv4", stride=2)
        self.lat8 = Linear(w3, d, group, rng, "lateral.s8")
        self.lat16 = Linear(w4, d, group, rng, "lateral.s16")
        self.head_conv = Conv2d(d, d, group, rng, "head.conv")
        # zero bias throughout: a fresh head starts uncalibrated, so class-rate
        # and box-scale calibration is learned (and inheritable from a teacher)
        self.head_out = Conv2d(d, cfg.num_classes + 4, group, rng, "head.out")

    def backbone_forward(self, image: Tensor) -> list[Tensor]:
        """The lateral rows [H*W x D] of each level of STRIDES."""
        s = self.cfg.image_size
        if image.shape != (s, s, 3):
            raise ShapeError(f"expected image [{s}, {s}, 3], got {image.shape}")
        c1 = T.relu(self.conv1(image))
        c2 = T.relu(self.conv2(c1))
        c3 = T.relu(self.conv3(c2))  # stride 8
        c4 = T.relu(self.conv4(c3))  # stride 16
        return [lat(T.reshape(c, (-1, c.shape[-1])))
                for lat, c in ((self.lat8, c3), (self.lat16, c4))]

    def det_head_forward(self, levels: list[Tensor]) -> tuple[Tensor, Tensor]:
        """Class logits [L x C] and normalized ltrb [L x 4] of every cell, in
        the row order of `layout`, from the level rows of backbone_forward."""
        lay, d, c = layout(self.cfg.image_size), self.cfg.feat_dim, self.cfg.num_classes
        outs = []
        for rows, (h, w) in zip(levels, lay.shapes):
            z = T.relu(self.head_conv(T.reshape(rows, (h, w, d))))
            outs.append(T.reshape(self.head_out(z), (h * w, c + 4)))
        out = T.concat(outs, axis=0)
        # exp keeps distances positive; the cell side, stride / image size,
        # scales them to normalized units
        ltrb = T.mul(T.exp(T.clamp(T.slice_last(out, c, c + 4), -np.inf, EXP_CAP)),
                     T.constant(lay.sides[:, None]))
        return T.slice_last(out, 0, c), ltrb


@functools.lru_cache(maxsize=16)
def _positions(image_size: int, pos_dim: int) -> np.ndarray:
    """The positional rows of flatten_pyramid, which depend on the geometry
    alone; cached, so read-only."""
    lay = layout(image_size)
    tags = [np.tile(sine_pos_embed((li + 0.5) / len(STRIDES), 2), (h * w, 1))
            for li, (h, w) in enumerate(lay.shapes)]
    pos = np.concatenate([sine_pos_embed(lay.centers[:, 0], pos_dim // 2),
                          sine_pos_embed(lay.centers[:, 1], pos_dim // 2),
                          np.concatenate(tags)], axis=1)
    pos.flags.writeable = False
    return pos


def flatten_pyramid(levels: list[Tensor], image_size: int, pos_dim: int) -> FlatPyramid:
    """Stack the level rows of backbone_forward into [L x D], level-major.

    Positional rows: sine encodings of the normalized cell center per axis
    (pos_dim/2 wide each) plus a two-wide sine tag of the level index, so
    cells at matching normalized coordinates on different levels stay distinct.
    """
    return FlatPyramid(T.concat(levels, axis=0), _positions(image_size, pos_dim),
                       layout(image_size))


def assign_cells(centers: np.ndarray, instances: list[Instance]) -> tuple[np.ndarray, np.ndarray]:
    """FCOS-style positives: a cell is positive iff its center lies inside a
    box; overlaps go to the smallest box. Ties break on the full box tuple so
    the result is independent of instance order.

    Returns (cell -> instance idx or -1, [L x 4] normalized ltrb targets).
    """
    n_cells = centers.shape[0]
    assign = np.full(n_cells, -1, dtype=np.intp)
    ltrb = np.zeros((n_cells, 4))
    if not instances:
        return assign, ltrb
    order = sorted(range(len(instances)),
                   key=lambda i: (instances[i].w * instances[i].h, instances[i].category,
                                  instances[i].x, instances[i].y, instances[i].w, instances[i].h))
    taken = np.zeros(n_cells, dtype=bool)
    for i in order:
        x1, y1, x2, y2 = instances[i].corners()
        inside = ((centers[:, 0] > x1) & (centers[:, 0] < x2)
                  & (centers[:, 1] > y1) & (centers[:, 1] < y2) & ~taken)
        assign[inside] = i
        taken |= inside
        cx, cy = centers[inside, 0], centers[inside, 1]
        ltrb[inside] = np.stack([cx - x1, cy - y1, x2 - cx, y2 - cy], axis=1)
    return assign, ltrb


def det_loss(preds: tuple[Tensor, Tensor], instances: list[Instance],
             cfg: ExperimentConfig) -> Tensor:
    """Dense detection loss on det_head_forward's (logits, ltrb): all-cell BCE
    on class logits plus L1 on ltrb at positive cells, normalized by the
    positive count (floored at 1)."""
    if any(not inst.is_real for inst in instances):
        raise ValueError("det_loss consumes real instances only")
    logits, ltrb_pred = preds
    centers = layout(cfg.image_size).centers
    assign, ltrb_tgt = assign_cells(centers, instances)
    targets = np.zeros((centers.shape[0], cfg.num_classes))
    pos = np.flatnonzero(assign >= 0)
    for i in pos:
        targets[i, instances[assign[i]].category] = 1.0
    # binary cross-entropy with logits: softplus(z) - z*t, summed over cells
    bce = T.tsum(T.softplus(logits) - T.mul(logits, T.constant(targets)))
    total = bce
    if pos.size:
        diff = T.gather_rows(ltrb_pred, pos) - T.constant(ltrb_tgt[pos])
        total = total + T.tsum(T.absolute(diff))
    return total * (1.0 / max(1, pos.size))


def inherit_parameters(student: ToyDetector, teacher: ToyDetector) -> int:
    """Copy every shape-matching non-backbone parameter teacher -> student.

    Backbones may differ arbitrarily; laterals and head copy whenever their
    shapes agree. Returns the number of tensors copied.
    """
    t_params = dict(teacher.group.named())
    copied = 0
    for name, p in student.group.named():
        if name.startswith("backbone."):
            continue
        src = t_params.get(name)
        if src is not None and src.shape == p.shape:
            p.data[...] = src.data
            copied += 1
    if copied == 0:
        warnings.warn("inherit_parameters copied nothing: no shape-matching non-backbone tensors")
    return copied
