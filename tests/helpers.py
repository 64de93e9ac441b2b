"""Shared test helpers: pixel-aligned instances, the production system on
the mini config (image 16x16, two classes, width 8, two heads, L = 5
pyramid cells), small enough for finite differences, loop references for
code that production computes with array operations, the autodiff ops only
those references use, and a reader for the PGM files `heatmap` writes."""

import numpy as np

from condkd.instances import encode_set, make_instance
from condkd.pyramid import STRIDES
from condkd.tensor import Tensor, _from_op, _unbroadcast, as_tensor
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


def condition_center(inst, cfg, rng):
    """The jittered center `encode_set` encodes for `inst` alone under `cfg`."""
    return tuple(encode_set([inst], cfg, rng).centers[0])


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


def div(a, b) -> Tensor:
    """Elementwise a / b, differentiable in both operands."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None,
        )

    return _from_op(out, (a, b), vjp)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _from_op(out, (a,), lambda g: (g * 0.5 / out,))


def _read_header(f):
    fields = []
    while len(fields) < 4:
        line = f.readline()
        if not line:
            raise ValueError("unexpected end of header")
        text = line.split(b"#", 1)[0]
        fields.extend(text.split())
    return fields[:4]


def read_pgm(path: str) -> np.ndarray:
    """The [H, W] uint8 image of an 8-bit binary PGM file."""
    with open(path, "rb") as f:
        magic, w, h, maxval = _read_header(f)
        if magic != b"P5" or int(maxval) != 255:
            raise ValueError(f"{path}: not an 8-bit P5 file")
        data = f.read(int(w) * int(h))
    return np.frombuffer(data, dtype=np.uint8).reshape(int(h), int(w))
