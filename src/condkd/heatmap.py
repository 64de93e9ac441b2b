"""Attention heatmap export as binary PGM (grayscale) and PPM (color ramp).

One image pair per pyramid level: the chosen instance/head mask row is split
by level, reshaped to the level grid, min-max normalized within the level,
and quantized to 8 bits.
"""

from __future__ import annotations

import numpy as np

from .decoder import Knowledge
from .pyramid import STRIDES, FlatPyramid


def write_pgm(path: str, gray: np.ndarray) -> None:
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"PGM wants a 2-D uint8 array, got {gray.dtype}{gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def write_ppm(path: str, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"PPM wants an [H, W, 3] uint8 array, got {rgb.dtype}{rgb.shape}")
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


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
    with open(path, "rb") as f:
        magic, w, h, maxval = _read_header(f)
        if magic != b"P5" or int(maxval) != 255:
            raise ValueError(f"{path}: not an 8-bit P5 file")
        data = f.read(int(w) * int(h))
    return np.frombuffer(data, dtype=np.uint8).reshape(int(h), int(w))


def colorize(gray: np.ndarray) -> np.ndarray:
    """Cold-to-hot ramp: low mass blue, high mass red."""
    v = gray.astype(np.float64) / 255.0
    rgb = np.stack([v, 0.2 * np.ones_like(v), 1.0 - v], axis=-1)
    return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)


def quantize_mask(row: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 255]; a constant row maps to mid gray."""
    lo, hi = float(row.min()), float(row.max())
    if hi == lo:
        return np.full(row.shape, 128, dtype=np.uint8)
    return np.round((row - lo) / (hi - lo) * 255.0).astype(np.uint8)


def export_attention(k: Knowledge, flat: FlatPyramid, instance: int, head: int,
                     prefix: str) -> list[str]:
    """Write one PGM + PPM pair per pyramid level; returns written paths."""
    if not 0 <= head < k.num_heads:
        raise ValueError(f"head {head} out of range for {k.num_heads} heads")
    mask = k.masks.data[head]
    if not 0 <= instance < mask.shape[0]:
        raise ValueError(f"instance {instance} out of range for {mask.shape[0]} rows")
    row = mask[instance]
    paths = []
    offset = 0
    for stride, (h, w) in zip(STRIDES, flat.layout.shapes):
        level = quantize_mask(row[offset:offset + h * w].reshape(h, w))
        offset += h * w
        pgm, ppm = f"{prefix}_s{stride}.pgm", f"{prefix}_s{stride}.ppm"
        write_pgm(pgm, level)
        write_ppm(ppm, colorize(level))
        paths.extend([pgm, ppm])
    return paths
