"""Checkpoint container: a flat name -> float64 array mapping in a small
self-describing binary format.

Layout: magic "ICDC", version u32, tensor count u32, then per tensor a u16
name length, the UTF-8 name, a u8 rank, u32 dims, and the row-major float64
payload. All integers and floats little-endian. Loads are bit-exact, and a
load rejects duplicate names, names that are not UTF-8 and non-finite
payloads; a save rejects non-finite arrays, then writes a temporary file and
renames it over the target, so an interrupted save never tears a checkpoint.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import ParamGroup

MAGIC = b"ICDC"
VERSION = 2  # 2: one f_k/f_v/f_q projection per decoder layer, not one per head


class CheckpointError(Exception):
    """Malformed checkpoint; message carries the byte offset of the fault."""


def save_checkpoint(path: str, tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype="<f8")  # tobytes() below emits C order
        if not np.all(np.isfinite(a)):
            raise CheckpointError(f"non-finite value in {name}: not saved")
        enc = name.encode("utf-8")
        if len(enc) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name[:32]}...")
        parts.append(struct.pack("<H", len(enc)))
        parts.append(enc)
        parts.append(struct.pack("<B", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}I", *a.shape))
        parts.append(a.tobytes())
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {self.off}, "
                f"file has {len(self.buf)}")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError("bad magic at offset 0: not a checkpoint file")
    version, count = r.unpack("<II", "header")
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version} at offset 4")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        name_off = r.off
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(
                f"tensor name is not UTF-8 at offset {name_off + e.start}") from None
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r} at offset {name_off}")
        (ndim,) = r.unpack("<B", f"rank of {name}")
        shape = r.unpack(f"<{ndim}I", f"dims of {name}") if ndim else ()
        n = math.prod(shape)  # a Python int: corrupt dims cannot wrap around
        data_off = r.off
        arr = np.frombuffer(r.take(8 * n, f"data of {name}"), dtype="<f8")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise CheckpointError(
                f"non-finite value in {name} at offset {data_off + 8 * int(bad[0])}")
        out[name] = arr.reshape(shape).astype(np.float64)
    if r.off != len(r.buf):
        raise CheckpointError(f"trailing garbage at offset {r.off}")
    return out


def group_state(group: ParamGroup) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in group.named()}


def load_group(group: ParamGroup, state: dict[str, np.ndarray]) -> None:
    """Strict load: names and shapes must agree exactly."""
    names = dict(group.named())
    missing = sorted(set(names) - set(state))
    extra = sorted(set(state) - set(names))
    if missing or extra:
        raise CheckpointError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
    for name, p in names.items():
        if state[name].shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {state[name].shape} vs model {p.data.shape}")
        p.data[...] = state[name]
