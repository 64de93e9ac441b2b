"""Experiment configuration: one flat record driving data generation, model
shapes, the distillation loop, and the ablations, plus a plain-text
`key = value` overrides file."""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

from .instances import EncoderSpec
from .pyramid import STRIDES, DetectorConfig
from .scenes import SceneSpec

logger = logging.getLogger("condkd")

ATTENTION_VARIANTS = ("icd", "none", "foreground", "fine_grained", "activation")

_SIZE_MEANS = (18.0, 12.0, 26.0)
_SIZE_STDS = (3.0, 2.0, 4.0)


@dataclass(frozen=True)
class ExperimentConfig:
    image_size: int = 64
    num_classes: int = 3
    feat_dim: int = 32
    heads: int = 4
    depth: int = 1
    lam: float = 8.0
    fake_ratio: int = 5
    jitter: float = 0.3
    teacher_iters: int = 2000
    student_iters: int = 600
    warmup_iters: int = 100
    batch_size: int = 8
    attention_variant: str = "icd"
    inherit: bool = False
    seed: int = 0
    lr_teacher: float = 0.02
    lr_student: float = 0.005
    lr_decoder: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 1e-4
    teacher_widths: tuple[int, ...] = (16, 32, 48, 48)
    student_widths: tuple[int, ...] = (8, 16, 24, 24)
    pos_dim: int = 8
    enc_pos_dim: int = 16
    enc_scale_dim: int = 8
    max_log2: int = 6
    use_idf: bool = True
    use_loc: bool = True
    use_scale: bool = True
    stats_scenes: int = 128
    eval_scenes: int = 48
    eval_every: int = 0  # 0: evaluate only at the end
    noise_sigma: float = 0.05

    def __post_init__(self):
        for key in ("depth", "batch_size", "heads", "num_classes", "stats_scenes", "eval_scenes",
                    "feat_dim", "max_log2", "image_size"):
            if not getattr(self, key) >= 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("jitter", "fake_ratio", "teacher_iters", "student_iters", "warmup_iters",
                    "eval_every"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        for key in ("teacher_widths", "student_widths"):  # one width per backbone stage
            if len(getattr(self, key)) != 4 or not all(w >= 1 for w in getattr(self, key)):
                raise ValueError(f"{key} must be 4 widths >= 1, got {getattr(self, key)}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        for key in ("lr_teacher", "lr_student", "lr_decoder", "weight_decay", "noise_sigma"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        stride = max(STRIDES)  # the coarsest pyramid level tiles the image
        if self.image_size % stride:
            raise ValueError(f"image_size must be a multiple of {stride}, got {self.image_size}")
        if self.feat_dim % self.heads:
            raise ValueError(f"heads {self.heads} must divide feat_dim {self.feat_dim}")
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise ValueError(
                f"attention_variant {self.attention_variant!r} not in {ATTENTION_VARIANTS}")
        # sine codes come in sin/cos pairs, and the pyramid splits pos_dim between x and y
        for key, step in (("pos_dim", 4), ("enc_pos_dim", 2), ("enc_scale_dim", 2)):
            if getattr(self, key) % step:
                raise ValueError(f"{key} must be a multiple of {step}, got {getattr(self, key)}")

    def detector_config(self, widths: tuple[int, ...]) -> DetectorConfig:
        return DetectorConfig(self.image_size, self.num_classes, self.feat_dim, tuple(widths))

    def teacher_config(self) -> DetectorConfig:
        return self.detector_config(self.teacher_widths)

    def student_config(self) -> DetectorConfig:
        return self.detector_config(self.student_widths)

    def encoder_spec(self) -> EncoderSpec:
        return EncoderSpec(self.num_classes, self.enc_pos_dim, self.enc_scale_dim,
                           self.max_log2, self.jitter)

    def scene_spec(self) -> SceneSpec:
        c = self.num_classes
        means = tuple(_SIZE_MEANS[i % 3] for i in range(c))
        stds = tuple(_SIZE_STDS[i % 3] for i in range(c))
        return SceneSpec(self.image_size, c, self.noise_sigma,
                         size_means=means, size_stds=stds)


def parse_config_file(path: str) -> dict[str, str]:
    """`key = value` per line; `#` starts a comment; later keys override."""
    out: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _coerce(raw, default):
    if not isinstance(raw, str):
        return raw
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        parts = [p for p in raw.replace(",", " ").split() if p]
        return tuple(int(p) for p in parts)
    return raw


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    """ExperimentConfig from string overrides; unknown keys are rejected,
    missing keys fall back to the documented defaults (logged)."""
    defaults = ExperimentConfig()
    valid = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(mapping) - set(valid))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; valid keys: {sorted(valid)}")
    kwargs = {}
    for name, default in valid.items():
        if name in mapping:
            try:
                kwargs[name] = _coerce(mapping[name], default)
            except ValueError as e:
                raise ValueError(f"config key {name!r}: {e}") from None
    defaulted = sorted(set(valid) - set(mapping))
    if defaulted:
        logger.info("config defaults used for: %s", ", ".join(defaulted))
    return ExperimentConfig(**kwargs)


def load_config(path: str | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    mapping: dict[str, str] = {}
    if path is not None:
        mapping.update(parse_config_file(path))
    if overrides:
        mapping.update({k: str(v) for k, v in overrides.items()})
    try:
        return build_config(mapping)
    except ValueError as e:
        if path is None:
            raise
        raise ValueError(f"{path}: {e}") from None
