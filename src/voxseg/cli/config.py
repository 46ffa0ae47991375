"""Run configuration: a plain key=value file with command-line overrides.

``load_config`` is the one reader: defaults, then the file, then the
overrides, validated once. Unknown keys are hard errors; a silent typo in a
hyperparameter name would destroy reproducibility. Triples are
comma-separated ("2,2,2"), encoder widths may have any length ("32,64,128").
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import get_args, get_origin, get_type_hints

from ..nn import BackboneSpec
from ..optim import INITIAL_LR_BY_FACTORS
from ..volume import MAX_LABEL_CLASSES


class ConfigError(Exception):
    """Bad configuration file, key, or value."""


@dataclass
class TrainConfig:
    seed: int = 0
    # synthetic dataset
    volumes: int = 13
    train_split: int = 10
    extents: tuple[int, int, int] = (48, 48, 48)
    class_count: int = 2
    noise_sigma: float = 0.08
    fg_lo: float = 0.01
    fg_hi: float = 0.35
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    # network
    patch: tuple[int, int, int] = (32, 32, 32)
    factors: tuple[int, int, int] = (2, 2, 2)
    k: int = 64
    widths: tuple[int, ...] = (32, 64, 128)
    pool: tuple[int, int, int] = (2, 2, 2)
    init_sigma: float = 0.01
    # optimization
    initial_lr: float = 0.0  # 0 looks the rate up by shuffle factors
    lr_halving_period: int = 3000
    momentum: float = 0.9
    weight_decay: float = 0.005
    batch_size: int = 1
    iterations: int = 2000
    lambda_ce: float = 1.0
    lambda_dice: float = 1.0
    augment_count: int = 4
    augment_sigma: float = 15.0
    val_interval: int = 250
    # inference
    stride: tuple[int, int, int] = (0, 0, 0)  # zeros mean half the patch
    # paths
    data_dir: str = "data"
    out_dir: str = "run"

    def resolved_initial_lr(self) -> float:
        if self.initial_lr > 0:
            return self.initial_lr
        lr = INITIAL_LR_BY_FACTORS.get(tuple(self.factors))
        if lr is None:
            raise ConfigError(f"no tabulated learning rate for shuffle factors "
                              f"{tuple(self.factors)}; set one explicitly")
        return lr

    def backbone_spec(self) -> BackboneSpec:
        return BackboneSpec(
            class_count=self.class_count,
            factors=self.factors,
            stem_channels=self.k,
            widths=self.widths,
            pool=self.pool,
            init_sigma=self.init_sigma,
        )

    def resolved_stride(self) -> tuple[int, int, int] | None:
        return None if self.stride == (0, 0, 0) else self.stride

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            hint = _HINTS[f.name]
            kind = get_args(hint)[0] if get_origin(hint) is tuple else hint
            for v in (value if isinstance(value, tuple) else (value,)):
                if kind is int and (not isinstance(v, int) or isinstance(v, bool)):
                    raise ConfigError(f"{f.name} must be integer, got {value!r}")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.train_split < 1 or self.volumes <= self.train_split:
            raise ConfigError("need volumes > train_split >= 1 for a held-out split")
        if self.class_count > MAX_LABEL_CLASSES:
            raise ConfigError(f"class_count must be <= {MAX_LABEL_CLASSES}, the VVOL label limit")
        if min(self.extents) < 1 or min(self.patch) < 1:
            raise ConfigError("extents and patch must be positive")
        if any(p > e for p, e in zip(self.patch, self.extents)):
            raise ConfigError(f"patch {self.patch} exceeds volume extents {self.extents}")
        if self.noise_sigma < 0 or self.init_sigma < 0 or self.augment_sigma < 0:
            raise ConfigError("sigmas must be >= 0")
        if not (0.0 <= self.fg_lo < self.fg_hi <= 1.0):
            raise ConfigError("need 0 <= fg_lo < fg_hi <= 1")
        if any(s <= 0 for s in self.spacing):
            raise ConfigError("spacing must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.val_interval < 1:
            raise ConfigError("val_interval must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0 or self.lambda_ce < 0 or self.lambda_dice < 0:
            raise ConfigError("weight_decay and loss weights must be >= 0")
        if self.lr_halving_period < 1:
            raise ConfigError("lr_halving_period must be >= 1")
        if self.augment_count < 0:
            raise ConfigError("augment_count must be >= 0")
        if self.initial_lr < 0:
            raise ConfigError("initial_lr must be >= 0 (0 selects the tabulated rate)")
        if any(self.stride) and not all(0 < s <= p for s, p in zip(self.stride, self.patch)):
            raise ConfigError(f"stride {self.stride} must be all 0, or each >= 1 and at most "
                              f"patch {self.patch}")
        try:
            spec = self.backbone_spec().validate()
            spec.check_input_extents(self.patch)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.resolved_initial_lr()
        return self


_HINTS = get_type_hints(TrainConfig)


def parse_value(name: str, raw: str):
    """The typed value of configuration key ``name`` written as ``raw``."""
    if name not in _HINTS:
        raise ConfigError(f"unknown configuration key {name!r}")
    target = _HINTS[name]
    try:
        if get_origin(target) is not tuple:
            return target(raw)
        kinds = get_args(target)  # (int, int, int), (float, float, float) or (int, ...)
        parts = tuple(kinds[0](p.strip()) for p in raw.split(","))
        if kinds[-1] is not Ellipsis and len(parts) != len(kinds):
            raise ValueError(f"expected {len(kinds)} components, got {len(parts)}")
        return parts
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {exc}") from None


def _lines(text: str) -> Iterator[tuple[str, str]]:
    """(key, raw value) per key=value line; blank lines and # comments skipped."""
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        yield key.strip(), raw.strip()


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> TrainConfig:
    """Defaults, then the file's lines, then ``overrides``; validated once at the end."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from None
    pairs = chain(_lines(text), (overrides or {}).items())  # later pairs win
    return replace(TrainConfig(), **{key: parse_value(key, raw) for key, raw in pairs}).validate()
