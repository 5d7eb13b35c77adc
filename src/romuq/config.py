"""Run configuration: one dataclass per JSON section, parsed strictly.

The model sections (``vae``, ``transformer``, ``loss``) are the model
configs themselves. Their derived fields, the dimensions the data fixes
(``state_dim``, ``param_dim``) and the transformer's copy of the VAE's
``latent_dim``, are refused as file keys and filled in by
:meth:`RunConfig.train_config`. Unknown keys are rejected; every command
writes the fully resolved configuration beside its outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

from .datagen import SOLVER_PARAMS, write_json


class ConfigError(ValueError):
    pass


def _derived(default):
    return field(default=default, metadata={"derived": True})


def _has_type(v, tp) -> bool:
    """JSON value ``v`` fits the field type ``tp``: an int is a float, a
    bool is not an int, and a sequence is a list of fitting items."""
    if get_origin(tp) is Union:
        return any(_has_type(v, arg) for arg in get_args(tp))
    if get_origin(tp) is not None:  # Sequence[int]
        return isinstance(v, (list, tuple)) and all(_has_type(x, get_args(tp)[0]) for x in v)
    if isinstance(v, bool):
        return tp is bool
    return isinstance(v, (int, float) if tp is float else tp)


def parse(cls, d, where: str, derived: bool = False):
    """Build the dataclass ``cls`` from the mapping ``d``, recursing into
    dataclass-typed fields. Unknown keys, values of the wrong type and
    non-finite numbers raise ConfigError, and so do derived fields unless
    ``derived`` is set (a checkpoint stores them)."""
    if not isinstance(d, dict):
        raise ConfigError(f"[{where}] must be a mapping")
    settable = {f.name for f in fields(cls)
                if derived or not f.metadata.get("derived")}
    bad = set(d) - settable
    if bad:
        raise ConfigError(f"unknown or data-derived keys in [{where}]: {sorted(bad)}")
    types = get_type_hints(cls)
    for k, v in d.items():
        tp = types[k]
        if is_dataclass(tp):
            continue
        if not _has_type(v, tp):
            name = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
            raise ConfigError(f"[{where}] {k} must be of type {name}, got {v!r}")
        try:  # strict JSON holds no NaN or infinity, at any depth
            json.dumps(v, allow_nan=False)
        except ValueError:
            raise ConfigError(f"[{where}] {k} must be finite, got {v!r}") from None
    return cls(**{k: parse(types[k], v, k, derived) if is_dataclass(types[k]) else v
                  for k, v in d.items()})


def _settable(obj) -> dict:
    return {f.name: _settable(v) if is_dataclass(v := getattr(obj, f.name)) else v
            for f in fields(obj) if not f.metadata.get("derived")}


@dataclass
class DatagenSection:
    case: str = "ks"
    n_x: int = 64
    dt: float = 0.05
    n_t: int = 1000
    domain_length: float = 22.0
    omega: float = 1.0
    init_amplitude: float = 0.1
    init_scale: float = 0.1

    def __post_init__(self):
        if self.case not in SOLVER_PARAMS:
            raise ConfigError(f"unknown case {self.case!r}; expected one of "
                              f"{list(SOLVER_PARAMS)}")
        for key, value in (("dt", self.dt), ("domain_length", self.domain_length),
                           ("init_amplitude", self.init_amplitude)):
            if not 0 < value < math.inf:
                raise ConfigError(f"datagen.{key} must be finite and positive, got {value}")
        for key, value in (("n_x", self.n_x), ("n_t", self.n_t)):
            if value < 2:
                raise ConfigError(f"datagen.{key} must be >= 2, got {value}")
        if self.case == "ks" and self.n_x & (self.n_x - 1):
            raise ConfigError(f"datagen.n_x must be a power of two for case 'ks', got {self.n_x}")


@dataclass
class VaeConfig:
    state_dim: Optional[int] = _derived(None)
    latent_dim: int = 8
    hidden: Sequence[int] = (64,)
    param_dim: int = _derived(1)
    embed_dim: int = 8

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if min(self.latent_dim, self.param_dim, self.embed_dim, *self.hidden) <= 0:
            raise ConfigError("all dimensions must be positive")
        if self.state_dim is not None and self.latent_dim >= self.state_dim:
            raise ConfigError("latent_dim must be smaller than state_dim")


@dataclass
class TransformerConfig:
    lookback: int = 10
    horizon: int = 10
    latent_dim: Optional[int] = _derived(None)
    width: int = 64
    heads: int = 4
    blocks: int = 1
    param_dim: int = _derived(1)
    ff_mult: int = 2

    def __post_init__(self):
        if min(self.lookback, self.horizon, self.blocks, self.width, self.ff_mult) < 1:
            raise ConfigError("lookback, horizon, blocks, width and ff_mult must be >= 1")
        if self.heads < 1 or self.width % self.heads != 0:
            raise ConfigError("width must be divisible by heads")
        if self.width % 2:  # the position encoding pairs a sine and a cosine
            raise ConfigError(f"width must be even, got {self.width}")


@dataclass
class LossWeights:
    lam: float = 100.0
    kld_weight: float = 1e-4

    def __post_init__(self):
        if self.lam < 0 or self.kld_weight < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass
class Schedule:
    """Optimiser schedule of one fit."""

    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")


@dataclass
class TrainingSection(Schedule):
    replay_fraction: float = 0.25
    retrain_epochs: int = 40

    def __post_init__(self):
        super().__post_init__()
        if self.retrain_epochs < 1:
            raise ConfigError("retrain_epochs must be >= 1")
        if not 0 <= self.replay_fraction <= 1:
            raise ConfigError("replay_fraction must be in [0, 1]")


@dataclass
class TrainConfig(Schedule):
    """Everything one fit needs, derived fields included; a checkpoint
    manifest stores it as ``asdict``."""

    vae: VaeConfig = field(default_factory=VaeConfig)
    transformer: TransformerConfig = field(default_factory=TransformerConfig)
    loss: LossWeights = field(default_factory=LossWeights)


@dataclass
class UqSection:
    ensemble_n: int = 64

    def __post_init__(self):
        if self.ensemble_n < 2:
            raise ConfigError("ensemble_n must be >= 2")


@dataclass
class AdaptiveSection:
    budget: int = 5
    threshold: float = 0.0
    grid: list = field(default_factory=list)  # list of {name: value} maps

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigError(f"adaptive.budget must be >= 1, got {self.budget}")
        if not math.isfinite(self.threshold):
            raise ConfigError(f"adaptive.threshold must be finite, got {self.threshold}")


@dataclass
class RunConfig:
    datagen: DatagenSection = field(default_factory=DatagenSection)
    vae: VaeConfig = field(default_factory=VaeConfig)
    transformer: TransformerConfig = field(default_factory=TransformerConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    training: TrainingSection = field(default_factory=TrainingSection)
    uq: UqSection = field(default_factory=UqSection)
    adaptive: AdaptiveSection = field(default_factory=AdaptiveSection)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Parse a config file; text that is not JSON, an unknown key or a
        value of the wrong type or range raises ConfigError naming the file."""
        with open(path) as f:
            try:
                return parse(cls, json.load(f), "top level")
            except (TypeError, ValueError) as exc:  # JSONDecodeError, ConfigError
                raise ConfigError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        """The settable keys, without the derived fields."""
        return _settable(self)

    def train_config(self, state_dim: int, param_dim: int) -> TrainConfig:
        """The config of a fit on data of these dimensions."""
        t = self.training
        return TrainConfig(
            vae=replace(self.vae, state_dim=state_dim, param_dim=param_dim),
            transformer=replace(self.transformer, latent_dim=self.vae.latent_dim,
                                param_dim=param_dim),
            loss=self.loss, epochs=t.epochs, batch_size=t.batch_size, lr=t.lr)


def write_resolved(config: RunConfig, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "resolved_config.json", config.to_dict())
