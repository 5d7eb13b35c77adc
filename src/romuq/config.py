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
    types, bounded = get_type_hints(cls), {f.name for f in fields(cls) if "bound" in f.metadata}
    for k, v in d.items():
        tp = types[k]
        if is_dataclass(tp):
            continue
        if not _has_type(v, tp):
            name = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
            raise ConfigError(f"[{where}] {k} must be of type {name}, got {v!r}")
        try:  # strict JSON holds no NaN or infinity, at any depth
            if k not in bounded:  # cls refuses a bounded value itself
                json.dumps(v, allow_nan=False)
        except ValueError:
            raise ConfigError(f"{cls.prefix}{k} must be finite, got {v!r}") from None
    return cls(**{k: parse(types[k], v, k, derived) if is_dataclass(types[k]) else v
                  for k, v in d.items()})


def _settable(obj) -> dict:
    return {f.name: _settable(v) if is_dataclass(v := getattr(obj, f.name)) else v
            for f in fields(obj) if not f.metadata.get("derived")}


def _bound(default, lo, hi=math.inf, strict=False, derived=False):
    """A number field, or a sequence of them, that must be finite and in
    ``[lo, hi]`` (above ``lo`` when ``strict``); ``lo`` -inf is finite only."""
    return field(default=default, metadata={"bound": (lo, hi, strict), "derived": derived})


def _must(lo, hi, strict) -> str:
    """What a ``_bound`` field must be: ``finite and >= 2``, say."""
    if hi < math.inf:
        return f"finite and in {'(' if strict else '['}{lo}, {hi}]"
    return "finite" if lo == -math.inf else f"finite and {'>' if strict else '>='} {lo}"


class _Section:
    """The base of every config section dataclass: ``__post_init__``
    refuses a ``_bound`` value that is not finite or out of its range,
    naming it ``<section>.<key>``."""

    prefix = ""  # of a key in messages; ``class VaeConfig(_Section, prefix="vae.")``

    def __init_subclass__(cls, prefix=None):
        cls.prefix = cls.prefix if prefix is None else prefix

    def __post_init__(self):
        for f in fields(self):
            if "bound" in f.metadata:
                lo, hi, strict = bound = f.metadata["bound"]
                value = getattr(self, f.name)
                for v in value if isinstance(value, (list, tuple)) else (value,):
                    # an int is finite, also one too big for math.isfinite's float
                    if not ((isinstance(v, int) or math.isfinite(v)) and (v > lo if strict else v >= lo) and v <= hi):
                        raise ConfigError(f"{self.prefix}{f.name} must be {_must(*bound)}, got {v}")


@dataclass
class DatagenSection(_Section, prefix="datagen."):
    case: str = "ks"
    n_x: int = _bound(64, 2)
    dt: float = _bound(0.05, 0, strict=True)
    n_t: int = _bound(1000, 2)
    domain_length: float = _bound(22.0, 0, strict=True)
    omega: float = _bound(1.0, -math.inf)
    init_amplitude: float = _bound(0.1, 0, strict=True)
    init_scale: float = _bound(0.1, -math.inf)

    def __post_init__(self):
        if self.case not in SOLVER_PARAMS:
            raise ConfigError(f"unknown case {self.case!r}; expected one of "
                              f"{list(SOLVER_PARAMS)}")
        super().__post_init__()
        if self.case == "ks" and self.n_x & (self.n_x - 1):
            raise ConfigError(f"datagen.n_x must be a power of two for case 'ks', got {self.n_x}")


@dataclass
class VaeConfig(_Section, prefix="vae."):
    state_dim: Optional[int] = _derived(None)
    latent_dim: int = _bound(8, 1)
    hidden: Sequence[int] = _bound((64,), 1)
    param_dim: int = _bound(1, 1, derived=True)
    embed_dim: int = _bound(8, 1)

    def __post_init__(self):
        super().__post_init__()
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.state_dim is not None and self.latent_dim >= self.state_dim:
            raise ConfigError(f"vae.latent_dim must be smaller than state_dim "
                              f"{self.state_dim}, got {self.latent_dim}")


@dataclass
class TransformerConfig(_Section, prefix="transformer."):
    lookback: int = _bound(10, 1)
    horizon: int = _bound(10, 1)
    latent_dim: Optional[int] = _derived(None)
    width: int = _bound(64, 2)
    heads: int = _bound(4, 1)
    blocks: int = _bound(1, 1)
    param_dim: int = _bound(1, 1, derived=True)
    ff_mult: int = _bound(2, 1)

    def __post_init__(self):
        super().__post_init__()
        if self.width % self.heads:
            raise ConfigError(f"transformer.width must be divisible by heads {self.heads}, "
                              f"got {self.width}")
        if self.width % 2:  # the position encoding pairs a sine and a cosine
            raise ConfigError(f"transformer.width must be even, got {self.width}")


@dataclass
class LossWeights(_Section, prefix="loss."):
    lam: float = _bound(100.0, 0)
    kld_weight: float = _bound(1e-4, 0)


@dataclass
class Schedule(_Section, prefix="training."):
    """Optimiser schedule of one fit."""

    epochs: int = _bound(200, 1)
    batch_size: int = _bound(32, 1)
    lr: float = _bound(1e-3, 0, strict=True)


@dataclass
class TrainingSection(Schedule):
    replay_fraction: float = _bound(0.25, 0, 1)
    retrain_epochs: int = _bound(40, 1)


@dataclass
class TrainConfig(Schedule):
    """Everything one fit needs, derived fields included; a checkpoint
    manifest stores it as ``asdict``."""

    vae: VaeConfig = field(default_factory=VaeConfig)
    transformer: TransformerConfig = field(default_factory=TransformerConfig)
    loss: LossWeights = field(default_factory=LossWeights)


@dataclass
class UqSection(_Section, prefix="uq."):
    ensemble_n: int = _bound(64, 2)


@dataclass
class AdaptiveSection(_Section, prefix="adaptive."):
    budget: int = _bound(5, 1)
    threshold: float = _bound(0.0, -math.inf)
    grid: list = field(default_factory=list)  # list of {name: value} maps


@dataclass
class RunConfig(_Section):
    datagen: DatagenSection = field(default_factory=DatagenSection)
    vae: VaeConfig = field(default_factory=VaeConfig)
    transformer: TransformerConfig = field(default_factory=TransformerConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    training: TrainingSection = field(default_factory=TrainingSection)
    uq: UqSection = field(default_factory=UqSection)
    adaptive: AdaptiveSection = field(default_factory=AdaptiveSection)
    seed: int = _bound(0, 0)

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
