"""The config's bounds: every number field of a section declares its range
once, with ``_bound``, and a section built in code refuses what a config
file refuses, with one message."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path
from typing import Sequence, get_type_hints

import pytest

from romuq.config import (AdaptiveSection, ConfigError, DatagenSection, LossWeights, RunConfig,
                          Schedule, TrainConfig, TrainingSection, TransformerConfig, UqSection,
                          VaeConfig, _must)

SECTIONS = (DatagenSection, VaeConfig, TransformerConfig, LossWeights, Schedule,
            TrainingSection, TrainConfig, UqSection, AdaptiveSection, RunConfig)
# what a section needs besides the key under test to pass its cross-field rules
BASE = {TransformerConfig: {"heads": 1}}


def edges(cls):
    """``(field, type, accepted, refused)`` for each ``_bound`` field of
    ``cls``: at each end, the bound itself and the value just past it, or
    the last value inside an infinite or strict end and that end; NaN is
    refused too. An int has no value past an infinite end. A sequence field
    gets one-item lists."""
    types = get_type_hints(cls)
    for f in fields(cls):
        if "bound" not in f.metadata:
            continue
        lo, hi, strict = f.metadata["bound"]
        tp = types[f.name]
        is_int = tp in (int, Sequence[int])
        wrap = (lambda v: [v]) if tp == Sequence[int] else (lambda v: v)

        def step(x, toward):
            return x + (1 if toward > x else -1) if is_int else math.nextafter(x, toward)

        accepted, refused = [], [math.nan]
        for end, inward, open_ in ((lo, math.inf, strict), (hi, -math.inf, False)):
            if not math.isfinite(end) and is_int:
                continue
            if open_ or not math.isfinite(end):
                accepted.append(step(end, inward))
                refused.append(end)
            else:
                accepted.append(end)
                refused.append(step(end, -inward))
        yield f, tp, [wrap(v) for v in accepted], [wrap(v) for v in refused]


def message(prefix, f, v) -> str:
    """The one message of a bounded value ``v`` (a one-item list for a sequence)."""
    item = v[0] if isinstance(v, list) else v
    return f"{prefix}{f.name} must be {_must(*f.metadata['bound'])}, got {item}"


def test_every_number_field_of_a_section_declares_its_bound():
    for cls in SECTIONS:
        for name, tp in get_type_hints(cls).items():
            if tp in (int, float, Sequence[int]):
                assert "bound" in cls.__dataclass_fields__[name].metadata, f"{cls.__name__}.{name}"


def test_a_section_built_in_code_refuses_past_its_bound_and_nan():
    for cls in SECTIONS:
        for f, _, accepted, refused in edges(cls):
            for v in accepted:
                cls(**{**BASE.get(cls, {}), f.name: v})
            for v in refused:
                with pytest.raises(ConfigError) as exc:
                    cls(**{**BASE.get(cls, {}), f.name: v})
                assert str(exc.value) == message(cls.prefix, f, v)


def test_a_config_file_refuses_past_a_bound_and_nan_with_the_same_message(tmp_path):
    """Every settable bounded key through ``RunConfig.load``. A NaN for an
    int key is refused by the type check, as a JSON NaN is a float."""
    path = tmp_path / "config.json"
    config = RunConfig()
    sections = [(f.name, type(getattr(config, f.name))) for f in fields(RunConfig)
                if f.name != "seed"] + [(None, RunConfig)]
    for section, cls in sections:
        for f, tp, accepted, refused in edges(cls):
            if f.metadata["derived"]:
                continue

            def write(v):
                values = {**BASE.get(cls, {}), f.name: v}
                path.write_text(json.dumps({section: values} if section else values))

            for v in accepted:
                write(v)
                RunConfig.load(path)
            for v in refused:
                write(v)
                with pytest.raises(ConfigError) as exc:
                    RunConfig.load(path)
                if tp is not float and math.isnan(v[0] if isinstance(v, list) else v):
                    type_name = "int" if tp is int else "Sequence[int]"
                    expected = f"[{section or 'top level'}] {f.name} must be of type " \
                               f"{type_name}, got {v!r}"
                else:
                    expected = message(cls.prefix, f, v)
                assert str(exc.value) == f"{path}: {expected}"


def test_an_int_too_big_for_a_float_is_checked_exactly(tmp_path):
    """A 400-digit JSON int is finite: it loads where its key has no upper
    bound and is refused with the one message where it has one."""
    big = 10 ** 400
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": big, "adaptive": {"budget": big}}))
    config = RunConfig.load(path)
    assert (config.seed, config.adaptive.budget) == (big, big)
    path.write_text(json.dumps({"training": {"replay_fraction": big}}))
    with pytest.raises(ConfigError, match=rf"training.replay_fraction must be finite and in "
                                          rf"\[0, 1\], got {big}$"):
        RunConfig.load(path)


def test_the_readme_lists_every_config_bound():
    """The README's table of ``(key, must be, default)``: every settable
    bounded key, in file order, the sections' keys, then ``seed``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `([\w.]+)` \| (.+?) \| `(.+?)` \|$", readme, re.M)
    config = RunConfig()
    sections = [getattr(config, f.name) for f in fields(RunConfig) if f.name != "seed"]
    assert table == [(f"{section.prefix}{f.name}", _must(*f.metadata["bound"]),
                      json.dumps(getattr(section, f.name)))
                     for section in [*sections, config]
                     for f, *_ in edges(type(section)) if not f.metadata["derived"]]
