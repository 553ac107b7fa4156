"""Experiment configuration: a flat ``key = value`` file format with dotted keys.

Unknown keys are rejected and every diagnostic names the offending key.
All keys have defaults, so an empty file is a valid configuration. The
resolved configuration hashes to a stable digest recorded in every CSV.
Each rule on a value is checked once, by the library object that needs it,
whose ``ValueError`` starts with the key; this module checks only what no
library object owns and maps those errors to ``ConfigError``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from goc.envelope import (
    DEFAULT_ALPHA_MIN,
    DEFAULT_GRID_SIZE,
    acceptance_grid,
    check_threshold_range,
)
from goc.learners import check_learner_targets
from goc.noise import UNIFORM, HonestNoiseModel, Scenario
from goc.utility import AD_PRODUCT, DC_LINEAR, LipschitzProfile, UtilitySpec, check_resolution


class ConfigError(ValueError):
    """Configuration problem; the message starts with the offending key."""


# parser tag -> (type, what a value of that type looks like)
_PARSERS = {"float": (float, "a number"), "int": (int, "an integer"), "str": (str, "text")}


# key -> (parser tag, default); None default means "unset"
_SCHEMA: dict[str, tuple[str, object]] = {
    "noise.kind": ("str", UNIFORM),
    "noise.sigma": ("float", None),
    "scenario.delta": ("float", 1.0),
    "scenario.big_m": ("float", 1e4),
    "utility.dc.kind": ("str", DC_LINEAR),
    "utility.dc.gamma": ("float", 0.3),
    "utility.ad.kind": ("str", AD_PRODUCT),
    "utility.ad.w_mse": ("float", 1.0),
    "utility.ad.w_pa": ("float", 1.0),
    "utility.ad.theta": ("float", 1.0),
    "learner.a": ("float", 2.0),
    "learner.b": ("float", 6.0),
    "learner.delta": ("float", 0.05),
    "learner.lambda": ("float", 0.1),
    "lipschitz.ell": ("float", None),
    "lipschitz.L": ("float", None),
    "lipschitz.d": ("float", None),
    "envelope.grid": ("int", DEFAULT_GRID_SIZE),
    "envelope.alpha_min": ("float", DEFAULT_ALPHA_MIN),
    "estimator.resolution": ("int", 801),
    "env.mode": ("str", "bernoulli"),
    "experiment.trials": ("int", 200),
    "experiment.base_seed": ("int", 42),
    "experiment.budget_scale": ("float", 1.0),
}

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment configuration."""

    values: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def scenario(self) -> Scenario:
        noise = HonestNoiseModel(self.values["noise.kind"], self.values["scenario.delta"],
                                 self.values["noise.sigma"])
        return Scenario(self.values["scenario.big_m"], noise)

    def utility_spec(self) -> UtilitySpec:
        return UtilitySpec(
            dc_kind=self.values["utility.dc.kind"],
            dc_gamma=self.values["utility.dc.gamma"],
            ad_kind=self.values["utility.ad.kind"],
            ad_w_mse=self.values["utility.ad.w_mse"],
            ad_w_pa=self.values["utility.ad.w_pa"],
            ad_theta=self.values["utility.ad.theta"],
        )

    def lipschitz_override(self) -> LipschitzProfile | None:
        ell = self.values["lipschitz.ell"]
        big_l = self.values["lipschitz.L"]
        d = self.values["lipschitz.d"]
        if ell is None and big_l is None and d is None:
            return None
        if ell is None or big_l is None or d is None:
            raise ConfigError("lipschitz.ell: override requires all of ell, L, d")
        return LipschitzProfile(ell=ell, big_l=big_l, d=d)

    def with_overrides(self, **pairs) -> "ExperimentConfig":
        return validate_config({**self.values, **pairs})

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                continue
            lines.append(f"{key} = {value!r}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def parse_config_text(text: str) -> dict[str, str]:
    """Raw ``key = value`` pairs; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{key}: duplicate key (line {lineno})")
        out[key] = raw
    return out


def validate_config(values: dict[str, object]) -> ExperimentConfig:
    """Check every invariant; diagnostics name the first offending key."""
    resolved: dict[str, object] = {}
    for key, (_, default) in _SCHEMA.items():
        resolved[key] = values.get(key, default)
    for key in values:
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key")
    for key, (tag, _) in _SCHEMA.items():
        value = resolved[key]
        if tag == "float" and value is not None and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value!r}")

    cfg = ExperimentConfig(values=resolved)
    try:
        cfg.scenario()
        cfg.utility_spec()
        cfg.lipschitz_override()
        check_threshold_range(resolved["learner.a"], resolved["learner.b"])
        check_learner_targets(resolved["learner.delta"], resolved["learner.lambda"],
                              resolved["experiment.budget_scale"])
        acceptance_grid(resolved["envelope.grid"], resolved["envelope.alpha_min"])
        check_resolution(resolved["estimator.resolution"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if resolved["env.mode"] not in ("bernoulli", "physical"):
        raise ConfigError(f"env.mode: unknown mode {resolved['env.mode']!r}")
    if resolved["experiment.trials"] < 1:
        raise ConfigError("experiment.trials: must be >= 1")
    if resolved["experiment.base_seed"] < 0:
        raise ConfigError("experiment.base_seed: must be >= 0")
    return cfg


def load_config_text(text: str) -> ExperimentConfig:
    raw = parse_config_text(text)
    typed: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key")
        kind, expected = _PARSERS[_SCHEMA[key][0]]
        try:
            typed[key] = kind(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None
    return validate_config(typed)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a configuration file; ``None`` yields pure defaults."""
    if path is None:
        return validate_config({})
    return load_config_text(Path(path).read_text())
