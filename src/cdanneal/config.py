"""Run configuration: a dataclass with a JSON round trip.

The default configuration reproduces the headline experiment: a 2x2
fully-visible Boltzmann machine with true parameter (0.5, 1.0, 0.5),
samples of size 100 / 1000 / 10000, CD-2 and CD-4, 1000 guarded updates
with a harmonic step-size decay, and the first 50 estimates dropped from
the weighted average.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import flip_tables
from .learner import Schedule
from .model import FiniteExpFamily, ParamBox, family_from_json

__all__ = ["MAX_GRID_POINTS", "ConfigError", "RunConfig", "default_config"]

# Largest parameter grid (grid_per_axis ** dim points) a config may ask for.
# The grid is allocated whole and the constants, constraint suprema and bias
# checks each sweep every point, so the budget bounds memory and time before
# anything is built.
MAX_GRID_POINTS = 2**16


class ConfigError(ValueError):
    """Invalid run configuration; the CLI maps this to exit code 2."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float; bools and numeric strings are refused, not converted."""
    return _is_int(value) or (isinstance(value, (float, np.floating)) and math.isfinite(value))


def _is_vector(value, dim: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == dim and all(map(_is_real, value))


def _is_int_list(values, low: int) -> bool:
    return isinstance(values, (list, tuple)) and len(values) > 0 and all(
        _is_int(v) and v >= low for v in values
    )


@dataclass
class RunConfig:
    model: dict = field(default_factory=lambda: {"type": "fvbm", "p": 2})
    theta_star: list = field(default_factory=lambda: [0.5, 1.0, 0.5])
    half_width: float = 3.0
    n_values: list = field(default_factory=lambda: [100, 1000, 10000])
    m_values: list = field(default_factory=lambda: [2, 4])
    schedule: Schedule = field(default_factory=lambda: Schedule("harmonic", 25.0))
    iterations: int = 1000
    burn_in: int = 50
    gamma: float = 0.45
    seeds: list = field(default_factory=lambda: list(range(20)))
    grid_per_axis: int = 9
    tail_fraction: float = 0.1
    theta_init: list | None = None
    exact_step_checks: bool = True

    def build_family(self) -> FiniteExpFamily:
        try:
            return family_from_json(self.model)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad model document: {exc}") from exc

    def build_box(self) -> ParamBox:
        fam = self.build_family()
        return ParamBox(half_width=float(self.half_width), dim=fam.dim)

    def validate(self) -> None:
        fam = self.build_family()
        try:
            flip_tables(fam)
        except ValueError as exc:
            raise ConfigError(f"model cannot be sampled by random-scan Gibbs: {exc}") from exc
        if not _is_real(self.half_width):
            raise ConfigError("half_width must be a finite number")
        try:
            box = ParamBox(half_width=float(self.half_width), dim=fam.dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not _is_vector(self.theta_star, fam.dim):
            raise ConfigError(f"theta_star must be a list of {fam.dim} finite numbers")
        if not box.strictly_contains(self.theta_star):
            raise ConfigError("theta_star must lie strictly inside the parameter box")
        if not _is_int_list(self.n_values, 1):
            raise ConfigError("n_values must be a non-empty list of integer sizes >= 1")
        if not _is_int_list(self.m_values, 1):
            raise ConfigError("m_values must be a non-empty list of integer step counts >= 1")
        if not isinstance(self.schedule, Schedule):
            raise ConfigError("schedule must be a Schedule")
        ints = _is_int(self.burn_in) and _is_int(self.iterations)
        if not (ints and 0 <= self.burn_in < self.iterations):
            raise ConfigError("need integers iterations > burn_in >= 0")
        if not (_is_real(self.gamma) and 0.0 < self.gamma < 0.5):
            raise ConfigError("gamma must lie strictly between 0 and 1/2")
        if not _is_int_list(self.seeds, 0):
            raise ConfigError("seeds must be a non-empty list of nonnegative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not _is_int(self.grid_per_axis) or self.grid_per_axis < 2:
            raise ConfigError("grid_per_axis must be an integer >= 2")
        if self.grid_per_axis ** fam.dim > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid_per_axis ** dim = {self.grid_per_axis} ** {fam.dim} exceeds "
                f"the budget of {MAX_GRID_POINTS} grid points"
            )
        if not (_is_real(self.tail_fraction) and 0.0 < self.tail_fraction <= 1.0):
            raise ConfigError("tail_fraction must lie in (0, 1]")
        if self.theta_init is not None:
            if not _is_vector(self.theta_init, fam.dim):
                raise ConfigError(f"theta_init must be null or a list of {fam.dim} finite numbers")
            if not box.contains(self.theta_init):
                raise ConfigError("theta_init must lie inside the parameter box")
        if not isinstance(self.exact_step_checks, bool):
            raise ConfigError("exact_step_checks must be true or false")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        if "schedule" in doc and not isinstance(doc["schedule"], Schedule):
            sch = doc["schedule"]
            if not isinstance(sch, dict):
                raise ConfigError("schedule must be an object")
            unknown = set(sch) - {f.name for f in dataclasses.fields(Schedule)}
            if unknown:
                raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
            if not all(_is_real(sch[key]) for key in ("eta0", "exponent") if key in sch):
                raise ConfigError("schedule eta0 and exponent must be finite numbers")
            try:
                doc["schedule"] = Schedule(
                    kind=sch.get("kind", "harmonic"),
                    eta0=float(sch.get("eta0", 1.0)),
                    exponent=float(sch.get("exponent", 1.0)),
                )
            except ValueError as exc:
                raise ConfigError(f"bad schedule: {exc}") from exc
        try:
            config = cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)


def default_config() -> RunConfig:
    config = RunConfig()
    config.validate()
    return config
