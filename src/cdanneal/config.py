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
        try:
            box = ParamBox(half_width=float(self.half_width), dim=fam.dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        theta_star = np.asarray(self.theta_star, dtype=float)
        if theta_star.shape != (fam.dim,):
            raise ConfigError(
                f"theta_star has length {theta_star.size}, model has {fam.dim} parameters"
            )
        if not box.strictly_contains(theta_star):
            raise ConfigError("theta_star must lie strictly inside the parameter box")
        if not self.n_values or any(int(n) < 1 for n in self.n_values):
            raise ConfigError("n_values must be a non-empty list of sizes >= 1")
        if not self.m_values or any(int(m) < 1 for m in self.m_values):
            raise ConfigError("m_values must be a non-empty list of step counts >= 1")
        if not isinstance(self.schedule, Schedule):
            raise ConfigError("schedule must be a Schedule")
        if not 0 <= int(self.burn_in) < int(self.iterations):
            raise ConfigError("need iterations > burn_in >= 0")
        if not 0.0 < float(self.gamma) < 0.5:
            raise ConfigError("gamma must lie strictly between 0 and 1/2")
        if not self.seeds or any(int(s) < 0 for s in self.seeds):
            raise ConfigError("seeds must be a non-empty list of nonnegative integers")
        if len(set(int(s) for s in self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if int(self.grid_per_axis) < 2:
            raise ConfigError("grid_per_axis must be at least 2")
        if int(self.grid_per_axis) ** fam.dim > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid_per_axis ** dim = {self.grid_per_axis} ** {fam.dim} exceeds "
                f"the budget of {MAX_GRID_POINTS} grid points"
            )
        if not 0.0 < float(self.tail_fraction) <= 1.0:
            raise ConfigError("tail_fraction must lie in (0, 1]")
        if self.theta_init is not None:
            theta_init = np.asarray(self.theta_init, dtype=float)
            if theta_init.shape != (fam.dim,):
                raise ConfigError("theta_init has the wrong length")
            if not box.contains(theta_init):
                raise ConfigError("theta_init must lie inside the parameter box")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["schedule"] = {
            "kind": self.schedule.kind,
            "eta0": self.schedule.eta0,
            "exponent": self.schedule.exponent,
        }
        return out

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
