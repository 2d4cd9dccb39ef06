"""Run configuration: a single YAML file driving every CLI subcommand.

The file has four blocks (system, control, solver, diagnostic) plus optional
counterexample/gamma blocks.  Parsing is strict: unknown semigroup kinds,
inconsistent dimensions or invalid ranges raise `ConfigError`, which the CLI
maps to exit code 2 before any numerical work starts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .spaces import (
    Semigroup,
    StateVector,
    VectorField,
    builtin_field,
    certify_class_constants,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
)

# libyaml's parser when it is installed; both build the same Python objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Every setting that has a default, merged under the file's blocks at load;
# diagnostic.n_t defaults to system.n_t.
_DEFAULTS = {
    "system": {"T": 1.0, "n_t": 128, "norm_kind": 2},
    "control": {"p": 2, "r": 1.0, "count": 1, "seed": 0},
    "solver": {"tol": 1e-8, "certificate_mode": "auto", "target_rate": 0.5},
    "diagnostic": {"dims": [16, 32, 64], "eps_ladder": [0.1, 0.05, 0.02],
                   "xi0_scale": 0.02, "cloud_budget": 4000, "tol": 1e-4},
    "counterexample": {"n_max": 128, "n_t": 1024, "separation": 0.5, "eval_eps": 0.25},
    "gamma": {"eps": 0.1, "run_convolution_check": True, "max_controls": 20},
}
# Settings that must be > 0, and counts that must be >= 1.
_POSITIVE = [("system", "T"), ("control", "r"), ("solver", "tol"), ("diagnostic", "tol"),
             ("counterexample", "separation"), ("counterexample", "eval_eps"),
             ("gamma", "eps")]
_COUNTS = [("system", "n_t"), ("control", "count"), ("diagnostic", "n_t"),
           ("diagnostic", "cloud_budget")]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _parse_extended_float(value, name: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return np.inf
        raise ConfigError(f"{name} must be a number or 'inf', got {value!r}")
    return float(value)


def _number_list(value, name: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Validated configuration for one pipeline run; every block holds its defaults."""

    system: dict
    control: dict
    solver: dict
    diagnostic: dict
    counterexample: dict
    gamma: dict
    raw: dict = field(repr=False, default_factory=dict)

    @staticmethod
    def from_file(path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=_YAML_LOADER)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        return RunConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        blocks = {name: {**defaults, **dict(raw.get(name, {}))}
                  for name, defaults in copy.deepcopy(_DEFAULTS).items()}
        blocks["diagnostic"].setdefault("n_t", blocks["system"]["n_t"])
        cfg = RunConfig(**blocks, raw=raw)
        cfg.validate()
        return cfg

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        for block, key in _POSITIVE:
            if not float(getattr(self, block)[key]) > 0:
                raise ConfigError(f"{block}.{key} must be > 0")
        for block, key in _COUNTS:
            if int(getattr(self, block)[key]) < 1:
                raise ConfigError(f"{block}.{key} must be >= 1")
        if self.system["norm_kind"] not in (1, 2, "inf", np.inf):
            raise ConfigError("system.norm_kind must be 1, 2 or 'inf'")
        if self.p < 1:
            raise ConfigError("control.p must be >= 1")
        mode = self.solver["certificate_mode"]
        if mode not in ("auto", "omega", "hidden"):
            raise ConfigError("solver.certificate_mode must be auto/omega/hidden")
        if mode == "omega" and self.p == 1:
            raise ConfigError("omega certificates require p > 1")
        if not 0.0 < float(self.solver["target_rate"]) < 1.0:
            raise ConfigError("solver.target_rate must lie in (0, 1)")
        diag = self.diagnostic
        dims = _number_list(diag["dims"], "diagnostic.dims")
        if not dims or dims != sorted(set(dims)):
            raise ConfigError("diagnostic.dims must be nonempty and strictly increasing")
        ladder = _number_list(diag["eps_ladder"], "diagnostic.eps_ladder")
        if any(e <= 0 for e in ladder):
            raise ConfigError("diagnostic.eps_ladder entries must be > 0")
        if not ladder or sorted(set(ladder), reverse=True) != ladder:
            raise ConfigError(
                "diagnostic.eps_ladder must be nonempty and strictly decreasing")
        spikes = self.counterexample
        n_max, n_t = int(spikes["n_max"]), int(spikes["n_t"])
        if n_max < 1 or n_t < 1 or n_t % (1 << (n_max.bit_length() - 1)):
            raise ConfigError("counterexample.n_t must be a positive multiple of "
                              "the largest power of two <= n_max")

    # -- typed accessors ---------------------------------------------------

    @property
    def horizon_T(self) -> float:
        return float(self.system["T"])

    @property
    def n_t(self) -> int:
        return int(self.system["n_t"])

    @property
    def norm_kind(self):
        nk = self.system["norm_kind"]
        return np.inf if nk == "inf" else nk

    @property
    def p(self) -> float:
        return _parse_extended_float(self.control["p"], "control.p")

    @property
    def radius(self) -> float:
        return float(self.control["r"])

    @property
    def count(self) -> int:
        return int(self.control["count"])

    @property
    def seed(self) -> int:
        return int(self.control["seed"])

    @property
    def tol(self) -> float:
        return float(self.solver["tol"])

    # -- builders ----------------------------------------------------------

    def build_semigroup(self) -> Semigroup:
        spec = self.system.get("semigroup")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError("system.semigroup.kind is required")
        kind = spec["kind"]
        if kind == "diagonal":
            if "eigenvalues" not in spec:
                raise ConfigError("diagonal semigroup needs eigenvalues")
            sg = diagonal_semigroup(spec["eigenvalues"])
        elif kind == "heat":
            if "dim" not in spec:
                raise ConfigError("heat semigroup needs dim")
            sg = heat_semigroup(int(spec["dim"]))
        elif kind == "dense":
            if "matrix" not in spec:
                raise ConfigError("dense semigroup needs matrix")
            matrix = np.asarray(spec["matrix"], dtype=float)
            if "class_M" in spec and "class_mu" in spec:
                sg = dense_semigroup(matrix, float(spec["class_M"]),
                                     float(spec["class_mu"]))
            else:
                probe = dense_semigroup(matrix, 1.0, 0.0)
                t_grid = np.linspace(0.0, self.horizon_T, 17)[1:]
                m_const, mu = certify_class_constants(
                    probe, t_grid, sample_count=256,
                    safety=float(spec.get("safety", 1.1)),
                    norm_kind=self.norm_kind)
                sg = dense_semigroup(matrix, m_const, mu)
        else:
            raise ConfigError(f"unknown semigroup kind {kind!r}")
        if "class_M" in spec and kind != "dense":
            sg = Semigroup(eigenvalues=sg.eigenvalues,
                           class_M=float(spec["class_M"]),
                           class_mu=float(spec.get("class_mu", sg.class_mu)))
        return sg

    def build_fields(self, dim: int) -> list[VectorField]:
        specs = self.system.get("fields")
        if not specs:
            raise ConfigError("system.fields must list at least one field")
        out = []
        for fs in specs:
            kind = fs.get("kind")
            if kind == "bilinear":
                matrix = np.eye(dim) if fs.get("identity") else np.asarray(
                    fs.get("matrix"), dtype=float)
                out.append(builtin_field("bilinear", self.norm_kind, matrix=matrix))
            elif kind == "constant":
                out.append(builtin_field("constant", self.norm_kind,
                                         vector=np.asarray(fs.get("vector"), dtype=float)))
            elif kind == "saturation":
                out.append(builtin_field("saturation", scale=float(fs.get("scale", 1.0))))
            else:
                raise ConfigError(f"unknown field kind {kind!r}")
        for f in out:
            probe = f(0.0, np.zeros(dim))
            if probe.shape != (dim,):
                raise ConfigError("field output dimension mismatch")
        return out

    def build_xi0(self, dim: int) -> StateVector:
        xi0 = self.system.get("xi0")
        if xi0 is None:
            raise ConfigError("system.xi0 is required")
        coords = np.asarray(xi0, dtype=float)
        if coords.shape != (dim,):
            raise ConfigError(f"xi0 must have dimension {dim}")
        return StateVector(coords, self.norm_kind)

    def to_metadata(self) -> dict[str, Any]:
        return {"config": self.raw}
