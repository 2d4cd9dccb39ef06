"""Run configuration: a single YAML file driving every CLI subcommand.

The file has four blocks (system, control, solver, diagnostic) plus optional
counterexample/gamma blocks.  Loading converts each setting of `_DEFAULTS` to
its default's type once; a value that does not convert, an invalid range, a
block or key that no command reads, or a system the library rejects raises
`ConfigError`, which the CLI maps to exit code 2 before any numerical work
starts.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np
import yaml

from .spaces import (
    Semigroup,
    StateVector,
    VectorField,
    bilinear_field,
    certify_class_constants,
    constant_field,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
    saturation_field,
)

# libyaml's parser when it is installed; both build the same Python objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Every setting that has a default, and so its type: each value is converted
# to its default's type once, at load (see `_typed`).  control.p and
# system.norm_kind also take 'inf'; diagnostic.n_t defaults to system.n_t.
_DEFAULTS = {
    "system": {"T": 1.0, "n_t": 128, "norm_kind": 2.0},
    "control": {"p": 2.0, "r": 1.0, "count": 1, "seed": 0},
    "solver": {"tol": 1e-8, "certificate_mode": "auto"},
    "diagnostic": {"dims": [16, 32, 64], "eps_ladder": [0.1, 0.05, 0.02],
                   "xi0_scale": 0.02, "cloud_budget": 4000},
    "counterexample": {"n_max": 128, "n_t": 1024},
    "gamma": {"eps": 0.1, "max_controls": 20},
}
# The keys each kind reads beyond `kind` (and a semigroup's class_M/class_mu).
_SEMIGROUP_KEYS = {"diagonal": "eigenvalues", "heat": "dim", "dense": "matrix"}
_FIELD_KEYS = {"bilinear": ("identity", "matrix"), "constant": ("vector",),
               "saturation": ("scale",)}
# Settings that must be finite and > 0, and counts that must be >= 1.
_POSITIVE = [("system", "T"), ("control", "r"), ("solver", "tol"), ("gamma", "eps")]
_COUNTS = [("system", "n_t"), ("control", "count"), ("diagnostic", "n_t"),
           ("diagnostic", "cloud_budget"), ("counterexample", "n_max"),
           ("counterexample", "n_t"), ("gamma", "max_controls")]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _reject_unread(given: dict, allowed, where: str) -> None:
    """A key no command reads (a typo, a removed setting) is an error, not a silent default."""
    unread = [key for key in given if key not in allowed]
    if unread:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unread))}")


def _typed(value, default, name: str):
    """`value` converted exactly to the type of `default` by int()/float(), so
    '1e-8' (a string to PyYAML) and 'inf' load, but 1.7 for an int or a bool
    for a number raise.  A list holds numbers (ints where the default does)."""
    kind = type(default)
    if kind in (bool, str):
        if type(value) is not kind:
            raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value
    if kind is list:
        whole = type(default[0]) is int
        if not isinstance(value, list) or not all(
                isinstance(v, int if whole else (int, float)) and not isinstance(v, bool)
                for v in value):
            what = "whole numbers" if whole else "numbers"
            raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
        return value
    try:
        typed = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        typed = None
    if typed is None or (not isinstance(value, str) and typed != value):
        what = "a whole number" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return typed


def _library_errors_are_config_errors(build):
    """The one boundary between the config and the library's constructors:
    their ValueError/TypeError/KeyError on a configured value is a ConfigError."""
    @functools.wraps(build)
    def checked(self, *args):
        try:
            return build(self, *args)
        except (ConfigError, np.linalg.LinAlgError):  # LinAlgError: numeric, exit 3
            raise
        except KeyError as exc:
            raise ConfigError(f"system: missing setting {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"system: {exc}") from exc
    return checked


@dataclass
class RunConfig:
    """Validated configuration for one pipeline run; every block holds its
    settings, each converted to its default's type."""

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
        _reject_unread(raw, _DEFAULTS, "config")
        blocks = {}
        for name, defaults in copy.deepcopy(_DEFAULTS).items():
            given = raw.get(name, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{name} must be a mapping, got {given!r}")
            if name == "diagnostic":
                defaults["n_t"] = blocks["system"]["n_t"]
            _reject_unread(given, [*defaults, "semigroup", "fields", "xi0"]
                           if name == "system" else defaults, name)
            blocks[name] = {**given, **{
                key: _typed(given.get(key, default), default, f"{name}.{key}")
                for key, default in defaults.items()}}
        cfg = RunConfig(**blocks, raw=raw)
        cfg.validate()
        return cfg

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        for block, key in _POSITIVE:
            if not 0 < getattr(self, block)[key] < np.inf:
                raise ConfigError(f"{block}.{key} must be finite and > 0")
        for block, key in _COUNTS:
            if getattr(self, block)[key] < 1:
                raise ConfigError(f"{block}.{key} must be >= 1")
        if self.control["seed"] < 0:
            raise ConfigError("control.seed must be >= 0")
        if self.system["norm_kind"] not in (1, 2, np.inf):
            raise ConfigError("system.norm_kind must be 1, 2 or 'inf'")
        p = self.control["p"]
        if not p >= 1:
            raise ConfigError("control.p must be >= 1")
        mode = self.solver["certificate_mode"]
        if mode not in ("auto", "omega", "hidden"):
            raise ConfigError("solver.certificate_mode must be auto/omega/hidden")
        if mode == "omega" and p == 1:
            raise ConfigError("omega certificates require p > 1")
        dims = self.diagnostic["dims"]
        if not dims or dims != sorted(set(dims)):
            raise ConfigError("diagnostic.dims must be nonempty and strictly increasing")
        if not np.isfinite(self.diagnostic["xi0_scale"]):
            raise ConfigError("diagnostic.xi0_scale must be finite")
        ladder = self.diagnostic["eps_ladder"]
        if not all(0 < e < np.inf for e in ladder):
            raise ConfigError("diagnostic.eps_ladder entries must be finite and > 0")
        if not ladder or sorted(set(ladder), reverse=True) != ladder:
            raise ConfigError(
                "diagnostic.eps_ladder must be nonempty and strictly decreasing")
        n_max, n_t = self.counterexample["n_max"], self.counterexample["n_t"]
        if n_t % (1 << (n_max.bit_length() - 1)):
            raise ConfigError("counterexample.n_t must be a positive multiple of "
                              "the largest power of two <= n_max")

    # -- builders ----------------------------------------------------------

    @_library_errors_are_config_errors
    def build_semigroup(self, dim: int | None = None) -> Semigroup:
        """The configured semigroup; `dim`, when given, replaces a heat
        semigroup's dimension and must equal any other kind's."""
        spec = self.system["semigroup"]
        kind = spec["kind"]
        if kind not in _SEMIGROUP_KEYS:
            raise ConfigError(f"unknown semigroup kind {kind!r}")
        _reject_unread(spec, ("kind", "class_M", "class_mu", _SEMIGROUP_KEYS[kind]),
                       "system.semigroup")
        # class_mu is read only beside class_M; a dense kind reads both or certifies both
        if "class_mu" in spec and "class_M" not in spec:
            raise ConfigError("system.semigroup: class_mu needs class_M")
        if kind == "dense" and "class_M" in spec and "class_mu" not in spec:
            raise ConfigError("system.semigroup: a dense class_M needs class_mu")
        if kind == "diagonal":
            sg = diagonal_semigroup(spec["eigenvalues"])
        elif kind == "heat":
            sg = heat_semigroup(int(spec["dim"]) if dim is None else dim)
        else:
            matrix = np.asarray(spec["matrix"], dtype=float)
            if "class_M" in spec:
                sg = dense_semigroup(matrix, float(spec["class_M"]),
                                     float(spec["class_mu"]))
            else:
                probe = dense_semigroup(matrix, 1.0, 0.0)
                t_grid = np.linspace(0.0, self.system["T"], 17)[1:]
                m_const, mu = certify_class_constants(
                    probe, t_grid, sample_count=256, norm_kind=self.system["norm_kind"])
                sg = dense_semigroup(matrix, m_const, mu)
        if "class_M" in spec and kind != "dense":
            sg = Semigroup(eigenvalues=sg.eigenvalues,
                           class_M=float(spec["class_M"]),
                           class_mu=float(spec.get("class_mu", sg.class_mu)))
        if dim is not None and sg.dim != dim:
            raise ConfigError(f"system.semigroup: a {kind} semigroup has dimension "
                              f"{sg.dim}, not {dim}")
        return sg

    @_library_errors_are_config_errors
    def build_fields(self, dim: int) -> list[VectorField]:
        specs = self.system.get("fields")
        if not specs or not isinstance(specs, list):
            raise ConfigError("system.fields must list at least one field")
        norm_kind = self.system["norm_kind"]
        out = []
        for fs in specs:
            kind = fs["kind"]
            if kind not in _FIELD_KEYS:
                raise ConfigError(f"unknown field kind {kind!r}")
            _reject_unread(fs, ("kind", *_FIELD_KEYS[kind]), "system.fields")
            if kind == "bilinear":
                out.append(bilinear_field(
                    np.eye(dim) if fs.get("identity") else fs["matrix"], norm_kind))
            elif kind == "constant":
                out.append(constant_field(fs["vector"], norm_kind))
            else:
                out.append(saturation_field(float(fs.get("scale", 1.0))))
        for f in out:
            probe = f(0.0, np.zeros(dim))
            if probe.shape != (dim,):
                raise ConfigError("field output dimension mismatch")
        return out

    @_library_errors_are_config_errors
    def build_xi0(self, dim: int) -> StateVector:
        coords = np.asarray(self.system["xi0"], dtype=float)
        if coords.shape != (dim,):
            raise ConfigError(f"xi0 must have dimension {dim}")
        return StateVector(coords, self.system["norm_kind"])
