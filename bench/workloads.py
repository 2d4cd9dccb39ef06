"""The benchmark's workloads: their generated inputs, requests and output checks.

Every workload is a fixed unit of work, a list of in-process ``mildsolve``
CLI requests, that the benchmark repeats for the length of a run.  Inputs
depend only on the workload seed, so every unit of a run does the same work.
See README.md beside this file for why each workload was chosen.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

NAMES = ("reach-diag", "gamma-table", "solve-mix")


class CheckFailed(Exception):
    """A request's output does not meet the workload's correctness check."""


@dataclass
class Request:
    kind: str
    argv: list
    check: Callable[[], None]


@dataclass
class Workload:
    name: str
    unit: list  # requests of one unit of fixed work
    warmup: list  # requests run once, untimed, before the first unit
    solves_per_unit: int  # certified Picard solves in one unit
    min_units: int
    sizes: dict = field(default_factory=dict)


def _load(path: Path) -> dict:
    with open(path) as fh:
        return yaml.safe_load(fh)


def _write(path: Path, data: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- output checks ------------------------------------------------------------

def _check_bound(out: Path, tol: float) -> None:
    bound = _read_json(out / "solve.json")["a_posteriori_bound"]
    _expect(bound <= tol, f"a_posteriori_bound {bound:.3e} > tol {tol:.3e}")


def _check_scalar(out: Path, cfg: dict) -> None:
    """Closed form x(t) = xi0 exp(a t + int_0^t u) within first-order quadrature error."""
    _check_bound(out, cfg["solver"]["tol"])
    traj = np.array(_read_csv(out / "trajectory.csv")[1:], dtype=float)
    ctrl = np.array(_read_csv(out / "control.csv")[1:], dtype=float)
    a = cfg["system"]["semigroup"]["eigenvalues"][0]
    xi0 = cfg["system"]["xi0"][0]
    h = cfg["system"]["T"] / cfg["system"]["n_t"]
    w = np.concatenate([[0.0], np.cumsum(ctrl[:, 1] * h)])
    truth = xi0 * np.exp(a * traj[:, 0] + w)
    rel = float((np.abs(traj[:, 1] - truth) / np.abs(truth)).max())
    # the acceptance suite's allowance at n_t = 1000 (criterion C01)
    _expect(rel <= 1e-3, f"scalar closed-form relative error {rel:.3e} > 1e-3")


def _check_spikes(out: Path, n_max: int) -> None:
    report = _read_json(out / "counterexample.json")
    want = [2 ** k for k in range(int(math.log2(n_max)) + 1)]
    _expect(report["spike_indices"] == want, f"spike indices {report['spike_indices']}")
    err = report["max_closed_form_error"]
    _expect(err <= 1e-9, f"spike closed-form error {err:.3e} > 1e-9")


def _check_diagnostic(out: Path, dims: list, ladder: list, budget: int) -> None:
    rows = _read_csv(out / "diagnostic.csv")
    _expect(rows[0] == ["n", "p", "eps", "n_reach", "n_ball", "sample_size"],
            f"diagnostic.csv header {rows[0]}")
    keys = sorted((int(r[0]), float(r[2])) for r in rows[1:])
    _expect(keys == sorted((n, float(e)) for n in dims for e in ladder),
            "diagnostic.csv must hold one row per (n, eps)")
    for r in rows[1:]:
        n_reach, n_ball, size = int(r[3]), int(r[4]), int(r[5])
        _expect(1 <= size <= budget, f"sample_size {size} outside [1, {budget}]")
        _expect(1 <= n_reach <= size and 1 <= n_ball <= size,
                f"covering sizes {n_reach}, {n_ball} outside [1, {size}]")


def _check_gamma(out: Path) -> None:
    v = _read_json(out / "gamma_verification.json")["verification"]
    _expect(v["passed"] is True, f"Gamma table failed: max error {v['max_error']}")
    conv = v.get("convolution", {})
    _expect(conv.get("passed") is True, f"convolution check failed: {conv}")


# -- workloads ------------------------------------------------------------------

def _reach_diag(root, work, seed, threads, tiny) -> Workload:
    base = _load(root / "configs/heat.yaml")
    diag = base["diagnostic"]

    def request(tag, count, budget):
        cfg = copy.deepcopy(base)
        cfg["control"]["count"] = count
        cfg["diagnostic"]["cloud_budget"] = budget
        path = _write(work / f"reach_{tag}.yaml", cfg)
        out = work / f"out_reach_{tag}"
        return Request("reachset",
                       ["reachset", "--config", path, "--seed", str(seed),
                        "--threads", str(threads), "--out", str(out)],
                       lambda: _check_diagnostic(out, diag["dims"], diag["eps_ladder"],
                                                 budget))

    # 50 controls and a 1000-point cloud (heat.yaml: 500 and 4000) keep one
    # unit near 3 s, with Picard solves and covering each above 30 % of it.
    count, budget = (4, 40) if tiny else (50, 1000)
    return Workload(
        "reach-diag", [request("unit", count, budget)], [request("warm", 4, 40)],
        solves_per_unit=count * len(diag["dims"]), min_units=1 if tiny else 5,
        sizes={"count": count, "cloud_budget": budget, "dims": diag["dims"],
               "eps_ladder": diag["eps_ladder"], "n_t": diag["n_t"]})


def _gamma_table(root, work, seed, threads, tiny) -> Workload:
    base = _load(root / "configs/heat.yaml")

    def request(tag, count, max_controls):
        cfg = copy.deepcopy(base)
        cfg["control"]["count"] = count
        cfg["gamma"]["max_controls"] = max_controls
        path = _write(work / f"gamma_{tag}.yaml", cfg)
        out = work / f"out_gamma_{tag}"
        return Request("gamma",
                       ["gamma", "--config", path, "--seed", str(seed),
                        "--threads", str(threads), "--out", str(out)],
                       lambda: _check_gamma(out))

    # 200 controls (heat.yaml: 500) keep one unit near 3.5 s
    count, max_controls = (10, 2) if tiny else (200, base["gamma"]["max_controls"])
    return Workload(
        "gamma-table", [request("unit", count, max_controls)], [request("warm", 10, 2)],
        solves_per_unit=count, min_units=1 if tiny else 5,
        sizes={"count": count, "max_controls": max_controls, "eps": base["gamma"]["eps"],
               "dim": base["system"]["semigroup"]["dim"], "n_t": base["system"]["n_t"]})


def _solve_mix(root, work, seed, threads, tiny) -> Workload:
    heat = _load(root / "configs/heat.yaml")
    scalar = _load(root / "configs/scalar.yaml")
    rng = np.random.default_rng(seed)

    heat64 = copy.deepcopy(heat)
    heat64["system"]["semigroup"]["dim"] = 64
    heat64["system"]["xi0"] = [heat["diagnostic"]["xi0_scale"] / 8.0] * 64
    heat64["control"]["count"] = 1
    # a stable dense generator; (M, mu) are certified numerically at load
    matrix = -np.eye(8) + 0.5 * rng.standard_normal((8, 8)) / math.sqrt(8)
    dense8 = {
        "system": {"semigroup": {"kind": "dense", "matrix": matrix.tolist()},
                   "fields": [{"kind": "bilinear", "identity": True}],
                   "xi0": [0.1] * 8, "norm_kind": 2, "T": 1.0, "n_t": 128},
        "control": {"p": 2, "r": 1.0, "count": 1, "seed": 0},
        "solver": {"tol": 1e-8},
    }
    n_max = heat["counterexample"]["n_max"]
    spikes = int(math.log2(n_max)) + 1

    kinds = {
        "scalar": (str(root / "configs/scalar.yaml"), "solve",
                   lambda out: _check_scalar(out, scalar)),
        "heat64": (_write(work / "heat64.yaml", heat64), "solve",
                   lambda out: _check_bound(out, heat64["solver"]["tol"])),
        "dense8": (_write(work / "dense8.yaml", dense8), "solve",
                   lambda out: _check_bound(out, dense8["solver"]["tol"])),
        "spike": (str(root / "configs/heat.yaml"), "counterexample",
                  lambda out: _check_spikes(out, n_max)),
    }

    def rounds(count):
        requests = []
        for _ in range(count):
            for kind, (path, command, check) in kinds.items():
                out = work / f"out_{kind}"
                request_seed = seed * 1000 + len(requests)
                requests.append(Request(
                    kind, [command, "--config", path, "--seed", str(request_seed),
                           "--threads", str(threads), "--out", str(out)],
                    lambda check=check, out=out: check(out)))
        return requests

    n_rounds = 1 if tiny else 5
    return Workload(
        "solve-mix", rounds(n_rounds), rounds(1),
        solves_per_unit=n_rounds * (3 + spikes), min_units=1 if tiny else 10,
        sizes={"rounds_per_unit": n_rounds, "kinds": list(kinds),
               "scalar_n_t": scalar["system"]["n_t"], "heat64_n_t": heat["system"]["n_t"],
               "dense8_n_t": 128, "spike_n_max": n_max,
               "spike_n_t": heat["counterexample"]["n_t"]})


def build(name: str, root: Path, work: Path, seed: int, threads: int,
          tiny: bool = False) -> Workload:
    """Workload `name` with inputs drawn from `seed`; `tiny` for smoke tests."""
    make = {"reach-diag": _reach_diag, "gamma-table": _gamma_table,
            "solve-mix": _solve_mix}[name]
    return make(root, work, seed, threads, tiny)
