"""Command-line front end: certify, solve, reachset, counterexample, gamma.

Every subcommand reads one YAML config (--config), draws all randomness from
explicit seeds and writes machine-readable CSV/JSON into the output directory
(--out, overridden by the MILDSOLVE_OUT environment variable).  Commands read
settings as `cfg.<block>[key]`, typed and checked at load; `main` applies and
checks ``--seed`` once.  Outputs are byte-identical across re-runs except for
the timestamp inside the metadata key.  ``--threads`` is accepted for
compatibility and has no effect.  Exit codes: 0 success, 2 config error (a
bad or unknown setting, a bad system, or a control outside the certificate
radius), 3 numeric/certification failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .controls import control_from_csv, control_to_csv, sample_ball
from .operator import ContractionCertificate, certify
from .reachset import (
    VerificationError,
    compactness_diagnostic,
    convolution_compactness_check,
    counterexample_report,
    field_value_cloud,
    gamma_approximation,
    sample_reachset,
)
from .solver import CertificateRadiusError, NonFiniteIterateError, picard_solve
from .spaces import Semigroup, VectorField

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _metadata(cfg: RunConfig) -> dict:
    return {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "config": cfg.raw}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_system(cfg: RunConfig, dim: int | None = None
                 ) -> tuple[Semigroup, list[VectorField], ContractionCertificate]:
    """The configured semigroup and fields, and the certificate for the
    control ball (see `certify`): built once per command and dimension.
    `dim` overrides the semigroup's dimension (see `RunConfig.build_semigroup`)."""
    sg = cfg.build_semigroup(dim)
    fields = cfg.build_fields(sg.dim)
    cert = certify(cfg.control["p"], cfg.control["r"], sg.class_M, sg.class_mu,
                   max(f.lipschitz_L for f in fields), cfg.system["T"],
                   mode=cfg.solver["certificate_mode"])
    return sg, fields, cert


def cmd_certify(cfg: RunConfig, out_dir: Path, args) -> int:
    cert = build_system(cfg)[2]
    payload = {"certificate": cert.to_dict(), "metadata": _metadata(cfg)}
    _write_json(out_dir / "certificate.json", payload)
    print(f"wrote {out_dir / 'certificate.json'} "
          f"(mode={cert.mode}, rate={cert.rate_C:.6g})")
    return EXIT_OK


def cmd_solve(cfg: RunConfig, out_dir: Path, args) -> int:
    sg, fields, cert = build_system(cfg)
    xi0 = cfg.build_xi0(sg.dim)

    if args.control is not None:
        try:
            u = control_from_csv(args.control, horizon_T=cert.horizon_T)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"control {args.control}: {exc}") from exc
        if u.channels != len(fields):
            raise ConfigError(f"control {args.control} has {u.channels} channels, "
                              f"the system has {len(fields)} fields")
    else:
        u = sample_ball(cert.p, cert.radius_r, cert.horizon_T, len(fields),
                        cfg.system["n_t"], 1, cfg.control["seed"])[0]
    result = picard_solve(xi0, u, fields, sg, cert, tol=cfg.solver["tol"])
    traj = result.trajectory
    _write_csv(out_dir / "trajectory.csv", ["t"] + [f"x{i}" for i in range(traj.dim)],
               np.column_stack([traj.times, traj.states]).tolist())  # csv writes repr
    control_to_csv(u, out_dir / "control.csv")
    _write_json(out_dir / "solve.json", {
        "iterations": result.iterations,
        "iterate_gaps": result.iterate_gaps,
        "a_posteriori_bound": result.a_posteriori_bound,
        "certificate": cert.to_dict(),
        "control_lp_norm": cert.control_norm(u),
        "metadata": _metadata(cfg),
    })
    print(f"solved in {result.iterations} applications "
          f"(bound {result.a_posteriori_bound:.3e}); wrote {out_dir}")
    return EXIT_OK


def cmd_reachset(cfg: RunConfig, out_dir: Path, args) -> int:
    diag, control = cfg.diagnostic, cfg.control
    systems = [build_system(cfg, dim) for dim in diag["dims"]]
    report = compactness_diagnostic(
        systems, diag["eps_ladder"], control["count"], control["seed"], n_t=diag["n_t"],
        xi0_scale=diag["xi0_scale"], norm_kind=cfg.system["norm_kind"],
        cloud_budget=diag["cloud_budget"], tol=cfg.solver["tol"])
    _write_csv(out_dir / "diagnostic.csv",
               ["n", "p", "eps", "n_reach", "n_ball", "sample_size"],
               [[row["n"], row["p"], repr(row["eps"]), row["n_reach"],
                 row["n_ball"], row["sample_size"]] for row in report.rows])
    _write_json(out_dir / "reachset.json",
                {"rows": report.rows, "diagnostic_config": report.config,
                 "metadata": {**_metadata(cfg), "dimensions": report.dimensions}})
    print(f"wrote {out_dir / 'diagnostic.csv'} ({len(report.rows)} rows)")
    return EXIT_OK


def cmd_counterexample(cfg: RunConfig, out_dir: Path, args) -> int:
    report = counterexample_report(cfg.counterexample["n_max"], cfg.counterexample["n_t"])
    _write_json(out_dir / "counterexample.json", {
        "spike_indices": report.spike_indices,
        "max_closed_form_error": report.max_closed_form_error,
        "packing": {"separation": report.packing_separation,
                    "size": report.packing_size},
        "evaluation_covering": {"eps": report.eval_epsilon,
                                "size": report.eval_covering_size},
        "metadata": _metadata(cfg),
    })
    print(f"spike family {report.spike_indices}: packing {report.packing_size}, "
          f"evaluation covering {report.eval_covering_size}")
    return EXIT_OK


def cmd_gamma(cfg: RunConfig, out_dir: Path, args) -> int:
    sg, fields, cert = build_system(cfg)
    xi0 = cfg.build_xi0(sg.dim)
    T, n_t, seed = cfg.system["T"], cfg.system["n_t"], cfg.control["seed"]
    sample = sample_reachset(xi0, cfg.control["count"], seed, fields, sg, cert, n_t,
                             tol=cfg.solver["tol"])
    cloud = field_value_cloud(sample, fields)
    eps = cfg.gamma["eps"]
    lag_grid = np.linspace(0.0, T, n_t + 1)
    table = gamma_approximation(sg, cloud, T, eps, seed=seed,
                                extra_verify_times=lag_grid)
    _write_json(out_dir / "gamma.json",
                {"table": table.to_dict(), "metadata": _metadata(cfg)})

    verification = {
        "eps": eps,
        "delta": table.delta,
        "max_error": table.verified_max_error,
        "points_checked": table.verification_points,
        "passed": bool(table.verified_max_error < eps),
    }
    half = gamma_approximation(sg, cloud, T, eps / 2.0,
                               seed=seed, extra_verify_times=lag_grid)
    conv = convolution_compactness_check(
        sample, half, fields, sg, max_controls=cfg.gamma["max_controls"])
    tolerance = eps / 2.0 + 10.0 / n_t
    verification["convolution"] = {
        "n_controls": conv.n_controls,
        "max_coefficient": conv.max_coefficient,
        "max_reconstruction_error": conv.max_reconstruction_error,
        "tolerance": tolerance,
        "passed": bool(conv.max_reconstruction_error < tolerance),
    }
    if not verification["convolution"]["passed"]:
        raise VerificationError(
            f"convolution reconstruction error {conv.max_reconstruction_error:.3e} "
            f"exceeds {tolerance:.3e}")
    _write_json(out_dir / "gamma_verification.json",
                {"verification": verification,
                 "metadata": {**_metadata(cfg), "solves": sample.solves}})
    print(f"Gamma table: {table.n_time_cells} x {table.n_state_cells} cells, "
          f"max error {table.verified_max_error:.3e} < {eps}")
    return EXIT_OK


_COMMANDS = {
    "certify": cmd_certify,
    "solve": cmd_solve,
    "reachset": cmd_reachset,
    "counterexample": cmd_counterexample,
    "gamma": cmd_gamma,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildsolve",
        description="Certified Picard solver and reachable-set compactness diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("certify", "emit the contraction certificate for the configured ball"),
        ("solve", "solve one control and write trajectory CSV + JSON sidecar"),
        ("reachset", "run the covering-number diagnostic across dimensions"),
        ("counterexample", "run the dyadic spike family report"),
        ("gamma", "build and verify the finite-image semigroup table"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override control.seed from the config")
        cmd.add_argument("--threads", type=int, default=None,
                         help="accepted for compatibility; has no effect "
                              "(batch solves run single-threaded)")
        cmd.add_argument("--out", default="out", help="output directory")
        if name == "solve":
            cmd.add_argument("--control", default=None,
                             help="CSV control file (default: sample one from the ball)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(os.environ.get("MILDSOLVE_OUT", args.out))
    try:
        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            cfg.control["seed"] = args.seed
            cfg.validate()
        return _COMMANDS[args.command](cfg, out_dir, args)
    except (ConfigError, CertificateRadiusError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError,
            NonFiniteIterateError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
