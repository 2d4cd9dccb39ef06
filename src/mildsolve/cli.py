"""Command-line front end: certify, solve, reachset, counterexample, gamma.

Every subcommand reads one YAML config (--config), draws all randomness from
explicit seeds and writes machine-readable CSV/JSON into the output directory
(--out, overridden by the MILDSOLVE_OUT environment variable).  Commands read
settings as `cfg.<block>[key]`, typed and checked at load; `main` applies and
checks ``--seed`` once.  Outputs are byte-identical across re-runs except for
the timestamp inside the metadata key.  ``--threads`` is accepted for
compatibility and has no effect; BLAS threads follow OPENBLAS_NUM_THREADS.
Exit codes: 0 success, 2 config error (a bad or unknown setting, a bad
system, or a control outside the certificate radius), 3 numeric/certification
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .controls import control_from_csv, control_to_csv, lp_norm, sample_ball, stack_controls
from .floatcsv import write_csv
from .operator import CertificateRadiusError, ContractionCertificate, certify
from .reachset import (
    VerificationError,
    compactness_diagnostic,
    convolution_compactness_check,
    counterexample_report,
    field_value_cloud,
    gamma_tables,
    sample_reachset,
)
from .solver import NonFiniteIterateError, solve_batch
from .spaces import Semigroup, VectorField

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

def _metadata(cfg: RunConfig) -> dict:
    return {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "config": cfg.raw}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:  # one write: `json.dump` makes one per token
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, table: np.ndarray) -> int:
    """Write a float table (see `floatcsv.write_csv`); return its size in bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_csv(path, header, table)


def build_system(cfg: RunConfig, dim: int | None = None
                 ) -> tuple[Semigroup, list[VectorField], ContractionCertificate]:
    """The configured semigroup and fields, and the certificate for the
    control ball (see `certify`): built once per command and dimension.
    `dim` overrides the semigroup's dimension (see `RunConfig.build_semigroup`)."""
    sg = cfg.build_semigroup(dim)
    fields = cfg.build_fields(sg.dim)
    cert = certify(cfg.control["p"], cfg.control["r"], sg.class_M, sg.class_mu,
                   max(f.lipschitz_L for f in fields), cfg.system["T"])
    return sg, fields, cert


def cmd_certify(cfg: RunConfig, out_dir: Path, args) -> int:
    start = time.perf_counter()
    cert = build_system(cfg)[2]
    payload = {"certificate": cert.to_dict(),
               "metadata": {**_metadata(cfg),
                            "timings": {"certify_s": time.perf_counter() - start}}}
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
        if (u.channels, u.n_t) != (len(fields), cfg.system["n_t"]):
            raise ConfigError(f"control {args.control} has {u.channels} channels on {u.n_t} "
                              f"cells, the system {len(fields)} fields on {cfg.system['n_t']}")
        stack = stack_controls([u])
    else:
        stack = sample_ball(cert.p, cert.radius_r, cert.horizon_T, len(fields),
                            cfg.system["n_t"], 1, cfg.control["seed"])
        u = stack[0]
    start = time.perf_counter()
    result = solve_batch(xi0, stack, fields, sg, cert, cfg.solver["tol"])[0]
    solved = time.perf_counter()
    iterations, bound = result.iterations, result.a_posteriori_bound
    written = _write_csv(out_dir / "trajectory.csv", ["t"] + [f"x{i}" for i in range(sg.dim)],
                         np.column_stack([result.trajectory.times, result.trajectory.states]))
    written += control_to_csv(u, out_dir / "control.csv")
    wrote = time.perf_counter()
    _write_json(out_dir / "solve.json", {
        "iterations": iterations,
        "a_posteriori_bound": bound,
        "certificate": cert.to_dict(),
        "control_lp_norm": lp_norm(u, cert.p),
        "metadata": {**_metadata(cfg),
                     "timings": {"solve_s": solved - start, "write_s": wrote - solved},
                     # bytes of trajectory.csv and control.csv
                     "counters": {"applications": iterations, "bytes_written": written}},
    })
    print(f"solved in {iterations} applications (bound {bound:.3e}); wrote {out_dir}")
    return EXIT_OK


def cmd_reachset(cfg: RunConfig, out_dir: Path, args) -> int:
    diag, control = cfg.diagnostic, cfg.control
    systems = [build_system(cfg, dim) for dim in diag["dims"]]
    report = compactness_diagnostic(
        systems, diag["eps_ladder"], control["count"], control["seed"], n_t=diag["n_t"],
        xi0_scale=diag["xi0_scale"], norm_kind=cfg.system["norm_kind"],
        cloud_budget=diag["cloud_budget"], tol=cfg.solver["tol"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "diagnostic.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["n", "p", "eps", "n_reach", "n_ball", "sample_size"]] + [
            [row["n"], row["p"], repr(row["eps"]), row["n_reach"], row["n_ball"],
             row["sample_size"]] for row in report.rows])
    dims = report.dimensions.values()
    totals = {  # over the dimensions
        "timings": {key: sum(d["timings"][key] for d in dims) for key in ("sample_s", "cover_s")},
        "counters": {"trajectories": control["count"] * len(dims),
                     **{key: sum(d["solves"][key] for d in dims)
                        for key in ("applications", "rounding_certified")}}}
    null_p = {"p": None} if np.isinf(report.config["p"]) else {}  # as a certificate writes it
    _write_json(out_dir / "reachset.json",
                {"rows": [{**row, **null_p} for row in report.rows],
                 "diagnostic_config": {**report.config, **null_p},
                 "metadata": {**_metadata(cfg), "dimensions": report.dimensions, **totals}})
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
        "metadata": {**_metadata(cfg), "timings": report.timings,
                     "counters": {"applications": report.applications,
                                  "trajectories": len(report.spike_indices)}},
    })
    print(f"spike family {report.spike_indices}: packing {report.packing_size}, "
          f"evaluation covering {report.eval_covering_size}")
    return EXIT_OK


def cmd_gamma(cfg: RunConfig, out_dir: Path, args) -> int:
    sg, fields, cert = build_system(cfg)
    if len(fields) != 1:  # the table approximates one field's values
        raise ConfigError(f"gamma needs a single-field system, got {len(fields)} fields")
    xi0 = cfg.build_xi0(sg.dim)
    T = cfg.system["T"]
    start = time.perf_counter()
    sample = sample_reachset(xi0, cfg.control["count"], cfg.control["seed"], fields, sg, cert,
                             cfg.system["n_t"], tol=cfg.solver["tol"])
    sampled = time.perf_counter()
    cloud = field_value_cloud(sample, fields)
    eps = cfg.gamma["eps"]
    table, half = gamma_tables(sg, cloud, T, [eps, eps / 2.0])
    tabled = time.perf_counter()
    timings = {"sample_s": sampled - start, "tables_s": tabled - sampled}
    counters = {"applications": sample.solves["applications"], "field_values": cloud.size,
                "table_cells": table.verification_points + half.verification_points}
    _write_json(out_dir / "gamma.json",
                {"table": table.to_dict(),
                 "metadata": {**_metadata(cfg), "timings": timings, "counters": counters}})
    written = time.perf_counter()

    verification = {
        "eps": eps,
        "delta": table.delta,
        "max_error": table.certified_bound,  # over every cloud point and t in [0, T]
        "passed": bool(table.certified_bound < eps),
    }
    conv = convolution_compactness_check(
        sample, half, fields, sg, max_controls=cfg.gamma["max_controls"])
    checked = time.perf_counter()
    verification["convolution"] = {
        "n_controls": conv.n_controls,
        "max_coefficient": conv.max_coefficient,
        "max_reconstruction_error": conv.max_reconstruction_error,
        "tolerance": conv.tolerance,
        "passed": True,  # a failed check raised VerificationError
    }
    _write_json(out_dir / "gamma_verification.json",
                {"verification": verification,
                 "metadata": {**_metadata(cfg), "solves": sample.solves,
                              "tables": [table.summary(), half.summary()],
                              "timings": {**timings, "convolution_s": checked - written},
                              "counters": {**counters, "applications": counters["applications"]
                                           + conv.n_controls}}})
    print(f"Gamma table: {table.n_time_cells} x {table.n_state_cells} cells, "
          f"certified max error {table.certified_bound:.3e} < {eps}")
    return EXIT_OK


_COMMANDS = {
    "certify": cmd_certify,
    "solve": cmd_solve,
    "reachset": cmd_reachset,
    "counterexample": cmd_counterexample,
    "gamma": cmd_gamma,
}


@functools.cache  # built on the first `main` call, then reused by every later one
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
                         help="accepted for compatibility; has no effect (BLAS "
                              "threads follow OPENBLAS_NUM_THREADS)")
        cmd.add_argument("--out", default="out", help="output directory")
        if name == "solve":
            cmd.add_argument("--control", default=None,
                             help="CSV control file (default: sample one from the ball)")
    return parser


# glibc gives the top of its heap back to the system whenever more than its
# trim threshold (128 KB by default) lies free there, so a process that runs
# one request after another returns and faults in again the 0.5-0.8 MB each
# request holds for a moment (80-300 page faults a request of the solve-mix
# benchmark).  Freeing one block above the default mmap threshold raises both
# thresholds by glibc's own dynamic rule (mmap 1 MB, trim 2 MB); the block is
# never touched, so it costs no resident memory.  Other allocators just free it.
_HEAP_PRIMER_FLOATS = 1 << 17


def main(argv=None) -> int:
    np.empty(_HEAP_PRIMER_FLOATS)
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
