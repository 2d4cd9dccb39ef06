"""mildsolve benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload reach-diag --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run plus the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  README.md beside this file describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("reach-diag", "gamma-table", "solve-mix")
# Pool threads x BLAS threads stays within the 2 cores the benchmark targets.
THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_THREADS = 1
SETUP_REPEATS = 7
TRACED_MIN_UNITS = 4  # untraced and traced units alternate; two of each at least
# Wall-clock metrics are printed with the others but left out of the result
# line: on a shared 2-vCPU host with 10-25 % hypervisor steal their run-to-run
# spread (0.13-0.45 of the median) exceeds any usable bound, while the CPU-time
# forms stay within 0.1.
WALL_CLOCK = ("wall_s", "solves_per_s", "solve_ms_p50", "solve_ms_p90")

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result (sample counts, machine) "
                             "as JSON to this file")
    return parser


def _percentile(data: list, q: int) -> float:
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "threads": THREADS,
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(ROOT),
    }


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds: this process first, then fresh interpreters."""
    import setup_probe

    samples = [setup_probe.setup(ROOT, workload)]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), workload],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def execute(main, request, sink) -> tuple[float, float, str | None]:
    """Run one CLI request in-process: (wall s, CPU s, failure or None)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(request.argv)
    except Exception as exc:  # a raised solve or verification is a failure
        return (time.perf_counter() - wall0, time.process_time() - cpu0,
                f"{request.kind}: raised {exc!r}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        return wall, cpu, f"{request.kind}: exit code {code}"
    try:
        request.check()
    except Exception as exc:  # unreadable output fails the check as well
        return wall, cpu, f"{request.kind}: {exc}"
    return wall, cpu, None


def run_workload(wl, seconds: float, trace: bool, run_id: str) -> dict:
    """Warm up, then repeat the workload's unit for `seconds`.

    With `trace`, units alternate untraced and traced; only traced units
    install the span wrappers.
    """
    import mildsolve.cli as cli
    from spans import EXACT_COUNTERS, Tracer, layer_metrics

    out = {"attempted": 0, "failures": [], "walls": [], "cpus": [], "latencies": [],
           "request_cpus": [], "traced_walls": [], "layers": [], "spans": [], "missing": []}
    tracer = Tracer(run_id) if trace else None
    with open(os.devnull, "w") as sink:
        for request in wl.warmup:
            out["attempted"] += 1
            failure = execute(cli.main, request, sink)[2]
            if failure:
                out["failures"].append("warm-up " + failure)

        min_units = max(wl.min_units, TRACED_MIN_UNITS) if trace else wl.min_units
        start = time.perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            main = cli.main
            if traced:
                tracer.unit = index
                bytes0 = tracer.bytes_written
                tracer.install()

                def main(argv):
                    return tracer.call("bench.request", cli.main, (argv,))
            wall = cpu = 0.0
            latencies, request_cpus = [], []
            try:
                for request in wl.unit:
                    out["attempted"] += 1
                    dt, dcpu, failure = execute(main, request, sink)
                    wall, cpu = wall + dt, cpu + dcpu
                    latencies.append(dt)
                    request_cpus.append(dcpu)
                    if failure:
                        out["failures"].append(failure)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                out["traced_walls"].append(wall)
                out["layers"].append(layer_metrics(tracer.spans, index,
                                                   tracer.bytes_written - bytes0))
            else:
                out["walls"].append(wall)
                out["cpus"].append(cpu)
                out["latencies"].extend(latencies)
                out["request_cpus"].extend(request_cpus)
            index += 1
            elapsed = time.perf_counter() - start
            if index >= min_units and elapsed * (index + 1) / index > seconds:
                break

    if trace:
        out["missing"] = tracer.missing
        out["spans"] = tracer.records()
        first = out["layers"][0]
        for layer in out["layers"]:
            out["attempted"] += 1  # the trace's own check of each traced unit
            problems = [f"{name} {layer[name]} != {first[name]}"
                        for name in EXACT_COUNTERS if layer[name] != first[name]]
            if layer["solver.bound_over_tol_max"] > 1.0:
                problems.append("a_posteriori_bound above tol: "
                                f"ratio {layer['solver.bound_over_tol_max']:.3g}")
            if problems:
                out["failures"].append("traced unit: " + "; ".join(problems))
    return out


def end_to_end(wl, setups: list, run: dict) -> dict:
    """name -> (value, unit, sample count).

    Requests are whole in-process CLI calls; a unit is the workload's fixed
    work.  CPU times are user + sys of the process, all threads.
    """
    walls, cpus = run["walls"], run["cpus"]
    lat, req_cpu = run["latencies"], run["request_cpus"]
    units = len(walls)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "cpu_s": (statistics.median(cpus), "s", units),
        "solves_per_cpu_s": (wl.solves_per_unit * units / sum(cpus), "1/s", units),
        "request_cpu_ms_p50": (1e3 * statistics.median(req_cpu), "ms", len(req_cpu)),
        "request_cpu_ms_p90": (1e3 * _percentile(req_cpu, 90), "ms", len(req_cpu)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
        "wall_s": (statistics.median(walls), "s", units),
        "solves_per_s": (wl.solves_per_unit * units / sum(walls), "1/s", units),
        "solve_ms_p50": (1e3 * statistics.median(lat), "ms", len(lat)),
        "solve_ms_p90": (1e3 * _percentile(lat, 90), "ms", len(lat)),
    }


def per_layer(run: dict) -> dict:
    """name -> (value, unit, sample count); medians over the traced units."""
    from spans import LAYER_UNITS

    n = len(run["layers"])
    metrics = {name: (statistics.median(layer[name] for layer in run["layers"]), unit, n)
               for name, unit in LAYER_UNITS.items()}
    untraced = statistics.median(run["walls"])
    traced = statistics.median(run["traced_walls"])
    metrics["trace.untraced_wall_s"] = (untraced, "s", len(run["walls"]))
    metrics["trace.traced_wall_s"] = (traced, "s", n)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio", n)
    return metrics


def run_one(args) -> int:
    setups = measure_setup(args.workload)
    import mildsolve
    import workloads

    if not Path(mildsolve.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported mildsolve from {mildsolve.__file__}", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 31
    run_id = f"{args.workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    out_root = ROOT / ".bench_out"
    work = out_root / f"work_{os.getpid()}"
    try:
        wl = workloads.build(args.workload, ROOT, work, seed, THREADS)
        run = run_workload(wl, args.seconds, bool(args.trace), run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(run) if args.trace else end_to_end(wl, setups, run)
    failed = len(run["failures"])
    machine = machine_info()

    print(f"workload {wl.name}  seed {seed}  trace {args.trace}  units "
          f"{len(run['walls']) + len(run['traced_walls'])}  sizes {json.dumps(wl.sizes)}")
    for name, (value, unit, samples) in metrics.items():
        note = "  (wall clock, not in the result line)" if name in WALL_CLOCK else ""
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={samples}{note}")
    print(f"  {'failed_frac':32s} {failed / run['attempted']:14.6g} {'':6s} "
          f"{failed} of {run['attempted']} attempted")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    if run["missing"]:
        print(f"  not traced (absent in this version): {', '.join(run['missing'])}")
    print("machine " + json.dumps(machine, sort_keys=True))
    if args.trace:
        out_root.mkdir(exist_ok=True)
        spans_path = out_root / f"spans_{wl.name}_{seed}.jsonl"
        with open(spans_path, "w") as fh:
            for record in run["spans"]:
                fh.write(json.dumps(record) + "\n")
        print(f"spans {spans_path.relative_to(ROOT)} ({len(run['spans'])} spans)")

    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if name not in WALL_CLOCK},
    }
    if args.out:
        detail = dict(result, workload=wl.name, seed=seed, seconds=args.seconds,
                      trace=args.trace, sizes=wl.sizes, machine=machine,
                      failed_frac=failed / run["attempted"], failures=run["failures"],
                      wall_clock={name: {"value": metrics[name][0], "unit": metrics[name][1]}
                                  for name in WALL_CLOCK if name in metrics},
                      samples={name: n for name, (_, _, n) in metrics.items()})
        Path(args.out).write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    details = {}
    work = ROOT / ".bench_out" / f"all_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            path = work / f"{name}.json"
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(path)],
                timeout=900)
            if done.returncode != 0:
                print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            details[name] = json.loads(path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": details}, indent=2,
                                             sort_keys=True) + "\n")
    print(json.dumps({
        "correct": all(d["correct"] for d in details.values()),
        "attempted": sum(d["attempted"] for d in details.values()),
        "failed": sum(d["failed"] for d in details.values()),
        "metrics": {name: d["metrics"] for name, d in details.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    missing = [p for p in ("src/mildsolve/__init__.py", "configs/heat.yaml",
                           "configs/scalar.yaml") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a mildsolve checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
