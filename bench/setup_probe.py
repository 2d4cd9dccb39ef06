"""Set-up time of a workload process: import mildsolve, load the first config.

The benchmark measures this once in its own process and again in a few
fresh interpreters, because an import can only be timed once per process:

    python3 bench/setup_probe.py CHECKOUT_ROOT WORKLOAD

prints the seconds from before ``import mildsolve`` until the workload's
first request is ready.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# The config each workload's first request loads.
FIRST_CONFIG = {
    "reach-diag": "configs/heat.yaml",
    "gamma-table": "configs/heat.yaml",
    "solve-mix": "configs/scalar.yaml",
}


def setup(root: Path, workload: str) -> float:
    """Import mildsolve from root/src and build the first config's system."""
    start = time.perf_counter()
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import mildsolve.cli  # noqa: F401  (the whole package, as a request needs it)
    from mildsolve.config import RunConfig

    cfg = RunConfig.from_file(root / FIRST_CONFIG[workload])
    sg = cfg.build_semigroup()
    cfg.build_fields(sg.dim)
    cfg.build_xi0(sg.dim)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(setup(Path(sys.argv[1]), sys.argv[2])))
