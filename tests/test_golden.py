"""Golden outputs: every CSV/JSON a CLI run writes, byte for byte.

Each case runs one subcommand on a committed config (the diagnostic and
Gamma runs at small sizes) and compares every file it writes against
``tests/golden/<case>/``.  JSON files are compared with their ``metadata``
key removed (it holds the timestamp and the run's own records); every other
byte must match.

The files were generated by this module and are checked in.  Only a change
that means to change outputs regenerates them, with
``PYTHONPATH=src python tests/test_golden.py``, and says in CHANGES.md which
outputs changed and why.  A simplification that keeps outputs leaves them
alone.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest
import yaml

from mildsolve.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (subcommand, config, overrides of config settings)
CASES = {
    "scalar_certify": ("certify", "scalar.yaml", {}),
    "scalar_solve": ("solve", "scalar.yaml", {}),
    "heat_counterexample": ("counterexample", "heat.yaml", {}),
    "heat_reachset": ("reachset", "heat.yaml",
                      {("control", "count"): 20, ("diagnostic", "cloud_budget"): 400,
                       ("diagnostic", "n_t"): 32}),
    "heat_gamma": ("gamma", "heat.yaml",
                   {("control", "count"): 12, ("gamma", "max_controls"): 3}),
    # p = 2 takes the omega route, whose sampling reads the certificate's ball
    "heat_reachset_p2": ("reachset", "heat.yaml",
                         {("control", "p"): 2, ("control", "count"): 20,
                          ("diagnostic", "cloud_budget"): 400, ("diagnostic", "n_t"): 32}),
    "heat_gamma_p2": ("gamma", "heat.yaml",
                      {("control", "p"): 2, ("control", "count"): 12,
                       ("gamma", "max_controls"): 3}),
}


def _run(case: str, work: Path) -> Path:
    command, config, overrides = CASES[case]
    with open(REPO / "configs" / config) as fh:
        cfg = yaml.safe_load(fh)
    for (block, key), value in overrides.items():
        cfg[block][key] = value
    path = work / f"{case}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = work / case
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


def _comparable(path: Path) -> bytes:
    """The file's bytes; for JSON, its dump without the metadata key."""
    if path.suffix != ".json":
        return path.read_bytes()
    payload = json.loads(path.read_text())
    payload.pop("metadata", None)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    out = _run(case, tmp_path)
    want = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for name in want:
        assert _comparable(out / name) == (GOLDEN / case / name).read_bytes(), name


def regenerate(work: Path) -> None:
    for case in CASES:
        out = _run(case, work)
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        (GOLDEN / case).mkdir(parents=True)
        for path in out.iterdir():
            (GOLDEN / case / path.name).write_bytes(_comparable(path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
