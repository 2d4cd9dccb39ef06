import csv
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import mildsolve.config
import mildsolve.reachset as reachset
from mildsolve import cli
from mildsolve.cli import main
from mildsolve.config import _DEFAULTS, ConfigError, RunConfig
from mildsolve.reachset import counterexample_report

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def repo_config(tmp_path, name, overrides):
    """configs/<name> with its (block, key) settings replaced by `overrides`."""
    with open(REPO / "configs" / name) as fh:
        payload = yaml.safe_load(fh)
    for (block, key), value in overrides.items():
        payload[block][key] = value
    return write_config(tmp_path, payload)


def scalar_system(**overrides):
    cfg = {
        "system": {
            "semigroup": {"kind": "diagonal", "eigenvalues": [0.0]},
            "fields": [{"kind": "bilinear", "matrix": [[1.0]]}],
            "xi0": [1.0],
            "T": 1.0,
            "n_t": 500,
        },
        "control": {"p": 2, "r": 1.0, "count": 1, "seed": 7},
        "solver": {"tol": 1e-8},
    }
    for key, value in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    return cfg


def heat_system(**overrides):
    # the heat system of configs/heat.yaml at a small size; reachset overrides its dim
    cfg = {
        "system": {
            "semigroup": {"kind": "heat", "dim": 2},
            "fields": [{"kind": "bilinear", "identity": True}],
            "xi0": [0.1, 0.1],
            "T": 1.0,
            "n_t": 32,
        },
        "control": {"p": 1, "r": 1.0, "count": 6, "seed": 7},
        "solver": {"tol": 1e-4},
    }
    for key, value in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    return cfg


# a diagnostic on heat_system's truncations, at a small size
_SMALL_DIAGNOSTIC = {"dims": [2, 4], "eps_ladder": [0.2], "n_t": 16, "cloud_budget": 40}


def dense_system():
    # a stable dense generator without class constants: (M, mu) are certified at load
    return {
        "system": {
            "semigroup": {"kind": "dense", "matrix": [[-1.0, 0.5], [0.0, -2.0]]},
            "fields": [{"kind": "bilinear", "identity": True}],
            "xi0": [0.1, 0.1],
            "T": 1.0,
            "n_t": 64,
        },
        "control": {"p": 2, "r": 1.0, "count": 1, "seed": 3},
        "solver": {"tol": 1e-8},
    }


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_fresh(script):
    """Run a Python script in a fresh interpreter that imports this mildsolve."""
    src = str(Path(mildsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def strip_metadata(payload):
    payload = dict(payload)
    payload.pop("metadata", None)
    return payload


class TestCertify:
    def test_omega_reference_values(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system())
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        cert = load_json(out / "certificate.json")["certificate"]
        assert cert["mode"] == "omega"
        assert cert["omega"] == 2.0
        assert cert["rate"] == pytest.approx(0.5)

    def test_hidden_reference_values(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system(control={"p": 1, "r": 2.0}))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        cert = load_json(out / "certificate.json")["certificate"]
        assert cert["mode"] == "hidden"
        assert cert["N"] == 4
        assert cert["rate"] == pytest.approx(16.0 / 24.0, abs=1e-4)

    def test_metadata_records_the_certify_time(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system())
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        timings = load_json(out / "certificate.json")["metadata"]["timings"]
        assert sorted(timings) == ["certify_s"] and timings["certify_s"] >= 0.0

    def test_zero_lipschitz_rate(self, tmp_path):
        base = scalar_system()
        base["system"]["fields"] = [{"kind": "constant", "vector": [1.0]}]
        for p in (1, 2):
            base["control"]["p"] = p
            cfg = write_config(tmp_path, base, name=f"run{p}.yaml")
            out = tmp_path / f"out{p}"
            assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
            assert load_json(out / "certificate.json")["certificate"]["rate"] == 0.0


class TestSolve:
    def test_constant_control_reproduces_exponential(self, tmp_path):
        cfg_data = scalar_system(control={"p": 1, "r": 1.0})
        cfg_data["system"]["n_t"] = 1000
        cfg = write_config(tmp_path, cfg_data)
        control_path = tmp_path / "u.csv"
        with open(control_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_start", "u0"])
            for j in range(1000):
                writer.writerow([repr(j / 1000.0), "1.0"])
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--out", str(out),
                     "--control", str(control_path)])
        assert code == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0"]
        final = float(rows[-1][1])
        assert final == pytest.approx(math.e, rel=2e-3)
        sidecar = load_json(out / "solve.json")
        assert sidecar["iterations"] == 0  # the product pass's proved rounding bound certifies
        assert sidecar["a_posteriori_bound"] < 1e-8

    def test_control_past_the_application_cap_exits_3(self, tmp_path, capsys):
        # |u|_1 = 5e4 in a ball of that radius: its stopping rule would need
        # ~e 5e4 applications, so the solve fails before the first one
        cfg = write_config(tmp_path, scalar_system(control={"p": 1, "r": 5e4}))
        control_path = tmp_path / "u.csv"
        with open(control_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_start", "u0"])
            for j in range(500):
                writer.writerow([repr(j / 500.0), "5e4"])
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--control", str(control_path)]) == 3
        assert "application cap" in capsys.readouterr().err
        assert not out.exists()

    def test_row_past_the_last_field_read_that_overflows_exits_3(self, tmp_path, capsys):
        # x_2 = 2e308 leaves the floats after the last field read: the pass
        # reads rho = inf for it, and the stage j = 1 reads the iterate as NaN
        cfg = write_config(tmp_path, {
            "system": {"semigroup": {"kind": "diagonal", "eigenvalues": [0.001]},
                       "fields": [{"kind": "constant", "vector": [1e308]}],
                       "xi0": [1e308], "T": 1.0, "n_t": 2},
            "control": {"p": 2, "r": 2.0}, "solver": {"tol": 1e300}})
        control_path = tmp_path / "u.csv"
        control_path.write_text("t_start,u0\n0.0,1.0\n0.5,1.0\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--control", str(control_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "control #0" in err and "finite" in err
        assert not out.exists()

    def test_metadata_records_timings_and_counters(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        sidecar = load_json(out / "solve.json")
        meta = sidecar["metadata"]
        assert meta["counters"] == {
            "applications": sidecar["iterations"],
            "bytes_written": sum((out / name).stat().st_size
                                 for name in ("trajectory.csv", "control.csv"))}
        assert sorted(meta["timings"]) == ["solve_s", "write_s"]
        assert all(seconds >= 0.0 for seconds in meta["timings"].values())

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "control.csv").read_bytes() == (out2 / "control.csv").read_bytes()
        a = strip_metadata(load_json(out1 / "solve.json"))
        b = strip_metadata(load_json(out2 / "solve.json"))
        assert a == b

    def test_radius_violation_is_config_error(self, tmp_path):
        cfg_data = scalar_system(control={"p": 1, "r": 0.5})
        cfg = write_config(tmp_path, cfg_data)
        control_path = tmp_path / "u.csv"
        with open(control_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_start", "u0"])
            for j in range(500):
                writer.writerow([repr(j / 500.0), "2.0"])
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--control", str(control_path)])
        assert code == 2

    @pytest.mark.parametrize("header, rows", [
        (["t_start", "u0", "u1"], [[j / 10.0, 0.1, 0.2] for j in range(10)]),
        (["t_start", "u0"], [[j / 10.0, "nan" if j == 3 else 0.1] for j in range(10)]),
        (["t_start", "u0"], [[t, 0.1] for t in (0.0, 0.1, 0.3, 0.4)]),
        # uniform cells, but not the config's grid on [0, T = 1)
        (["t_start", "u0"], [[0.5 + j / 10.0, 0.1] for j in range(10)]),
        (["t_start", "u0"], [[j / 4.0, 0.1] for j in range(8)]),
    ], ids=["channels", "non-finite", "non-uniform-grid", "shifted-start", "other-horizon"])
    def test_bad_control_file_is_config_error(self, tmp_path, header, rows):
        cfg = write_config(tmp_path, scalar_system())
        control_path = tmp_path / "u.csv"
        with open(control_path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--control", str(control_path)]) == 2
        assert not out.exists()

    def test_control_on_another_grid_is_config_error(self, tmp_path, capsys):
        # four cells on [0, 1) against n_t = 1000: the solve grid is the config's
        control_path = tmp_path / "u.csv"
        with open(control_path, "w", newline="") as fh:
            csv.writer(fh).writerows([["t_start", "u0"]] + [[j / 4.0, 0.1] for j in range(4)])
        out = tmp_path / "out"
        assert main(["solve", "--config", str(REPO / "configs" / "scalar.yaml"),
                     "--out", str(out), "--control", str(control_path)]) == 2
        assert "1 channels on 4 cells, the system 1 fields on 1000" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_radius_sample_solves(self, tmp_path, capsys):
        # states reach ~1e200, whose squares overflow: the 2-norm gap rescales
        for norm_kind in (1, 2):
            cfg_data = scalar_system(control={"p": 2, "r": 1e200})
            cfg_data["system"]["fields"] = [{"kind": "constant", "vector": [1.0]}]
            cfg_data["system"]["norm_kind"] = norm_kind
            cfg = write_config(tmp_path, cfg_data, name=f"norm{norm_kind}.yaml")
            out = tmp_path / f"out{norm_kind}"
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            sidecar = load_json(out / "solve.json")
            assert 0.0 < sidecar["control_lp_norm"] <= 1e200
            # a state-free field under A = 0 takes F of the orbit: its proved rounding
            # bound (states near 1e200) misses tol, and stage 1, which leaves out
            # F's own rounding, reads 0
            assert (sidecar["iterations"], sidecar["a_posteriori_bound"]) == (1, 0.0)
        # states beyond the largest float: a numeric failure, with no traceback
        # and no RuntimeWarning
        cfg_data["system"]["fields"] = [{"kind": "constant", "vector": [1e300]}]
        cfg = write_config(tmp_path, cfg_data, name="overflow.yaml")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_seed_flag_changes_sampled_control(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "control.csv").read_bytes() != (out2 / "control.csv").read_bytes()
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "-1"]) == 2
        assert not (tmp_path / "c").exists()


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == 2
        cfg = write_config(tmp_path, scalar_system())
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--control", str(tmp_path / "nope.csv")]) == 2

    def test_unreadable_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["certify", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error:")

    def test_invalid_values(self, tmp_path):
        bad = scalar_system()
        bad["system"]["T"] = -1.0
        cfg = write_config(tmp_path, bad)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_semigroup(self, tmp_path):
        bad = scalar_system()
        del bad["system"]["semigroup"]
        cfg = write_config(tmp_path, bad)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_omega_mode_with_p1_rejected(self, tmp_path):
        bad = scalar_system(control={"p": 1}, solver={"certificate_mode": "omega"})
        cfg = write_config(tmp_path, bad)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, block, value", [
        ("reachset", "diagnostic", {"dims": []}),
        ("reachset", "diagnostic", {"eps_ladder": []}),
        ("certify", "solver", {"target_rate": 1.5}),
        ("counterexample", "counterexample", {"n_max": 128, "n_t": 1000}),
        ("reachset", "diagnostic", {"cloud_budget": 0}),
        ("reachset", "diagnostic", {"tol": 0}),
        ("reachset", "diagnostic", {"n_t": 0}),
        ("reachset", "diagnostic", {"eps_ladder": "0.1, 0.05"}),
        ("reachset", "diagnostic", {"dims": "16, 32"}),
        ("gamma", "gamma", {"eps": 0}),
        ("counterexample", "counterexample", {"separation": 0}),
        ("counterexample", "counterexample", {"eval_eps": -1}),
        ("certify", "system", {"T": "abc"}),
        ("solve", "control", {"count": "x"}),
        ("certify", "control", {"r": "big"}),
        ("solve", "solver", {"tol": None}),
        ("counterexample", "counterexample", {"n_max": "a"}),
        ("gamma", "gamma", {"max_controls": "x"}),
        ("certify", "system", {"semigroup": {"kind": "heat", "dim": "x"}}),
        ("certify", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": [0.0],
                                             "class_M": 0.5}}),
        ("certify", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": ["a"]}}),
        ("certify", "system", {"semigroup": {"kind": "dense", "matrix": [[1, 2]]}}),
        ("certify", "system", {"fields": {"kind": "bilinear", "identity": True}}),
        ("certify", "system", {"fields": [{"kind": "bilinear",
                                           "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
        ("certify", "system", {"fields": [{"kind": "saturation", "scale": -1}]}),
        ("solve", "system", {"xi0": ["a"]}),
        ("solve", "control", {"seed": 1.7}),
        ("solve", "control", {"seed": -1}),
        ("gamma", "control", {"count": True}),
        ("gamma", "gamma", {"run_convolution_check": "no"}),
        ("gamma", "gamma", {"max_controls": 0}),
        ("reachset", "diagnostic", {"dims": [2.0, 4.0]}),
        ("solve", "system", {"T": math.inf}),
        ("solve", "control", {"r": math.inf}),
        ("gamma", "gamma", {"eps": math.inf}),
        ("solve", "solver", {"tol": math.inf}),
        ("counterexample", "counterexample", {"separation": math.inf}),
        ("reachset", "diagnostic", {"eps_ladder": [math.inf, 0.1]}),
        ("reachset", "diagnostic", {"xi0_scale": math.inf}),
        ("certify", "diagnostic", {"xi0_scale": 0.0}),
        ("certify", "diagnostic", {"xi0_scale": -1.0}),
        ("solve", "system", {"fields": [{"kind": "constant", "vector": None}]}),
        ("solve", "system", {"fields": [{"kind": "constant", "vector": [math.nan]}]}),
        ("solve", "system", {"fields": [{"kind": "bilinear", "matrix": [[math.nan]]}]}),
        ("solve", "system", {"fields": [{"kind": "saturation", "scale": math.nan}]}),
        ("solve", "system", {"fields": [{"kind": "saturation", "scale": math.inf}]}),
        ("solve", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": [0.0],
                                           "class_M": math.inf}}),
        ("solve", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": [0.0],
                                           "class_M": 1.0, "class_mu": math.inf}}),
        ("solve", "solver", {"tols": 1e-2}),
        ("certify", "control", {"radius": 5}),
        ("certify", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": [0.0],
                                             "class_m": 2}}),
        ("solve", "system", {"fields": [{"kind": "saturation", "scal": 5}]}),
        ("certify", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": [0.0],
                                             "class_mu": 5.0}}),
        ("certify", "system", {"semigroup": {"kind": "dense", "matrix": [[-1.0]],
                                             "class_M": 2.0}}),
        # removed settings: the route and (M, mu) come from the system alone
        ("certify", "solver", {"certificate_mode": "auto"}),
        ("certify", "system", {"semigroup": {"kind": "diagonal", "eigenvalues": [0.0],
                                             "class_M": 2.0}}),
        ("certify", "system", {"semigroup": {"kind": "dense", "matrix": [[-1.0]],
                                             "class_mu": 0.5}}),
    ], ids=["empty-dims", "empty-eps-ladder", "target-rate", "spike-grid",
            "cloud-budget", "diagnostic-tol", "diagnostic-n-t", "eps-ladder-string",
            "dims-string", "gamma-eps", "spike-separation", "eval-eps",
            "T-string", "count-string", "r-string", "tol-null", "n-max-string",
            "max-controls-string", "heat-dim-string", "class-M-below-1",
            "eigenvalue-string", "dense-not-square", "fields-mapping",
            "bilinear-dim-mismatch", "saturation-negative", "xi0-string",
            "seed-fraction", "seed-negative", "count-bool", "check-string",
            "max-controls-zero", "dims-float",
            "T-inf", "r-inf", "gamma-eps-inf", "tol-inf", "separation-inf",
            "eps-ladder-inf", "xi0-scale-inf", "xi0-scale-zero", "xi0-scale-negative",
            "constant-null", "constant-nan",
            "bilinear-nan", "saturation-nan", "saturation-inf", "class-M-inf",
            "class-mu-inf", "unknown-solver-key", "unknown-control-key",
            "unknown-semigroup-key", "unknown-field-key", "class-mu-alone",
            "dense-class-M-alone", "certificate-mode", "class-M", "class-mu"])
    def test_rejected_before_any_work(self, tmp_path, capsys, command, block, value):
        # a reachset row runs on a heat system whose dims match its truncations, which
        # `test_small_diagnostic_run_is_accepted` runs: only the row's own setting fails
        payload = (heat_system(diagnostic={**_SMALL_DIAGNOSTIC, **value})
                   if command == "reachset" else scalar_system(**{block: value}))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error:")

    def test_small_diagnostic_run_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, heat_system(diagnostic=_SMALL_DIAGNOSTIC))
        assert main(["reachset", "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("command, block, value", [
        ("reachset", "diagnostic", None),
        ("solve", "control", [1, 2]),
        ("gamma", "gamma", "on"),
    ], ids=["bare-block", "list", "string"])
    def test_block_must_be_a_mapping(self, tmp_path, capsys, command, block, value):
        payload = scalar_system()
        payload[block] = value
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_block_rejected(self, tmp_path, capsys):
        payload = scalar_system()
        payload["solvers"] = {"tol": 1e-2}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("block, key", [
        (block, key) for block, settings in _DEFAULTS.items() for key in settings])
    def test_every_default_is_typed(self, block, key):
        # a setting added to _DEFAULTS without a type that _typed converts fails here
        default = _DEFAULTS[block][key]
        loaded = getattr(RunConfig.from_dict({}), block)[key]
        assert loaded == default and type(loaded) is type(default)
        wrong = [1] if isinstance(default, bool) else [True]
        for bad in ["abc"] + wrong:
            with pytest.raises(ConfigError):
                RunConfig.from_dict({block: {key: bad}})

    def test_exponent_without_dot_reads_as_number(self, tmp_path):
        # PyYAML loads 1e-8 (no dot) as a string: it still converts to 1.0e-8
        text = yaml.safe_dump(scalar_system())
        assert "tol: 1.0e-08" in text
        outs = []
        for name, tol in [("dot", "1.0e-8"), ("bare", "1e-8")]:
            path = tmp_path / f"{name}.yaml"
            path.write_text(text.replace("tol: 1.0e-08", f"tol: {tol}"))
            outs.append(tmp_path / name)
            assert main(["solve", "--config", str(path), "--out", str(outs[-1])]) == 0
        assert strip_metadata(load_json(outs[0] / "solve.json")) == \
            strip_metadata(load_json(outs[1] / "solve.json"))
        assert (outs[0] / "trajectory.csv").read_bytes() == \
            (outs[1] / "trajectory.csv").read_bytes()

    def test_overflowing_dense_class_rejected(self, tmp_path):
        # e^{At} of this nilpotent chain holds 1e400 / 2: (M, mu) overflow
        chain = [[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]]
        cfg = write_config(tmp_path, scalar_system(system={
            "semigroup": {"kind": "dense", "matrix": chain}, "xi0": [1.0, 1.0, 1.0],
            "fields": [{"kind": "bilinear", "identity": True}]}))
        out = tmp_path / "out"
        done = run_fresh("\n".join([
            "import sys, warnings",
            "warnings.simplefilter('error')",
            "from mildsolve.cli import main",
            f"sys.exit(main(['certify', '--config', {cfg!r}, '--out', {str(out)!r}]))",
        ]))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error:") and "overflows" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert not out.exists()

    def test_overflowing_omega_search_falls_back_to_hidden(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system(control={"p": 2, "r": 1e200}))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert load_json(out / "certificate.json")["certificate"]["mode"] == "hidden"


# balls whose omega gap lies below the ulp of mu = 1, or underflows at mu = 0
SMALL_BALLS = {"below-ulp": {("system", "semigroup"): {"kind": "diagonal", "eigenvalues": [1.0]},
                             ("control", "r"): 1e-9},
               "underflow": {("control", "r"): 1e-300}}


@pytest.mark.parametrize("case", sorted(SMALL_BALLS))
def test_small_ball_certifies_and_solves_on_the_omega_route(tmp_path, case):
    cfg = repo_config(tmp_path, "scalar.yaml", SMALL_BALLS[case])
    for command in ("certify", "solve"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    cert = load_json(tmp_path / "certify" / "certificate.json")["certificate"]
    assert load_json(tmp_path / "solve" / "solve.json")["certificate"] == cert
    assert cert["mode"] == "omega" and cert["rate"] <= 0.5
    assert cert["omega"] > cert["constants"]["mu"]


# e^{800 t} xi0 leaves the floats before T = 1
OVERFLOWING_ORBITS = {
    "solve-diagonal": ("solve", "scalar.yaml", {
        ("system", "semigroup"): {"kind": "diagonal", "eigenvalues": [800.0]}}),
    "solve-dense": ("solve", "scalar.yaml", {
        ("system", "semigroup"): {"kind": "dense", "matrix": [[800.0]]}}),
    "gamma": ("gamma", "heat.yaml", {
        ("system", "semigroup"): {"kind": "diagonal", "eigenvalues": [800.0] * 16},
        ("control", "p"): 2}),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_ORBITS))
def test_overflowing_orbit_exits_3(tmp_path, capsys, case):
    command, name, overrides = OVERFLOWING_ORBITS[case]
    out = tmp_path / "out"
    assert main([command, "--config", repo_config(tmp_path, name, overrides),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "leaves the floats" in err
    assert not out.exists()


# ball controls of radius 1.7e308 leave the floats once scaled at p = 1 and
# p = 2; the constant fields certify any radius
OVERFLOWING_BALLS = {
    "solve": ("scalar.yaml", {("system", "fields"): [{"kind": "constant", "vector": [1.0]}]}),
    "reachset": ("heat.yaml", {("system", "fields"): [{"kind": "constant", "vector": [1.0] * 16}],
                               ("diagnostic", "dims"): [16]}),
    "gamma": ("heat.yaml", {("system", "fields"): [{"kind": "constant", "vector": [1.0] * 16}]}),
}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("command", sorted(OVERFLOWING_BALLS))
def test_overflowing_ball_controls_exit_3(tmp_path, capsys, command, p):
    name, overrides = OVERFLOWING_BALLS[command]
    overrides = {**overrides, ("control", "r"): 1.7e308, ("control", "p"): p}
    out = tmp_path / "out"
    assert main([command, "--config", repo_config(tmp_path, name, overrides),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "leave the floats" in err
    assert not out.exists()


class TestSystemBuild:
    def test_diagonal_and_dense_systems_leave_scipy_unloaded(self, tmp_path):
        dense = write_config(tmp_path, dense_system())
        out = str(tmp_path / "out")
        script = "\n".join([
            "import sys",
            "import mildsolve.cli",
            "from mildsolve.config import RunConfig",
            f"cfg = RunConfig.from_file({str(REPO / 'configs' / 'heat.yaml')!r})",
            "cfg.build_fields(cfg.build_semigroup().dim)",
            "assert 'scipy' not in sys.modules, 'a diagonal system loaded scipy'",
            f"assert mildsolve.cli.main(['solve', '--config', {dense!r}, '--out', {out!r}]) == 0",
            "assert 'scipy' not in sys.modules, 'a dense system loaded scipy'",
        ])
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert load_json(tmp_path / "out" / "solve.json")["a_posteriori_bound"] < 1e-8

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
    def test_repeated_requests_keep_their_heap(self, tmp_path):
        # a scalar and a heat n = 64 solve, one after another: without the
        # primer in `main`, glibc trims the heap top after requests, and three
        # rounds take 230-650 page faults; with it, about 10
        heat = yaml.safe_load((REPO / "configs" / "heat.yaml").read_text())
        heat["system"]["semigroup"]["dim"] = 64
        heat["system"]["xi0"] = [0.0025] * 64
        heat["control"]["count"] = 1
        requests = [["solve", "--config", str(REPO / "configs" / "scalar.yaml")],
                    ["solve", "--config", write_config(tmp_path, heat)]]
        requests = [argv + ["--out", str(tmp_path / "out")] for argv in requests]
        script = "\n".join([
            "import resource, mildsolve.cli",
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            f"runs = [mildsolve.cli.main(argv) for argv in 2 * {requests!r}]",
            "start = faults()",
            f"runs += [mildsolve.cli.main(argv) for argv in 3 * {requests!r}]",
            "print(runs, faults() - start)",
        ])
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        runs, faults = done.stdout.splitlines()[-1].rsplit("]", 1)
        assert runs == "[" + ", ".join(["0"] * 10)
        assert int(faults) < 100

    def test_dense_solve_certifies_class_constants_once(self, tmp_path, monkeypatch):
        real = mildsolve.config.certify_class_constants
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mildsolve.config, "certify_class_constants", counted)
        cfg = write_config(tmp_path, dense_system())
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestReachsetCommand:
    def test_small_diagnostic_table(self, tmp_path):
        cfg_data = heat_system(control={"p": 1, "count": 10})
        cfg_data["diagnostic"] = {"dims": [2, 4], "eps_ladder": [0.5, 0.2],
                                  "n_t": 32, "xi0_scale": 0.5,
                                  "cloud_budget": 150}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["reachset", "--config", cfg, "--out", str(out),
                     "--threads", "1"]) == 0
        with open(out / "diagnostic.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "p", "eps", "n_reach", "n_ball", "sample_size"]
        assert len(rows) == 5
        summary = load_json(out / "reachset.json")
        assert len(summary["rows"]) == 4

    def test_table_determinism(self, tmp_path):
        cfg_data = heat_system(control={"p": 1, "count": 6})
        cfg_data["diagnostic"] = {"dims": [2], "eps_ladder": [0.4], "n_t": 16,
                                  "xi0_scale": 0.5, "cloud_budget": 60}
        cfg = write_config(tmp_path, cfg_data)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reachset", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["reachset", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "diagnostic.csv").read_bytes() == (out2 / "diagnostic.csv").read_bytes()

    @staticmethod
    def run(tmp_path, cfg_data, name):
        cfg_data["diagnostic"] = {"dims": [2, 4], "eps_ladder": [0.2], "n_t": 16,
                                  "cloud_budget": 40}
        out = tmp_path / name
        assert main(["reachset", "--config", write_config(tmp_path, cfg_data, f"{name}.yaml"),
                     "--out", str(out)]) == 0
        return load_json(out / "reachset.json")

    def test_every_dimension_records_its_certificate_and_timings(self, tmp_path):
        summary = self.run(tmp_path, heat_system(), "p1")
        dims = summary["metadata"]["dimensions"]
        assert sorted(dims) == ["2", "4"]
        for record in dims.values():  # wall seconds of the sample and solve, and of covering
            assert sorted(record["timings"]) == ["cover_s", "sample_s"]
            assert all(t >= 0.0 for t in record["timings"].values())
            # each cloud's pass apart: its seconds, its flagged rungs, its picks and graph rung
            passes = record["covering"]
            assert sorted(passes) == ["reach", "sphere"]
            assert all(sorted(p) == ["censored", "degenerate", "graph_rung", "picks", "seconds"]
                       and p["seconds"] >= 0.0 for p in passes.values())
            assert (passes["reach"]["seconds"] + passes["sphere"]["seconds"]
                    == pytest.approx(record["timings"]["cover_s"], abs=1e-9))
        for row in summary["rows"]:
            passes = dims[str(row["n"])]["covering"]
            for cloud, size in [("reach", row["n_reach"]), ("sphere", row["n_ball"])]:
                assert (row["eps"] in passes[cloud]["degenerate"]) == (size == 1)
                assert (row["eps"] in passes[cloud]["censored"]) == (size == row["sample_size"])
                # a one-rung ladder has no finer rung: the pass picks every center itself
                assert passes[cloud]["picks"] == size and passes[cloud]["graph_rung"] is None
        assert all(d["certificate"]["mode"] == "hidden" and d["certificate"]["p"] == 1.0
                   for d in dims.values())
        p2 = self.run(tmp_path, heat_system(control={"p": 2}), "p2")
        assert all(d["certificate"]["mode"] == "omega" and d["certificate"]["p"] == 2.0
                   for d in p2["metadata"]["dimensions"].values())

    def test_metadata_totals_and_rounding_counts(self, tmp_path):
        summary = self.run(tmp_path, heat_system(), "totals")
        meta = summary["metadata"]
        dims = meta["dimensions"].values()
        for record in dims:  # 6 controls per dimension, each certified at j = 0
            assert record["solves"]["applications"] == 0
            assert record["solves"]["rounding_certified"] == 6
            assert 0.0 < record["solves"]["bound_max"] <= 1e-4
            # the pass held the 40 budgeted of 6 x 17 rows and no whole stack
            assert (record["solves"]["held_rows"], record["solves"]["full_stack"]) == (40, False)
        assert meta["timings"] == {key: sum(d["timings"][key] for d in dims)
                                   for key in ("cover_s", "sample_s")}
        assert meta["counters"] == {"applications": 0, "rounding_certified": 12,
                                    "trajectories": 12}
        # a saturation field declares no evaluation error: applications certify
        saturated = heat_system()
        saturated["system"]["fields"] = [{"kind": "saturation", "scale": 1.0}]
        meta = self.run(tmp_path, saturated, "saturated")["metadata"]
        assert meta["counters"]["rounding_certified"] == 0
        assert meta["counters"]["applications"] >= 12
        assert meta["counters"]["applications"] == sum(
            d["solves"]["applications"] for d in meta["dimensions"].values())
        assert all((d["solves"]["held_rows"], d["solves"]["full_stack"]) == (40, True)
                   for d in meta["dimensions"].values())

    def test_dimension_mismatch_exits_2_before_any_work(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scalar_system())  # diagonal, dimension 1
        out = tmp_path / "out"
        assert main(["reachset", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "diagonal" in err
        assert "dimension 1, not 16" in err

    def test_one_dimensional_diagonal_system_runs(self, tmp_path):
        cfg_data = scalar_system(control={"count": 4})
        cfg_data["diagnostic"] = {"dims": [1], "eps_ladder": [0.2], "n_t": 16}
        out = tmp_path / "out"
        assert main(["reachset", "--config", write_config(tmp_path, cfg_data),
                     "--out", str(out)]) == 0
        summary = load_json(out / "reachset.json")
        assert [row["n"] for row in summary["rows"]] == [1]
        assert summary["metadata"]["dimensions"]["1"]["certificate"]["mode"] == "omega"

    def test_eigenvalue_class_reaches_certificate_and_gronwall_radius(self, tmp_path):
        # the class is (1, max(0, largest eigenvalue)): an eigenvalue +1 reads mu = 1
        def run(eigenvalue, name):
            cfg_data = scalar_system(control={"count": 4})
            cfg_data["system"]["semigroup"]["eigenvalues"] = [eigenvalue]
            cfg_data["diagnostic"] = {"dims": [1], "eps_ladder": [0.2], "n_t": 16}
            out = tmp_path / name
            assert main(["reachset", "--config", write_config(tmp_path, cfg_data, f"{name}.yaml"),
                         "--out", str(out)]) == 0
            return load_json(out / "reachset.json")

        stable, growing = run(-1.0, "stable"), run(1.0, "growing")
        assert stable["metadata"]["dimensions"]["1"]["certificate"]["constants"]["mu"] == 0.0
        record = growing["metadata"]["dimensions"]["1"]
        assert (record["certificate"]["constants"]["M"],
                record["certificate"]["constants"]["mu"]) == (1.0, 1.0)
        assert record["gronwall_radius"] > stable["diagnostic_config"]["gronwall_radius"]


class TestCounterexampleCommand:
    def test_report_values(self, tmp_path):
        cfg_data = {"counterexample": {"n_max": 16, "n_t": 64}}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
        report = load_json(out / "counterexample.json")
        assert report["spike_indices"] == [1, 2, 4, 8, 16]
        assert report["packing"]["size"] == 5
        assert report["evaluation_covering"]["size"] <= 3
        assert report["max_closed_form_error"] <= 1e-9

    def test_metadata_records_timings_and_counters(self, tmp_path):
        cfg = write_config(tmp_path, {"counterexample": {"n_max": 16, "n_t": 64}})
        out = tmp_path / "out"
        assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
        payload = load_json(out / "counterexample.json")
        meta = payload["metadata"]
        assert sorted(meta["timings"]) == ["cover_s", "solve_s"]
        assert all(seconds >= 0.0 for seconds in meta["timings"].values())
        report = counterexample_report(16, 64)
        assert meta["counters"] == {"applications": report.applications,
                                    "trajectories": len(payload["spike_indices"])}
        # one stack, F of the orbit, certified by its proved rounding bound alone
        assert report.applications == 0 and len(report.spike_indices) == 5

    def test_closed_form_miss_exits_4_without_output(self, tmp_path, capsys, monkeypatch):
        # a slack below 0 fails every spike, the first one (n = 1) named
        monkeypatch.setattr(reachset, "_CLOSED_FORM_SLACK", -1.0)
        cfg = write_config(tmp_path, {"counterexample": {"n_max": 16, "n_t": 64}})
        out = tmp_path / "out"
        assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 4
        assert not (out / "counterexample.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("verification failure: spike n=1 deviates from closed form by")


class TestGammaCommand:
    def test_small_gamma_run(self, tmp_path):
        cfg_data = {
            "system": {
                "semigroup": {"kind": "heat", "dim": 4},
                "fields": [{"kind": "bilinear", "identity": True}],
                "xi0": [0.25, 0.25, 0.25, 0.25],
                "T": 1.0,
                "n_t": 64,
            },
            "control": {"p": 1, "r": 1.0, "count": 10, "seed": 3},
            "solver": {"tol": 1e-6},
            "gamma": {"eps": 0.2, "max_controls": 5},
        }
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["gamma", "--config", cfg, "--out", str(out)]) == 0
        table = load_json(out / "gamma.json")["table"]
        assert table["certified_bound"] < 0.2
        report = load_json(out / "gamma_verification.json")
        verification = report["verification"]
        assert verification["passed"] is True
        assert verification["max_error"] == table["certified_bound"]
        assert "points_checked" not in verification
        assert verification["convolution"]["passed"] is True
        # metadata.tables: the eps table, then the eps / 2 one of the convolution check
        built = report["metadata"]["tables"]
        assert [t["epsilon"] for t in built] == [0.2, 0.1]
        assert {k: built[0][k] for k in ("n_time_cells", "delta", "certified_bound")} \
            == {k: table[k] for k in ("n_time_cells", "delta", "certified_bound")}
        for t in built:
            assert t["n_state_cells"] >= 1 and t["builds"] >= 1
            assert t["degenerate"] is (t["n_state_cells"] == 1)
            assert t["certified_bound"] < t["epsilon"]
        assert verification["convolution"]["tolerance"] \
            >= verification["convolution"]["max_reconstruction_error"]
        assert verification["convolution"]["tolerance"] <= built[1]["certified_bound"] * 1.000001
        # F once per solve application and once per checked control; the
        # field values of 10 trajectories on 65 grid times; both tables' cells
        meta = report["metadata"]
        assert meta["counters"] == {
            "applications": meta["solves"]["applications"] + 5, "field_values": 10 * 65,
            "table_cells": sum(t["n_time_cells"] * t["n_state_cells"] for t in built)}
        assert sorted(meta["timings"]) == ["convolution_s", "sample_s", "tables_s"]
        assert all(seconds >= 0.0 for seconds in meta["timings"].values())
        # identity field on a heat semigroup: the pass's rounding bound
        # certifies all 10 solves, with no application
        assert meta["solves"]["applications"] == 0
        assert meta["solves"]["rounding_certified"] == 10
        assert 0.0 < meta["solves"]["bound_max"] <= 1e-6
        # gamma.json: the sample and tables, before the convolution check
        tables_meta = load_json(out / "gamma.json")["metadata"]
        assert tables_meta["timings"] == {key: meta["timings"][key]
                                          for key in ("sample_s", "tables_s")}
        assert tables_meta["counters"] == {**meta["counters"], "applications": 0}

    def test_failed_reconstruction_exits_4_after_gamma_json(self, tmp_path, capsys,
                                                            monkeypatch):
        # an eps / 2 table whose certified bound understates its error: the
        # convolution check fails, after gamma.json and before the verification
        tables = cli.gamma_tables

        def understated(*args):
            table, half = tables(*args)
            return table, dataclasses.replace(half, certified_bound=0.0)

        monkeypatch.setattr(cli, "gamma_tables", understated)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, heat_system(gamma={"eps": 0.2, "max_controls": 3}))
        assert main(["gamma", "--config", cfg, "--out", str(out)]) == 4
        assert (out / "gamma.json").exists()
        assert not (out / "gamma_verification.json").exists()
        err = capsys.readouterr().err
        assert re.fullmatch(r"verification failure: convolution reconstruction error "
                            r"\d\.\d{3}e[+-]\d\d exceeds \d\.\d{3}e[+-]\d\d\n", err)

    def test_two_fields_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_reachset called")

        monkeypatch.setattr(cli, "sample_reachset", refuse)
        cfg_data = scalar_system()
        cfg_data["system"]["fields"] *= 2
        out = tmp_path / "out"
        assert main(["gamma", "--config", write_config(tmp_path, cfg_data),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "2 fields" in err

    def test_unreachable_eps_exits_4_fast(self, tmp_path, capsys):
        # the table delta would need exceeds the time-cell cap: a verification
        # failure before any table is built, with nothing written
        with open(REPO / "configs" / "heat.yaml") as fh:
            cfg_data = yaml.safe_load(fh)
        cfg_data["control"]["count"] = 10
        cfg_data["gamma"]["eps"] = 1e-18
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["gamma", "--config", write_config(tmp_path, cfg_data),
                     "--out", str(out)]) == 4
        assert time.perf_counter() - start < 10.0
        assert not (out / "gamma.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("verification failure:")
        assert "eps 1.000e-18" in err and "delta" in err

    def test_table_over_the_cell_cap_exits_4_before_any_orbit(self, tmp_path, capsys,
                                                              monkeypatch):
        # eps 0.01 on heat.yaml: the first table's 101 time cells pass a cap of
        # 200, its 101 x 3 cells do not, and no orbit of a center is computed
        def refuse(*args):
            raise AssertionError("semigroup_step called")

        monkeypatch.setattr(reachset, "_MAX_TABLE_CELLS", 200)
        monkeypatch.setattr(reachset, "semigroup_step", refuse)
        with open(REPO / "configs" / "heat.yaml") as fh:
            cfg_data = yaml.safe_load(fh)
        cfg_data["control"]["count"] = 10
        cfg_data["gamma"]["eps"] = 0.01
        out = tmp_path / "out"
        assert main(["gamma", "--config", write_config(tmp_path, cfg_data),
                     "--out", str(out)]) == 4
        assert not (out / "gamma.json").exists()
        assert "needs 101 x 3 cells, more than 200" in capsys.readouterr().err


def test_heat_yaml_solves_take_no_application(tmp_path):
    # configs/heat.yaml as it stands: every reach-set and Gamma solve is
    # certified by the forward pass's rounding bound alone
    config = str(REPO / "configs" / "heat.yaml")
    with open(config) as fh:
        count = yaml.safe_load(fh)["control"]["count"]
    assert main(["reachset", "--config", config, "--out", str(tmp_path / "r")]) == 0
    assert main(["gamma", "--config", config, "--out", str(tmp_path / "g")]) == 0
    reach = load_json(tmp_path / "r" / "reachset.json")["metadata"]
    gamma = load_json(tmp_path / "g" / "gamma_verification.json")["metadata"]
    for solves in [*(d["solves"] for d in reach["dimensions"].values()), gamma["solves"]]:
        assert solves["applications"] == 0 and solves["rounding_certified"] == count
    assert reach["counters"]["applications"] == 0


def test_p_infinity_runs_every_command(tmp_path):
    # configs/heat.yaml with `p: inf` (the omega route at q = 1), at small sizes
    with open(REPO / "configs" / "heat.yaml") as fh:
        cfg_data = yaml.safe_load(fh)
    cfg_data["control"].update(p="inf", count=12)
    cfg_data["diagnostic"].update(n_t=32, cloud_budget=400)
    cfg_data["gamma"]["max_controls"] = 3
    cfg_data["counterexample"].update(n_max=8, n_t=64)
    cfg = write_config(tmp_path, cfg_data)

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for command in ("certify", "solve", "reachset", "counterexample", "gamma"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        written = sorted((tmp_path / command).glob("*.json"))
        assert written
        for path in written:  # strict JSON: p = inf is null, no Infinity or NaN token
            json.loads(path.read_text(), parse_constant=refuse)
    cert = load_json(tmp_path / "certify" / "certificate.json")["certificate"]
    assert cert["mode"] == "omega" and cert["rate"] == 0.5
    reach = load_json(tmp_path / "reachset" / "reachset.json")
    assert reach["diagnostic_config"]["p"] is None
    assert {row["p"] for row in reach["rows"]} == {None}
    with open(tmp_path / "reachset" / "diagnostic.csv") as fh:
        assert {row["p"] for row in csv.DictReader(fh)} == {"inf"}


def test_env_var_overrides_out(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, scalar_system())
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MILDSOLVE_OUT", str(env_dir))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "flag_out")]) == 0
    assert (env_dir / "certificate.json").exists()
    assert not (tmp_path / "flag_out").exists()


def test_parser_is_built_once_and_keeps_its_exits(tmp_path):
    for argv in (["bogus"], ["solve"], ["solve", "--config", "c.yaml", "--seed", "one"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert cli._parser() is cli._parser()
    cfg = write_config(tmp_path, scalar_system())
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
