import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import mildsolve.config
from mildsolve.cli import main
from mildsolve.config import _DEFAULTS, ConfigError, RunConfig

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


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

    def test_zero_lipschitz_rate(self, tmp_path):
        base = scalar_system()
        base["system"]["fields"] = [{"kind": "constant", "vector": [1.0]}]
        for p in (1, 2):
            base["control"]["p"] = p
            cfg = write_config(tmp_path, base, name=f"run{p}.yaml")
            out = tmp_path / f"out{p}"
            assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
            assert load_json(out / "certificate.json")["certificate"]["rate"] == 0.0

    def test_mode_override(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system(solver={"certificate_mode": "hidden"}))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert load_json(out / "certificate.json")["certificate"]["mode"] == "hidden"


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
        assert sidecar["iterations"] >= 1
        assert sidecar["a_posteriori_bound"] < 1e-8

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
    ], ids=["channels", "non-finite", "non-uniform-grid"])
    def test_bad_control_file_is_config_error(self, tmp_path, header, rows):
        cfg = write_config(tmp_path, scalar_system())
        control_path = tmp_path / "u.csv"
        with open(control_path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--control", str(control_path)]) == 2
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
            norm = load_json(out / "solve.json")["control_lp_norm"]
            assert 0.0 < norm <= 1e200
            assert all(math.isfinite(g) for g in load_json(out / "solve.json")["iterate_gaps"])
        # states beyond the largest float: a numeric failure, not a traceback
        cfg_data["system"]["fields"] = [{"kind": "constant", "vector": [1e300]}]
        cfg = write_config(tmp_path, cfg_data, name="overflow.yaml")
        with pytest.warns(RuntimeWarning):
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
            "eps-ladder-inf", "xi0-scale-inf", "constant-null", "constant-nan",
            "bilinear-nan", "saturation-nan", "saturation-inf", "class-M-inf",
            "class-mu-inf", "unknown-solver-key", "unknown-control-key",
            "unknown-semigroup-key", "unknown-field-key", "class-mu-alone",
            "dense-class-M-alone"])
    def test_rejected_before_any_work(self, tmp_path, capsys, command, block, value):
        cfg = write_config(tmp_path, scalar_system(**{block: value}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error:")

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

    def test_overflowing_omega_search_falls_back_to_hidden(self, tmp_path):
        cfg = write_config(tmp_path, scalar_system(control={"p": 2, "r": 1e200}))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert load_json(out / "certificate.json")["certificate"]["mode"] == "hidden"


class TestSystemBuild:
    def test_diagonal_system_leaves_scipy_unloaded(self, tmp_path):
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
            "assert 'scipy' in sys.modules",
        ])
        src = str(Path(mildsolve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert load_json(tmp_path / "out" / "solve.json")["a_posteriori_bound"] < 1e-8

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

    def test_every_dimension_reads_the_certificate_mode(self, tmp_path):
        summary = self.run(tmp_path, heat_system(control={"p": 2},
                                                 solver={"certificate_mode": "hidden"}), "hidden")
        dims = summary["metadata"]["dimensions"]
        assert sorted(dims) == ["2", "4"]
        assert all(d["certificate"]["mode"] == "hidden" and d["certificate"]["p"] == 2.0
                   for d in dims.values())
        auto = self.run(tmp_path, heat_system(control={"p": 2}), "auto")
        assert all(d["certificate"]["mode"] == "omega"
                   for d in auto["metadata"]["dimensions"].values())

    def test_class_constants_reach_certificate_and_gronwall_radius(self, tmp_path):
        base = self.run(tmp_path, heat_system(), "base")
        doubled = self.run(tmp_path, heat_system(
            system={"semigroup": {"kind": "heat", "dim": 2, "class_M": 2.0}}), "doubled")
        radius = base["diagnostic_config"]["gronwall_radius"]
        assert doubled["diagnostic_config"]["gronwall_radius"] > 2.0 * radius
        for dim, record in doubled["metadata"]["dimensions"].items():
            assert record["certificate"]["constants"]["M"] == 2.0
            assert record["gronwall_radius"] > 2.0 * radius
            assert record["certificate"] != base["metadata"]["dimensions"][dim]["certificate"]

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
        assert table["verified_max_error"] < 0.2
        verification = load_json(out / "gamma_verification.json")["verification"]
        assert verification["passed"] is True
        assert verification["convolution"]["passed"] is True


def test_env_var_overrides_out(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, scalar_system())
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MILDSOLVE_OUT", str(env_dir))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "flag_out")]) == 0
    assert (env_dir / "certificate.json").exists()
    assert not (tmp_path / "flag_out").exists()
