import math

import numpy as np
import pytest

from mildsolve import (
    StateVector,
    apply_semigroup,
    bilinear_field,
    certify_class_constants,
    constant_field,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
    saturation_field,
)
from mildsolve.config import ConfigError, RunConfig
from mildsolve.spaces import operator_norm, vector_norm


def series_exp_apply(matrix, t, xi, terms=60):
    """Independent oracle: truncated power series for e^{At} xi."""
    acc = np.array(xi, dtype=float)
    term = np.array(xi, dtype=float)
    for k in range(1, terms):
        term = (matrix @ term) * (t / k)
        acc = acc + term
    return acc


class TestApplySemigroup:
    def test_identity_at_t_zero(self):
        sg = diagonal_semigroup([-1.0, -4.0])
        out = apply_semigroup(sg, 0.0, StateVector([1.0, 1.0]))
        assert np.array_equal(out.coords, [1.0, 1.0])

    def test_diagonal_analytic_action(self):
        sg = diagonal_semigroup([-1.0, -4.0])
        out = apply_semigroup(sg, 1.0, StateVector([1.0, 1.0]))
        assert np.allclose(out.coords, [math.exp(-1), math.exp(-4)], rtol=1e-15)

    def test_nilpotent_dense_action(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        sg = dense_semigroup(a, class_M=4.0, class_mu=0.0)
        xi = StateVector([1.0, 1.0])
        out = apply_semigroup(sg, 2.0, xi)
        oracle = series_exp_apply(a, 2.0, xi.coords)
        assert np.allclose(out.coords, [3.0, 1.0], atol=1e-14)
        assert np.allclose(out.coords, oracle, atol=1e-14)

    def test_dense_matches_series_oracle(self, rng):
        a = rng.standard_normal((5, 5)) * 0.4
        sg = dense_semigroup(a, class_M=10.0, class_mu=1.0)
        for t in (0.3, 1.0, 2.5):
            xi = StateVector(rng.standard_normal(5))
            out = apply_semigroup(sg, t, xi)
            oracle = series_exp_apply(a, t, xi.coords)
            assert np.linalg.norm(out.coords - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_negative_time_rejected(self):
        sg = diagonal_semigroup([-1.0])
        with pytest.raises(ValueError, match="time"):
            apply_semigroup(sg, -0.5, StateVector([1.0]))

    def test_dimension_mismatch_rejected(self):
        sg = diagonal_semigroup([-1.0, -2.0])
        with pytest.raises(ValueError, match="mismatch"):
            apply_semigroup(sg, 1.0, StateVector([1.0]))

    def test_semigroup_property(self, rng):
        diag = diagonal_semigroup([-2.0, 0.5, -1.0])
        dense = dense_semigroup(rng.standard_normal((3, 3)) * 0.5, 10.0, 2.0)
        for sg in (diag, dense):
            for _ in range(100):
                s, t = rng.uniform(0, 2, size=2)
                xi = StateVector(rng.standard_normal(3))
                once = apply_semigroup(sg, s, apply_semigroup(sg, t, xi))
                direct = apply_semigroup(sg, s + t, xi)
                assert np.linalg.norm(once.coords - direct.coords) <= 1e-10 * max(xi.norm(), 1.0)


class TestCertifyClassConstants:
    def test_contraction_semigroup(self):
        sg = diagonal_semigroup([-1.0, -4.0])
        m_const, mu = certify_class_constants(sg, np.linspace(0, 2, 33), 200)
        assert mu == 0.0
        assert 1.0 <= m_const <= 1.1 + 1e-12

    def test_spectral_abscissa_scaling(self):
        sg = diagonal_semigroup([2.0, -1.0])
        _, mu = certify_class_constants(sg, np.linspace(0, 1, 17), 100)
        assert mu == pytest.approx(2.2)

    def test_nilpotent_growth_absorbed_into_M(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        sg = dense_semigroup(a, 1.0, 0.0)
        m_short, _ = certify_class_constants(sg, np.linspace(0, 1, 17), 400)
        m_long, _ = certify_class_constants(sg, np.linspace(0, 5, 17), 400)
        # |e^{At}| = |I + At| grows with t, so the flat constant must grow too
        assert m_long > m_short >= 1.0
        # brute-force operator-norm comparison at the largest time
        assert m_long >= 1.1 * operator_norm(np.eye(2) + 5 * a, 2) / 1.2

    def test_certified_bound_holds_on_fresh_samples(self, rng):
        cases = [
            diagonal_semigroup([-1.0, -4.0]),
            diagonal_semigroup([1.5, -0.5, 0.0]),
            dense_semigroup(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 0.0),
        ]
        for sg in cases:
            m_const, mu = certify_class_constants(sg, np.linspace(0, 2, 65), 300)
            for _ in range(1000 // len(cases)):
                t = rng.uniform(0, 2)
                xi = rng.standard_normal(sg.dim)
                image = sg.matrix_exp(t) @ xi
                assert vector_norm(image, 2) <= m_const * math.exp(mu * t) * vector_norm(xi, 2) + 1e-12

    def test_degenerate_sampling_rejected(self):
        sg = diagonal_semigroup([-1.0])
        with pytest.raises(ValueError, match="t_grid"):
            certify_class_constants(sg, [], 10)


class TestBuiltinFields:
    def test_bilinear_identity(self):
        f = bilinear_field(np.eye(2))
        assert np.array_equal(f(0.0, np.array([2.0, 3.0])), [2.0, 3.0])
        with pytest.raises(ValueError):
            f(0.0, np.zeros(3))
        assert f.lipschitz_L == 1.0
        assert f.growth_beta == 0.0

    def test_constant_field(self):
        f = constant_field([1.0, 0.0])
        assert np.array_equal(f(0.3, np.array([5.0, -2.0])), [1.0, 0.0])
        assert f.lipschitz_L == 0.0
        assert f.growth_beta == 1.0

    def test_saturation_zero_and_lipschitz_quotient(self, rng):
        f = saturation_field(1.0)
        assert np.array_equal(f(0.0, np.zeros(3)), np.zeros(3))
        xs = rng.uniform(-5, 5, size=(10_000, 3))
        ys = rng.uniform(-5, 5, size=(10_000, 3))
        quot = vector_norm(f(0.0, xs) - f(0.0, ys), 2) / vector_norm(xs - ys, 2)
        assert quot.max() <= 1.0 + 1e-12

    def test_unknown_kind(self):
        cfg = RunConfig.from_dict({"system": {"fields": [{"kind": "quadratic", "scale": 2.0}]}})
        with pytest.raises(ConfigError, match="unknown field kind"):
            cfg.build_fields(2)

    @pytest.mark.parametrize("name,params", [
        ("bilinear", {"matrix": [[0.0, 1.0], [-2.0, 0.5]]}),
        ("constant", {"vector": [1.0, -3.0]}),
        ("saturation", {"scale": 2.5}),
    ])
    def test_declared_constants_hold_in_working_ball(self, name, params, rng):
        f = {"bilinear": bilinear_field, "constant": constant_field,
             "saturation": saturation_field}[name](**params)
        xs = rng.uniform(-10, 10, size=(10_000, 2))
        ys = rng.uniform(-10, 10, size=(10_000, 2))
        lhs = vector_norm(f(0.0, xs) - f(0.0, ys), 2)
        assert np.all(lhs <= f.lipschitz_L * vector_norm(xs - ys, 2) + 1e-9)
        growth = vector_norm(f(0.0, xs), 2)
        assert np.all(growth <= f.growth_alpha * vector_norm(xs, 2) + f.growth_beta + 1e-9)


def test_vector_norm_rescues_underflow():
    # the squares of 3e-170 and 4e-170 flush to 0; zero and NaN rows stay as they are
    assert vector_norm([3e-170, 4e-170], 2) == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    rows = vector_norm(np.array([[3e-170, 4e-170], [0.0, 0.0], [np.nan, 1e-170], [3.0, 4.0]]), 2)
    assert rows[0] == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    assert rows[1] == 0.0 and np.isnan(rows[2]) and rows[3] == 5.0


def test_heat_semigroup_eigenvalues():
    sg = heat_semigroup(4)
    assert np.array_equal(sg.eigenvalues, [-1.0, -4.0, -9.0, -16.0])
    assert sg.class_M == 1.0 and sg.class_mu == 0.0


def test_state_vector_validation():
    with pytest.raises(ValueError, match="finite"):
        StateVector([np.nan])
    with pytest.raises(ValueError, match="norm_kind"):
        StateVector([1.0], norm_kind=3)
    assert StateVector([3.0, -4.0], 2).norm() == 5.0
    assert StateVector([3.0, -4.0], 1).norm() == 7.0
    assert StateVector([3.0, -4.0], np.inf).norm() == 4.0
