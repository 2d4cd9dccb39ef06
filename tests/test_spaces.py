import math

import mpmath
import numpy as np
import pytest

from mildsolve import (
    Semigroup,
    StateVector,
    bilinear_field,
    certify_class_constants,
    constant_field,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
    saturation_field,
)
import mildsolve.spaces
from mildsolve.config import ConfigError, RunConfig
from mildsolve.operator import semigroup_act, semigroup_step
from mildsolve.spaces import _THETA13, expm, log_norm, operator_norm, vector_norm


def series_exp_apply(matrix, t, xi, terms=60):
    """Independent oracle: truncated power series for e^{At} xi."""
    acc = np.array(xi, dtype=float)
    term = np.array(xi, dtype=float)
    for k in range(1, terms):
        term = (matrix @ term) * (t / k)
        acc = acc + term
    return acc


def mpmath_expm(matrix):
    """Independent oracle: mpmath's e^A at 40 digits, rounded to floats."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(matrix.tolist())).tolist(), dtype=float)


def rel_error_1(x, exact):
    """|x - exact|_1 / |exact|_1 in the induced 1-norm."""
    return operator_norm(x - exact, 1) / operator_norm(exact, 1)


def seeded_matrices(count=60, seed=2005):
    """Normal n x n matrices, n <= 8, scaled to 1-norms from 1e-2 to 1e2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        yield a * (10.0 ** rng.uniform(-2.0, 2.0) / operator_norm(a, 1))


def shifted_jordan(n=32, c=40.0):
    """A = -I + c e_1 e_n^T (1-norm 1 + c) and its closed form e^{-1}(I + c e_1 e_n^T)."""
    a = -np.eye(n)
    a[0, -1] = c
    exact = np.exp(-1.0) * np.eye(n)
    exact[0, -1] = c * np.exp(-1.0)
    return a, exact


class TestExpm:
    def test_matches_mpmath_on_seeded_matrices(self):
        errors = [rel_error_1(expm(a), mpmath_expm(a)) for a in seeded_matrices()]
        assert max(errors) <= 1e-13

    def test_jordan_block(self):
        for lam, t in [(-0.7, 0.5), (-0.7, 3.0), (1.3, 4.0)]:
            exact = math.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
            got = expm(t * np.array([[lam, 1.0], [0.0, lam]]))
            assert rel_error_1(got, exact) <= 1e-14

    def test_rotation(self):
        for k in (0.5, 3.0, 20.0):
            c, s = math.cos(k), math.sin(k)
            assert np.abs(expm(np.array([[0.0, k], [-k, 0.0]])) - [[c, s], [-s, c]]).max() <= 1e-14

    def test_diagonal_matches_exp(self):
        d = np.array([-30.0, -1.0, 0.0, 0.5, 7.0])
        got = expm(np.diag(d))
        assert np.array_equal(got, np.diag(np.diagonal(got)))  # off-diagonal exactly 0
        assert np.allclose(np.diagonal(got), np.exp(d), rtol=1e-13, atol=0.0)

    def test_zero_is_identity(self):
        for n in (1, 4, 9):
            assert np.abs(expm(np.zeros((n, n))) - np.eye(n)).max() <= 4 * np.finfo(float).eps

    def test_scaling_path(self):
        a, exact = shifted_jordan()
        assert operator_norm(a, 1) > 2 * _THETA13  # s >= 1 squarings
        assert rel_error_1(expm(a), exact) <= 1e-14
        product = expm(a) @ expm(-a)
        assert np.abs(product - np.eye(a.shape[0])).max() <= 1e-13

    def test_stack_equals_each_matrix(self, rng):
        # 1-norms from 1e-3 to 1e2: stacked matrices take different squaring counts
        stack = rng.standard_normal((2, 6, 5, 5)) * np.logspace(-3, 2, 12).reshape(2, 6, 1, 1)
        got = expm(stack)
        assert got.shape == stack.shape
        for i in np.ndindex(*stack.shape[:2]):
            assert np.array_equal(got[i], expm(stack[i]))

    def test_rejects_non_square_and_non_finite(self):
        for bad in (np.ones(3), np.ones((2, 3)), np.array([[0.0, np.inf], [0.0, 0.0]])):
            with pytest.raises(ValueError, match="expm"):
                expm(bad)

    def test_matrix_exp_of_a_time_grid(self, rng):
        a = rng.standard_normal((4, 4))
        dense, diag = dense_semigroup(a, 10.0, 2.0), diagonal_semigroup([-2.0, 0.5, -1.0])
        times = np.array([0.0, 0.3, 1.7])
        for sg in (dense, diag):
            stack = sg.matrix_exp(times)
            for t, et in zip(times, stack):
                assert np.array_equal(et, sg.matrix_exp(t))
        assert np.array_equal(diag.matrix_exp(1.7), np.diag(np.exp(diag.eigenvalues * 1.7)))
        assert np.array_equal(dense.matrix_exp(1.7), expm(a * 1.7))


def apply_semigroup(sg, t, xi):
    """e^{At} xi through the operator's one step kernel, `semigroup_step`
    applied by `semigroup_act`."""
    return semigroup_act(semigroup_step(sg, t), xi.coords)


class TestApplySemigroup:
    def test_identity_at_t_zero(self):
        sg = diagonal_semigroup([-1.0, -4.0])
        out = apply_semigroup(sg, 0.0, StateVector([1.0, 1.0]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_diagonal_analytic_action(self):
        sg = diagonal_semigroup([-1.0, -4.0])
        out = apply_semigroup(sg, 1.0, StateVector([1.0, 1.0]))
        assert np.allclose(out, [math.exp(-1), math.exp(-4)], rtol=1e-15)

    def test_nilpotent_dense_action(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        sg = dense_semigroup(a, class_M=4.0, class_mu=0.0)
        xi = StateVector([1.0, 1.0])
        out = apply_semigroup(sg, 2.0, xi)
        oracle = series_exp_apply(a, 2.0, xi.coords)
        assert np.allclose(out, [3.0, 1.0], atol=1e-14)
        assert np.allclose(out, oracle, atol=1e-14)

    def test_dense_matches_series_oracle(self, rng):
        a = rng.standard_normal((5, 5)) * 0.4
        sg = dense_semigroup(a, class_M=10.0, class_mu=1.0)
        for t in (0.3, 1.0, 2.5):
            xi = StateVector(rng.standard_normal(5))
            out = apply_semigroup(sg, t, xi)
            oracle = series_exp_apply(a, t, xi.coords)
            assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_semigroup_property(self, rng):
        diag = diagonal_semigroup([-2.0, 0.5, -1.0])
        dense = dense_semigroup(rng.standard_normal((3, 3)) * 0.5, 10.0, 2.0)
        for sg in (diag, dense):
            for _ in range(100):
                s, t = rng.uniform(0, 2, size=2)
                xi = StateVector(rng.standard_normal(3))
                once = apply_semigroup(sg, s, StateVector(apply_semigroup(sg, t, xi)))
                direct = apply_semigroup(sg, s + t, xi)
                assert np.linalg.norm(once - direct) <= 1e-10 * max(xi.norm(), 1.0)


def brute_force_class(a, T, mu, norm_kind, count=4001):
    """max |e^{At}| e^{-mu t} over `count` equally spaced times of [0, T]."""
    b = a - mu * np.eye(a.shape[0])
    return float(operator_norm(expm(b * np.linspace(0.0, T, count)[:, None, None]), norm_kind).max())


class TestCertifyClassConstants:
    def test_contraction_semigroup(self):
        m_const, mu = certify_class_constants(np.diag([-1.0, -4.0]), 2.0)
        assert mu == 0.0
        assert 1.0 <= m_const <= 1.1 + 1e-12

    def test_spectral_abscissa_scaling(self):
        _, mu = certify_class_constants(np.diag([2.0, -1.0]), 1.0)
        assert mu == pytest.approx(2.0)

    def test_nilpotent_growth_absorbed_into_M(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        m_short, _ = certify_class_constants(a, 1.0)
        m_long, _ = certify_class_constants(a, 5.0)
        # |e^{At}| = |I + At| grows with t, so the flat constant must grow too
        assert m_long > m_short >= 1.0
        # brute-force operator-norm comparison at the largest time
        assert m_long >= 1.1 * operator_norm(np.eye(2) + 5 * a, 2) / 1.2

    def test_certified_bound_holds_on_fresh_samples(self, rng):
        cases = [np.diag([-1.0, -4.0]), np.diag([1.5, -0.5, 0.0]),
                 np.array([[0.0, 1.0], [0.0, 0.0]])]
        for a in cases:
            m_const, mu = certify_class_constants(a, 2.0)
            for _ in range(1000 // len(cases)):
                t = rng.uniform(0, 2)
                xi = rng.standard_normal(a.shape[0])
                image = expm(a * t) @ xi
                assert vector_norm(image, 2) <= m_const * math.exp(mu * t) * vector_norm(xi, 2) + 1e-12

    @pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
    def test_jordan_block(self, norm_kind):
        # e^{At} = e^{-t} [[1, t], [0, 1]]: its norm is 1 at t = 0 and falls
        # from there in every norm, and mu[A] <= 0 puts the grid at K = 1
        m_const, mu = certify_class_constants(np.array([[-1.0, 1.0], [0.0, -1.0]]), 3.0, norm_kind)
        assert (m_const, mu) == (1.0, 0.0)

    @pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
    def test_far_from_normal_within_grid_factor(self, norm_kind):
        a, _ = shifted_jordan()  # sup |e^{At}| is 14.7 in norm 2, 15.1 in norms 1 and inf
        m_const, mu = certify_class_constants(a, 1.0, norm_kind)
        brute = brute_force_class(a, 1.0, mu, norm_kind)
        assert mu == 0.0
        assert brute <= m_const <= 1.1 * brute

    def test_seeded_generators_bounded(self):
        rng = np.random.default_rng(2006)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) * rng.uniform(0.1, 3.0)
            for norm_kind in (1, 2, np.inf):
                m_const, mu = certify_class_constants(a, 2.0, norm_kind)
                assert m_const >= brute_force_class(a, 2.0, mu, norm_kind)

    def test_exponential_growth_does_not_overflow(self):
        # e^{At} overflows past t = 0.89, e^{(A - 800 I)t} = [[1, 1000 t], [0, 1]] does not
        a = np.array([[800.0, 1000.0], [0.0, 800.0]])
        m_const, mu = certify_class_constants(a, 1.0, 2)
        assert mu == 800.0
        assert m_const >= brute_force_class(a, 1.0, mu, 2) > 1000.0

    def test_capped_grid_still_bounds(self, monkeypatch):
        # 64 floats hold two 5 x 5 matrices: K = 2, far from the factor 1.1
        monkeypatch.setattr(mildsolve.spaces, "_GRID_FLOATS", 64)
        a = np.random.default_rng(7).standard_normal((5, 5)) * 2.0
        for norm_kind in (1, 2, np.inf):
            m_const, mu = certify_class_constants(a, 2.0, norm_kind)
            assert m_const >= brute_force_class(a, 2.0, mu, norm_kind)

    def test_overflowing_class_rejected(self):
        chain = np.diag([1e200, 1e200], 1)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows"):
            certify_class_constants(chain, 1.0)

    def test_non_finite_exponential_rejected(self, monkeypatch):
        # a NaN norm must not read as M = 1, as max(1.0, nan) would
        monkeypatch.setattr(mildsolve.spaces, "expm", lambda a: np.full(a.shape, np.nan))
        with pytest.raises(ValueError, match="overflows"):
            certify_class_constants(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)

    def test_bad_input_rejected(self):
        for T in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be"):
                certify_class_constants(-np.eye(2), T)
        with pytest.raises(ValueError, match="square"):
            certify_class_constants([[1.0, 2.0]], 1.0)
        with pytest.raises(ValueError, match="finite"):
            certify_class_constants([[math.nan]], 1.0)


class TestNorms:
    @pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
    def test_log_norm_matches_its_definition(self, norm_kind):
        # (|I + hA| - 1) / h is within h |A|_2^2 of mu[A], and its rounding near 1e-9
        h = 1e-7
        for a in seeded_matrices(count=20, seed=46):
            defined = (operator_norm(np.eye(a.shape[0]) + h * a, norm_kind) - 1.0) / h
            assert log_norm(a, norm_kind) == pytest.approx(defined, abs=1e-8 + h * operator_norm(a, 2) ** 2)

    @pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
    def test_operator_norm_of_a_stack(self, norm_kind, rng):
        stack = rng.standard_normal((3, 4, 5, 5))
        got = operator_norm(stack, norm_kind)
        assert got.shape == (3, 4)
        for i in np.ndindex(3, 4):
            assert got[i] == operator_norm(stack[i], norm_kind)
        assert type(operator_norm(stack[0, 0], norm_kind)) is float


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


def test_diagonal_class_below_the_largest_eigenvalue_rejected():
    # |e^{t}| = e^{t} > 1 e^{0 t} for t > 0: eigenvalue +1 does not have class (1, 0)
    with pytest.raises(ValueError, match="largest eigenvalue"):
        Semigroup(eigenvalues=[1.0], class_M=1.0, class_mu=0.0)
    with pytest.raises(ValueError, match="largest eigenvalue"):
        Semigroup(eigenvalues=[-1.0, 0.5], class_M=10.0, class_mu=0.4)
    assert Semigroup(eigenvalues=[1.0], class_M=1.0, class_mu=1.0).class_mu == 1.0
    sg = diagonal_semigroup([-2.0, 1.5])
    assert (sg.class_M, sg.class_mu) == (1.0, 1.5)


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
