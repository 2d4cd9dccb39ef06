import math
import time

import numpy as np
import pytest

from mildsolve import (
    CertificateRadiusError,
    Control,
    StateVector,
    TrajectoryGrid,
    bilinear_field,
    bind_operator,
    certify,
    certify_hidden_contraction,
    certify_omega_contraction,
    constant_field,
    constant_trajectory,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
    integral_operator,
    lp_norm,
    omega_norm_distance,
    renorm_equivalence_constant,
    renormed_distance,
    sample_ball,
    semigroup_orbit,
    sup_norm,
)
from mildsolve.operator import BatchOperator, hidden_step_lipschitz
from mildsolve.spaces import vector_norm

from conftest import constant_control, random_trajectory


def oracle_operator(x, u, xi0, fields, sg):
    """Independent left-endpoint quadrature: one dense matrix exp per lag."""
    n_t = x.n_t
    h = u.cell_width
    times = x.times
    out = np.empty_like(x.states)
    for j in range(n_t + 1):
        acc = sg.matrix_exp(times[j]) @ xi0.coords
        for c in range(j):
            g = sum(u.values[i, c] * fields[i](times[c], x.states[c])
                    for i in range(u.channels))
            acc = acc + h * (sg.matrix_exp(times[j] - times[c]) @ g)
        out[j] = acc
    return TrajectoryGrid(x.horizon_T, out, x.norm_kind)


class TestIntegralOperator:
    def test_zero_control_gives_orbit(self):
        sg = diagonal_semigroup([-1.0, 2.0])
        xi0 = StateVector([1.0, -0.5])
        x = constant_trajectory(xi0, 1.0, 32)
        u = constant_control(0.0, 32, channels=1)
        out = integral_operator(x, u, xi0, [bilinear_field(np.eye(2))], sg)
        orbit = semigroup_orbit(sg, xi0, 1.0, 32)
        assert np.allclose(out.states, orbit.states, atol=0, rtol=0)

    def test_bilinear_constant_input_linear_growth(self):
        # identity semigroup, f = id, u = 1, x = 1: F(x,u)(t) = 1 + t exactly
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])
        x = constant_trajectory(xi0, 1.0, 1000)
        u = constant_control(1.0, 1000)
        out = integral_operator(x, u, xi0, [bilinear_field([[1.0]])], sg)
        assert np.allclose(out.states[:, 0], 1.0 + x.times, atol=1e-12)

    def test_constant_field_exact_ramp(self):
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([0.0])
        x = random_trajectory(np.random.default_rng(0), 64, 1)
        u = constant_control(1.0, 64)
        out = integral_operator(x, u, xi0, [constant_field([1.0])], sg)
        assert np.allclose(out.states[:, 0], x.times, atol=1e-14)

    @pytest.mark.parametrize("make_sg", [
        lambda: diagonal_semigroup([0.0]),
        lambda: diagonal_semigroup([-1.0, 0.5, -3.0]),
        lambda: heat_semigroup(4),
        lambda: dense_semigroup([[0.0, 1.0], [-1.0, -0.2]], 3.0, 0.5),
        lambda: heat_semigroup(64),
    ])
    def test_matches_brute_force_oracle(self, make_sg, rng):
        sg = make_sg()
        dim = sg.dim
        # two cells per mode: heat(64) gets n_t = 128, stiff at lambda h = -48
        n_t = max(7, 2 * dim)
        fields = [bilinear_field(rng.standard_normal((dim, dim)) * 0.5),
                  constant_field(rng.standard_normal(dim))]
        xi0 = StateVector(rng.standard_normal(dim))
        x = random_trajectory(rng, n_t, dim, T=1.5)
        u = Control(1.5, rng.standard_normal((2, n_t)))
        fast = integral_operator(x, u, xi0, fields, sg)
        slow = oracle_operator(x, u, xi0, fields, sg)
        assert np.allclose(fast.states, slow.states, atol=1e-12)

    def test_scan_matches_oracle_on_long_grid(self, rng):
        # 13 doubling passes; n_t + 1 = 4100 is not a power of two
        sg = diagonal_semigroup([-0.7])
        fields = [bilinear_field([[1.0]])]
        xi0 = StateVector([1.0])
        n_t = 4099
        x = random_trajectory(rng, n_t, 1)
        u = Control(1.0, rng.standard_normal((1, n_t)))
        fast = integral_operator(x, u, xi0, fields, sg)
        h = u.cell_width
        lags = np.exp(-0.7 * h * np.arange(n_t + 1))
        g = u.values[0] * x.states[:-1, 0]
        expected = np.exp(-0.7 * x.times) * 1.0
        expected = expected + np.array(
            [h * np.dot(lags[j - np.arange(j)], g[:j]) for j in range(n_t + 1)])
        assert np.allclose(fast.states[:, 0], expected, atol=1e-10)

    @pytest.mark.parametrize("make_sg", [
        lambda: heat_semigroup(64),  # E^d falls into the subnormal range
        lambda: dense_semigroup([[0.0, 1.0], [-1.0, -0.2]], 3.0, 0.5),
    ], ids=["heat64", "dense"])
    def test_batch_matches_broadcast_scan_bitwise(self, make_sg, rng):
        sg = make_sg()
        dim, n_t, T = sg.dim, 128, 1.0
        fields = [bilinear_field(np.eye(dim)), constant_field(rng.standard_normal(dim))]
        xi0 = StateVector(rng.standard_normal(dim))
        op = BatchOperator(xi0, fields, sg, T, n_t)
        h = T / n_t
        step = np.exp(sg.eigenvalues * h) if sg.is_diagonal else sg.matrix_exp(h).T

        def act(power, y):
            return y * power if power.ndim == 1 else y @ power

        for batch in (1, 3, 15):
            states = rng.standard_normal((batch, n_t + 1, dim))
            values = rng.standard_normal((batch, 2, n_t))
            cell_times = np.tile(op.times[:-1], batch)
            y = np.zeros(states.shape)
            for i, f in enumerate(fields):
                g = f(cell_times, states[:, :-1].reshape(-1, dim)).reshape(y[:, 1:].shape)
                y[:, 1:] += values[:, i, :, None] * g
            y[:, 1:] = act(step, h * y[:, 1:])
            d, power = 1, step  # the doubling scan with an (n,) factor broadcast per pass
            while d < n_t + 1:
                y[:, d:] += act(power, y[:, :-d])
                d *= 2
                power = act(power, power)
            y += semigroup_orbit(sg, xi0, T, n_t).states
            assert op(states, values).tobytes() == y.tobytes()

    def test_grid_mismatch_rejected(self):
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])
        x = constant_trajectory(xi0, 1.0, 8)
        with pytest.raises(ValueError, match="grid"):
            integral_operator(x, constant_control(1.0, 16), xi0,
                              [bilinear_field([[1.0]])], sg)
        with pytest.raises(ValueError, match="channels"):
            integral_operator(x, constant_control(1.0, 8, channels=2), xi0,
                              [bilinear_field([[1.0]])], sg)


class TestCurveNorms:
    def test_sup_norm_examples(self, rng):
        x = constant_trajectory(StateVector([0.0]), 1.0, 10)
        y = TrajectoryGrid(1.0, x.times[:, None].copy())
        assert sup_norm(x, x) == 0.0
        assert sup_norm(x, y) == 1.0
        for _ in range(20):
            a = random_trajectory(rng, 10, 3)
            b = random_trajectory(rng, 10, 3)
            assert sup_norm(a, b) == sup_norm(b, a)

    def test_omega_zero_is_sup_norm(self, rng):
        for _ in range(20):
            a = random_trajectory(rng, 12, 2)
            b = random_trajectory(rng, 12, 2)
            assert omega_norm_distance(a, b, 0.0) == sup_norm(a, b)

    def test_omega_weight_examples(self):
        n_t = 100
        zero = constant_trajectory(StateVector([0.0]), 1.0, n_t)
        one = constant_trajectory(StateVector([1.0]), 1.0, n_t)
        assert omega_norm_distance(zero, one, 1.0) == pytest.approx(1.0)
        exp_curve = TrajectoryGrid(1.0, np.exp(zero.times)[:, None])
        assert omega_norm_distance(zero, exp_curve, 1.0) == pytest.approx(1.0, abs=1e-12)


class TestOmegaCertificate:
    def test_reference_values(self):
        cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        assert cert.omega == 2.0
        assert cert.rate_C == pytest.approx(0.5)

    def test_zero_lipschitz(self):
        cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.5, 0.0, 1.0)
        assert cert.rate_C == 0.0
        assert cert.omega == 1.5

    def test_radius_monotonicity_scan(self):
        omegas = []
        for r in (0.5, 1.0, 2.0, 4.0, 8.0):
            cert = certify_omega_contraction(2.0, r, 1.0, 0.0, 1.0, 1.0)
            assert cert.rate_C <= 0.5
            omegas.append(cert.omega)
        assert all(b >= a for a, b in zip(omegas, omegas[1:]))

    def test_measured_contraction_respects_rate(self, rng):
        # heat semigroup, bilinear identity: quotients stay below the certified rate
        dim, n_t = 8, 64
        sg = heat_semigroup(dim)
        f = bilinear_field(np.eye(dim))
        xi0 = StateVector(np.zeros(dim))
        cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        controls = sample_ball(2.0, 1.0, 1.0, 1, n_t, 100, seed=11)
        for u in controls:
            x = random_trajectory(rng, n_t, dim)
            y = random_trajectory(rng, n_t, dim)
            fx = integral_operator(x, u, xi0, [f], sg)
            fy = integral_operator(y, u, xi0, [f], sg)
            lhs = omega_norm_distance(fx, fy, cert.omega)
            rhs = omega_norm_distance(x, y, cert.omega)
            assert lhs <= cert.rate_C * rhs + 1e-6


class TestHiddenCertificate:
    def test_reference_values(self):
        cert = certify_hidden_contraction(2.0, 1.0, 0.0, 1.0, 1.0)
        assert cert.N == 4
        assert cert.rate_C == pytest.approx(16.0 / 24.0)
        small = certify_hidden_contraction(0.5, 1.0, 0.0, 1.0, 1.0)
        assert small.N == 1 and small.rate_C == pytest.approx(0.5)
        zero = certify_hidden_contraction(1.0, 1.0, 0.0, 0.0, 1.0)
        assert zero.N == 1 and zero.rate_C == 0.0

    def test_n_matches_linear_scan(self):
        # N(base) is the first n >= 1 with n log(base) - lgamma(n + 1) < 0
        bases = list(np.geomspace(1e-3, 3e4, 400)) + [1.0, math.e, 2.0, 10.0]
        for base in map(float, bases):
            n = 1
            while n * math.log(base) - math.lgamma(n + 1) >= 0.0:
                n += 1
            assert certify_hidden_contraction(base, 1.0, 0.0, 1.0, 1.0).N == n

    def test_l1_mass_is_the_hoelder_bound(self):
        # |u|_1 <= T^{1/q} |u|_p: the mass r T^{1/q} is r at p = 1 and r T at p = inf
        for p, mass in ((1.0, 1.5), (2.0, 3.0), (math.inf, 6.0)):
            assert certify_hidden_contraction(1.5, 1.0, 0.0, 1.0, 4.0, p).l1_mass == mass
        assert certify(2.0, 1.5, 1.0, 0.0, 1.0, 4.0, mode="hidden").l1_mass == 3.0

    def test_omega_overflow_falls_back_promptly(self):
        start = time.perf_counter()
        cert = certify(2.0, 1e200, 1.0, 0.0, 1.0, 1.0)
        assert time.perf_counter() - start < 1.0
        assert cert.mode == "hidden" and cert.N > 1e200

    def test_factorial_iterate_bound(self, rng):
        # 50 random pairs, all iterate orders up to N
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([0.5])
        cert = certify_hidden_contraction(2.0, 1.0, 0.0, 1.0, 1.0)
        n_t = 128
        controls = sample_ball(1.0, 2.0, 1.0, 1, n_t, 50, seed=3)
        for u in controls:
            apply_F = bind_operator(u, xi0, [f], sg)
            x = random_trajectory(rng, n_t, 1)
            y = random_trajectory(rng, n_t, 1)
            base = lp_norm(u, 1)  # M e^{mu T} L |u|_1 with M = 1, mu = 0, L = 1
            d0 = sup_norm(x, y)
            fx, fy = x, y
            for n in range(1, cert.N + 1):
                fx, fy = apply_F(fx), apply_F(fy)
                bound = base ** n / math.factorial(n) * d0
                assert sup_norm(fx, fy) <= bound + 1e-9

    def test_lipschitz_in_control(self, rng):
        # sup|F(x,v) - F(x,u)| <= K M e^{mu T} T^{1/q} |v-u|_p
        dim, n_t, T = 3, 64, 1.5
        sg = diagonal_semigroup([-1.0, 0.0, -2.0])
        f = bilinear_field(np.eye(dim) * 0.8)
        xi0 = StateVector(np.zeros(dim))
        for p, q_exp in ((1.0, 0.0), (2.0, 0.5)):
            for seed in range(25):
                rng_local = np.random.default_rng(100 + seed)
                x = random_trajectory(rng_local, n_t, dim, T=T)
                u = Control(T, rng_local.standard_normal((1, n_t)))
                v = Control(T, rng_local.standard_normal((1, n_t)))
                fu = integral_operator(x, u, xi0, [f], sg)
                fv = integral_operator(x, v, xi0, [f], sg)
                k_const = vector_norm(f(x.times, x.states), 2).max()
                bound = k_const * 1.0 * math.exp(0.0) * T ** q_exp
                diff = Control(T, v.values - u.values)
                assert sup_norm(fv, fu) <= bound * lp_norm(diff, p) + 1e-9


class TestRenormedDistance:
    @pytest.fixture
    def hidden_setup(self, rng):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([0.5])
        cert = certify_hidden_contraction(2.0, 1.0, 0.0, 1.0, 1.0)
        u = sample_ball(1.0, 2.0, 1.0, 1, 64, 1, seed=8)[0]
        return sg, f, xi0, cert, u

    def test_identical_curves(self, hidden_setup, rng):
        sg, f, xi0, cert, u = hidden_setup
        apply_F = bind_operator(u, xi0, [f], sg)
        x = random_trajectory(rng, 64, 1)
        assert renormed_distance(x, x, apply_F, cert) == 0.0

    def test_single_power_reduces_to_sup(self, rng):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([0.5])
        cert = certify_hidden_contraction(0.5, 1.0, 0.0, 1.0, 1.0)
        assert cert.N == 1
        u = sample_ball(1.0, 0.5, 1.0, 1, 64, 1, seed=2)[0]
        apply_F = bind_operator(u, xi0, [f], sg)
        x = random_trajectory(rng, 64, 1)
        y = random_trajectory(rng, 64, 1)
        assert renormed_distance(x, y, apply_F, cert) == sup_norm(x, y)

    def test_strong_equivalence_and_contraction(self, hidden_setup, rng):
        sg, f, xi0, cert, u = hidden_setup
        apply_F = bind_operator(u, xi0, [f], sg)
        m_equiv = renorm_equivalence_constant(cert)
        assert m_equiv == pytest.approx(
            max(hidden_step_lipschitz(cert) ** n / cert.rate_C ** (n / cert.N)
                for n in range(cert.N)))
        step_rate = cert.rate_C ** (1.0 / cert.N)
        for _ in range(100):
            x = random_trajectory(rng, 64, 1)
            y = random_trajectory(rng, 64, 1)
            d = sup_norm(x, y)
            d_prime = renormed_distance(x, y, apply_F, cert)
            assert d <= d_prime <= m_equiv * d + 1e-9
            lhs = renormed_distance(apply_F(x), apply_F(y), apply_F, cert)
            assert lhs <= step_rate * d_prime + 1e-9

    def test_mode_mismatch_rejected(self, rng):
        cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        x = random_trajectory(rng, 8, 1)
        with pytest.raises(ValueError, match="hidden"):
            renormed_distance(x, x, lambda z: z, cert)


def test_rate_zero_hidden_certificate_has_one_step():
    # d' divides the m >= 1 gaps by 0 ** (m / N): with N > 1 the bound read nan
    from mildsolve.operator import ContractionCertificate
    d = {"mode": "hidden", "rate": 0.0, "radius": 1.0, "p": 1.0, "N": 3, "l1_mass": 1.0,
         "constants": {"M": 1.0, "mu": 0.0, "L_bound": 0.0, "T": 1.0}}
    with pytest.raises(ValueError, match="rate 0"):
        ContractionCertificate.from_dict(d)
    zero = certify_hidden_contraction(1.0, 1.0, 0.0, 0.0, 1.0)
    assert ContractionCertificate.from_dict(zero.to_dict()) == zero


def test_control_norm_is_the_ball_membership_test():
    cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    u = constant_control(1.0, 16)
    assert cert.control_norm(u) == lp_norm(u, 2.0) == 1.0
    near = u.scaled(1.0 + 1e-13)  # within the rounding slack
    assert cert.control_norm(near) == lp_norm(near, 2.0)
    with pytest.raises(CertificateRadiusError, match="radius"):
        cert.control_norm(u.scaled(1.0 + 1e-9))
    with pytest.raises(CertificateRadiusError, match="horizon"):  # |u|_2 = 0.71 on [0, 2]
        cert.control_norm(constant_control(0.5, 16, T=2.0))


def test_certificate_serialization_round_trip():
    from mildsolve.operator import ContractionCertificate
    for cert in (certify_omega_contraction(2.0, 1.0, 1.0, 0.1, 1.0, 1.0),
                 certify_hidden_contraction(2.0, 1.5, 0.2, 1.0, 1.0)):
        back = ContractionCertificate.from_dict(cert.to_dict())
        assert back == cert
