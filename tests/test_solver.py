import math

import numpy as np
import pytest

from mildsolve import (
    CertificateRadiusError,
    Control,
    StateVector,
    TrajectoryGrid,
    VectorField,
    bilinear_field,
    bind_operator,
    certify,
    certify_hidden_contraction,
    certify_omega_contraction,
    constant_field,
    constant_trajectory,
    cutoff_field,
    dense_semigroup,
    diagonal_semigroup,
    gronwall_radius,
    iterate_differences,
    lp_norm,
    omega_norm_distance,
    picard_solve,
    renormed_distance,
    sample_ball,
    saturation_field,
    semigroup_orbit,
    solve_batch,
    sup_norm,
)

from mildsolve.operator import BatchOperator
from mildsolve.solver import _forward_bounds

from conftest import constant_control, diagnostic_system


def scalar_bilinear_truth(xi0, a, u):
    """Closed form xi0 * exp(a t + int_0^t u) on the grid (int exact for pw-const)."""
    h = u.cell_width
    w = np.concatenate([[0.0], np.cumsum(u.values[0] * h)])
    t = np.linspace(0.0, u.horizon_T, u.n_t + 1)
    return xi0 * np.exp(a * t + w)


def counted(f, rows):
    """The field f, recording how many states each evaluation receives."""
    def eval_fn(t, x):
        rows.append(len(x))
        return f(t, x)
    return VectorField(eval_fn, f.lipschitz_L, f.growth_alpha, f.growth_beta)


class TestPicardSolve:
    def test_exponential_oracle(self):
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        res = picard_solve(StateVector([1.0]), constant_control(1.0, 1000),
                           [bilinear_field([[1.0]])], sg, cert)
        assert res.trajectory.states[-1, 0] == pytest.approx(math.e, rel=2e-3)
        assert res.a_posteriori_bound < 1e-8
        assert res.trajectory.states[0, 0] == 1.0

    def test_zero_control_short_circuits_to_orbit(self):
        sg = diagonal_semigroup([-1.0, 2.0])
        xi0 = StateVector([1.0, -1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 2.0, 1.0, 1.0)
        res = picard_solve(xi0, constant_control(0.0, 64), [bilinear_field(np.eye(2))],
                           sg, cert)
        orbit = semigroup_orbit(sg, xi0, 1.0, 64)
        assert np.array_equal(res.trajectory.states, orbit.states)
        assert res.iterations == 1
        assert res.a_posteriori_bound == 0.0

    def test_drift_cancellation_keeps_constant(self):
        # a = -1, u = 1: x(t) = xi0 e^{(a+1)t} = xi0
        sg = diagonal_semigroup([-1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        res = picard_solve(StateVector([0.7]), constant_control(1.0, 1000),
                           [bilinear_field([[1.0]])], sg, cert)
        assert np.allclose(res.trajectory.states[:, 0], 0.7, rtol=2e-3)

    def test_radius_violation_rejected(self):
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(CertificateRadiusError):
            picard_solve(StateVector([1.0]), constant_control(2.0, 16),
                         [bilinear_field([[1.0]])], sg, cert)

    def test_non_finite_iterate_rejected(self):
        # the field turns NaN once the state passes 1.5, which u = 1 reaches
        sg = diagonal_semigroup([0.0])
        f = VectorField(lambda t, x: np.where(x > 1.5, np.nan, x), 1.0, 1.0, 0.0)
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            picard_solve(StateVector([1.0]), constant_control(1.0, 64), [f], sg, cert)
        controls = [constant_control(0.1, 64), constant_control(1.0, 64)]
        with pytest.raises(RuntimeError, match="control #1: .*finite"):
            solve_batch(StateVector([1.0]), controls, [f], sg, cert)

    def test_application_cap_fails_before_iterating(self):
        # N ~ e * 5e4: the first hidden window alone, 2N - 1, passes the cap
        rows = []
        f = counted(bilinear_field([[1.0]]), rows)
        cert = certify_hidden_contraction(5e4, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="application cap"):
            picard_solve(StateVector([1.0]), constant_control(1.0, 16), [f],
                         diagonal_semigroup([0.0]), cert)
        assert rows == []

    def test_invalid_tolerance(self):
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="tol"):
            picard_solve(StateVector([1.0]), constant_control(1.0, 16),
                         [bilinear_field([[1.0]])], sg, cert, tol=0.0)

    def test_gap_history_positive_until_trailing_zeros(self):
        # gaps stay strictly positive until the iterates converge in floating
        # point; after that only trailing zeros may appear
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        res = picard_solve(StateVector([1.0]), constant_control(1.0, 256),
                           [bilinear_field([[1.0]])], sg, cert, tol=1e-6)
        assert len(res.iterate_gaps) == res.iterations
        gaps = np.asarray(res.iterate_gaps)
        first_zero = np.argmax(gaps == 0.0) if np.any(gaps == 0.0) else len(gaps)
        assert np.all(gaps[:first_zero] > 0)
        assert np.all(gaps[first_zero:] == 0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_a_posteriori_honesty(self, p):
        # 20 further contraction steps move the iterate less than the bound
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        u = sample_ball(p, 1.0, 1.0, 1, 128, 1, seed=4)[0]
        if p == 1.0:
            cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        else:
            cert = certify_omega_contraction(p, 1.0, 1.0, 0.0, 1.0, 1.0)
        res = picard_solve(xi0, u, [f], sg, cert, tol=1e-6)
        apply_F = bind_operator(u, xi0, [f], sg)
        extra_steps = 20 * (cert.N if cert.mode == "hidden" else 1)
        cur = res.trajectory
        for _ in range(extra_steps):
            cur = apply_F(cur)
        if cert.mode == "hidden":
            moved = renormed_distance(res.trajectory, cur, apply_F, cert)
        else:
            moved = omega_norm_distance(res.trajectory, cur, cert.omega)
        assert moved <= res.a_posteriori_bound + 1e-15

    def test_bound_holds_for_tiny_states(self):
        # gaps near 1e-171 square below the smallest normal float: the bound
        # must still cover the error against the scaled xi0 = 1 solution
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        u = sample_ball(2.0, 1.0, 1.0, 1, 64, 1, seed=3)[0]
        tiny = picard_solve(StateVector([1e-170]), u, [f], sg, cert, tol=1e-8)
        unit = picard_solve(StateVector([1.0]), u, [f], sg, cert, tol=1e-8)
        reference = TrajectoryGrid(1.0, 1e-170 * unit.trajectory.states)
        error = omega_norm_distance(tiny.trajectory, reference, cert.omega)
        assert tiny.a_posteriori_bound >= error > 0.0

    @pytest.mark.parametrize("route", ["hidden", "omega"])
    def test_bound_reads_first_gap_in_public_metric(self, route):
        # the stopping bound is C^k / (1 - C) * gap_1 bit for bit, k contraction
        # steps of `block` applications and gap_1 = d(x_0, x_block) in the
        # certificate's own metric, as the public distance functions give it
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        if route == "hidden":
            cert = certify_hidden_contraction(2.0, 1.0, 0.0, 1.0, 1.0)
            u = constant_control(1.5, 200)
            assert (cert.N, cert.block) == (4, 4)
        else:
            cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
            u = constant_control(0.8, 200)
            assert cert.block == 1
        rows = []
        res = picard_solve(xi0, u, [counted(f, rows)], sg, cert, tol=1e-8)
        apply_F = bind_operator(u, xi0, [f], sg)
        x0 = constant_trajectory(xi0, u.horizon_T, u.n_t)
        x_block = x0
        for _ in range(cert.block):
            x_block = apply_F(x_block)
        if route == "hidden":
            gap1 = renormed_distance(x0, x_block, apply_F, cert)
        else:
            gap1 = omega_norm_distance(x0, x_block, cert.omega)
        k, rest = divmod(res.iterations, cert.block)
        assert rest == 0 and k >= 2
        assert res.a_posteriori_bound == cert.rate_C ** k / (1.0 - cert.rate_C) * gap1
        assert res.a_posteriori_bound <= 1e-8
        # F runs as often as the stop index needs, and at least through the
        # first step's window of 2N - 1; the result is the iterate x_{kN}
        assert sum(rows) == u.n_t * max(res.iterations, 2 * cert.block - 1)
        x = x0
        for _ in range(res.iterations):
            x = apply_F(x)
        assert np.array_equal(x.states, res.trajectory.states)


class TestIterateDifferences:
    def test_exponential_case_pairs_gap_with_bound(self):
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        u = constant_control(1.0, 1000)
        res = picard_solve(StateVector([1.0]), u, [bilinear_field([[1.0]])], sg, cert)
        table = iterate_differences(res, u, sg, StateVector([1.0]),
                                    [bilinear_field([[1.0]])])
        for k, gap, bound in table:
            assert gap <= bound + 1e-9
            assert bound == pytest.approx(1.0 / math.factorial(k))

    def test_zero_control_single_zero_gap(self):
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        u = constant_control(0.0, 64)
        res = picard_solve(StateVector([1.0]), u, [bilinear_field([[1.0]])], sg, cert)
        table = iterate_differences(res, u, sg, StateVector([1.0]),
                                    [bilinear_field([[1.0]])])
        assert len(table) == 1
        assert table[0][1] == 0.0

    def test_doubling_control_mass_scales_bounds(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        u1 = constant_control(0.5, 128)
        u2 = constant_control(1.0, 128)
        c1 = certify_hidden_contraction(0.5, 1.0, 0.0, 1.0, 1.0)
        c2 = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        t1 = iterate_differences(picard_solve(xi0, u1, [f], sg, c1), u1, sg, xi0, [f])
        t2 = iterate_differences(picard_solve(xi0, u2, [f], sg, c2), u2, sg, xi0, [f])
        for (k, _, b1), (_, _, b2) in zip(t1, t2):
            assert b2 / b1 == pytest.approx(2.0 ** k)

    def test_non_bilinear_rejected(self):
        sg = diagonal_semigroup([0.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        u = constant_control(1.0, 32)
        res = picard_solve(StateVector([0.1]), u, [saturation_field(1.0)], sg, cert)
        with pytest.raises(ValueError, match="bilinear"):
            iterate_differences(res, u, sg, StateVector([0.1]), [saturation_field(1.0)])


class TestGronwallRadius:
    def test_reference_value(self):
        r = gronwall_radius(StateVector([1.0]), 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert r == pytest.approx(math.e + 2.0)

    def test_no_control(self):
        r = gronwall_radius(StateVector([1.0, 0.0]), 0.0, 2.0, 1.5, 2.0, 0.3, 1.0, 0.5)
        assert r == pytest.approx(2.0 * 2.0 * math.exp(0.3 * 1.5))

    def test_zero_field(self):
        for k in (0.0, 5.0):
            r = gronwall_radius(StateVector([2.0]), k, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
            assert r == pytest.approx(4.0)

    def test_containment_on_sampled_controls(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        radius = gronwall_radius(xi0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        for u in sample_ball(1.0, 1.0, 1.0, 1, 128, 50, seed=6):
            res = picard_solve(xi0, u, [f], sg, cert, tol=1e-8)
            assert np.abs(res.trajectory.states - 1.0).max() < radius


class TestCutoffField:
    def test_inside_ball_untouched(self):
        f = bilinear_field([[1.0]])
        fhat = cutoff_field(f, StateVector([0.0]), 1.5)
        for x in (0.5, -1.9, 2.0):
            assert fhat(0.0, np.array([x])) == pytest.approx(f(0.0, np.array([x])))

    def test_outside_ball_vanishes(self):
        fhat = cutoff_field(bilinear_field([[1.0]]), StateVector([0.0]), 1.5)
        assert fhat(0.0, np.array([3.0]))[0] == 0.0
        assert fhat(0.0, np.array([-10.0]))[0] == 0.0

    def test_transition_value(self):
        # R = 1.5 -> N = 2; at |eta| = 2.5 the bump is 0.5
        fhat = cutoff_field(bilinear_field([[1.0]]), StateVector([0.0]), 1.5)
        assert fhat(0.0, np.array([2.5]))[0] == pytest.approx(1.25)

    def test_declared_lipschitz_constant(self):
        f = bilinear_field([[1.0]])
        fhat = cutoff_field(f, StateVector([1.0]), math.e + 2.0)
        n_ball = math.floor(math.e + 2.0) + 1
        assert fhat.lipschitz_L == pytest.approx(1.0 + 1.0 * (n_ball + 1 + 1.0))

    def test_solutions_agree_inside_gronwall_ball(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        radius = gronwall_radius(xi0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        fhat = cutoff_field(f, xi0, radius)
        tol = 1e-8
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, f.lipschitz_L, 1.0)
        cert_hat = certify_hidden_contraction(1.0, 1.0, 0.0, fhat.lipschitz_L, 1.0)
        for u in sample_ball(1.0, 1.0, 1.0, 1, 128, 20, seed=13):
            plain = picard_solve(xi0, u, [f], sg, cert, tol=tol)
            cut = picard_solve(xi0, u, [fhat], sg, cert_hat, tol=tol)
            assert sup_norm(plain.trajectory, cut.trajectory) <= 10 * tol


def test_solution_operator_local_lipschitz():
    # measured quotient bounded by L_u / (1 - C), L_u = K_f M e^{mu T} T^{1/q}
    sg = diagonal_semigroup([0.0])
    f = bilinear_field([[1.0]])
    xi0 = StateVector([1.0])
    cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(17)
    base_controls = sample_ball(2.0, 0.8, 1.0, 1, 128, 20, seed=21)
    for u in base_controls:
        delta = rng.standard_normal(u.values.shape)
        delta *= 0.05 / lp_norm(Control(1.0, delta), 2.0)
        v = Control(1.0, u.values + delta)
        ru = picard_solve(xi0, u, [f], sg, cert, tol=1e-10)
        rv = picard_solve(xi0, v, [f], sg, cert, tol=1e-10)
        k_f = np.abs(ru.trajectory.states).max()
        limit = k_f * 1.0 * math.exp(0.0) * 1.0 ** 0.5 / (1.0 - cert.rate_C)
        ratio = sup_norm(rv.trajectory, ru.trajectory) / lp_norm(Control(1.0, delta), 2.0)
        assert ratio <= limit + 1e-4


def batch_system(name, route):
    """A system, its certificate on `route` and six ball controls on 128 cells.

    "heat16"/"heat64" is the diagnostic's heat system; "dense8" a -I + skew
    generator (e^{At} = e^{-t} x orthogonal, class (1, 0) exactly) with a
    bilinear and a constant field.
    """
    if name == "dense8":
        skew = np.random.default_rng(32).standard_normal((8, 8))
        sg = dense_semigroup(-np.eye(8) + skew - skew.T, 1.0, 0.0)
        fields = [bilinear_field(np.eye(8)), constant_field(np.full(8, 0.1))]
        xi0 = StateVector(np.full(8, 0.1))
    else:
        sg, fields, _, xi0 = diagnostic_system(int(name[4:]))
    if route == "hidden":
        cert, p = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0), 1.0
    else:
        cert, p = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0), 2.0
    controls = sample_ball(p, 1.0, 1.0, len(fields), 128, 6, seed=sg.dim)
    return sg, fields, xi0, cert, controls


@pytest.mark.parametrize("route", ["hidden", "omega"])
@pytest.mark.parametrize("name", ["heat16", "heat64", "dense8"])
def test_solve_batch_matches_picard(name, route):
    # the forward pass is the discrete fixed point: a tight Picard solve agrees
    sg, fields, xi0, cert, controls = batch_system(name, route)
    controls.insert(2, controls[0].scaled(0.0))
    tol = 1e-8
    results = solve_batch(xi0, controls, fields, sg, cert, tol=tol)
    assert len(results) == len(controls)
    for u, res in zip(controls, results):
        ref = picard_solve(xi0, u, fields, sg, cert, tol=1e-13)
        assert np.abs(res.trajectory.states - ref.trajectory.states).max() <= 1e-12
        assert np.array_equal(res.trajectory.states[0], xi0.coords)
        assert res.a_posteriori_bound <= tol
        assert (res.iterations, res.iterate_gaps, res.certificate) == (cert.block, [], cert)
    orbit = semigroup_orbit(sg, xi0, 1.0, 128)
    assert sup_norm(results[2].trajectory, orbit) <= tol


def test_solve_batch_returns_input_order():
    # heat n = 64 chunks its certificate three controls at a time
    sg, fields, xi0, cert, controls = batch_system("heat64", "hidden")
    controls = [u.scaled(0.9 ** i) for i, u in enumerate(controls + controls[:2])]
    for batch in (controls, controls[::-1]):
        results = solve_batch(xi0, batch, fields, sg, cert, tol=1e-8)
        for u, res in zip(batch, results):
            alone = solve_batch(xi0, [u], fields, sg, cert, tol=1e-8)[0]
            assert np.abs(res.trajectory.states - alone.trajectory.states).max() <= 1e-15
    gaps = [sup_norm(a.trajectory, b.trajectory) for a, b in zip(results, results[1:])]
    assert min(gaps) > 1e-6  # neighbours are told apart far above the tolerance


@pytest.mark.parametrize("route", ["hidden", "omega"])
@pytest.mark.parametrize("name", ["heat16", "dense8"])
def test_forward_bound_covers_a_perturbed_candidate(name, route):
    # d(x, x*) <= d(x, F^b x) / (1 - C) in the certificate's one-step metric
    sg, fields, xi0, cert, controls = batch_system(name, route)
    apply_F = BatchOperator(xi0, fields, sg, 1.0, 128)
    values = np.stack([u.values for u in controls])
    noise = np.random.default_rng(40).standard_normal(apply_F.fixed_point(values).shape)
    candidate = apply_F.fixed_point(values) + 1e-3 * noise
    bounds, _ = _forward_bounds(apply_F, candidate, values, cert, xi0.norm_kind)
    exact = np.stack([picard_solve(xi0, u, fields, sg, cert, tol=1e-13).trajectory.states
                      for u in controls])
    true = cert.distance([candidate], [exact], apply_F.times, xi0.norm_kind)
    assert np.all(true > 1e-4)
    assert np.all(bounds >= true)


def test_solve_batch_attaches_control_index_on_error():
    sg = diagonal_semigroup([0.0])
    f = bilinear_field([[1.0]])
    xi0 = StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    controls = [constant_control(0.5, 16), constant_control(3.0, 16)]
    with pytest.raises(RuntimeError, match="control #1"):
        solve_batch(xi0, controls, [f], sg, cert)


def test_control_off_the_certificate_horizon_rejected():
    # |u|_2 = 1 on [0, 100] has |u|_1 = 10, ten times the L^1 mass that fixed
    # the certificate's N = 2: its rate backs no bound for this control
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    cert = certify(2.0, 1.0, 1.0, 0.0, 1.0, 1.0, mode="hidden")
    assert (cert.l1_mass, cert.N) == (1.0, 2)
    u = constant_control(0.1, 64, T=100.0)
    with pytest.raises(CertificateRadiusError, match="horizon"):
        picard_solve(xi0, u, [f], sg, cert)
    with pytest.raises(RuntimeError, match=r"control #0: .*horizon"):
        solve_batch(xi0, [u], [f], sg, cert)


def test_solve_batch_errors_name_the_control():
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    nan_above = VectorField(lambda t, x: np.where(x > 1.5, np.nan, x), 1.0, 1.0, 0.0)
    ok, zero = constant_control(0.5, 16), constant_control(0.0, 16)
    cases = [
        ([ok, constant_control(3.0, 16)], [f], cert, 1e-8, r"control #1: .*radius"),
        ([ok, zero, constant_control(0.5, 32)], [f], cert, 1e-8, r"control #2: .*grid"),
        ([ok, constant_control(0.5, 16, channels=2)], [f], cert, 1e-8, r"control #1: .*channel"),
        # N ~ e * 5e4 passes the cap; the first nonzero control is named
        ([zero, ok], [f], certify_hidden_contraction(5e4, 1.0, 0.0, 1.0, 1.0), 1e-8,
         r"control #1: .*application cap"),
        ([constant_control(0.3, 16), zero, constant_control(1.0, 16)], [nan_above], cert, 1e-8,
         r"control #2: .*finite"),
        # rounding alone (bound 4.4e-16) exceeds this tolerance; a zero control's bound is 0
        ([zero, sample_ball(1.0, 1.0, 1.0, 1, 16, 1, seed=0)[0]], [f], cert, 1e-30,
         r"control #1: .*exceeds tol"),
    ]
    for controls, fields, c, tol, message in cases:
        with pytest.raises(RuntimeError, match=message):
            solve_batch(xi0, controls, fields, sg, c, tol=tol)


def test_zero_control_computes_one_application(monkeypatch):
    # N = 59796: a first window of 2N - 1 applications would pass the cap
    cert = certify(1.0, 22000.0, 1.0, 0.0, 1.0, 1.0)
    assert cert.N == 59796
    calls = []
    apply = BatchOperator.__call__
    monkeypatch.setattr(BatchOperator, "__call__",
                        lambda self, states, values: calls.append(len(states))
                        or apply(self, states, values))
    sg, xi0 = diagonal_semigroup([0.0]), StateVector([1.0])
    res = picard_solve(xi0, constant_control(0.0, 8), [bilinear_field([[1.0]])], sg, cert)
    assert calls == [1]
    assert np.array_equal(res.trajectory.states, semigroup_orbit(sg, xi0, 1.0, 8).states)
    assert (res.iterations, res.a_posteriori_bound) == (1, 0.0)
    assert len(res.iterate_gaps) == 1
