import dataclasses
import math
import tracemalloc
import warnings

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
    heat_semigroup,
    iterate_differences,
    lp_norm,
    picard_solve,
    sample_ball,
    saturation_field,
    semigroup_orbit,
    solve_batch,
    sup_norm,
)

from mildsolve.controls import stack_controls
from mildsolve.operator import BatchOperator
from mildsolve import solver
from mildsolve.solver import _solve_stack, _stage_bounds, _tail
from mildsolve.spaces import vector_norm

from conftest import constant_control, diagnostic_system


def spy_applications(monkeypatch) -> list:
    """Record the batch size of every `BatchOperator.__call__`."""
    calls = []
    apply = BatchOperator.__call__
    monkeypatch.setattr(BatchOperator, "__call__",
                        lambda self, states, values: calls.append(len(states))
                        or apply(self, states, values))
    return calls


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
        controls = stack_controls([constant_control(0.1, 64), constant_control(1.0, 64)])
        with pytest.raises(RuntimeError, match="control #1: .*finite"):
            solve_batch(StateVector([1.0]), controls, [f], sg, cert)

    def test_application_cap_fails_before_iterating(self):
        # |u|_1 = 5e4 gives c = 5e4: Q_k(c) stays above 1 up to k ~ e c, past the cap
        rows = []
        f = counted(bilinear_field([[1.0]]), rows)
        cert = certify_hidden_contraction(5e4, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="application cap"):
            picard_solve(StateVector([1.0]), constant_control(5e4, 16), [f],
                         diagonal_semigroup([0.0]), cert)
        assert rows == []
        # the same ball, a control of small mass: c = 1 stops within the cap
        res = picard_solve(StateVector([1.0]), constant_control(1.0, 16), [f],
                           diagonal_semigroup([0.0]), cert)
        assert res.a_posteriori_bound <= 1e-8 and sum(rows) == 16 * res.iterations

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
        # no number of further applications moves the iterate, in the sup
        # norm, by more than the bound
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
        cur = res.trajectory
        for _ in range(20):
            cur = apply_F(cur)
            assert sup_norm(res.trajectory, cur) <= res.a_posteriori_bound + 1e-15

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
        error = sup_norm(tiny.trajectory, reference)
        assert tiny.a_posteriori_bound >= error > 0.0

    @pytest.mark.parametrize("route", ["hidden", "omega"])
    def test_bound_reads_first_gap_in_public_metric(self, route):
        # the stopping bound is min(Q_k(c) gap_1, Q_1(c) gap_k) bit for bit,
        # with the sup-norm gaps as the public distance gives them (mu = 0,
        # so the weighted norm is the sup norm) and c = M L |u|_1 rounded up;
        # k is the first index it meets tol at
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        if route == "hidden":
            cert = certify_hidden_contraction(2.0, 1.0, 0.0, 1.0, 1.0)
            u = constant_control(1.5, 200)
        else:
            cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
            u = constant_control(0.8, 200)
        assert cert.mode == route
        rows = []
        tol = 1e-8
        res = picard_solve(xi0, u, [counted(f, rows)], sg, cert, tol=tol)
        apply_F = bind_operator(u, xi0, [f], sg)
        iterates = [constant_trajectory(xi0, u.horizon_T, u.n_t)]
        for _ in range(res.iterations):
            iterates.append(apply_F(iterates[-1]))
        gaps = [sup_norm(x, y) for x, y in zip(iterates, iterates[1:])]
        assert res.iterate_gaps == gaps
        c = factorial_bases([u], cert)[0]

        def bound(k):
            return min(_tail(c, k) * gaps[0], _tail(c, 1) * gaps[k - 1])

        k = res.iterations
        assert k >= 2 and bound(k - 1) > tol
        assert res.a_posteriori_bound == bound(k) <= tol
        # F runs once per iterate, and the result is the iterate x_k
        assert sum(rows) == u.n_t * res.iterations
        assert np.array_equal(iterates[-1].states, res.trajectory.states)


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
    controls = stack_controls([*controls[:2], controls[0].scaled(0.0), *controls[2:]])
    tol = 1e-8
    results = solve_batch(xi0, controls, fields, sg, cert, tol=tol)
    assert len(results) == len(controls)
    for u, res in zip(controls, results):
        ref = picard_solve(xi0, u, fields, sg, cert, tol=1e-13)
        assert np.abs(res.trajectory.states - ref.trajectory.states).max() <= 1e-12
        assert np.array_equal(res.trajectory.states[0], xi0.coords)
        assert res.a_posteriori_bound <= tol
        # the forward pass's residual is rounding-sized: its proved rounding
        # bound certifies a diagonal system, one application the dense one
        expected = 1 if name == "dense8" else 0
        assert (res.iterations, res.iterate_gaps, res.certificate) == (expected, [], cert)
    orbit = semigroup_orbit(sg, xi0, 1.0, 128)
    assert sup_norm(results[2].trajectory, orbit) <= tol


def test_solve_batch_returns_input_order():
    # heat n = 64 chunks its certificate three controls at a time
    sg, fields, xi0, cert, controls = batch_system("heat64", "hidden")
    controls = stack_controls([u.scaled(0.9 ** i)
                               for i, u in enumerate([*controls, *controls[:2]])])
    for batch in (controls, controls[::-1]):
        results = solve_batch(xi0, batch, fields, sg, cert, tol=1e-8)
        for u, res in zip(batch, results):
            alone = solve_batch(xi0, stack_controls([u]), fields, sg, cert, tol=1e-8)[0]
            assert np.abs(res.trajectory.states - alone.trajectory.states).max() <= 1e-15
    gaps = [sup_norm(a.trajectory, b.trajectory) for a, b in zip(results, results[1:])]
    assert min(gaps) > 1e-6  # neighbours are told apart far above the tolerance


def factorial_bases(controls, cert):
    """c = M L |u|_1 per control, rounded up as the solver rounds it."""
    return np.array([lp_norm(u, 1) for u in controls]) * (
        cert.M * cert.L_bound * (1.0 + 16.0 * 2.0 ** -53))


@pytest.mark.parametrize("route", ["hidden", "omega"])
@pytest.mark.parametrize("name", ["heat16", "dense8"])
def test_forward_bound_covers_a_perturbed_candidate(name, route):
    # |x - x*| <= |x - F^j x| + min(Q_j(c) |x - F x|, Q_1(c) |F^{j-1} x - F^j x|)
    # in the sup norm at every j, and the stage helper reads that bound bit
    # for bit where it stops
    sg, fields, xi0, cert, controls = batch_system(name, route)
    apply_F = BatchOperator(xi0, fields, sg, 1.0, 128)
    values = np.stack([u.values for u in controls])
    exact = apply_F.fixed_point(values)[0]
    noise = np.random.default_rng(40).standard_normal(exact.shape)
    candidate = exact + 1e-3 * noise
    # the pass and F's own iterates agree up to rounding: 1e-15 covers it
    true = vector_norm(candidate - exact, xi0.norm_kind).max(axis=-1) - 1e-15
    assert np.all(true > 1e-4)
    bases = factorial_bases(controls, cert)
    stage, image = [], candidate
    for j in range(1, 16):
        step = apply_F(image, values)
        last = vector_norm(image - step, xi0.norm_kind).max(axis=-1)
        image = step
        moved = vector_norm(candidate - image, xi0.norm_kind).max(axis=-1)
        first = moved if j == 1 else stage[0][0]
        spread = np.array([min(_tail(c, j) * a, _tail(c, 1) * b) if b > 0.0 else 0.0
                           for c, a, b in zip(bases, first, last)])
        stage.append((moved, spread))
        assert np.all(moved + spread >= true)
    # tol = inf stops every candidate at j = 1; tol = 0 runs each until
    # |x - F^j x| minus that tail bound is > 0, when no later stage can pass
    for tol in (np.inf, 0.0):
        bounds, taken = _stage_bounds(apply_F, candidate, values, bases, cert.mu, tol,
                                      xi0.norm_kind)
        assert np.all(bounds >= true)
        for b, j in enumerate(taken):
            moved, spread = stage[j - 1][0][b], stage[j - 1][1][b]
            assert bounds[b] == moved + spread
            assert tol == np.inf or moved - spread > 0.0
        assert tol == 0.0 or np.all(taken == 1)


def test_forward_bound_of_finite_states_reads_inf(monkeypatch):
    # c = 1000 sends Q_j(c) past the floats for every j up to the cap (3
    # here): finite states read inf at each stage, and at the cap, not NaN
    # (which names a non-finite iterate); a zero step adds nothing to an
    # infinite tail
    monkeypatch.setattr(solver, "_MAX_APPLICATIONS", 3)
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    apply_F = BatchOperator(xi0, [f], sg, 1.0, 16)
    values = np.full((3, 1, 16), 0.5)
    values[2] = 0.0
    candidate = np.full((3, 17, 1), 2.0)
    candidate[1, 3] = np.nan
    candidate[2] = apply_F.orbit.states
    bounds, taken = _stage_bounds(apply_F, candidate, values, np.full(3, 1000.0), 0.0, 1e-8,
                                  xi0.norm_kind)
    assert bounds[0] == np.inf and np.isnan(bounds[1]) and bounds[2] == 0.0
    assert list(taken) == [3, 1, 1]


@pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bound_covers_the_true_sup_error(p, norm_kind):
    # the bound holds against |x - x*|_sup, x* the forward pass on the same
    # grid, on the hidden (p = 1) and the omega (p = 2) route, in each norm
    sg = heat_semigroup(4)
    f = bilinear_field(np.random.default_rng(7).uniform(-1.0, 1.0, (4, 4)), norm_kind)
    xi0 = StateVector(np.full(4, 0.5), norm_kind)
    cert = certify(p, 1.5, 1.0, 0.0, f.lipschitz_L, 1.0)
    assert cert.mode == ("hidden" if p == 1.0 else "omega")
    apply_F = BatchOperator(xi0, [f], sg, 1.0, 64)
    for u in sample_ball(p, 1.5, 1.0, 1, 64, 3, seed=8):
        res = picard_solve(xi0, u, [f], sg, cert, tol=1e-6)
        exact = apply_F.fixed_point(u.values[None])[0][0]
        error = vector_norm(res.trajectory.states - exact, norm_kind).max()
        assert 0.0 < error <= res.a_posteriori_bound <= 1e-6


@pytest.mark.parametrize("route", ["hidden", "omega"])
def test_growing_semigroup_solves_in_few_applications(route):
    # mu T = 11: e^{11} = 6e4 enters the bound once, not each power of c =
    # M L |u|_1 = 1, so the rule stops early, and its bound still covers the
    # true sup error against the forward pass
    sg, f, xi0 = diagonal_semigroup([11.0]), bilinear_field([[1.0]]), StateVector([1.0])
    cert = (certify_omega_contraction(2.0, 1.0, 1.0, 11.0, 1.0, 1.0) if route == "omega"
            else certify_hidden_contraction(1.0, 1.0, 11.0, 1.0, 1.0))
    assert cert.mode == route
    u = constant_control(1.0, 256)
    exact = BatchOperator(xi0, [f], sg, 1.0, 256).fixed_point(u.values[None])[0][0]
    tol = 1e-8
    res = picard_solve(xi0, u, [f], sg, cert, tol=tol)
    assert 1 < res.iterations <= 20
    assert vector_norm(res.trajectory.states - exact, 2).max() <= res.a_posteriori_bound <= tol
    batch = solve_batch(xi0, stack_controls([u]), [f], sg, cert, tol=tol)[0]
    assert batch.iterations <= 1 and batch.a_posteriori_bound <= tol
    assert np.array_equal(batch.trajectory.states, exact)


def test_omega_of_the_certificate_does_not_change_a_solve():
    # one ball, two omega weights: the rule reads the control's own c alone
    sg, fields, xi0, cert, controls = batch_system("dense8", "omega")
    omega = 2.0 * cert.omega
    other = dataclasses.replace(cert, omega=omega, rate_C=1.0 / math.sqrt(2.0 * omega))
    assert other.rate_C < cert.rate_C
    for u in controls[:3]:
        a, b = (picard_solve(xi0, u, fields, sg, c) for c in (cert, other))
        assert (a.iterations, a.iterate_gaps, a.a_posteriori_bound) == (
            b.iterations, b.iterate_gaps, b.a_posteriori_bound)
        assert np.array_equal(a.trajectory.states, b.trajectory.states)


def test_heat_batch_takes_no_application(monkeypatch):
    # the forward pass's rounding bound certifies every control at j = 0
    sg, fields, xi0, cert, controls = batch_system("heat16", "hidden")
    assert cert.N == 2
    calls = spy_applications(monkeypatch)
    results = solve_batch(xi0, controls, fields, sg, cert, tol=1e-8)
    assert calls == []
    assert [res.iterations for res in results] == [0] * len(controls)
    assert all(0.0 < res.a_posteriori_bound <= 1e-14 for res in results)


def test_long_hidden_block_certifies():
    # r = 40: N = 106 and T_{N-1} = 2.4e17; each control stops once its
    # residual has decayed enough, short of N
    sg, fields, _, xi0 = diagnostic_system(16)
    cert = certify_hidden_contraction(40.0, 1.0, 0.0, 1.0, 1.0)
    assert cert.N == 106
    controls = sample_ball(1.0, 40.0, 1.0, 1, 128, 6, seed=3)
    tol = 1e-6
    results = solve_batch(xi0, controls, fields, sg, cert, tol=tol)
    for u, res in zip(controls, results):
        assert res.a_posteriori_bound <= tol
        assert 1 < res.iterations < cert.N
        ref = picard_solve(xi0, u, fields, sg, cert, tol=1e-10)
        assert sup_norm(res.trajectory, ref.trajectory) <= tol


def unbounded_system(case):
    """A system and certificate whose forward pass has no proved rounding
    bound small enough, and six ball controls: fields with no declared
    evaluation error, a dense semigroup (expm's step has none) or a tail
    T_{N-1} = 2.4e17 that no rounding bound survives."""
    if case == "dense":
        sg, fields, xi0, cert, controls = batch_system("dense8", "hidden")
        return sg, fields, xi0, cert, controls
    sg, fields, _, xi0 = diagnostic_system(16)
    r = 40.0 if case == "large_tail" else 1.0
    fields = {"saturation": [saturation_field(1.0)],
              "cutoff": [cutoff_field(fields[0], xi0, 2.0)],
              "custom": [VectorField(lambda t, x: x, 1.0, 1.0, 0.0)],
              "large_tail": fields}[case]
    cert = certify_hidden_contraction(r, 1.0, 0.0, 1.0, 1.0)
    return sg, fields, xi0, cert, sample_ball(1.0, r, 1.0, 1, 128, 6, seed=3)


@pytest.mark.parametrize("case", ["saturation", "cutoff", "custom", "dense", "large_tail"])
def test_batch_without_a_rounding_certificate_applies_F(case, monkeypatch):
    sg, fields, xi0, cert, controls = unbounded_system(case)
    calls = spy_applications(monkeypatch)
    results = solve_batch(xi0, controls, fields, sg, cert, tol=1e-6)
    assert sum(calls) >= len(controls)
    assert all(res.iterations >= 1 and res.a_posteriori_bound <= 1e-6 for res in results)


def test_only_uncertified_controls_go_on_to_applications(monkeypatch):
    # h u = 1e-310 / 128 is subnormal: its product's rounding is not relative,
    # so that control alone takes the applications, in a batch of one
    sg, fields, xi0, cert, controls = batch_system("heat16", "hidden")
    values = controls.values.copy()
    values[3, 0, 7] = 1e-310
    controls = Control(1.0, values)
    calls = spy_applications(monkeypatch)
    results = solve_batch(xi0, controls, fields, sg, cert, tol=1e-8)
    assert calls == [1]
    assert [res.iterations for res in results] == [0, 0, 0, 1, 0, 0]


def test_non_finite_pass_with_declared_field_error_raises():
    # a field that declares itself exact but returns NaN past 1.5: the pass's
    # bound reads inf for the control whose row is NaN, and the applications
    # name the control
    sg, xi0 = diagonal_semigroup([0.0]), StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    nan_above = VectorField(lambda t, x: np.where(x > 1.5, np.nan, x), 1.0, 1.0, 0.0,
                            eval_error=0.0)
    apply_F = BatchOperator(xi0, [nan_above], sg, 1.0, 16)
    controls = stack_controls([constant_control(0.3, 16), constant_control(0.0, 16),
                               constant_control(1.0, 16)])
    states, rho = apply_F.fixed_point(controls.values)
    assert np.isfinite(rho[:2]).all() and rho[2] == np.inf
    with pytest.raises(RuntimeError, match=r"control #2: .*finite"):
        solve_batch(xi0, controls, [nan_above], sg, cert)


def streamed_system(case):
    """A bounded forward pass (rho finite) and five ball controls on 32 cells:
    the diagnostic's heat system or a diagonal bilinear field (both take the
    product path), or a diagonal generator with a non-diagonal bilinear field
    (callable `eval_error`) or with a constant field (both take the loop)."""
    if case == "heat":
        sg, fields, cert, xi0 = diagnostic_system(16)
    else:
        sg, xi0 = diagonal_semigroup([-1.0, -2.5, 0.5]), StateVector([0.3, -0.2, 0.1])
        fields = [{"bilinear": bilinear_field(np.random.default_rng(5).standard_normal((3, 3))),
                   "diagonal": bilinear_field(np.diag([0.5, -1.0, 2.0])),
                   "constant": constant_field([0.4, -1.0, 0.2])}[case]]
        cert = certify_hidden_contraction(1.0, 1.0, 0.5, fields[0].lipschitz_L, 1.0)
    controls = sample_ball(cert.p, cert.radius_r, 1.0, 1, 32, 5, seed=7)
    return sg, fields, xi0, cert, controls


@pytest.mark.parametrize("batch", [1, 3, None])
@pytest.mark.parametrize("case", ["heat", "diagonal", "bilinear", "constant"])
def test_streamed_pass_holds_the_full_pass_rows(case, batch):
    # the kept rows of a streamed pass and its rho equal the full stack's bit
    # for bit, in `keep`'s order, whichever rows are kept and whatever the
    # stack (one control, whose kept rows all gather from it, three, or all five)
    sg, fields, xi0, _, controls = streamed_system(case)
    values = controls.values[:batch]
    apply_F = BatchOperator(xi0, fields, sg, 1.0, 32)
    n, size = xi0.dim, len(values) * 33
    states, rho = apply_F.fixed_point(values)
    assert apply_F.bounded and np.isfinite(rho).all()
    rng = np.random.default_rng(11)
    for keep in (np.sort(rng.choice(size, size * 8 // 33, replace=False)), np.arange(size),
                 np.array([0, 32, size - 1]), rng.permutation(size)[:9],
                 np.array([], dtype=int)):
        held, streamed = apply_F.fixed_point(values, keep)
        assert held.shape == (len(keep), n)
        assert np.array_equal(held, states.reshape(-1, n)[keep])
        assert np.array_equal(streamed, rho)


def test_streamed_pass_checks_every_row():
    # x_2 = 2e308 leaves the floats at the last row, which no field reads:
    # the full and the streamed loop read inf for that control alone,
    # whichever rows the streamed one keeps (a zero generator would take the
    # state-free kernel)
    sg, xi0 = diagonal_semigroup([0.001]), StateVector([1e308])
    apply_F = BatchOperator(xi0, [constant_field([1e308])], sg, 1.0, 2)
    values = np.array([[[1.0, 1.0]], [[0.0, 0.0]]])
    states, rho = apply_F.fixed_point(values)
    held, streamed = apply_F.fixed_point(values, np.array([0, 3]))
    assert states[0, 2, 0] == np.inf and rho[0] == np.inf and np.isfinite(rho[1])
    assert np.array_equal(streamed, rho)
    assert np.array_equal(held, states.reshape(-1, 1)[[0, 3]])


def test_streamed_solve_falls_back_to_the_whole_stack(monkeypatch):
    # a subnormal h u leaves control 3 uncertified at stage 0: the stack is
    # solved whole, as without `keep`, and the kept rows are taken from it
    sg, fields, xi0, cert, controls = batch_system("heat16", "hidden")
    values = controls.values.copy()
    values[3, 0, 7] = 1e-310
    controls = Control(1.0, values)
    keep = np.sort(np.random.default_rng(2).choice(6 * 129, 50, replace=False))
    passes, fixed_point = [], BatchOperator.fixed_point

    def recorded(self, values, keep=None):
        passes.append(keep is None)
        return fixed_point(self, values, keep)

    monkeypatch.setattr(BatchOperator, "fixed_point", recorded)
    states, bounds, taken, whole = _solve_stack(xi0, controls, fields, sg, cert, 1e-8)
    rows, streamed_bounds, streamed_taken, fallback = _solve_stack(
        xi0, controls, fields, sg, cert, 1e-8, keep)
    assert passes == [True, False, True] and whole and fallback
    assert np.array_equal(rows, states.reshape(-1, 16)[keep])
    assert np.array_equal(streamed_bounds, bounds) and list(streamed_taken) == [0, 0, 0, 1, 0, 0]
    assert np.array_equal(streamed_taken, taken)


def test_streamed_solve_of_a_non_finite_pass_raises_as_the_whole_one():
    sg, xi0 = diagonal_semigroup([0.0]), StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    nan_above = VectorField(lambda t, x: np.where(x > 1.5, np.nan, x), 1.0, 1.0, 0.0,
                            eval_error=0.0)
    controls = stack_controls([constant_control(0.3, 16), constant_control(1.0, 16)])
    held, rho = BatchOperator(xi0, [nan_above], sg, 1.0, 16).fixed_point(controls.values,
                                                                           np.arange(34))
    assert np.isfinite(rho[0]) and rho[1] == np.inf
    with pytest.raises(RuntimeError, match=r"control #1: .*finite"):
        _solve_stack(xi0, controls, [nan_above], sg, cert, 1e-8, np.array([0, 5]))


def non_finite_system(case):
    """A forward pass (operator, control values) whose states leave the
    floats for some controls: on the loop (a field that reads NaN past 1.5),
    or on the state-free kernel under A = 0."""
    if case == "nan":
        nan_above = VectorField(lambda t, x: np.where(x > 1.5, np.nan, x), 1.0, 1.0, 0.0,
                                eval_error=0.0)
        apply_F = BatchOperator(StateVector([1.0]), [nan_above], diagonal_semigroup([0.0]),
                                1.0, 16)
        return apply_F, np.array([[[0.3] * 16], [[0.0] * 16], [[1.0] * 16]])
    apply_F = BatchOperator(StateVector([0.5, 1e308]), [constant_field([0.0, 1e308])],
                            diagonal_semigroup([0.0, 0.0]), 1.0, 8)
    assert apply_F.state_free  # control 0 passes 1.79e308 at x_7, control 3 sums inf - inf
    return apply_F, np.array([[[1.0] * 8], [[0.0] * 8], [[-0.5] * 8], [[8.0] * 4 + [-8.0] * 4]])


@pytest.mark.parametrize("case", ["nan", "state_free"])
def test_whole_and_streamed_passes_read_one_rho(case):
    # with or without `keep`, every control reads the same rho, inf where a
    # row leaves the floats, and the kept rows are the whole stack's (the
    # loop's overflowing last row: `test_streamed_pass_checks_every_row`)
    apply_F, values = non_finite_system(case)
    states, rho = apply_F.fixed_point(values)
    n, size = states.shape[2], states.shape[0] * states.shape[1]
    finite = np.isfinite(states).all(axis=(1, 2))
    assert not finite.all() and (rho[~finite] == np.inf).all() and np.isfinite(rho).any()
    for keep in (np.arange(size), np.array([0, size - 1]), np.array([], dtype=int)):
        held, streamed = apply_F.fixed_point(values, keep)
        assert np.array_equal(streamed, rho)
        assert np.array_equal(held, states.reshape(-1, n)[keep], equal_nan=True)


def agreeing_kernels(case):
    """One system on two kernels of `fixed_point`: diag(beta) x as a bilinear
    field (product) and as a "custom" one (loop), or a constant field with
    Lipschitz constant 0 (state-free) and 1e-12 (loop), under A = 0."""
    if case == "product":
        sg, xi0 = heat_semigroup(8), StateVector(np.linspace(0.2, -0.3, 8))
        fast = bilinear_field(np.diag(np.linspace(-1.5, 2.0, 8)))
        slow = dataclasses.replace(fast, kind="custom")
    else:
        sg, xi0 = diagonal_semigroup([0.0] * 3), StateVector([0.3, -0.2, 0.1])
        fast = constant_field([0.4, -1.0, 0.2])
        slow = dataclasses.replace(fast, lipschitz_L=1e-12)
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, max(fast.lipschitz_L, 1e-12), 1.0)
    return sg, xi0, cert, fast, slow, sample_ball(1.0, 1.0, 1.0, 1, 64, 6, seed=12)


@pytest.mark.parametrize("case", ["product", "state_free"])
def test_kernels_agree_within_their_stage_zero_bounds(case):
    sg, xi0, cert, fast, slow, controls = agreeing_kernels(case)
    assert BatchOperator(xi0, [slow], sg, 1.0, 64).coupling is None
    (x, bound, taken, _), (y, other, slow_taken, _) = (
        _solve_stack(xi0, controls, [f], sg, cert, 1e-8) for f in (fast, slow))
    assert (taken == 0).all() and (slow_taken == 0).all()
    assert (vector_norm(x - y, 2).max(axis=1) <= bound + other).all()


@pytest.mark.parametrize("kernel", ["product", "state_free", "loop"])
def test_kept_start_rows_are_xi0(kernel):
    # every kernel makes row 0 of each control from the orbit's start, so a
    # pass that keeps every control's t = 0 row holds xi0 bit for bit
    if kernel == "state_free":
        sg, xi0, _, f, _, controls = agreeing_kernels("state_free")
        fields, n_t = [f], 64
    else:
        sg, fields, xi0, _, controls = streamed_system(
            "diagonal" if kernel == "product" else "bilinear")
        n_t = 32
    apply_F = BatchOperator(xi0, fields, sg, 1.0, n_t)
    assert (apply_F.coupling is not None, apply_F.state_free) \
        == (kernel == "product", kernel == "state_free")
    held, _ = apply_F.fixed_point(controls.values, np.arange(len(controls)) * (n_t + 1))
    assert np.array_equal(held, np.tile(xi0.coords, (len(controls), 1)))


def test_state_free_field_without_error_bound_takes_applications():
    # L = 0 under A = 0 takes the state-free kernel; a field that declares
    # no evaluation error proves no rho, so the applications certify it
    sg, xi0 = diagonal_semigroup([0.0, 0.0]), StateVector([0.3, -0.2])
    b = np.array([0.4, -1.0])
    f = VectorField(lambda t, x: np.broadcast_to(b, np.shape(x)).copy(), 0.0, 0.0,
                    float(np.linalg.norm(b)))
    controls = sample_ball(1.0, 1.0, 1.0, 1, 32, 4, seed=6)
    apply_F = BatchOperator(xi0, [f], sg, 1.0, 32)
    assert apply_F.state_free and not apply_F.bounded
    assert (apply_F.fixed_point(controls.values)[1] == np.inf).all()
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1e-12, 1.0)
    results = solve_batch(xi0, controls, [f], sg, cert, tol=1e-8)
    assert all(res.iterations >= 1 and res.a_posteriori_bound <= 1e-8 for res in results)


def test_streamed_loop_pass_holds_no_state_stack():
    # a non-diagonal bilinear coupling takes the loop: 200 controls x 129
    # grid times x 64 coordinates are a 13.2 MB stack, of which 200 rows are kept
    sg = heat_semigroup(64)
    f = bilinear_field(np.random.default_rng(8).standard_normal((64, 64)) / 8.0)
    apply_F = BatchOperator(StateVector(np.full(64, 0.0025)), [f], sg, 1.0, 128)
    values = sample_ball(1.0, 1.0, 1.0, 1, 128, 200, seed=4).values
    keep = np.sort(np.random.default_rng(9).choice(200 * 129, 200, replace=False))
    apply_F.fixed_point(values[:2], np.arange(4))  # warm up
    assert apply_F.coupling is None and apply_F.bounded
    tracemalloc.start()
    try:
        held, rho = apply_F.fixed_point(values, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held.shape == (200, 64) and np.isfinite(rho).all()
    assert peak < 200 * 129 * 64 * 8 / 4


def test_field_error_must_be_a_bound():
    for bad in (-1e-16, 1e-16, np.inf, np.nan):
        with pytest.raises(ValueError, match="eval_error"):
            VectorField(lambda t, x: x, 1.0, 1.0, 0.0, eval_error=bad)


def test_zero_control_batch_under_overflowing_tails(monkeypatch):
    # N = 59796, whose ball's e^{c} is past the floats; the zero control's
    # own c = 0, so stage 0 certifies it by rho alone, with no application
    cert = certify(1.0, 22000.0, 1.0, 0.0, 1.0, 1.0)
    assert cert.N == 59796
    calls = spy_applications(monkeypatch)
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    u = constant_control(0.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_batch(xi0, stack_controls([u]), [f], sg, cert)
    rho = BatchOperator(xi0, [f], sg, 1.0, 8).fixed_point(u.values[None])[1][0]
    assert calls == []
    assert (res[0].iterations, res[0].a_posteriori_bound) == (0, rho)
    assert np.array_equal(res[0].trajectory.states, semigroup_orbit(sg, xi0, 1.0, 8).states)


def test_solve_batch_attaches_control_index_on_error():
    sg = diagonal_semigroup([0.0])
    f = bilinear_field([[1.0]])
    xi0 = StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    controls = stack_controls([constant_control(0.5, 16), constant_control(3.0, 16)])
    with pytest.raises(RuntimeError, match="control #1"):
        solve_batch(xi0, controls, [f], sg, cert)


def test_control_off_the_certificate_horizon_rejected():
    # |u|_2 = 1 on [0, 100] has |u|_1 = 10, ten times the L^1 mass that fixed
    # the certificate's N = 2: its rate backs no bound for this control
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0, 2.0)
    assert (cert.l1_mass, cert.N) == (1.0, 2)
    u = constant_control(0.1, 64, T=100.0)
    with pytest.raises(CertificateRadiusError, match="horizon"):
        picard_solve(xi0, u, [f], sg, cert)
    with pytest.raises(RuntimeError, match=r"control #0: .*horizon"):
        solve_batch(xi0, stack_controls([u]), [f], sg, cert)


def test_solve_batch_errors_name_the_control():
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    nan_above = VectorField(lambda t, x: np.where(x > 1.5, np.nan, x), 1.0, 1.0, 0.0)
    ok, zero = constant_control(0.5, 16), constant_control(0.0, 16)
    cases = [
        ([ok, constant_control(3.0, 16)], [f], cert, 1e-8, r"control #1: .*radius"),
        ([constant_control(0.5, 16, channels=2)] * 2, [f], cert, 1e-8, r"control #0: .*channel"),
        # c = 5e4 needs ~e c applications, past the cap; the zero control's c = 0
        ([zero, constant_control(5e4, 16), ok], [f],
         certify_hidden_contraction(5e4, 1.0, 0.0, 1.0, 1.0), 1e-8,
         r"control #1: .*application cap"),
        ([constant_control(0.3, 16), zero, constant_control(1.0, 16)], [nan_above], cert, 1e-8,
         r"control #2: .*finite"),
        # rounding alone (bound 4.4e-16) exceeds this tolerance; a zero control's bound is 0
        ([zero, sample_ball(1.0, 1.0, 1.0, 1, 16, 1, seed=0)[0]], [f], cert, 1e-30,
         r"control #1: .*exceeds tol"),
    ]
    for controls, fields, c, tol, message in cases:
        with pytest.raises(RuntimeError, match=message):
            solve_batch(xi0, stack_controls(controls), fields, sg, c, tol=tol)
    # a stack has one grid and one channel count: mixed controls never form one
    for controls in ([ok, zero, constant_control(0.5, 32)],
                     [ok, constant_control(0.5, 16, channels=2)]):
        with pytest.raises(ValueError, match="one horizon and grid"):
            stack_controls(controls)


def test_zero_control_computes_one_application(monkeypatch):
    # N = 59796, but the zero control's own c = 0 stops at the first iterate
    cert = certify(1.0, 22000.0, 1.0, 0.0, 1.0, 1.0)
    assert cert.N == 59796
    calls = spy_applications(monkeypatch)
    sg, xi0 = diagonal_semigroup([0.0]), StateVector([1.0])
    res = picard_solve(xi0, constant_control(0.0, 8), [bilinear_field([[1.0]])], sg, cert)
    assert calls == [1]
    assert np.array_equal(res.trajectory.states, semigroup_orbit(sg, xi0, 1.0, 8).states)
    assert (res.iterations, res.a_posteriori_bound) == (1, 0.0)
    assert len(res.iterate_gaps) == 1


def test_control_whose_powers_underflow_is_certified_and_ball_checked():
    # 0.5 ** 2000 underflows: a norm read as 0 took the zero-control shortcut
    # (bound 0.0 against a true error of 4.1e-4) and let u into a ball of any radius
    sg, f, xi0 = diagonal_semigroup([0.0]), bilinear_field([[1.0]]), StateVector([1.0])
    u = constant_control(0.5, 64)
    cert = certify(2000.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    res = picard_solve(xi0, u, [f], sg, cert)
    reference = BatchOperator(xi0, [f], sg, 1.0, 64).fixed_point(u.values[None])[0]
    error = sup_norm(res.trajectory, TrajectoryGrid(1.0, reference[0]))
    assert res.iterations > 1 and 0.0 < res.a_posteriori_bound <= 1e-8
    assert error <= res.a_posteriori_bound
    with pytest.raises(CertificateRadiusError, match="radius"):
        picard_solve(xi0, u, [f], sg, certify(2000.0, 0.25, 1.0, 0.0, 1.0, 1.0))
