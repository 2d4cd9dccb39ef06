"""The forward pass's proved rounding bound against 50-digit truth.

`BatchOperator.fixed_point` returns rho_b >= max_j |x_j - F(x)_j| for the
exact discrete operator F (exact arithmetic and exponentials on the floats
held), and `solve_batch` certifies a control with it, taking no application
of F, when ``e^{mu T} e^c rho`` meets the tolerance.  These tests recompute F
and its fixed point with mpmath and check both bounds, on the per-cell loop
(the `matrix` and `constant` systems), on the product path of diagonal
couplings (`identity`, `diagonal`, `scalar`) and on the state-free kernel of
fields that do not read the state under A = 0, and check the ulp allowance
`EXP_ULPS` assumed of ``np.exp``.
"""

import mpmath as mp
import numpy as np
import pytest

from mildsolve import (
    StateVector,
    bilinear_field,
    certify,
    constant_field,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
    lp_norm,
    sample_ball,
    solve_batch,
)
from mildsolve.controls import stack_controls
from mildsolve.operator import EXP_ULPS, BatchOperator, TrajectoryGrid, exp_rounding
from mildsolve.spaces import saturation_field, vector_norm

DIGITS = 50
TINY = 2.0 ** -1022


def mp_norm(v, kind):
    if kind == 1:
        return mp.fsum(abs(c) for c in v)
    if kind == 2:
        return mp.sqrt(mp.fsum(c * c for c in v))
    return max(abs(c) for c in v)


def mp_field(spec):
    """The exact field of a (kind, data) spec, on a list of mpf."""
    kind, data = spec
    if kind == "identity":
        return lambda x: list(x)
    if kind == "constant":
        return lambda x: [mp.mpf(c) for c in data]
    return lambda x: [mp.fsum(mp.mpf(b) * c for b, c in zip(row, x)) for row in data]


def np_field(spec, norm_kind):
    kind, data = spec
    if kind == "identity":
        return bilinear_field(np.eye(len(data)), norm_kind)
    if kind == "constant":
        return constant_field(data, norm_kind)
    return bilinear_field(data, norm_kind)


def exact_pass(op, eigenvalues, xi0, values, specs, states=None):
    """The exact S_{j+1} = e^{lambda h}(S_j + h g_j), x_j = e^{lambda t_j} xi0 + S_j
    for one control: F(states) when `states` is given, else the fixed point."""
    h, lam = mp.mpf(op.h), [mp.mpf(v) for v in eigenvalues]
    fields = [mp_field(spec) for spec in specs]
    step = [mp.exp(v * h) for v in lam]
    integral, out = [mp.mpf(0)] * len(lam), []
    for j, t in enumerate(op.times):
        orbit = [mp.exp(mp.mpf(t) * v) * mp.mpf(c) for v, c in zip(lam, xi0)]
        out.append([o + s for o, s in zip(orbit, integral)])
        if j == len(op.times) - 1:
            break
        x = out[-1] if states is None else [mp.mpf(c) for c in states[j]]
        for i, f in enumerate(fields):
            weight = h * mp.mpf(values[i, j])
            integral = [s + weight * g for s, g in zip(integral, f(x))]
        integral = [e * s for e, s in zip(step, integral)]
    return out


# (eigenvalues, xi0, field specs, norm kind, T, n_t): nonzero eigenvalues of
# both signs, non-dyadic steps, identity, matrix and constant fields
SYSTEMS = {
    "identity": ([-2.5, 0.75], [0.3, -0.2], [("identity", [0, 0])], 2, 1.0, 16),
    "matrix": ([-1.0, -7.0, 3.0], [0.1, 0.2, -0.3],
               [("matrix", [[0.5, -1.25, 0.1], [0.3, 0.2, -0.7], [-0.9, 0.05, 0.4]])],
               np.inf, 0.7, 12),
    "constant": ([-0.3, 1.7], [0.05, -0.4],
                 [("constant", [0.4, -0.25]), ("identity", [0, 0])], 1, 1.3, 10),
    # xi0 = 0: no orbit, so only the integral's rounding makes the residual
    "forced": ([-4.0, 2.5], [0.0, 0.0], [("constant", [0.7, -1.1])], 2, 0.9, 14),
    # the product path: a diagonal coupling that is not a multiple of I, and
    # two multiples of I (a coupling sum of two terms)
    "diagonal": ([-1.5, 0.4, -6.0], [0.2, -0.1, 0.3],
                 [("matrix", [[0.7, 0.0, 0.0], [0.0, -1.3, 0.0], [0.0, 0.0, 2.1]])], 2, 0.9, 11),
    "scalar": ([-3.0, 1.2], [0.4, 0.25],
               [("matrix", [[-0.6, 0.0], [0.0, -0.6]]), ("identity", [0, 0])], np.inf, 1.1, 13),
}
# the systems whose pass is the product P_j e^{lambda t_j} xi0; the others take the loop
PRODUCT = {"identity", "diagonal", "scalar"}


def system(name, p):
    eigenvalues, xi0, specs, kind, T, n_t = SYSTEMS[name]
    sg = diagonal_semigroup(eigenvalues)
    fields = [np_field(spec, kind) for spec in specs]
    cert = certify(p, 0.8, sg.class_M, sg.class_mu, max(f.lipschitz_L for f in fields), T)
    ball = sample_ball(p, 0.8, T, len(fields), n_t, 3, seed=len(eigenvalues))
    controls = stack_controls([*ball, ball[0].scaled(0.0)])
    return sg, fields, StateVector(xi0, kind), cert, controls, specs


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_rounding_bound_covers_50_digit_truth(name, p):
    sg, fields, xi0, cert, controls, specs = system(name, p)
    assert cert.mode == ("hidden" if p == 1.0 else "omega")
    kind, tol = xi0.norm_kind, 1e-6
    T, n_t = controls[0].horizon_T, controls[0].n_t
    op = BatchOperator(xi0, fields, sg, T, n_t)
    values = controls.values
    states, rho = op.fixed_point(values)
    results = solve_batch(xi0, controls, fields, sg, cert, tol=tol)
    weight = (np.exp(-cert.omega * op.times) if cert.mode == "omega"
              else np.ones(n_t + 1))
    residuals, errors = [], []
    with mp.workdps(DIGITS):
        for b, res in enumerate(results):
            image = exact_pass(op, sg.eigenvalues, xi0.coords, values[b], specs, states[b])
            star = exact_pass(op, sg.eigenvalues, xi0.coords, values[b], specs)
            x = [[mp.mpf(c) for c in row] for row in states[b]]
            residual = max(mp_norm([a - c for a, c in zip(xj, fj)], kind)
                           for xj, fj in zip(x, image))
            error = max(mp.mpf(w) * mp_norm([a - c for a, c in zip(xj, sj)], kind)
                        for w, xj, sj in zip(weight, x, star))
            assert mp.mpf(rho[b]) >= residual
            assert mp.mpf(res.a_posteriori_bound) >= error
            assert np.array_equal(res.trajectory.states, states[b])
            residuals.append(residual)
            errors.append(error)
    # the truth is not trivially 0, and the bounds are tight enough to certify
    assert max(residuals) > 0 and max(errors) > 0
    assert rho.max() <= 1e-12
    assert [res.iterations for res in results] == [0] * len(controls)
    assert all(res.a_posteriori_bound <= tol for res in results)


def residuals(op, eigenvalues, xi0, values, specs, states):
    """max_j |x_j - F(x)_j| in 50 digits for each control of a stack."""
    out = []
    with mp.workdps(DIGITS):
        for b in range(len(values)):
            image = exact_pass(op, eigenvalues, xi0.coords, values[b], specs, states[b])
            out.append(max(mp_norm([mp.mpf(a) - c for a, c in zip(xj, fj)], xi0.norm_kind)
                           for xj, fj in zip(states[b], image)))
    return out


def test_pass_takes_the_product_for_diagonal_couplings():
    for name in SYSTEMS:
        sg, fields, xi0, _, controls, _ = system(name, 1.0)
        op = BatchOperator(xi0, fields, sg, controls.horizon_T, controls.n_t)
        assert (op.coupling is not None) == (name in PRODUCT)
    # a multiple of I takes it under a dense generator too, with rho = inf
    dense = dense_semigroup([[-1.0, 2.0], [0.0, -1.0]], 3.0, 0.0)
    op = BatchOperator(StateVector([1.0, 1.0]), [bilinear_field(2.0 * np.eye(2))], dense, 1.0, 8)
    assert op.coupling.shape == (1, 1) and not op.bounded
    assert np.isinf(op.fixed_point(np.ones((2, 1, 8)))[1]).all()
    for fields in ([bilinear_field(np.diag([1.0, 2.0]))], [saturation_field(1.0)]):
        assert BatchOperator(StateVector([1.0, 1.0]), fields, dense, 1.0, 8).coupling is None


@pytest.mark.parametrize("name", sorted(PRODUCT))
def test_product_and_loop_agree_within_their_bounds(name):
    # both passes lie within e^{mu T} e^c rho of the one discrete fixed point
    sg, fields, xi0, cert, controls, _ = system(name, 1.0)
    op = BatchOperator(xi0, fields, sg, controls.horizon_T, controls.n_t)
    product, rho = op.fixed_point(controls.values)
    op.coupling = None  # the per-cell loop, on the same operator
    loop, loop_rho = op.fixed_point(controls.values)
    c = lp_norm(controls, 1) * cert.M * cert.L_bound * (1.0 + 1e-12)
    reach = np.exp(cert.mu * controls.horizon_T + c) * (rho + loop_rho)
    gap = vector_norm(product - loop, xi0.norm_kind).max(axis=1)
    assert np.all(gap <= reach) and gap.max() > 0.0


def test_product_bound_covers_grid_times_off_j_h():
    # rho takes the held grid times as data.  Times that stray up to 1e-10
    # from j h leave x_j = P_j e^{lambda t_j} xi0 off F's fixed point by
    # about 1e-10, far above every rounding: only the grid-time term covers it
    sg, fields, xi0, _, controls, specs = system("diagonal", 2.0)
    T, n_t = controls.horizon_T, controls.n_t
    op = BatchOperator(xi0, fields, sg, T, n_t)
    op.times = op.times + 1e-10 * np.random.default_rng(3).uniform(-1.0, 1.0, n_t + 1)
    op.times[0] = 0.0
    op.orbit = TrajectoryGrid(T, np.exp(np.outer(op.times, sg.eigenvalues)) * xi0.coords,
                              xi0.norm_kind)
    states, rho = op.fixed_point(controls.values)
    truth = residuals(op, sg.eigenvalues, xi0, controls.values, specs, states)
    assert all(mp.mpf(r) >= t for r, t in zip(rho, truth))
    assert max(truth[:-1]) > 1e-12 and truth[-1] < 1e-15  # the zero control stays on its orbit


def test_product_bound_covers_a_cancelling_coupling_sum():
    # u_1 beta_1 + u_2 beta_2 cancels: each h u_i is near 1e6 and their sum
    # near 1, so the roundings of h u_i and of the sum put each factor 1 + s
    # about 1e-10 off, relative, far above the product's own rounding
    specs = [("identity", [0, 0]), ("matrix", [[-1.0, 0.0], [0.0, -1.0]])]
    sg, xi0 = diagonal_semigroup([-0.8, 0.3]), StateVector([0.5, -0.4])
    fields = [np_field(spec, 2) for spec in specs]
    op = BatchOperator(xi0, fields, sg, 0.7, 7)
    rng = np.random.default_rng(4)
    values = 1e7 + rng.uniform(-1.0, 1.0, (2, 2, 7))
    states, rho = op.fixed_point(values)
    truth = residuals(op, sg.eigenvalues, xi0, values, specs, states)
    assert all(mp.mpf(r) >= t for r, t in zip(rho, truth))
    assert min(truth) > 1e-12


def test_state_free_point_covers_50_digit_truth():
    # fields that do not read the state, under the zero generator: F of the
    # orbit is the fixed point, and `fixed_point` proves its rounding bound
    # on the state-free kernel
    specs = [("constant", [0.4, -0.25]), ("constant", [1.0 / 3.0, 0.7])]
    sg, xi0 = diagonal_semigroup([0.0, 0.0]), StateVector([0.05, -0.4], 1)
    fields = [np_field(spec, 1) for spec in specs]
    cert = certify(1.0, 0.8, sg.class_M, sg.class_mu, 0.0, 1.3)
    controls = sample_ball(1.0, 0.8, 1.3, 2, 10, 3, seed=6)
    op = BatchOperator(xi0, fields, sg, 1.3, 10)
    assert op.state_free
    states, rho = op.fixed_point(controls.values)
    truth = residuals(op, sg.eigenvalues, xi0, controls.values, specs, states)
    assert all(mp.mpf(r) >= t for r, t in zip(rho, truth)) and max(truth) > 0
    results = solve_batch(xi0, controls, fields, sg, cert, tol=1e-12)
    assert [res.iterations for res in results] == [0, 0, 0]
    assert all(np.array_equal(res.trajectory.states, x) for res, x in zip(results, states))


def test_matrix_field_error_covers_50_digit_products():
    b = np.random.default_rng(5).standard_normal((6, 6)) * [1.0, 1e-3, 1e3, 1.0, 7.0, 0.1]
    f = bilinear_field(b)
    x = np.random.default_rng(6).standard_normal((20, 6)) * 1e2
    computed, bound = f(0.0, x), f.eval_error(0.0, x)
    with mp.workdps(DIGITS):
        for xr, cr, br in zip(x, computed, bound):
            exact = [mp.fsum(mp.mpf(v) * mp.mpf(c) for v, c in zip(row, xr)) for row in b]
            assert all(abs(mp.mpf(c) - e) <= mp.mpf(e_b) for c, e, e_b in zip(cr, exact, br))
    assert bilinear_field(np.eye(3)).eval_error == 0.0
    assert constant_field([1.0, 2.0]).eval_error == 0.0


def test_matrix_field_error_enters_the_bound():
    # B x cancels: |B| |x| = 6e7 against |B x| = 3e-5, so the products'
    # rounding (gamma_n |B| |x|) dominates the residual, far above u |x|
    specs = [("matrix", [[1e8, -1e8], [1e8, -1e8]])]
    sg, xi0 = diagonal_semigroup([-1.5, -1.5]), StateVector([0.3, 0.3 * (1.0 + 1e-12)])
    op = BatchOperator(xi0, [np_field(specs[0], 2)], sg, 1.0, 8)
    values = sample_ball(1.0, 1.0, 1.0, 1, 8, 2, seed=9).values
    states, rho = op.fixed_point(values)
    with mp.workdps(DIGITS):
        for b in range(len(values)):
            image = exact_pass(op, sg.eigenvalues, xi0.coords, values[b], specs, states[b])
            residual = max(mp_norm([mp.mpf(a) - c for a, c in zip(xj, fj)], 2)
                           for xj, fj in zip(states[b], image))
            assert residual > 1e-12
            assert mp.mpf(rho[b]) >= residual


def ulp(y):
    """The spacing of the floats around a real y >= 0."""
    if y < TINY:
        return mp.mpf(2) ** -1074
    return mp.mpf(2) ** (int(mp.floor(mp.log(y, 2))) - 52)


def exp_arguments():
    """The products np.exp meets in a pass, computed as the operator computes
    them: each heat eigenvalue times h (heat.yaml's grid and a non-dyadic
    one), and the orbit's t_j lambda, at n = 8 (the dense8 systems' size) and
    n = 16, 32, 64; each with the exact real product it rounds."""
    for n in (8, 16, 32, 64):
        sg = heat_semigroup(n)
        for T, n_t in ((1.0, 128), (1.0, 100), (0.7, 12)):
            op = BatchOperator(StateVector(np.ones(n)), [bilinear_field(np.eye(n))],
                               sg, T, n_t)
            args = sg.eigenvalues * op.h
            assert np.array_equal(np.exp(args), op.step)
            yield args, [mp.mpf(v) * mp.mpf(op.h) for v in sg.eigenvalues]
            if n_t == 128:
                orbit = np.outer(op.times, sg.eigenvalues)
                assert np.array_equal(np.exp(orbit), op.orbit.states)
                yield orbit.ravel(), [mp.mpf(t) * mp.mpf(v) for t in op.times
                                      for v in sg.eigenvalues]


def test_exp_within_its_ulp_allowance():
    worst = 0.0
    with mp.workdps(DIGITS):
        for args, exact in exp_arguments():
            values, kappa = np.exp(args), exp_rounding(args)
            for a, y, k, e in zip(args, values, kappa, exact):
                true = mp.exp(mp.mpf(a))
                ulps = abs(mp.mpf(y) - true) / ulp(true)
                assert ulps <= EXP_ULPS
                worst = max(worst, float(ulps))
                # the bound's form: against the exact product, relative to y + 2^-1022
                assert abs(mp.mpf(y) - mp.exp(e)) <= mp.mpf(k) * (mp.mpf(y) + TINY)
    assert worst > 0.0  # np.exp rounds: the check is not vacuous
