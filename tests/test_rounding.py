"""The forward pass's proved rounding bound against 50-digit truth.

`BatchOperator.fixed_point` returns rho_b >= max_j |x_j - F(x)_j| for the
exact discrete operator F (exact arithmetic and exponentials on the floats
held), and `solve_batch` certifies a control with it, taking no application
of F, when ``(1 + T_{N-1}) rho / (1 - C)`` meets the tolerance.  These tests
recompute F and its fixed point with mpmath and check both bounds, and check
the ulp allowance `EXP_ULPS` assumed of ``np.exp``.
"""

import mpmath as mp
import numpy as np
import pytest

from mildsolve import (
    StateVector,
    bilinear_field,
    certify,
    constant_field,
    diagonal_semigroup,
    heat_semigroup,
    sample_ball,
    solve_batch,
)
from mildsolve.controls import stack_controls
from mildsolve.operator import EXP_ULPS, BatchOperator, exp_rounding

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
}


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
