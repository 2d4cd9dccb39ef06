"""Certified solves of the discretized mild equation ``x = F(x, u)``.

Every solve stops by one rule, whose bound is in the sup norm max_j |x(t_j) -
y(t_j)|.  For a control u of the certificate's ball, F(., u) obeys the
factorial estimate ``|F^k x - F^k y|_mu <= c^k / k! |x - y|_mu`` with the
control's own c = M L |u|_1, on either route, in the weighted norm |z|_mu =
max_j e^{-mu t_j} |z(t_j)|: e^{-mu t_m} |Fx - Fy|(t_m) <= M L sum_{i < m} h
|u_i| e^{-mu t_i} |x - y|(t_i).  Summed, it bounds the error of F^j y
against the discrete fixed point x* by the tails Q_j(c) = sum_{k >= j} c^k /
k!, and |z|_sup <= e^{mu T} |z|_mu converts the bound once:

    |F^j y - x*|_sup <= e^{mu T} min(Q_j(c) |y - F y|_mu,
                                     (e^c - 1) |F^{j-1} y - F^j y|_mu).

The certificate proves that x* exists and that u lies in its ball; the rule
reads none of its rates.  `picard_solve` iterates x_k = F^k x_0 from the
constant trajectory at xi0 and returns x_k at the first k where this bound,
y = x_0, is <= tol; it serves the library and the factorial-gap checks.
Every other solve (`solve_batch`, reach-set samples, the CLI's `solve` and
spike family) takes `_solve_stack`, the one gate: `_check_controls` checks
tol, the channels and the ball before any work, and no caller checks them
again.  It computes every control's x* in one causal forward pass
(`BatchOperator.fixed_point`, the one entry to its three kernels: a
cumulative product for diagonal couplings, F of the orbit for fields that
do not read the state under A = 0, else a loop over the cells), returns
that x as it is, and certifies it at the first stage j = 0, 1, ... where
|x - F^j x|_sup plus the bound, y = x, is <= tol.  Stage 0 takes no
application: the pass's proved rounding bound rho >= |x - F x|_sup gives
e^{mu T} e^c rho, which certifies a diagonal semigroup whose couplings are
diagonal or whose fields declare their evaluation error, unless c is large.
A control fails once |x - F^j x|_sup minus the bound is > tol, as no later
stage can pass then, and before any application when its rule cannot stop
within `_MAX_APPLICATIONS`.
The bounds leave out the O(h) error of the left-endpoint quadrature against
the mild solution, and a stage j >= 1 the rounding of F's own applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controls import Control, lp_norm
from .spaces import _EPS, _ETA, Semigroup, StateVector, VectorField, vector_norm
from .operator import BatchOperator, ContractionCertificate, TrajectoryGrid

_MAX_APPLICATIONS = 100_000
# The stage applications run on chunks of controls whose (chunk, n_t + 1, n)
# stack stays near this many bytes, keeping an application's temporaries in
# cache: 500 heat controls at n = 16 under a dense generator (no stage-0
# bound) take 28.7 ms in chunks, 37.4 ms as one stack (process CPU, median
# of 7 alternating pairs, one BLAS thread, 2-vCPU Xeon, numpy 2.4).
_CHUNK_BYTES = 1 << 18
_CAP_EXCEEDED = f"the stopping rule needs more than the application cap ({_MAX_APPLICATIONS})"


class NonFiniteIterateError(ValueError):
    """A Picard iterate left the finite floats: a numeric failure."""


@dataclass(frozen=True)
class SolveResult:
    """Fixed point plus the iteration diagnostics that certify it."""

    trajectory: TrajectoryGrid
    iterate_gaps: list  # sup-norm gap per Picard application; empty for a batch solve
    # applications of F: up to the returned iterate, or that certified it; a
    # batch solve reads 0 when the forward pass's rounding bound certified it
    iterations: int
    certificate: ContractionCertificate
    a_posteriori_bound: float  # sup-norm error bound against the discrete fixed point


def _tail(c, j: int) -> np.ndarray:
    """Q_j(c) = sum_{k >= j} c^k / k! for each c >= 0 of an array, rounded up;
    past the floats reads inf.

    Q_0 = e^c and Q_1 = e^c - 1.  For j >= 2, Q_j <= e^c, and when j + 1 > c
    each term after c^j / j! is at most c / (j + 1) < 1 times the one before,
    so Q_j <= c^j / j! / (1 - c / (j + 1)) (`lgamma`): the smaller is taken.
    The logarithm is raised by 1e-14 of its parts' magnitude plus 1e-15, more
    than log, log1p, expm1, lgamma and exp lose, and Q_j by at least one
    subnormal.
    """
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts = [c]
        if j == 1:  # log(e^c - 1) = c + log(1 - e^-c)
            parts = [c, np.log(-np.expm1(-c))]
        elif j > 1:
            geometric = [j * np.log(c), np.full_like(c, -math.lgamma(j + 1)),
                         -np.log1p(-c / (j + 1))]
            use = (j + 1 > c) & (sum(geometric) < c)
            parts = [np.where(use, g, e) for g, e in zip(geometric, (c, 0.0, 0.0))]
        log_q = sum(parts) + 1e-14 * sum(map(np.abs, parts)) + 1e-15
        q = np.where(log_q > 709.0, np.inf, np.maximum(np.exp(log_q), _ETA))
    return np.where(c == 0.0, float(j == 0), q)


def _tail_bound(c, j: int, first, last) -> np.ndarray:
    """min(Q_j(c) first, (e^c - 1) last) >= |F^j y - x*|_mu for the steps
    first = |y - F y|_mu and last = |F^{j-1} y - F^j y|_mu (module
    docstring); a zero last step reads 0, whatever the tails."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(last > 0.0, np.minimum(_tail(c, j) * first, _tail(c, 1) * last), 0.0)


def _weighting(mu: float, times: np.ndarray) -> tuple[np.ndarray, float]:
    """The weights e^{-mu t_j} of the norm |.|_mu the factorial estimate
    holds in, and e^{mu T} rounded up, which bounds |.|_sup by |.|_mu; all
    are 1 when mu = 0."""
    lift = math.exp(mu * times[-1])
    return np.exp(-mu * times), (math.nextafter(lift, math.inf) if lift > 1.0 else lift)


def _control_failed(i: int, error: Exception) -> Exception:
    return RuntimeError(f"solve failed for control #{i}: {error}")


def _factorial_bases(apply_F: BatchOperator, xi0: StateVector, fields: Sequence[VectorField],
                     cert: ContractionCertificate, l1_norms: np.ndarray, tol: float) -> np.ndarray:
    """Each control's c = M L |u|_1, rounded up, from its L^1 norm, after
    checking that its stopping rule ends within `_MAX_APPLICATIONS`.

    gap_1 = |F x_0 - x_0|_mu is at most G = |e^{At} xi0 - xi0|_sup + M
    e^{mu T} |u|_1 (alpha |xi0| + beta), the fields' largest growth
    constants, so e^{mu T} Q_cap(c) G <= tol stops `picard_solve` within the
    cap.  Both c and G grow with |u|_1, so the control of largest mass is
    checked for all: if it fails, it raises RuntimeError with its index,
    before any application.
    """
    bases = l1_norms * (cert.M * cert.L_bound * (1.0 + 16.0 * _EPS))
    i = int(np.argmax(l1_norms))
    if bases[i] > 0.0:  # else every c = 0 and the rule stops at the first application
        lift = _weighting(cert.mu, apply_F.times)[1]
        alpha = max(f.growth_alpha for f in fields)
        beta = max(f.growth_beta for f in fields)
        displacement = vector_norm(apply_F.orbit.states - xi0.coords, xi0.norm_kind).max()
        with np.errstate(over="ignore", invalid="ignore"):
            first_gap = displacement + cert.M * lift * l1_norms[i] * (alpha * xi0.norm() + beta)
            if lift * _tail(bases[i], _MAX_APPLICATIONS) * first_gap > tol:  # inf * 0 stops
                raise _control_failed(i, RuntimeError(_CAP_EXCEEDED))
    return bases


def _check_controls(controls: Control, fields: Sequence[VectorField],
                    cert: ContractionCertificate, tol: float) -> None:
    """Check a control or a stack before any work: tol > 0 and one channel
    per field (else ValueError), and membership of the certificate's ball in
    one `cert.control_norm` call, whose `CertificateRadiusError` names the
    first control outside."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if controls.channels != len(fields):
        raise ValueError("controls need one channel per field")
    cert.control_norm(controls)


def picard_solve(xi0: StateVector, u: Control, fields: Sequence[VectorField],
                 sg: Semigroup, cert: ContractionCertificate,
                 tol: float = 1e-8) -> SolveResult:
    """Solve the mild equation for one control with certified accuracy.

    Returns x_k at the first k whose bound (module docstring, y = x_0) is <=
    `tol`, and that bound.  A control with c = 0 (a zero control, or fields
    that do not depend on the state) stops after one application with bound
    0.  Raises `CertificateRadiusError` when u lies outside the certificate's
    ball (see `ContractionCertificate.control_norm`).
    """
    _check_controls(u, fields, cert, tol)
    kind = xi0.norm_kind
    apply_F = BatchOperator(xi0, fields, sg, u.horizon_T, u.n_t)
    base = _factorial_bases(apply_F, xi0, fields, cert, np.atleast_1d(lp_norm(u, 1)), tol)[0]
    weight, lift = _weighting(cert.mu, apply_F.times)
    gaps: list[float] = []
    x = np.broadcast_to(xi0.coords, (1,) + apply_F.orbit.states.shape)
    for k in range(1, _MAX_APPLICATIONS + 1):
        nxt = apply_F(x, u.values[None])
        norms = vector_norm(nxt - x, kind)[0]
        gap = float(norms.max())
        if not math.isfinite(gap):
            raise NonFiniteIterateError("trajectory states must be finite")
        gaps.append(gap)
        x = nxt
        last = (weight * norms).max()
        first = last if k == 1 else first
        bound = lift * float(_tail_bound(base, k, first, last))
        if bound <= tol:
            return SolveResult(TrajectoryGrid(u.horizon_T, x[0], kind), gaps, k, cert, bound)
    raise RuntimeError(_CAP_EXCEEDED)


def _stage_bounds(apply_F: BatchOperator, states: np.ndarray, values: np.ndarray,
                  bases: np.ndarray, mu: float, tol: float,
                  kind) -> tuple[np.ndarray, np.ndarray]:
    """The stages j >= 1 of the stopping rule (module docstring) for
    candidates x (B, n_t + 1, n), mu the class growth: their bounds on |x -
    x*|_sup and the applications j they took.  A candidate stops at the
    first j that passes or fails, or at the application cap; one whose
    iterate is not finite reads NaN, with no warning.
    """
    weight, lift = _weighting(mu, apply_F.times)
    bounds, taken = np.empty(len(states)), np.empty(len(states), dtype=int)
    live, x, image = np.arange(len(states)), states, states
    for j in range(1, _MAX_APPLICATIONS + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # past the floats reads NaN
            step = apply_F(image, values[live])
            norms = vector_norm(image - step, kind)
            last = (weight * norms).max(axis=-1)
            moved = norms.max(axis=-1) if j == 1 else vector_norm(x - step, kind).max(axis=-1)
            image = step
            first = last if j == 1 else first
            spread = lift * _tail_bound(bases[live], j, first, last)
            bound = moved + spread
            finite = np.isfinite(moved)
            done = (bound <= tol) | (moved - spread > tol) | ~finite | (j == _MAX_APPLICATIONS)
        bounds[live[done]] = np.where(finite[done], bound[done], np.nan)
        taken[live[done]] = j
        if done.all():
            break
        keep = ~done
        live, x, image, first = live[keep], x[keep], image[keep], first[keep]
    return bounds, taken


def _solve_stack(xi0: StateVector, stack: Control,
                 fields: Sequence[VectorField], sg: Semigroup, cert: ContractionCertificate,
                 tol: float, keep: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The forward-pass states (B, n_t + 1, n) of a (B, m, n_t) control
    stack, their sup-norm bounds, the applications taken (module docstring)
    and whether the whole stack was solved: 0 applications where e^{mu T}
    e^c rho certifies, else those of `_stage_bounds`, run on the other
    controls only.  `_check_controls` checks the stack before the operator
    is built; a failed rule or a non-finite iterate raises RuntimeError with
    the control's index.

    With `keep`, flat row indices of the stack (see
    `BatchOperator.fixed_point`), only those rows come back, as a
    (len(keep), n) array, from one stage-0 pass given `keep`.  Stages j >= 1
    apply F to whole trajectories: when that pass leaves a control, or the
    operator proves no rho, the stack is solved whole, as without `keep`,
    and the rows are taken from it.
    """
    _check_controls(stack, fields, cert, tol)
    values = stack.values
    apply_F = BatchOperator(xi0, fields, sg, stack.horizon_T, stack.n_t)
    bases = _factorial_bases(apply_F, xi0, fields, cert, lp_norm(stack, 1), tol)
    lift = _weighting(cert.mu, apply_F.times)[1]

    def stage_zero(rows):
        states, residuals = apply_F.fixed_point(values, rows)
        with np.errstate(over="ignore", invalid="ignore"):  # past the floats reads inf
            return states, lift * _tail(bases, 0) * residuals

    whole = keep is None or not apply_F.bounded
    states, bounds = stage_zero(None if whole else keep)
    if not whole and not (bounds <= tol).all():  # a control is left: solve the whole stack
        whole = True
        states, bounds = stage_zero(None)
    taken = np.zeros(len(values), dtype=int)
    left = np.flatnonzero(~(bounds <= tol))
    size = max(1, _CHUNK_BYTES // apply_F.orbit.states.nbytes)
    for first in range(0, len(left), size):
        chunk = left[first:first + size]
        bounds[chunk], taken[chunk] = _stage_bounds(apply_F, states[chunk], values[chunk],
                                                    bases[chunk], cert.mu, tol, xi0.norm_kind)
    bad = np.isnan(bounds)
    if bad.any():
        raise _control_failed(int(np.argmax(bad)),
                              NonFiniteIterateError("trajectory states must be finite"))
    over = bounds > tol
    if over.any():
        b = int(np.argmax(over))
        raise _control_failed(b, RuntimeError(f"bound {bounds[b]:.3e} of the forward solution "
                                              f"exceeds tol {tol:.3e}"))
    if keep is not None and whole:
        states = states.reshape(-1, states.shape[-1])[keep]
    return states, bounds, taken, whole


def solve_batch(xi0: StateVector, controls: Control,
                fields: Sequence[VectorField], sg: Semigroup,
                cert: ContractionCertificate, tol: float = 1e-8) -> list[SolveResult]:
    """Certified discrete fixed points of a (B, m, n_t) control stack.

    Each control's forward-pass candidate x is returned as it is, certified
    in the sup norm by the first stage of the stopping rule whose bound
    meets `tol` (see the module docstring): `iterations` counts the
    applications its bound took, 0 for the pass's rounding bound, and
    `iterate_gaps` is empty.  The trajectories are row views of
    `_solve_stack`'s (B, n_t + 1, n) states, in stack order, and agree with
    `picard_solve` up to rounding.  Before any work, tol <= 0 or a wrong
    channel count raises ValueError, and a control off the certificate's
    horizon or ball `CertificateRadiusError` with its `index`; a rule past
    the application cap, a non-finite iterate or a bound that is not <=
    `tol` raises RuntimeError with the control's index.
    """
    states, bounds, taken, _ = _solve_stack(xi0, controls, fields, sg, cert, tol)
    return [SolveResult(TrajectoryGrid(controls.horizon_T, x, xi0.norm_kind), [], int(n), cert,
                        float(bound))
            for x, bound, n in zip(states, bounds, taken)]


def iterate_differences(result: SolveResult, u: Control, sg: Semigroup,
                        xi0: StateVector,
                        fields: Sequence[VectorField]) -> list[tuple[int, float, float]]:
    """Pair each measured Picard gap with the factorial iterate bound.

    The displayed bound ``M^{k+1} e^{(k+1) mu T} |f|^k |u|_1^k / k! * |xi0|``
    (|f| the bilinear operator norm) is checked against gap_k; a violation
    raises.  Only bilinear fields admit this bound, and it presumes the
    iteration started at the constant trajectory, which coincides with the
    control-free orbit exactly when the semigroup fixes xi0.
    """
    for f in fields:
        if f.kind != "bilinear":
            raise ValueError("factorial gap bounds require bilinear fields")
    f_norm = max(f.lipschitz_L for f in fields)
    u1 = lp_norm(u, 1)
    m_const, mu = sg.class_M, sg.class_mu
    t_end = u.horizon_T
    xi_norm = xi0.norm()

    out = []
    for k, gap in enumerate(result.iterate_gaps, start=1):
        bound = (m_const ** (k + 1) * math.exp((k + 1) * mu * t_end)
                 * f_norm ** k * u1 ** k / math.factorial(k) * xi_norm)
        if gap > bound + 1e-9:
            raise ValueError(
                f"gap {gap:.3e} at iterate {k} exceeds factorial bound {bound:.3e}")
        out.append((k, gap, bound))
    return out


def gronwall_radius(xi0: StateVector, K: float, p: float, T: float, M: float,
                    mu: float, alpha: float, beta: float) -> float:
    """A-priori radius: every mild solution with |u|_p <= K stays within R of xi0.

    R = M e^{mu T} ( C_p K (M alpha |xi0| + beta) e^{M alpha C_p K} + 2 |xi0| )
    with C_p = T^{(p-1)/p} from the Hoelder step of the Gronwall estimate.
    """
    if K < 0:
        raise ValueError("control-norm bound K must be >= 0")
    if T <= 0:
        raise ValueError("T must be > 0")
    exponent = 1.0 if np.isinf(p) else (p - 1.0) / p
    c_p = T ** exponent
    xi_norm = xi0.norm()
    return M * math.exp(mu * T) * (
        c_p * K * (M * alpha * xi_norm + beta) * math.exp(M * alpha * c_p * K)
        + 2.0 * xi_norm)


def cutoff_field(f: VectorField, xi0: StateVector, R: float) -> VectorField:
    """Freeze f outside the ball of radius N+1 around xi0, N = smallest integer > R.

    Inside |eta - xi0| <= N the field is untouched, outside N+1 it vanishes,
    in between it is scaled by the Lipschitz bump rho(z) = clamp(N+1-|z|, 0, 1).
    The declared global Lipschitz constant is L + alpha (N+1+|xi0|) + beta.
    """
    if R <= 0:
        raise ValueError("R must be > 0")
    n_ball = math.floor(R) + 1
    center = xi0.coords
    norm_kind = xi0.norm_kind

    def eval_fn(t, states):
        states = np.asarray(states, dtype=float)
        shift = vector_norm(states - center, norm_kind)
        rho = np.clip(n_ball + 1.0 - shift, 0.0, 1.0)
        return np.expand_dims(rho, -1) * f(t, states) if states.ndim > 1 else rho * f(t, states)

    return VectorField(
        eval_fn=eval_fn,
        lipschitz_L=f.lipschitz_L + f.growth_alpha * (n_ball + 1.0 + xi0.norm()) + f.growth_beta,
        growth_alpha=f.growth_alpha,
        growth_beta=f.growth_beta,
        kind="cutoff",
        params={"base": f, "radius": n_ball},
    )
