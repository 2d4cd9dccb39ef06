"""Certified solves of the discretized mild equation ``x = F(x, u)``.

`picard_solve` iterates from the constant trajectory at xi0.  The
contraction certificate supplies the metric in which the Banach estimate
``d(fixed point, x_k) <= C^k / (1 - C) * d(x_1, x_0)`` is valid: the
omega-weighted norm for omega certificates, the renormed metric d' (one step
= N applications) for hidden ones.  Iteration stops as soon as that bound
falls below the requested tolerance, which therefore is an honest
a-posteriori error bound on the returned trajectory.

`solve_batch` serves reach-set sampling, where only the states matter.  It
computes every control's discrete fixed point x in one causal forward pass
(`BatchOperator.fixed_point`), returns it as it is and certifies it by
``d(x, fixed point) <= d(x, F^N x) / (1 - C)``, N = `cert.block`: in the
sup-norm on the hidden route (F^N contracts it) and in the omega-weighted
norm on the omega route (N = 1).  The factorial estimate bounds
d(x, F^N x) by ``d(x, F^j x) + T_{N-j} d(F^{j-1} x, F^j x)`` (T = 0 on the
omega route), and one stopping rule stops each control at the first stage
j = 0, 1, ..., N whose bound meets the tolerance:

* j = 0 takes no application: the pass's proved rounding bound rho >=
  sup|x - F x| gives ``(1 + T_{N-1}) rho / (1 - C)``.  It certifies every
  control of a diagonal semigroup whose fields declare their evaluation
  error, unless the tail T_{N-1} is huge;
* j >= 1 applies F j times (`_forward_bounds`), to the controls that j = 0
  leaves: a dense semigroup, a field with no declared error, a huge tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controls import Control, lp_norm
from .spaces import Semigroup, StateVector, VectorField, vector_norm
from .operator import BatchOperator, CertificateRadiusError, ContractionCertificate, TrajectoryGrid

_MAX_APPLICATIONS = 100_000
# The certificate's applications run on chunks of controls whose (chunk,
# n_t + 1, n) stack stays near this many bytes, keeping an application's
# temporaries in cache (1.2-1.4x faster than one stack for 50-500 heat
# controls, n = 16..64, 2-vCPU Xeon).
_CHUNK_BYTES = 1 << 18
_CAP_EXCEEDED = "Picard iteration exceeded the application cap"


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
    a_posteriori_bound: float  # in the certificate's metric (see `solve_batch` for its own)


def _stop_index(rate: float, gap1: float, tol: float) -> int:
    """Smallest k >= 1 with rate^k / (1 - rate) * gap1 <= tol."""
    if gap1 <= tol * (1.0 - rate) or rate == 0.0:
        return 1
    k = math.ceil(math.log(tol * (1.0 - rate) / gap1) / math.log(rate))
    return max(1, k)


def _check_controls(controls: Sequence[Control], fields: Sequence[VectorField],
                    cert: ContractionCertificate, tol: float,
                    fail: Callable[[int, Exception], Exception]) -> np.ndarray:
    """The controls' p-norms (`cert.control_norm`), after checking every
    control before any work; a failed check of control i raises
    ``fail(i, error)``."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    norms = np.empty(len(controls))
    grid = (controls[0].n_t, controls[0].horizon_T) if controls else None
    for i, u in enumerate(controls):
        if u.channels != len(fields) or (u.n_t, u.horizon_T) != grid:
            raise fail(i, ValueError("controls need one channel per field and one shared grid"))
        try:
            norms[i] = cert.control_norm(u)
        except CertificateRadiusError as error:
            raise fail(i, error) from None
    return norms


def picard_solve(xi0: StateVector, u: Control, fields: Sequence[VectorField],
                 sg: Semigroup, cert: ContractionCertificate,
                 tol: float = 1e-8) -> SolveResult:
    """Solve the mild equation for one control with certified accuracy.

    One contraction step is `cert.block` = N applications of F (N = 1 on the
    omega route).  The first step's gap, in the certificate's metric, needs
    the iterates up to x_{2N-1} and fixes the stop index k; the result is
    x_{kN}.  A zero control stops after one application, at the control-free
    orbit.  Raises `CertificateRadiusError` when u lies outside the
    certificate's ball (see `ContractionCertificate.control_norm`).
    """
    norm = _check_controls([u], fields, cert, tol, lambda i, error: error)[0]
    n, kind = cert.block, xi0.norm_kind
    window = 1 if norm == 0.0 else 2 * n - 1  # the applications that fix the stop index
    if window > _MAX_APPLICATIONS:
        raise RuntimeError(_CAP_EXCEEDED)
    apply_F = BatchOperator(xi0, fields, sg, u.horizon_T, u.n_t)
    gaps: list[float] = []

    def advance(x: np.ndarray) -> np.ndarray:
        nxt = apply_F(x, u.values[None])
        gap = float(vector_norm(nxt - x, kind).max())
        if not math.isfinite(gap):
            raise NonFiniteIterateError("trajectory states must be finite")
        gaps.append(gap)
        return nxt

    iterates = [np.broadcast_to(xi0.coords, (1,) + apply_F.orbit.states.shape)]
    for _ in range(window):
        iterates.append(advance(iterates[-1]))
    if norm == 0.0:
        total, bound = 1, 0.0
    else:
        gap1 = float(cert.distance(iterates[:n], iterates[n:], apply_F.times, kind)[0])
        k = _stop_index(cert.rate_C, gap1, tol)
        total, bound = k * n, cert.rate_C ** k / (1.0 - cert.rate_C) * gap1
        if total > _MAX_APPLICATIONS:
            raise RuntimeError(_CAP_EXCEEDED)
    x = iterates[min(total, window)]
    del iterates  # keep only the running iterate
    for _ in range(window, total):
        x = advance(x)
    return SolveResult(TrajectoryGrid(u.horizon_T, x[0], kind), gaps[:total], total, cert,
                       float(bound))


def _forward_bounds(apply_F: BatchOperator, states: np.ndarray, values: np.ndarray,
                    cert: ContractionCertificate, tails: np.ndarray, tol: float,
                    kind) -> tuple[np.ndarray, np.ndarray]:
    """Banach bounds on d(x, x*) for candidate trajectories x (B, n_t + 1, n),
    in `cert.distance`'s metric of one step (the sup-norm on the hidden
    route), and the applications of F each bound took: the stages j >= 1 of
    the stopping rule, for the controls its stage j = 0 leaves (`_solve_stack`).

    After j <= N = `cert.block` applications, d(x, F^N x) <= d(x, F^j x) +
    T_{N-j} d(F^{j-1} x, F^j x) with `tails` = `cert.residual_tails()`, and
    d(x, x*) <= d(x, F^N x) / (1 - C).  Each candidate stops at the first j
    whose bound is <= `tol`, else at j = N with d(x, F^N x) / (1 - C).  A
    zero residual adds nothing, even to an infinite tail.  A non-finite bound
    at j = N reads inf when x and F^N x are finite, NaN when they are not.
    """
    bounds, taken = np.empty(len(states)), np.empty(len(states), dtype=int)
    live, x, prev = np.arange(len(states)), states, states
    for j in range(1, cert.block + 1):
        image = apply_F(prev, values[live])
        bound = cert.distance([x], [image], apply_F.times, kind)
        tail = tails[cert.block - j]
        with np.errstate(over="ignore"):  # a bound past the floats is inf
            if tail > 0.0:
                step = bound if j == 1 else cert.distance([prev], [image], apply_F.times, kind)
                moved = step > 0.0
                bound[moved] += step[moved] * tail
            bound /= 1.0 - cert.rate_C
        if j == cert.block:
            done = np.ones(len(live), dtype=bool)
            blown = ~np.isfinite(bound)
            if blown.any():
                finite = (np.isfinite(x[blown]).all(axis=(1, 2))
                          & np.isfinite(image[blown]).all(axis=(1, 2)))
                bound[blown] = np.where(finite, np.inf, np.nan)
        else:
            done = bound <= tol
        bounds[live[done]], taken[live[done]] = bound[done], j
        if done.all():
            break
        live, x, prev = live[~done], x[~done], image[~done]
    return bounds, taken


def _control_failed(i: int, error: Exception) -> Exception:
    return RuntimeError(f"solve failed for control #{i}: {error}")


def _solve_stack(xi0: StateVector, controls: Sequence[Control],
                 fields: Sequence[VectorField], sg: Semigroup, cert: ContractionCertificate,
                 tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward-pass states (B, n_t + 1, n) of B >= 1 controls on one
    grid with one channel per field, each within its bound of its discrete
    fixed point, the bounds and the applications taken (see the module
    docstring): 0 for a control the pass's rounding bound certifies, else
    those of `_forward_bounds`, which runs on the other controls only.

    A non-finite iterate, or a bound that is not <= `tol`, raises
    RuntimeError with the control's index.  Ball membership is the caller's
    check.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    values = np.stack([u.values for u in controls])
    if cert.block > _MAX_APPLICATIONS:
        raise _control_failed(int(np.argmax(values.any(axis=(1, 2)))), RuntimeError(
            f"the certificate's block of {cert.block} applications exceeds the application cap"))
    apply_F = BatchOperator(xi0, fields, sg, controls[0].horizon_T, controls[0].n_t)
    states, residuals = apply_F.fixed_point(values)
    tails = cert.residual_tails()
    with np.errstate(over="ignore", invalid="ignore"):  # j = 0: past the floats reads inf
        bounds = (1.0 + tails[-1]) * residuals / (1.0 - cert.rate_C)
    taken = np.zeros(len(controls), dtype=int)
    left = np.flatnonzero(~(bounds <= tol))
    size = max(1, _CHUNK_BYTES // apply_F.orbit.states.nbytes)
    for first in range(0, len(left), size):
        chunk = left[first:first + size]
        bounds[chunk], taken[chunk] = _forward_bounds(apply_F, states[chunk], values[chunk],
                                                      cert, tails, tol, xi0.norm_kind)
    bad = np.isnan(bounds)
    if bad.any():
        raise _control_failed(int(np.argmax(bad)),
                              NonFiniteIterateError("trajectory states must be finite"))
    over = bounds > tol
    if over.any():
        b = int(np.argmax(over))
        raise _control_failed(b, RuntimeError(f"bound {bounds[b]:.3e} of the forward solution "
                                              f"exceeds tol {tol:.3e}"))
    return states, bounds, taken


def solve_batch(xi0: StateVector, controls: Sequence[Control],
                fields: Sequence[VectorField], sg: Semigroup,
                cert: ContractionCertificate, tol: float = 1e-8) -> list[SolveResult]:
    """Certified discrete fixed points of many controls on one grid.

    Each control's forward-pass candidate x is returned as it is, certified
    by the first stage of the stopping rule whose bound meets `tol` (see the
    module docstring): `iterations` counts the applications its bound took,
    0 for the pass's rounding bound, and `iterate_gaps` is empty.  The
    trajectories are row views of one (B, n_t + 1, n) array.  Results are in
    input order and agree with `picard_solve` up to rounding.  A failed
    check, or a bound that is not <= `tol`, raises RuntimeError with the
    control's index.
    """
    controls = list(controls)
    _check_controls(controls, fields, cert, tol, _control_failed)
    if not controls:
        return []
    states, bounds, taken = _solve_stack(xi0, controls, fields, sg, cert, tol)
    return [SolveResult(TrajectoryGrid(u.horizon_T, x, xi0.norm_kind), [], int(n), cert,
                        float(bound))
            for u, x, bound, n in zip(controls, states, bounds, taken)]


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
