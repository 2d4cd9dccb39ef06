"""Certified solves of the discretized mild equation ``x = F(x, u)``.

`picard_solve` iterates from the constant trajectory at xi0.  The
contraction certificate supplies the metric in which the Banach estimate
``d(fixed point, x_k) <= C^k / (1 - C) * d(x_1, x_0)`` is valid: the
omega-weighted norm for omega certificates, the renormed metric d' (one step
= N applications) for hidden ones.  Iteration stops as soon as that bound
falls below the requested tolerance, which therefore is an honest
a-posteriori error bound on the returned trajectory.

`solve_batch` serves reach-set sampling, where only the states matter.  It
computes every control's discrete fixed point in one causal forward pass
(`BatchOperator.fixed_point`) and certifies it with one block of b =
`cert.block` applications: ``d(x, fixed point) <= d(x, F^b x) / (1 - C)``,
in the sup-norm on the hidden route (F^N contracts it) and in the
omega-weighted norm on the omega route.
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
    iterations: int  # applications of F: up to the returned iterate, or the certifying block
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
                    cert: ContractionCertificate, kind) -> tuple[np.ndarray, np.ndarray]:
    """Banach bounds d(x, x*) <= d(x, F^b x) / (1 - C), b = `cert.block`, for
    candidate trajectories x (B, n_t + 1, n) in `cert.distance`'s metric of
    one step (the sup-norm on the hidden route); and the images F^b x."""
    image = states
    for _ in range(cert.block):
        image = apply_F(image, values)
    return cert.distance([states], [image], apply_F.times, kind) / (1.0 - cert.rate_C), image


def solve_batch(xi0: StateVector, controls: Sequence[Control],
                fields: Sequence[VectorField], sg: Semigroup,
                cert: ContractionCertificate, tol: float = 1e-8) -> list[SolveResult]:
    """Certified discrete fixed points of many controls on one grid.

    Each control's forward-pass candidate x is certified by `_forward_bounds`
    (see the module docstring).  The returned trajectory is F^b x, at most C
    times as far from the fixed point, so the bound holds for it too;
    `iterations` is b and `iterate_gaps` is empty.  Results are in input
    order and agree with `picard_solve` up to rounding.  A failed check, or
    a bound that is not <= `tol`, raises RuntimeError with the control's
    index.
    """
    def fail(i: int, error: Exception) -> Exception:
        return RuntimeError(f"solve failed for control #{i}: {error}")

    controls = list(controls)
    norms = _check_controls(controls, fields, cert, tol, fail)
    if not controls:
        return []
    if cert.block > _MAX_APPLICATIONS:
        raise fail(int(np.argmax(norms > 0.0)), RuntimeError(
            f"the certificate's block of {cert.block} applications exceeds the application cap"))
    apply_F = BatchOperator(xi0, fields, sg, controls[0].horizon_T, controls[0].n_t)
    values = np.stack([u.values for u in controls])
    states = apply_F.fixed_point(values)
    bounds = np.empty(len(controls))
    size = max(1, _CHUNK_BYTES // apply_F.orbit.states.nbytes)
    for first in range(0, len(controls), size):
        chunk = slice(first, first + size)
        bounds[chunk], states[chunk] = _forward_bounds(apply_F, states[chunk], values[chunk],
                                                       cert, xi0.norm_kind)
    bad = ~np.isfinite(bounds)
    if bad.any():
        raise fail(int(np.argmax(bad)), NonFiniteIterateError("trajectory states must be finite"))
    over = bounds > tol
    if over.any():
        b = int(np.argmax(over))
        raise fail(b, RuntimeError(f"bound {bounds[b]:.3e} of the forward solution "
                                   f"exceeds tol {tol:.3e}"))
    return [SolveResult(TrajectoryGrid(u.horizon_T, x, xi0.norm_kind), [], cert.block, cert,
                        float(bound))
            for u, x, bound in zip(controls, states, bounds)]


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
