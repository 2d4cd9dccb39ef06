"""Picard iteration with certified a-posteriori stopping.

The fixed point of ``x = F(x, u)`` is computed by iterating from the constant
trajectory at xi0.  The contraction certificate supplies the metric in which
the Banach estimate ``d(fixed point, x_k) <= C^k / (1 - C) * d(x_1, x_0)``
is valid: the omega-weighted norm for omega certificates, the renormed
metric d' (one step = N applications) for hidden ones.  Iteration stops as
soon as that bound falls below the requested tolerance, which therefore is
an honest a-posteriori error bound on the returned trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controls import Control, lp_norm
from .spaces import Semigroup, StateVector, VectorField, vector_norm
from .operator import BatchOperator, ContractionCertificate, TrajectoryGrid

_MAX_APPLICATIONS = 100_000
# Controls are iterated in chunks whose (chunk, n_t + 1, n) iterate stays near
# this many bytes, keeping an application's temporaries in cache (1.3-1.7x
# faster than 1 MB chunks for 50-500 heat controls, n = 16..64, 2-vCPU Xeon).
_CHUNK_BYTES = 1 << 18
_CAP_EXCEEDED = "Picard iteration exceeded the application cap"


class CertificateRadiusError(ValueError):
    """Control norm exceeds the radius the certificate was issued for."""


class NonFiniteIterateError(ValueError):
    """A Picard iterate left the finite floats: a numeric failure."""


@dataclass(frozen=True)
class SolveResult:
    """Fixed point plus the iteration diagnostics that certify it."""

    trajectory: TrajectoryGrid
    iterate_gaps: list  # sup-norm gap per operator application
    iterations: int  # operator applications up to the returned iterate
    certificate: ContractionCertificate
    a_posteriori_bound: float  # in the metric of `certificate.with_block(block)`
    block: int  # applications per contraction step of the stopping rule
    applications: int  # applications computed for this control, first window included


def _stop_index(rate: float, gap1: float, tol: float) -> int:
    """Smallest k >= 1 with rate^k / (1 - rate) * gap1 <= tol."""
    if gap1 <= tol * (1.0 - rate) or rate == 0.0:
        return 1
    k = math.ceil(math.log(tol * (1.0 - rate) / gap1) / math.log(rate))
    return max(1, k)


def _solve_chunk(apply_F: BatchOperator, xi0: StateVector, controls: Sequence[Control],
                 norms: np.ndarray, blocks: Sequence[ContractionCertificate], tol: float,
                 fail: Callable[[int, Exception], Exception]) -> list[SolveResult]:
    """Iterate a chunk of controls together; each stops at its own index.

    One contraction step of a certificate in `blocks` (ascending, the issued
    one first) is its `block` = N applications of F (N = 1 on the omega
    route).  The first step's gap, in that certificate's metric, needs the
    iterates up to x_{2N-1} and fixes the stop index k, hence the cost
    max(2N - 1, k N).  Each control stops with its cheapest block, the
    smaller on a tie; the shared window of iterates grows to the next block
    only while some control could still gain from it.  A zero control stops
    after one application, at the control-free orbit, and a chunk of zero
    controls computes only that one.
    """
    kind = xi0.norm_kind
    values = np.stack([u.values for u in controls])
    gaps: list[list[float]] = [[] for _ in controls]
    order = np.arange(len(controls))  # the control in each row of an iterate

    def advance(cur: np.ndarray) -> np.ndarray:
        nxt = apply_F(cur, values[order[: len(cur)]])
        step_gaps = vector_norm(nxt - cur, kind).max(axis=1)
        bad = ~np.isfinite(step_gaps)
        if bad.any():
            raise fail(order[np.argmax(bad)],
                       NonFiniteIterateError("trajectory states must be finite"))
        for b, g in zip(order, step_gaps.tolist()):
            gaps[b].append(g)
        return nxt

    window = [np.broadcast_to(xi0.coords, (len(controls),) + apply_F.orbit.states.shape)]
    window.append(advance(window[0]))
    moving = np.flatnonzero(norms > 0.0).tolist()
    costs = np.where(norms > 0.0, np.inf, 1.0).tolist()
    totals, bounds = [1] * len(controls), [0.0] * len(controls)
    used = [blocks[0].block] * len(controls)
    for cert in blocks:
        n = cert.block
        if max(costs) <= 2 * n - 1:
            break  # no control can gain from a block this long
        while len(window) < 2 * n:
            window.append(advance(window[-1]))
        gap1 = cert.distance(window[:n], window[n: 2 * n], apply_F.times, kind).tolist()
        for b in moving:
            k = _stop_index(cert.rate_C, gap1[b], tol)
            cost = max(2 * n - 1, k * n)
            if cost < costs[b]:
                costs[b], totals[b], used[b] = cost, k * n, n
                bounds[b] = cert.rate_C ** k / (1.0 - cert.rate_C) * gap1[b]
    for b in moving:
        if totals[b] > _MAX_APPLICATIONS:
            raise fail(b, RuntimeError(_CAP_EXCEEDED))

    span = len(window) - 1
    final = [window[t][b].copy() if t <= span else None for b, t in enumerate(totals)]
    totals = np.array(totals)
    # running rows stay a prefix: the most applications first
    order = np.argsort(-totals, kind="stable")[: np.count_nonzero(totals > span)]
    cur = window[-1][order]
    window = None  # keep only the running iterates
    for done in range(span + 1, totals.max() + 1):
        cur = advance(cur)
        running = np.count_nonzero(totals[order] > done)
        for row in range(running, len(cur)):
            final[order[row]] = cur[row].copy()
        cur, order = cur[:running], order[:running]
    return [SolveResult(TrajectoryGrid(apply_F.orbit.horizon_T, final[b], kind),
                        gaps[b][: totals[b]], int(totals[b]), blocks[0], float(bounds[b]),
                        used[b], max(span, int(totals[b])))
            for b in range(len(controls))]


def _solve(xi0: StateVector, controls: Sequence[Control], fields: Sequence[VectorField],
           sg: Semigroup, cert: ContractionCertificate, tol: float, optimal_block: bool,
           fail: Callable[[int, Exception], Exception]) -> list[SolveResult]:
    """Fixed points of controls on one grid; every control is checked before
    any work, and a failed check of control i raises ``fail(i, error)``."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not controls:
        return []
    norms = np.array([lp_norm(u, cert.p) for u in controls])
    grid = (controls[0].n_t, controls[0].horizon_T)
    for i, u in enumerate(controls):
        if u.channels != len(fields) or (u.n_t, u.horizon_T) != grid:
            raise fail(i, ValueError("controls need one channel per field and one shared grid"))
        if norms[i] > cert.radius_r * (1.0 + 1e-12):
            raise fail(i, CertificateRadiusError(
                f"|u|_p = {norms[i]:.6g} exceeds certificate radius {cert.radius_r:.6g}"))
    if 2 * cert.block - 1 > _MAX_APPLICATIONS and norms.any():
        raise fail(int(np.argmax(norms > 0.0)), RuntimeError(_CAP_EXCEEDED))
    blocks = [cert]
    if optimal_block:  # N' up to 2N while a first window of 2N' - 1 stays within the cap
        top = min(2 * cert.block, (_MAX_APPLICATIONS + 1) // 2)
        blocks += [c for c in map(cert.with_block, range(cert.block + 1, top + 1)) if c is not cert]

    apply_F = BatchOperator(xi0, fields, sg, grid[1], grid[0])
    size = max(1, _CHUNK_BYTES // apply_F.orbit.states.nbytes)
    results: list[SolveResult] = []
    for first in range(0, len(controls), size):
        chunk = slice(first, first + size)
        results += _solve_chunk(apply_F, xi0, controls[chunk], norms[chunk], blocks, tol,
                                lambda b, error: fail(first + b, error))
    return results


def picard_solve(xi0: StateVector, u: Control, fields: Sequence[VectorField],
                 sg: Semigroup, cert: ContractionCertificate,
                 tol: float = 1e-8, optimal_block: bool = False) -> SolveResult:
    """Solve the mild equation for one control with certified accuracy.

    The stopping rule takes steps of `cert.block` applications; with
    `optimal_block` it takes the block N' in [N, 2N] (`cert.with_block`)
    that reaches `tol` with the fewest applications, N the certified one.
    Raises `CertificateRadiusError` when |u|_p exceeds the certificate
    radius (the contraction rate would be unsupported).
    """
    return _solve(xi0, [u], fields, sg, cert, tol, optimal_block, lambda i, error: error)[0]


def solve_batch(xi0: StateVector, controls: Sequence[Control],
                fields: Sequence[VectorField], sg: Semigroup,
                cert: ContractionCertificate, tol: float = 1e-8,
                optimal_block: bool = False) -> list[SolveResult]:
    """`picard_solve` for every control, iterated together in one scan.

    Results are in input order and equal the single-control ones, apart from
    `applications`: a control batched with others computes the first window
    they share.  A failed check raises RuntimeError with the control's index.
    """
    return _solve(xi0, list(controls), fields, sg, cert, tol, optimal_block,
                  lambda i, error: RuntimeError(f"solve failed for control #{i}: {error}"))


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
