"""Reachable-set sampling and compactness diagnostics.

The reachable set up to time T under a control ball |u|_p <= r is
approximated by solving a seeded Monte-Carlo sample of ball controls and
sweeping every grid time of every solved trajectory.  Three desk-scale
experiments are built on top:

* covering-number diagnostics across truncation dimensions (the compactness
  signature: reach-set coverings saturate as the dimension doubles while
  coverings of an ambient sphere sample keep growing);
* the spike counter-example, whose dyadic trajectory family has unbounded
  sup-norm packing even though its evaluation set stays one-dimensional;
* the finite-image approximation Gamma_eps of (t, xi) -> e^{At} xi on a
  compact cloud, with the convolution reconstruction check that witnesses
  containment of integral terms in a compact convex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .compactness import (
    PointCloud,
    covering_net,
    covering_sizes,
    evaluation_set,
    greedy_net,
    packing_number,
    state_cloud,
    trajectory_cloud,
)
from .controls import lp_norm, sample_ball, spike_control
from .operator import (
    ContractionCertificate,
    certify,
    integral_operator,
    semigroup_act,
    semigroup_step,
)
from .solver import gronwall_radius, picard_solve, solve_batch
from .spaces import (
    NormKind,
    Semigroup,
    StateVector,
    VectorField,
    constant_field,
    diagonal_semigroup,
    vector_norm,
)


class VerificationError(RuntimeError):
    """A brute-force verification pass failed."""


@dataclass(frozen=True)
class ReachSetSample:
    """Monte-Carlo approximation of the reachable set up to time T under the
    control ball of `cert`."""

    xi0: StateVector
    cert: ContractionCertificate
    controls: list
    trajectories: list
    endpoints: PointCloud  # evaluation set of the trajectories
    solves: dict = field(default_factory=dict)  # the applications of F that certified the solves

    def __post_init__(self):
        for u in self.controls:
            self.cert.control_norm(u)
        for tr in self.trajectories:
            if not np.array_equal(tr.states[0], self.xi0.coords):
                raise ValueError("trajectory does not start at xi0")


def sample_reachset(xi0: StateVector, count: int, seed: int, fields: Sequence[VectorField],
                    sg: Semigroup, cert: ContractionCertificate, n_t: int,
                    tol: float = 1e-8) -> ReachSetSample:
    """Draw `count` controls from the ball of `cert` (its p, radius and
    horizon), solve each, and collect all grid states.

    The controls take one `solve_batch`: a causal forward pass certified by
    one block of applications, each trajectory within `tol` of its discrete
    fixed point.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    controls = sample_ball(cert.p, cert.radius_r, cert.horizon_T, len(fields), n_t, count, seed)
    results = solve_batch(xi0, controls, fields, sg, cert, tol=tol)
    trajectories = [res.trajectory for res in results]
    return ReachSetSample(xi0, cert, controls, trajectories, evaluation_set(trajectories),
                          {"applications": sum(res.iterations for res in results)})


# ---------------------------------------------------------------------------
# compactness diagnostic across truncation dimensions


@dataclass(frozen=True)
class DiagnosticReport:
    """Rows (n, p, eps, N_reach, N_ball, sample_size) plus the run config."""

    rows: list
    config: dict
    # per dimension: its certificate, Gronwall radius and the sample's `solves`
    dimensions: dict = field(default_factory=dict)


def compactness_diagnostic(
        systems: Sequence[tuple[Semigroup, Sequence[VectorField], ContractionCertificate]],
        eps_ladder: Sequence[float], count: int, seed: int, n_t: int = 128,
        xi0_scale: float = 0.02, norm_kind: NormKind = 2, cloud_budget: int = 4000,
        tol: float = 1e-4) -> DiagnosticReport:
    """Covering numbers of reach-set samples vs ambient-sphere samples.

    `systems` holds one (semigroup, fields, certificate) per truncation
    dimension, increasing (the CLI's `build_system`).  Each is sampled with
    `count` controls of its certificate's ball (p, r, T) from the constant
    state xi0 of `norm_kind`-norm `xi0_scale`; the endpoint cloud (capped at
    `cloud_budget` by seeded subsampling) is covered at every ladder radius
    by one farthest-point pass (`covering_sizes`), next to a same-size
    sample of the sphere around xi0 whose radius is the Gronwall bound from
    the semigroup's class and the fields' largest growth constants.
    """
    dims = [sg.dim for sg, _, _ in systems]
    eps_ladder = list(eps_ladder)
    if not dims or any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
        raise ValueError("dims must be nonempty and strictly increasing")
    if not eps_ladder or any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be nonempty and strictly decreasing")

    rows, dimensions = [], {}
    for sg, fields, cert in systems:
        dim, p, r, T = sg.dim, cert.p, cert.radius_r, cert.horizon_T
        xi0 = StateVector(np.full(dim, xi0_scale / vector_norm(np.ones(dim), norm_kind)),
                          norm_kind)
        sample = sample_reachset(xi0, count, seed, fields, sg, cert, n_t, tol=tol)
        cloud = sample.endpoints
        rng = np.random.default_rng(seed + 7919 * dim)
        if cloud.size > cloud_budget:
            keep = np.sort(rng.choice(cloud.size, size=cloud_budget, replace=False))
            cloud = state_cloud(cloud.points[keep], cloud.norm_kind)
        radius = gronwall_radius(xi0, K=r, p=p, T=T, M=sg.class_M, mu=sg.class_mu,
                                 alpha=max(f.growth_alpha for f in fields),
                                 beta=max(f.growth_beta for f in fields))
        dimensions[dim] = {"certificate": cert.to_dict(), "gronwall_radius": radius,
                           "solves": sample.solves}
        dirs = rng.standard_normal((cloud.size, dim))  # the sphere sample
        dirs /= vector_norm(dirs, norm_kind)[:, None]
        ball = state_cloud(xi0.coords + radius * dirs, norm_kind)
        for eps, n_reach, n_ball in zip(eps_ladder, covering_sizes(cloud, eps_ladder),
                                        covering_sizes(ball, eps_ladder)):
            rows.append({"n": dim, "p": p, "eps": eps, "n_reach": n_reach,
                         "n_ball": n_ball, "sample_size": cloud.size})
    cfg = {"dims": dims, "eps_ladder": eps_ladder, "p": p, "r": r, "T": T,
           "count": count, "seed": seed, "n_t": n_t, "xi0_scale": xi0_scale,
           "cloud_budget": cloud_budget, "gronwall_radius": radius}
    return DiagnosticReport(rows, cfg, dimensions)


# ---------------------------------------------------------------------------
# spike counter-example


@dataclass(frozen=True)
class CounterexampleReport:
    spike_indices: list
    max_closed_form_error: float
    packing_separation: float
    packing_size: int
    eval_epsilon: float
    eval_covering_size: int


# Largest deviation of a spike solution from its closed form min(n t, 1)
_CLOSED_FORM_SLACK = 1e-9
# Consecutive dyadic spike solutions are exactly 1/2 apart in sup-norm, while
# their values only fill [0, 1]: packing grows with the family, covering does not.
_SPIKE_SEPARATION = 0.5
_SPIKE_EVAL_EPS = 0.25


def counterexample_report(n_max: int, n_t: int) -> CounterexampleReport:
    """Solve the dyadic spike family of the scalar system x' = u, x(0) = 0.

    Each solution is checked against the closed form min(n t, 1); the report
    contains the sup-norm packing of the trajectory family (grows with the
    dyadic index) and the covering size of the evaluation set (stays
    bounded).
    """
    ks = [2 ** k for k in range(int(math.log2(n_max)) + 1) if 2 ** k <= n_max]
    for n in ks:
        if n_t % n != 0:
            raise ValueError(f"n_t={n_t} must be divisible by every spike index (n={n})")

    sg = diagonal_semigroup([0.0])
    f_const = constant_field([1.0])
    xi0 = StateVector([0.0], 2)
    cert = certify(1.0, 1.0, 1.0, 0.0, f_const.lipschitz_L, 1.0)

    trajectories = []
    worst = 0.0
    for n in ks:
        u = spike_control(n, n_t)
        res = picard_solve(xi0, u, [f_const], sg, cert, tol=1e-12)
        t = res.trajectory.times
        closed = np.minimum(n * t, 1.0)
        err = float(np.abs(res.trajectory.states[:, 0] - closed).max())
        worst = max(worst, err)
        if err > _CLOSED_FORM_SLACK:
            raise VerificationError(
                f"spike n={n} deviates from closed form by {err:.3e}")
        trajectories.append(res.trajectory)

    packing = packing_number(trajectory_cloud(trajectories), _SPIKE_SEPARATION)
    covering = covering_net(evaluation_set(trajectories), _SPIKE_EVAL_EPS).covering_size
    return CounterexampleReport(ks, worst, _SPIKE_SEPARATION, packing, _SPIKE_EVAL_EPS, covering)


# ---------------------------------------------------------------------------
# finite-image semigroup approximation (Gamma_eps)


@dataclass(frozen=True)
class GammaTable:
    """Piecewise-constant approximation of (t, xi) -> e^{At} xi on a cloud.

    Time cells are (0, T] split into N left-open intervals (the first one
    closed at 0); state cells are the disjointified delta-balls around the
    greedy net centers, with first-match membership.  values[i-1, j] equals
    e^{A (i T / N)} eta_j, so the image is finite with at most N * M points.
    """

    horizon_T: float
    epsilon: float
    delta: float
    n_time_cells: int
    centers: np.ndarray  # (M, n)
    values: np.ndarray  # (N, M, n)
    norm_kind: float | int
    verified_max_error: float
    verification_points: int

    @property
    def n_state_cells(self) -> int:
        return self.centers.shape[0]

    def time_cell(self, t) -> np.ndarray:
        """1-based time cell index; Delta_1 = [0, T/N], then left-open cells."""
        t = np.asarray(t, dtype=float)
        idx = np.ceil(t * self.n_time_cells / self.horizon_T).astype(int)
        return np.clip(idx, 1, self.n_time_cells)

    def state_cell(self, xi: np.ndarray) -> np.ndarray:
        """1-based first-match cell index of the state(s); -1 when uncovered."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        idx = np.full(xi.shape[0], -1)
        rows = np.arange(xi.shape[0])  # the states not assigned yet
        for cell, c in enumerate(self.centers, start=1):
            inside = vector_norm(xi[rows] - c, self.norm_kind) < self.delta
            idx[rows[inside]] = cell
            rows = rows[~inside]
            if not rows.size:
                break
        return idx

    def to_dict(self) -> dict:
        return {
            "T": self.horizon_T, "epsilon": self.epsilon, "delta": self.delta,
            "n_time_cells": self.n_time_cells,
            "centers": self.centers.tolist(), "values": self.values.tolist(),
            "verified_max_error": self.verified_max_error,
            "verification_points": self.verification_points,
        }


def _sampled_oscillation(sg: Semigroup, cloud: PointCloud, T: float,
                         delta: float, rng: np.random.Generator,
                         sample_count: int) -> float:
    """Sampled modulus of continuity of e^{At} xi over [0,T] x hull(cloud)."""
    pts = cloud.points
    pick = rng.integers(0, pts.shape[0], size=(sample_count, 2))
    mix = rng.uniform(size=(sample_count, 1))
    base = mix * pts[pick[:, 0]] + (1.0 - mix) * pts[pick[:, 1]]
    shift = rng.standard_normal(base.shape)
    norms = vector_norm(shift, cloud.norm_kind)
    norms[norms == 0] = 1.0
    other = base + shift / norms[:, None] * (delta * rng.uniform(size=(sample_count, 1)))
    ts = rng.uniform(0.0, T, size=sample_count)
    dts = np.clip(ts + rng.uniform(-delta, delta, size=sample_count), 0.0, T)
    if sg.is_diagonal:  # every sample at once, from (sample, mode) tables of e^{lambda t}
        diff = np.exp(np.outer(dts, sg.eigenvalues)) * other \
            - np.exp(np.outer(ts, sg.eigenvalues)) * base
        # fmax skips NaN samples, as the loop's max does
        return float(np.fmax.reduce(vector_norm(diff, cloud.norm_kind), initial=0.0))
    worst = 0.0
    for t, td, a, b in zip(ts, dts, base, other):
        diff = semigroup_act(semigroup_step(sg, td), b) - semigroup_act(semigroup_step(sg, t), a)
        worst = max(worst, float(vector_norm(diff, cloud.norm_kind)))
    return worst


# Gamma tables: oscillation samples per delta, table rebuilds, verify times per cell
_OSCILLATION_SAMPLES = 512
_MAX_RETRIES = 8
_TIME_OVERSAMPLE = 4


def gamma_approximation(sg: Semigroup, K: PointCloud, T: float, eps: float,
                        seed: int = 0,
                        extra_verify_times: np.ndarray | None = None) -> GammaTable:
    """Build a finite-image table for e^{At} xi on the cloud K, error < eps.

    delta is estimated by halving against a sampled modulus of continuity,
    then the table (time step T/N < delta, greedy delta-net of K) is checked
    on a dense verification grid; on failure delta is halved and the table
    rebuilt, a bounded number of times.
    """
    if K.size == 0:
        raise ValueError("K must be nonempty")
    if K.metric_kind != "state_norm":
        raise ValueError("Gamma approximation expects a state cloud")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    rng = np.random.default_rng(seed)

    centroid = K.points.mean(axis=0)
    spread = float(K.distances_to(centroid).max())
    delta = max(T, 2.0 * spread, eps)
    for _ in range(200):
        if _sampled_oscillation(sg, K, T, delta, rng, _OSCILLATION_SAMPLES) < eps:
            break
        delta *= 0.5

    verify_times = np.linspace(0.0, T, _TIME_OVERSAMPLE * max(1, int(np.ceil(T / delta))) + 1)
    if extra_verify_times is not None:
        verify_times = np.union1d(verify_times, np.asarray(extra_verify_times, dtype=float))

    last_err = np.inf
    for _ in range(_MAX_RETRIES):
        table = _build_gamma_table(sg, K, T, eps, delta)
        last_err, n_checked = _verify_gamma(sg, K, table, verify_times)
        if last_err < eps:
            return replace(table, verified_max_error=last_err, verification_points=n_checked)
        delta *= 0.5
    raise VerificationError(
        f"Gamma_eps verification failed after {_MAX_RETRIES} retries "
        f"(last max error {last_err:.3e} vs eps {eps:.3e})")


def _build_gamma_table(sg: Semigroup, K: PointCloud, T: float, eps: float,
                       delta: float) -> GammaTable:
    n_cells = max(1, int(np.ceil(T / delta)))
    if T / n_cells >= delta:
        n_cells += 1
    net = greedy_net(K, delta)
    centers = K.points[np.array(net.net_indices)]
    values = np.stack([semigroup_act(semigroup_step(sg, i * T / n_cells), centers)
                       for i in range(1, n_cells + 1)])
    return GammaTable(T, eps, delta, n_cells, centers, values, K.norm_kind,
                      np.inf, 0)


# Cloud points verified together: a block's buffers stay in cache while it
# goes over every verify time.
_VERIFY_BLOCK = 2048


def _verify_gamma(sg: Semigroup, K: PointCloud, table: GammaTable,
                  times: np.ndarray) -> tuple[float, int]:
    j = table.state_cell(K.points)
    if np.any(j < 0):
        raise VerificationError("net construction left cloud points uncovered")
    steps = [semigroup_step(sg, float(t)) for t in times]
    cells = table.time_cell(times).tolist()
    # Balanced blocks have two rows or more (unless K has one point): a
    # one-row product would take BLAS's matrix-vector path, rounded differently.
    n_blocks = -(-K.size // _VERIFY_BLOCK)
    worst = 0.0  # the max of squared norms for the 2-norm, rooted once at the end
    for points, block_j in zip(np.array_split(K.points, n_blocks),
                               np.array_split(j - 1, n_blocks)):
        diff, gathered = np.empty_like(points), 0
        # sorted times visit each time cell in one run: one gather per cell
        for step, cell in zip(steps, cells):
            if cell != gathered:
                approx, gathered = table.values[cell - 1, block_j], cell
            semigroup_act(step, points, diff)
            diff -= approx
            if K.norm_kind == 2:
                err = np.square(diff, out=diff).sum(axis=-1)
            else:
                err = vector_norm(diff, K.norm_kind)
            worst = max(worst, float(err.max()))
    return math.sqrt(worst) if K.norm_kind == 2 else worst, len(times) * K.size


def field_value_cloud(sample: ReachSetSample, fields: Sequence[VectorField]) -> PointCloud:
    """Cloud of field values f(t_j, x(t_j)) over the whole sample (one channel)."""
    if len(fields) != 1:
        raise ValueError("field-value cloud expects a single-channel system")
    f = fields[0]
    chunks = [f(tr.times, tr.states) for tr in sample.trajectories]
    return state_cloud(np.concatenate(chunks, axis=0), sample.endpoints.norm_kind)


@dataclass(frozen=True)
class ConvolutionReport:
    """Reconstruction of convolution integrals through the finite Gamma table."""

    n_controls: int
    max_coefficient: float  # max |lambda_ij| observed
    max_l1_norm: float  # after normalization, <= 1
    max_reconstruction_error: float
    per_control: list = field(default_factory=list)


def convolution_compactness_check(sample: ReachSetSample, gamma: GammaTable,
                                  fields: Sequence[VectorField], sg: Semigroup,
                                  max_controls: int | None = None) -> ConvolutionReport:
    """Reconstruct integral terms as finite sums over the Gamma table.

    For each trajectory/control and each grid time, the quadratured integral
    ``sum_c h u_c e^{A(t-s_c)} f(s_c, x_c)`` is rewritten as
    ``sum_ij lambda_ij xi_ij`` with lambda_ij the control mass falling in the
    (time-lag, state)-cell (i, j).  Each |lambda_ij| is bounded by |u|_1
    (witnessing containment in the convex set spanned by the xi_ij) and the
    reconstruction must match the direct quadrature within eps plus slack.
    Controls are rescaled to |u|_1 <= 1 first.  At most `max_controls`
    controls are checked; fewer than one would pass vacuously and raises.
    """
    if len(fields) != 1:
        raise ValueError("reconstruction check expects a single-channel system")
    if max_controls is not None and max_controls < 1:
        raise ValueError(f"max_controls must be >= 1, got {max_controls}")
    f = fields[0]
    zero = StateVector(np.zeros(sample.xi0.dim), sample.xi0.norm_kind)

    pairs = list(zip(sample.trajectories, sample.controls))
    if max_controls is not None:
        pairs = pairs[:max_controls]

    n_state = gamma.n_state_cells
    n_cells = gamma.n_time_cells * n_state
    max_coeff = 0.0
    max_l1 = 0.0
    max_err = 0.0
    per_control = []
    for x, u in pairs:
        u1 = lp_norm(u, 1)
        if u1 > 1.0:
            u = u.scaled(1.0 / u1)
        u1 = min(u1, 1.0)
        max_l1 = max(max_l1, u1)
        h = u.cell_width
        n_t = u.n_t
        times = x.times

        phi = f(times[:-1], x.states[:-1])  # field values per cell
        j_cell = gamma.state_cell(phi)
        if np.any(j_cell < 0):
            raise ValueError("Gamma table does not cover the sampled field values")
        lag_cell = gamma.time_cell(times[1:])  # cell of lag d*h, d = 1..n_t

        direct = integral_operator(x, u, zero, [f], sg).states
        # every (grid time l, cell c < l) pair, l-major and c ascending, so
        # each of the one bincount's (l, i, j) bins sums its cells in order
        row, c = np.tril_indices(n_t)  # row = l - 1
        flat = (row * gamma.n_time_cells + lag_cell[row - c] - 1) * n_state + j_cell[c] - 1
        lam = np.bincount(flat, weights=(h * u.values[0])[c],
                          minlength=n_t * n_cells).reshape(n_t, n_cells)
        ctrl_coeff = float(np.abs(lam).max())
        recon = lam @ gamma.values.reshape(n_cells, -1)
        ctrl_err = float(vector_norm(direct[1:] - recon, x.norm_kind).max())
        if ctrl_coeff > u1 + 1e-12:
            raise VerificationError(
                f"coefficient {ctrl_coeff:.3e} exceeds the control mass {u1:.3e}")
        max_coeff = max(max_coeff, ctrl_coeff)
        max_err = max(max_err, ctrl_err)
        per_control.append({"coeff": ctrl_coeff, "error": ctrl_err})
    return ConvolutionReport(len(pairs), max_coeff, max_l1, max_err, per_control)
