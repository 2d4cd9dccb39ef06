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
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .compactness import (
    PointCloud,
    _blocks,
    _covering_pass,
    _net_cells,
    covering_net,
    packing_number,
    state_cloud,
)
from .controls import Control, lp_norm, sample_ball, spike_control, stack_controls
from .operator import (
    BatchOperator,
    ContractionCertificate,
    certify,
    semigroup_act,
    semigroup_step,
)
from .solver import _solve_stack, gronwall_radius
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
    control ball of `cert`: B controls as one stack and their trajectories'
    states on its grid."""

    xi0: StateVector
    cert: ContractionCertificate
    controls: Control  # the (B, m, n_t) stack
    states: np.ndarray  # (B, n_t + 1, n), trajectory b at the grid times `times`
    # the applications of F that certified the solves, the controls the
    # forward pass's rounding bound certified alone and the largest bound
    solves: dict = field(default_factory=dict)

    def __post_init__(self):  # the ball, the grid and the start, each checked once on the stacks
        self.cert.control_norm(self.controls)
        if self.states.shape[:2] != (len(self.controls), self.controls.n_t + 1):
            raise ValueError("a sample needs one trajectory per control, on its grid")
        starts = self.states[:, 0]
        if starts.shape[1:] != self.xi0.coords.shape or np.any(starts != self.xi0.coords):
            raise ValueError("trajectory does not start at xi0")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.cert.horizon_T, self.controls.n_t + 1)


def _solve_record(bounds: np.ndarray, taken: np.ndarray) -> dict:
    """A sample's `solves`: the applications of F, the controls the forward
    pass's rounding bound certified alone and the largest bound."""
    return {"applications": int(taken.sum()),
            "rounding_certified": int(np.count_nonzero(taken == 0)),
            "bound_max": float(bounds.max())}


def sample_reachset(xi0: StateVector, count: int, seed: int, fields: Sequence[VectorField],
                    sg: Semigroup, cert: ContractionCertificate, n_t: int,
                    tol: float = 1e-8) -> ReachSetSample:
    """Draw `count` controls from the ball of `cert` (its p, radius and
    horizon), solve each, and collect all grid states.

    `sample_ball`'s stack is checked against the ball before the solve (by
    `_solve_stack`) and takes one forward pass, each trajectory certified
    within `tol` of its discrete fixed point (see `solve_batch`).  The sample
    holds that stack and the pass's (count, n_t + 1, n) states as they are,
    so each is held once.
    """
    controls = sample_ball(cert.p, cert.radius_r, cert.horizon_T, len(fields), n_t, count, seed)
    states, bounds, taken, _ = _solve_stack(xi0, controls, fields, sg, cert, tol)
    return ReachSetSample(xi0, cert, controls, states, _solve_record(bounds, taken))


# ---------------------------------------------------------------------------
# compactness diagnostic across truncation dimensions


@dataclass(frozen=True)
class DiagnosticReport:
    """Rows (n, p, eps, N_reach, N_ball, sample_size) plus the run config."""

    rows: list
    config: dict
    # per dimension: its certificate, Gronwall radius, the sample's `solves`
    # and the wall seconds of the sample and solve and of both coverings
    dimensions: dict = field(default_factory=dict)


def _covering_record(seconds: float, covered: tuple[list[int], int, float | None],
                     eps_ladder: Sequence[float], sample_size: int) -> dict:
    """Wall seconds of one cloud's farthest-point pass, the rungs whose
    covering is a single center (`degenerate`) or the whole sample (`censored`),
    the centers the pass picked (`picks`) and the first rung it read off the
    eps-graph (`graph_rung`, None when it read none; see `covering_sizes`)."""
    sizes, picks, graph_rung = covered
    return {"seconds": seconds,
            "degenerate": [eps for eps, size in zip(eps_ladder, sizes) if size == 1],
            "censored": [eps for eps, size in zip(eps_ladder, sizes) if size == sample_size],
            "picks": picks, "graph_rung": graph_rung}


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

    A pass stops early once the eps-graph settles the finer rungs: after it
    serves a rung eps_j, its centers are pairwise farther apart than eps_j,
    so each component of the graph joining points within a finer e holds at
    most one center; if every component is a clique, the pass would give
    each exactly one center (none is the farthest point once its clique is
    covered, and none can be left without), so its size at e is the number
    of components.  A sphere sample is nearly censored below its first rung
    and stops there; a reach sample's dense graph is declined at once.  Each
    cloud's record (`dimensions[n]["covering"]`) gives the centers the pass
    picked (`picks`) and the first rung read off the graph (`graph_rung`,
    None when none was).

    The sample is streamed: the subsample's row indices are drawn before
    the solve, and the `sample_ball` stack goes to `_solve_stack`, which
    checks it against the ball, with them, so the forward pass holds only those
    rows, unless its rounding bound leaves a control to the stages j >= 1,
    when the whole (count, n_t + 1, n) stack is solved and the rows are taken
    from it.  Either way the rows, and the sphere draw after them from the
    same generator, are those of subsampling `sample_reachset`'s states.
    The held rows at j = 0 are checked against xi0, and the dimension's
    `solves` adds the rows held (`held_rows`) and whether the whole stack
    was solved (`full_stack`).
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
        rng = np.random.default_rng(seed + 7919 * dim)
        size = count * (n_t + 1)
        keep = (np.sort(rng.choice(size, size=cloud_budget, replace=False))
                if size > cloud_budget else np.arange(size))
        start = time.perf_counter()
        controls = sample_ball(p, r, T, len(fields), n_t, count, seed)
        states, bounds, taken, whole = _solve_stack(xi0, controls, fields, sg, cert, tol, keep)
        solves = {**_solve_record(bounds, taken), "held_rows": len(states), "full_stack": whole}
        sampled = time.perf_counter()
        cloud = state_cloud(states, norm_kind)
        radius = gronwall_radius(xi0, K=r, p=p, T=T, M=sg.class_M, mu=sg.class_mu,
                                 alpha=max(f.growth_alpha for f in fields),
                                 beta=max(f.growth_beta for f in fields))
        dirs = rng.standard_normal((cloud.size, dim))  # the sphere sample, scaled in place
        dirs /= vector_norm(dirs, norm_kind)[:, None]
        dirs *= radius
        dirs += xi0.coords
        ball = state_cloud(dirs, norm_kind)
        covering = time.perf_counter()
        reach = _covering_pass(cloud, eps_ladder)
        reached = time.perf_counter()
        sphere = _covering_pass(ball, eps_ladder)
        covered = time.perf_counter()
        dimensions[dim] = {
            "certificate": cert.to_dict(), "gronwall_radius": radius, "solves": solves,
            "timings": {"sample_s": sampled - start, "cover_s": covered - covering},
            "covering": {
                "reach": _covering_record(reached - covering, reach, eps_ladder, cloud.size),
                "sphere": _covering_record(covered - reached, sphere, eps_ladder, cloud.size)}}
        for eps, n_reach, n_ball in zip(eps_ladder, reach[0], sphere[0]):
            rows.append({"n": dim, "p": p, "eps": eps, "n_reach": n_reach,
                         "n_ball": n_ball, "sample_size": cloud.size})
        del controls, states, cloud, dirs, ball  # freed before the next dimension samples
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
    applications: int  # of F that certified the spike solves (0 at stage 0)
    # wall seconds of the spike solves and of the packing and covering passes
    timings: dict = field(default_factory=dict)


# Largest deviation of a spike solution from its closed form min(n t, 1)
_CLOSED_FORM_SLACK = 1e-9
# Consecutive dyadic spike solutions are exactly 1/2 apart in sup-norm, while
# their values only fill [0, 1]: packing grows with the family, covering does not.
_SPIKE_SEPARATION = 0.5
_SPIKE_EVAL_EPS = 0.25


def counterexample_report(n_max: int, n_t: int) -> CounterexampleReport:
    """Solve the dyadic spike family of the scalar system x' = u, x(0) = 0,
    as one control stack (`_solve_stack`).

    Each solution is checked against the closed form min(n t, 1); the report
    contains the sup-norm packing of the trajectory family (grows with the
    dyadic index) and the covering size of the evaluation set (stays
    bounded).
    """
    ks = [2 ** k for k in range(int(math.log2(n_max)) + 1) if 2 ** k <= n_max]
    sg = diagonal_semigroup([0.0])
    f_const = constant_field([1.0])
    xi0 = StateVector([0.0], 2)
    cert = certify(1.0, 1.0, 1.0, 0.0, f_const.lipschitz_L, 1.0)

    start = time.perf_counter()
    controls = stack_controls([spike_control(n, n_t) for n in ks])
    states, _, taken, _ = _solve_stack(xi0, controls, [f_const], sg, cert, 1e-12)
    closed = np.minimum(np.outer(ks, np.linspace(0.0, 1.0, n_t + 1)), 1.0)
    errors = np.abs(states[:, :, 0] - closed).max(axis=1)
    if (errors > _CLOSED_FORM_SLACK).any():
        b = int(np.argmax(errors > _CLOSED_FORM_SLACK))
        raise VerificationError(f"spike n={ks[b]} deviates from closed form by {errors[b]:.3e}")

    solved = time.perf_counter()
    packing = packing_number(PointCloud(states, "sup_norm", xi0.norm_kind), _SPIKE_SEPARATION)
    covering = covering_net(state_cloud(states.reshape(-1, 1), xi0.norm_kind),
                            _SPIKE_EVAL_EPS).covering_size
    return CounterexampleReport(ks, float(errors.max()), _SPIKE_SEPARATION, packing,
                                _SPIKE_EVAL_EPS, covering, int(taken.sum()),
                                {"solve_s": solved - start,
                                 "cover_s": time.perf_counter() - solved})


# ---------------------------------------------------------------------------
# finite-image semigroup approximation (Gamma_eps)


@dataclass(frozen=True)
class GammaTable:
    """Piecewise-constant approximation of (t, xi) -> e^{At} xi on a cloud.

    Time cells are (0, T] split into N left-open intervals (the first one
    closed at 0); state cells are the disjointified delta-balls around the
    greedy net centers, with first-match membership.  values[i-1, j] equals
    e^{A (i T / N)} eta_j, so the image is finite with at most N * M points.
    radii[j] is the largest |xi - eta_j| over the cloud's points in cell j.
    `certified_bound` bounds |e^{At} xi - Gamma(t, xi)| over the cloud the
    table was built on and every t in [0, T] (see `_certified_bound`).
    """

    horizon_T: float
    epsilon: float
    delta: float
    n_time_cells: int
    centers: np.ndarray  # (M, n)
    values: np.ndarray  # (N, M, n)
    radii: np.ndarray  # (M,)
    norm_kind: float | int
    certified_bound: float
    builds: int = 1  # tables built, halving delta after each failed one

    @property
    def n_state_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def verification_points(self) -> int:
        """Cell pairs (i, j) whose bound enters `certified_bound` (the count
        `bench/spans.py` records as a Gamma table's points checked)."""
        return self.n_time_cells * self.n_state_cells

    def time_cell(self, t) -> np.ndarray:
        """1-based time cell index; Delta_1 = [0, T/N], then left-open cells."""
        t = np.asarray(t, dtype=float)
        idx = np.ceil(t * self.n_time_cells / self.horizon_T).astype(int)
        return np.clip(idx, 1, self.n_time_cells)

    def state_cell(self, xi: np.ndarray) -> np.ndarray:
        """1-based first-match cell index of the state(s), -1 when uncovered, by `_blocks`."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        idx = np.empty(xi.shape[0], dtype=int)
        for lo, d in _blocks(xi, "state_norm", self.norm_kind, self.centers):
            inside = d < self.delta
            idx[lo:lo + len(d)] = np.where(inside.any(axis=-1), inside.argmax(axis=-1) + 1, -1)
        return idx

    def to_dict(self) -> dict:
        return {
            "T": self.horizon_T, "epsilon": self.epsilon, "delta": self.delta,
            "n_time_cells": self.n_time_cells,
            "centers": self.centers.tolist(), "values": self.values.tolist(),
            "certified_bound": self.certified_bound,
        }

    def summary(self) -> dict:
        """What was built: cell counts, delta, builds and bound; a table with
        one state cell is `degenerate` (it maps the whole cloud to one orbit)."""
        return {"epsilon": self.epsilon, "n_time_cells": self.n_time_cells,
                "n_state_cells": self.n_state_cells, "delta": self.delta,
                "builds": self.builds, "certified_bound": self.certified_bound,
                "degenerate": self.n_state_cells == 1}


# Gamma tables: the (time, state) cells of one table.  A vanishing delta
# would ask for ~T / delta time cells, each an orbit of every center, and the
# convolution check holds n_t of these counts per control.
_MAX_TABLE_CELLS = 1 << 16


def gamma_approximation(sg: Semigroup, K: PointCloud, T: float, eps: float) -> GammaTable:
    """Build a finite-image table for e^{At} xi on the cloud K, error < eps:
    the one-eps case of `gamma_tables`."""
    return gamma_tables(sg, K, T, [eps])[0]


def gamma_tables(sg: Semigroup, K: PointCloud, T: float,
                 eps_ladder: Sequence[float]) -> list[GammaTable]:
    """Finite-image tables for e^{At} xi on the cloud K, one per eps of a
    strictly decreasing ladder, each with error < its eps.

    A table (time step T/N < delta, greedy delta-net of K) passes iff its
    certified bound (`_certified_bound`), over every point of K and t in
    [0, T], is below eps.  delta starts at eps / (M e^{mu T}): every cell
    radius r_j is below delta and mu >= 0, so there the bound's cell term
    M e^{mu t_i} r_j is below eps whatever the cloud.  delta is halved until a
    table passes.  That ends: each halving halves the cell term's bound, and
    the oscillation term goes to 0 with the time step h < delta (for a dense
    generator it is at most h M e^{mu T} |A eta_j|), so once the cell term is
    below eps / 2 a small enough h passes.  A table of more than
    `_MAX_TABLE_CELLS` cells, or a start that underflows to 0, raises
    VerificationError before any orbit is computed.  Each eps takes its own
    start, so the ladder builds what separate calls build.
    """
    eps_ladder = list(eps_ladder)
    if K.size == 0:
        raise ValueError("K must be nonempty")
    if K.metric_kind != "state_norm":
        raise ValueError("Gamma approximation expects a state cloud")
    if not eps_ladder or any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be nonempty and strictly decreasing")
    if eps_ladder[-1] <= 0:
        raise ValueError("eps must be > 0")

    tables = []
    for eps in eps_ladder:
        delta, builds = eps / sg.class_M * math.exp(-sg.class_mu * T), 1
        while (table := _build_gamma_table(sg, K, T, eps, delta, builds)).certified_bound >= eps:
            delta, builds = 0.5 * delta, builds + 1
        tables.append(table)
    return tables


def _build_gamma_table(sg: Semigroup, K: PointCloud, T: float, eps: float, delta: float,
                       builds: int = 1) -> GammaTable:
    """The table of time step T/N < delta on the greedy delta-net of K
    (`compactness._net_cells`) with its `_certified_bound`, the `builds`-th
    of its eps.  Its N time cells are checked against `_MAX_TABLE_CELLS`
    before the sweep, and its N * M cells after it, before any orbit is
    computed."""
    if not delta > 0 or T / delta >= _MAX_TABLE_CELLS:  # floor(T / delta) + 1 time cells
        raise VerificationError(
            f"Gamma_eps table for eps {eps:.3e} at delta {delta:.3e} needs more than "
            f"{_MAX_TABLE_CELLS} time cells")
    n_cells = max(1, int(np.ceil(T / delta)))
    if T / n_cells >= delta:
        n_cells += 1
    net, radii = _net_cells(K, delta)
    if n_cells * net.size > _MAX_TABLE_CELLS:
        raise VerificationError(
            f"Gamma_eps table for eps {eps:.3e} at delta {delta:.3e} needs {n_cells} x "
            f"{net.size} cells, more than {_MAX_TABLE_CELLS}")
    centers = K.points[net]
    times = np.arange(1, n_cells + 1) * T / n_cells
    if sg.is_diagonal:  # (N, 1, n): one elementwise step per cell time, over every center
        values = semigroup_act(semigroup_step(sg, times[:, None])[:, None], centers)
    else:  # one stacked expm for every cell time
        values = centers @ sg.matrix_exp(times).swapaxes(-1, -2)
    table = GammaTable(T, eps, delta, n_cells, centers, values, radii, K.norm_kind, np.inf, builds)
    return replace(table, certified_bound=_certified_bound(sg, table))


def _certified_bound(sg: Semigroup, table: GammaTable) -> float:
    """Upper bound on |e^{At} xi - Gamma(t, xi)| over xi in the table's
    cloud and t in [0, T].

    Take t in time cell i, (t_{i-1}, t_i], and xi in state cell j with
    center eta_j.  Then |e^{At} xi - e^{A t_i} eta_j| <= M e^{mu t_i} r_j +
    osc_ij, with (M, mu) the semigroup's class, r_j the largest
    |xi - eta_j| over the cloud's points in cell j (`table.radii`) and
    osc_ij the sup over the cell of |(e^{At} - e^{A t_i}) eta_j|.  Each mode
    of a diagonal generator is monotone in t, so that sup is
    |(e^{A t_{i-1}} - e^{A t_i}) eta_j| exactly; for a dense one
    e^{A t_i} - e^{At} = int_t^{t_i} e^{As} A ds gives
    osc_ij <= h M e^{mu t_i} |A eta_j|, h = T / N.
    """
    n_cells, h = table.n_time_cells, table.horizon_T / table.n_time_cells
    growth = sg.class_M * np.exp(sg.class_mu * h * np.arange(1, n_cells + 1))[:, None]
    if sg.is_diagonal:  # the table's own values at t_{i-1} (the centers at t_0 = 0) and t_i
        before = np.concatenate([table.centers[None], table.values[:-1]])
        osc = vector_norm(before - table.values, table.norm_kind)
    else:
        osc = h * growth * vector_norm(table.centers @ sg.generator.T, table.norm_kind)
    return float((growth * table.radii + osc).max())


def field_value_cloud(sample: ReachSetSample, fields: Sequence[VectorField]) -> PointCloud:
    """Cloud of field values f(t_j, x(t_j)) over the whole sample (one channel), in
    the state norm of xi0, from one field call on the sample's states reshaped to
    (B (n_t + 1), n): an identity field's cloud shares memory with those states."""
    if len(fields) != 1:
        raise ValueError("field-value cloud expects a single-channel system")
    times = np.tile(sample.times, len(sample.states))
    states = sample.states.reshape(-1, sample.states.shape[2])
    return state_cloud(fields[0](times, states), sample.xi0.norm_kind)


@dataclass(frozen=True)
class ConvolutionReport:
    """Reconstruction of convolution integrals through the finite Gamma table."""

    n_controls: int
    max_coefficient: float  # max |lambda_ij| observed
    max_l1_norm: float  # after normalization, <= 1
    max_reconstruction_error: float
    max_quadrature_norm: float  # largest |direct quadrature| over the grid times
    tolerance: float  # the reconstruction error's bound, met by every checked control
    per_control: list = field(default_factory=list)


# Rounding slack of the reconstruction tolerance, relative to the quadrature's
# size, next to the 1e-12 a coefficient may exceed its control mass by; neither
# allowance is derived from a rounding analysis yet
_QUADRATURE_ROUNDING = 1e-12


def convolution_compactness_check(sample: ReachSetSample, gamma: GammaTable,
                                  fields: Sequence[VectorField], sg: Semigroup,
                                  max_controls: int | None = None) -> ConvolutionReport:
    """Reconstruct integral terms as finite sums over the Gamma table.

    For each trajectory/control and each grid time, the quadratured integral
    ``sum_c h u_c e^{A(t-s_c)} f(s_c, x_c)`` is rewritten as
    ``sum_ij lambda_ij xi_ij`` with lambda_ij the control mass falling in the
    (time-lag, state)-cell (i, j).  Each |lambda_ij| is bounded by |u|_1
    (witnessing containment in the convex set spanned by the xi_ij).  Each
    quadrature term differs from its table term by at most h |u_c| times
    `gamma.certified_bound`, so the reconstruction error is at most |u|_1
    times that bound, up to rounding on the quadrature's scale: the report's
    `tolerance` is max_b |u_b|_1 `gamma.certified_bound` +
    `_QUADRATURE_ROUNDING` max |quadrature|.  The check owns its verdict: a
    coefficient above its control mass (+ 1e-12), or a largest reconstruction
    error that is not <= `tolerance`, raises VerificationError, so a returned
    report passed.  Controls are rescaled to |u|_1 <= 1 first.  At most
    `max_controls` controls are checked; fewer than one would pass vacuously
    and raises.  F is applied once to the checked slices of the sample's two
    stacks, whose field values are located in the table in one call.
    """
    if len(fields) != 1:
        raise ValueError("reconstruction check expects a single-channel system")
    if max_controls is not None and max_controls < 1:
        raise ValueError(f"max_controls must be >= 1, got {max_controls}")
    f = fields[0]
    u = sample.controls[:max_controls]
    if u.channels != 1:
        raise ValueError("each control needs one channel")
    x, times, kind = sample.states[:max_controls], sample.times, sample.xi0.norm_kind
    batch, n_t, h = len(x), u.n_t, u.cell_width
    u1 = lp_norm(u, 1)
    values = u.values * (1.0 / np.maximum(u1, 1.0))[:, None, None]  # |u|_1 <= 1
    u1 = np.minimum(u1, 1.0)
    zero = StateVector(np.zeros(sample.xi0.dim), sample.xi0.norm_kind)  # checks the dimension
    direct = BatchOperator(zero, [f], sg, sample.cert.horizon_T, n_t)(x, values)

    phi = f(np.tile(times[:-1], batch), x[:, :-1].reshape(-1, x.shape[2]))  # per cell
    j_cell = gamma.state_cell(phi).reshape(batch, n_t) - 1
    if np.any(j_cell < 0):
        raise ValueError("Gamma table does not cover the sampled field values")
    # every (grid time l, cell c < l) pair, l-major and c ascending, so each
    # of a control's one bincount's (l, i, j) bins sums its cells in order
    row, c = np.tril_indices(n_t)  # row = l - 1
    n_state, n_cells = gamma.n_state_cells, gamma.n_time_cells * gamma.n_state_cells
    lag = (row * gamma.n_time_cells + gamma.time_cell(times[1:])[row - c] - 1) * n_state
    per_control = []
    for b in range(batch):
        lam = np.bincount(lag + j_cell[b, c], weights=(h * values[b, 0])[c],
                          minlength=n_t * n_cells).reshape(n_t, n_cells)
        coeff = float(np.abs(lam).max())
        if coeff > u1[b] + 1e-12:
            raise VerificationError(
                f"coefficient {coeff:.3e} exceeds the control mass {u1[b]:.3e}")
        error = vector_norm(direct[b, 1:] - lam @ gamma.values.reshape(n_cells, -1),
                            kind).max()
        per_control.append({"coeff": coeff, "error": float(error)})
    quadrature = float(vector_norm(direct[:, 1:], kind).max())
    mass, error = float(u1.max()), max(entry["error"] for entry in per_control)
    tolerance = mass * gamma.certified_bound + _QUADRATURE_ROUNDING * quadrature
    if not error <= tolerance:
        raise VerificationError(
            f"convolution reconstruction error {error:.3e} exceeds {tolerance:.3e}")
    return ConvolutionReport(batch, max(entry["coeff"] for entry in per_control), mass, error,
                             quadrature, tolerance, per_control)
