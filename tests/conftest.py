import dataclasses
import math

import numpy as np
import pytest

from mildsolve import Control, StateVector, TrajectoryGrid, VerificationError
from mildsolve.cli import build_system
from mildsolve.compactness import _distances, greedy_net
from mildsolve.controls import lp_norm
from mildsolve.config import RunConfig
from mildsolve.operator import semigroup_act, semigroup_step
from mildsolve.reachset import GammaTable, _certified_bound
from mildsolve.spaces import vector_norm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_trajectory(rng, n_t, dim, scale=1.0, T=1.0, norm_kind=2):
    states = scale * rng.standard_normal((n_t + 1, dim))
    return TrajectoryGrid(T, states, norm_kind)


def constant_control(value, n_t, T=1.0, channels=1):
    return Control(T, np.full((channels, n_t), float(value)))


def diagnostic_system(dim, xi0_scale=0.02, p=1.0):
    """The diagnostic's heat system in dimension `dim` (eigenvalues -k^2,
    identity bilinear field), built by `build_system` as `reachset` builds it:
    (semigroup, fields, certificate for the ball |u|_p <= 1 on [0, 1]), and
    the constant initial state of 2-norm `xi0_scale`."""
    cfg = RunConfig.from_dict({
        "system": {"semigroup": {"kind": "heat", "dim": dim},
                   "fields": [{"kind": "bilinear", "identity": True}]},
        "control": {"p": p}})
    sg, fields, cert = build_system(cfg, dim)
    return sg, fields, cert, StateVector(np.full(dim, xi0_scale / math.sqrt(dim)))


def scalar_state(value, norm_kind=2):
    return StateVector([float(value)], norm_kind)


# Cloud points verified together: a block's buffers stay in cache while it
# goes over every verify time.
_VERIFY_BLOCK = 2048


def verify_gamma(sg, K, table, times):
    """Brute-force oracle of a Gamma table: (max |e^{At} xi - Gamma(t, xi)|
    over every point xi of the cloud K and every verify time t, number of
    point-time pairs).  The certified bound must cover it."""
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


def farthest_point_oracle(cloud, ladder):
    """Exact oracle of `compactness._farthest_point`: the same farthest-point
    pass with every sweep a row of the exact kernel (`compactness._distances`),
    skipping the points already within the finest eps of the net."""
    kinds = (cloud.metric_kind, cloud.norm_kind)
    scratch = np.empty((2,) + cloud.points.shape)
    live, points = np.arange(cloud.size), cloud.points
    min_dist = _distances(points, *kinds, points[0], scratch)
    net, sizes = [0], []
    for eps in ladder:
        while live.size:
            far = int(np.argmax(min_dist))
            if min_dist[far] <= eps:
                break
            net.append(int(live[far]))
            np.minimum(min_dist, _distances(points, *kinds, points[far], scratch), out=min_dist)
            dead = min_dist <= ladder[-1]
            if 8 * np.count_nonzero(dead) >= live.size:
                live, min_dist, points = live[~dead], min_dist[~dead], points[~dead]
                scratch = scratch[:, :live.size]
        sizes.append(len(net))
    return net, sizes


def sample_ball_oracle(p, r, T, m, n_t, count, seed):
    """Per-draw oracle of `controls.sample_ball`: each (m, n_t) normal draw
    becomes its own control, normed by its own `lp_norm` call and scaled to
    its target before the next draw."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        shape = rng.standard_normal((m, n_t))
        u = Control(T, shape)
        nrm = lp_norm(u, p)
        while nrm == 0.0:
            shape = rng.standard_normal((m, n_t))
            u = Control(T, shape)
            nrm = lp_norm(u, p)
        target = r * rng.uniform() ** (1.0 / (m * n_t))
        out.append(u.scaled(target / nrm))
    return out


def gamma_cells_oracle(table, K):
    """First-match cells (`GammaTable.state_cell`) of every point of the cloud
    K in a table built on it, and each cell's radius by a brute-force pass:
    the largest |xi - eta_j| over the points xi in cell j."""
    cells = table.state_cell(K.points)
    if np.any(cells < 1):
        raise VerificationError("net construction left cloud points uncovered")
    radii = np.zeros(table.n_state_cells)
    np.maximum.at(radii, cells - 1,
                  vector_norm(K.points - table.centers[cells - 1], K.norm_kind))
    return cells, radii


def state_cell_oracle(table, xi):
    """Per-center reference of `GammaTable.state_cell`: each center in turn
    takes the states not assigned yet that lie strictly within delta of it on
    the exact kernel (`compactness._distances`); -1 where no center does."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    idx = np.full(xi.shape[0], -1)
    rows = np.arange(xi.shape[0])  # the states not assigned yet
    for cell, c in enumerate(table.centers, start=1):
        inside = _distances(xi[rows], "state_norm", table.norm_kind, c) < table.delta
        idx[rows[inside]] = cell
        rows = rows[~inside]
        if not rows.size:
            break
    return idx


def greedy_cells_oracle(cloud, delta):
    """Brute-force oracle of `compactness._net_cells`: a point joins the net
    iff its distance (`vector_norm` of its difference from the center, the
    max over times for a trajectory cloud) to every earlier center is
    >= delta; each point's cell is the first center within delta, and each
    cell's radius the largest distance of its points."""
    def row(c):
        d = vector_norm(cloud.points - cloud.points[c], cloud.norm_kind)
        return d.max(axis=-1) if cloud.metric_kind == "sup_norm" else d

    net, rows = [], []
    for i in range(cloud.size):
        if all(r[i] >= delta for r in rows):
            net.append(i)
            rows.append(row(i))
    inside = np.stack(rows) < delta
    assert inside.any(axis=0).all()
    cells = inside.argmax(axis=0)
    radii = np.zeros(len(net))
    np.maximum.at(radii, cells, np.stack(rows)[cells, np.arange(cloud.size)])
    return net, radii


def gamma_approximation_oracle(sg, K, T, eps):
    """One Gamma table built on its own, the oracle of `reachset.gamma_tables`:
    delta from eps / (M e^{mu T}), halved after each build whose certified
    bound is not below eps, and each build a separate greedy delta-net
    (`greedy_net`), the time cells and values, and the radii of
    `gamma_cells_oracle`."""
    delta, builds = eps / sg.class_M * math.exp(-sg.class_mu * T), 1
    while True:
        n_cells = max(1, int(np.ceil(T / delta)))
        if T / n_cells >= delta:
            n_cells += 1
        centers = K.points[np.array(greedy_net(K, delta).net_indices)]
        values = np.stack([semigroup_act(semigroup_step(sg, i * T / n_cells), centers)
                           for i in range(1, n_cells + 1)])
        table = GammaTable(T, eps, delta, n_cells, centers, values, None, K.norm_kind, np.inf)
        table = dataclasses.replace(table, radii=gamma_cells_oracle(table, K)[1])
        bound = _certified_bound(sg, table)
        if bound < eps:
            return dataclasses.replace(table, certified_bound=bound, builds=builds)
        delta, builds = 0.5 * delta, builds + 1


def assert_tables_equal(a, b):
    """Two Gamma tables agree field by field, arrays bit for bit."""
    for f in dataclasses.fields(GammaTable):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name
