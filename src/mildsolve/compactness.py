"""Metric compactness toolkit on finite point clouds.

Compact sets are approximated by finite clouds of states or trajectories.
On clouds every quantity of interest is exactly computable: greedy
epsilon-nets, farthest-point covering numbers, packing numbers (the witness
against total boundedness) and the Hausdorff metric.  The two constructive
transfer results implemented here mirror the proofs they come from: a net of
a trajectory family transfers to a net of its evaluation set, and a family
of compacta is totally bounded in the Hausdorff metric exactly when its
union is totally bounded in the state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operator import TrajectoryGrid
from .spaces import NormKind, all_finite, check_norm_kind, vector_norm


@dataclass(frozen=True)
class PointCloud:
    """Finite subset of a metric space (states or curves).

    ``points`` is (N, n) for metric_kind "state_norm" and (N, n_t + 1, n)
    for "sup_norm" (stacked trajectory grids); the underlying vector norm
    is ``norm_kind`` in both cases.
    """

    points: np.ndarray
    metric_kind: str  # "state_norm" | "sup_norm"
    norm_kind: NormKind = 2

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if self.metric_kind == "state_norm":
            pts = pts.reshape(-1, pts.shape[-1]) if pts.size else pts.reshape(0, 1)
            if pts.ndim != 2:
                raise ValueError("state cloud needs an (N, n) array")
        elif self.metric_kind == "sup_norm":
            if pts.ndim != 3:
                raise ValueError("trajectory cloud needs an (N, n_t + 1, n) array")
        else:
            raise ValueError(f"unknown metric_kind {self.metric_kind!r}")
        if not all_finite(pts):
            raise ValueError("cloud points must be finite")
        object.__setattr__(self, "points", pts)
        check_norm_kind(self.norm_kind)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _distances(points: np.ndarray, metric_kind: str, norm_kind: NormKind, q: np.ndarray,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """The exact kernel: distances from every row of a checked cloud array to
    q, or to each of a stack of k points q shaped (k, 1) + a point's shape (a
    (k, rows) result).  `scratch`, the broadcast shape with a leading 2, takes
    the differences and their elementwise pass (made for one q when it is None).
    Each row is the same float operation whichever other rows are passed with
    it, and a zero row reads 0 through `vector_norm`'s rescue."""
    if scratch is None:
        scratch = np.empty((2,) + points.shape)
    d = vector_norm(np.subtract(points, q, out=scratch[0]), norm_kind, scratch[1])
    return d.max(axis=-1) if metric_kind == "sup_norm" else d


# Floats in a plane of `_scratch` (512 KB), for `_nearest`, the net sweep and the cell lookup.
# On a 40 x 40 lattice (spacing 0.1, offset 7.3, ladder 2 to 0.1) the farthest-point pass took
# 38 ms at 2^16 and 48 ms at 2^13 (process CPU, median of 15).
_NEAREST_FLOATS = 1 << 16


def _scratch(rows: int, centers: np.ndarray) -> np.ndarray:
    """Two planes of a block of `rows` rows against `centers` (`_blocks`):
    `_NEAREST_FLOATS` floats each, or one row against the centers if more."""
    step = max(1, _NEAREST_FLOATS // max(centers.size, 1))
    return np.empty((2, min(step, max(rows, 1))) + centers.shape)


def _blocks(points: np.ndarray, metric_kind: str, norm_kind: NormKind,
            centers: np.ndarray, scratch: np.ndarray | None = None):
    """Yield (lo, d) over blocks of rows of a checked cloud array, d (k, M) the
    kernel's distances from the rows lo:lo + k to the M centers: one `_distances`
    call (q a stack of points) per block, into `scratch` (made when None)."""
    scratch = _scratch(len(points), centers) if scratch is None else scratch
    for lo in range(0, len(points), scratch.shape[1]):
        q = points[lo:lo + scratch.shape[1], None]
        yield lo, _distances(centers, metric_kind, norm_kind, q, scratch[:, :len(q)])


def _nearest(points: np.ndarray, metric_kind: str, norm_kind: NormKind,
             centers: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The distance from each row of a checked cloud array to its nearest center
    (inf when there is none), by `_blocks`: bit for bit the running minimum of the
    kernel's rows, as a minimum is exact and `vector_norm` is even in each coordinate."""
    m = np.empty(len(points))
    for lo, d in _blocks(points, metric_kind, norm_kind, centers, scratch):
        m[lo:lo + len(d)] = d.min(axis=-1, initial=np.inf)
    return m


def state_cloud(points, norm_kind: NormKind = 2) -> PointCloud:
    return PointCloud(np.atleast_2d(np.asarray(points, dtype=float)),
                      "state_norm", norm_kind)


def trajectory_cloud(trajectories: Sequence[TrajectoryGrid]) -> PointCloud:
    if not trajectories:
        raise ValueError("trajectory cloud needs at least one trajectory")
    stack = np.stack([tr.states for tr in trajectories])
    return PointCloud(stack, "sup_norm", trajectories[0].norm_kind)


@dataclass(frozen=True)
class NetReport:
    """Result of a covering computation over one cloud.

    ``net_indices`` lists the chosen centers (indices into the cloud the net
    was computed over; the Hausdorff direction of `collection_union_nets`
    stores index tuples instead).  ``packing_size`` is the size of the
    greedy epsilon-separated subset of the chosen centers, so
    packing_size <= covering_size always and equality holds for greedy nets.
    """

    epsilon: float
    net_indices: list
    covering_size: int
    packing_size: int

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "net_indices": [list(i) if isinstance(i, tuple) else int(i)
                            for i in self.net_indices],
            "covering_size": self.covering_size,
            "packing_size": self.packing_size,
        }


def _net_cells(cloud: PointCloud, delta: float,
               rows: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The index-order greedy delta-net of the cloud's points (of the points `rows`,
    repeats included, when given; positions index that order) and the radius of each
    center's first-match cell, from one sweep of the points not in a cell yet.  The
    first such point becomes the next center, >= delta from every earlier one.  Its
    `_nearest` row over them, a block at a time through one gather buffer and one
    scratch, puts each within delta in its cell (the rows `GammaTable.state_cell`
    compares), their max the radius.  Distances are symmetric bit for bit (see `_nearest`), so a
    point joins iff it is >= delta from every earlier center."""
    points = cloud.points if rows is None else cloud.points[np.asarray(rows, dtype=np.intp)]
    live = np.arange(points.shape[0])  # positions not in a cell yet, compacted in place
    scratch = _scratch(live.size, points[:1])
    block = np.empty(scratch.shape[1:2] + points.shape[1:])
    net, radii = [], []
    while live.size:
        net.append(live[0])
        kept, radius, center = 0, 0.0, points[live[:1]]
        for lo in range(0, live.size, len(block)):
            pos = live[lo:lo + len(block)]
            q = np.take(points, pos, axis=0, out=block[:pos.size], mode="clip")
            d = _nearest(q, cloud.metric_kind, cloud.norm_kind, center, scratch)
            inside = d < delta
            radius = max(radius, d[inside].max(initial=0.0))
            out = pos[~inside]
            live[kept:kept + out.size] = out
            kept += out.size
        radii.append(radius)
        live = live[:kept]
    return np.array(net, dtype=np.intp), np.array(radii)


def greedy_net(cloud: PointCloud, epsilon: float) -> NetReport:
    """Index-order greedy epsilon-net.

    A point joins the net iff its distance to every current net point is
    >= epsilon; consequently every cloud point lies strictly within epsilon
    of the net and the net is itself epsilon-separated.  Ties break to the
    lowest index.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    net = _net_cells(cloud, epsilon)[0].tolist()
    return NetReport(epsilon, net, len(net), len(net))


# Candidates of one block of the farthest-point pass: the b largest running
# values.  On bench-size sphere clouds (1000 points in 16, 32 and 64
# dimensions, eps 0.1 to 0.01) b = 32, 128 and 256 took 1.07-1.11,
# 0.99-1.03 and 1.10-1.24 of the time at b = 64 (process CPU, 2 x 15 runs).
_BLOCK = 64


class _ExactSweep:
    """The exact kernel over the live points (`_nearest`): its values x are
    the distances m themselves, so `power` is 1 and `width` 0.

    It takes no block (`block` 0 candidates): the kernel's values among a
    block's candidates would cost a sweep of them per center, which norm-1,
    norm-inf, sup-norm and lattice clouds measured slower than one pick at
    a time, and with W = 0 a single pick needs no retake.
    """

    power, width, block = 1, 0.0, 0

    def __init__(self, points: np.ndarray, metric_kind: str, norm_kind: NormKind):
        self.points, self.kinds = points, (metric_kind, norm_kind)

    def lower(self, x: np.ndarray, centers: np.ndarray) -> None:
        """Lower the running values x to the values to the live points `centers`."""
        np.minimum(x, _nearest(self.points, *self.kinds, self.points[centers]), out=x)

    def keep(self, mask: np.ndarray) -> None:
        self.points = self.points[mask]


class _GramSweep:
    """Squared distances x(i, c) = <p_i, -2 p_c> + |p_i|^2 + |p_c|^2 between
    live points of a Euclidean state cloud: one BLAS matrix product and two
    additions, with the squared norms computed once per cloud.

    `width` W bounds |m^2 - x| for the exact kernel's distance m
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1:
    gamma_k = k u / (1 - k u) for the unit roundoff u; eta the smallest
    subnormal, which bounds the absolute error of a product that underflows;
    rho^2 the largest computed |p_i|^2):

    * Gram: the product has n terms of absolute sum at most 2 rho^2 (Cauchy-
      Schwarz), so it is within gamma_n 2 rho^2 + n eta in any summation
      order, with or without fused multiply-adds: whatever BLAS does.  Each
      |p_i|^2 is within gamma_n rho^2 + n eta, and the two additions round by
      u of at most 3 rho^2 and 4 rho^2.  In all |x - d^2| <= 6 gamma_{n+3} rho^2
      + 3 (n + 1) eta for the true distance d.
    * Kernel: `vector_norm` of the rounded difference squares, sums and roots it,
      and its underflow rescue divides and multiplies by the row's max-abs:
      |m^2 - d^2| <= gamma_{n+8} d^2 + n eta <= 4 gamma_{n+8} rho^2 + n eta.

    W is twice their sum, 20 gamma_{n+8} rho^2 + 8 (n + 1) eta.  The factor two
    covers rho^2 against its computed value and the rounding of the loop's own
    comparisons, which round numbers below 8 rho^2 by a few u (above that
    every distance is within eps and the comparison comes out right anyway).
    A running minimum keeps the bound: the minimum of the x is within W of the
    square of the minimum of the m.
    """

    power, block = 2, _BLOCK

    def __init__(self, points: np.ndarray, sq: np.ndarray):
        self.points, self.sq = points, sq
        info = np.finfo(float)
        ku = (points.shape[1] + 8) * info.eps / 2  # gamma_{n+8} = ku / (1 - ku)
        self.width = (20.0 * ku / (1.0 - ku) * float(sq.max(initial=0.0))
                      + 8.0 * (points.shape[1] + 1) * info.smallest_subnormal)

    def values(self, centers: np.ndarray, rows: np.ndarray | slice,
               out: np.ndarray | None = None) -> np.ndarray:
        """Values from the live points `rows` (indices or a slice) to each live
        point of `centers`, one row per center, into `out` when it is given."""
        x = np.matmul(-2.0 * self.points[centers], self.points[rows].T, out=out)
        x += self.sq[centers, None]
        x += self.sq[rows]
        return x

    def lower(self, x: np.ndarray, centers: np.ndarray) -> None:
        """Lower the running values x to the values to the live points
        `centers`, from one (centers, live) product and its minimum over the
        centers; the centers' own values read 0.  The rows' squared norms are
        added after the minimum: rounding is monotone, so min_c fl(y_c + s) =
        fl(min_c y_c + s) and the values are `values`' bit for bit."""
        out = np.matmul(-2.0 * self.points[centers], self.points.T)
        out += self.sq[centers, None]
        least = out.min(axis=0)
        least += self.sq
        np.minimum(x, least, out=x)
        x[centers] = 0.0

    def keep(self, mask: np.ndarray) -> None:
        self.points, self.sq = self.points[mask], self.sq[mask]


def _sweep(cloud: PointCloud) -> _ExactSweep | _GramSweep:
    """The Gram sweep for a Euclidean state cloud whose squared norms neither
    overflow nor underflow (the bound needs 8 rho^2 finite and means nothing
    below the smallest normal), else the exact sweep."""
    if cloud.metric_kind == "state_norm" and cloud.norm_kind == 2:
        with np.errstate(over="ignore"):
            sq = np.einsum("ij,ij->i", cloud.points, cloud.points)
        if np.finfo(float).tiny <= sq.max() <= np.finfo(float).max / 8:
            return _GramSweep(cloud.points, sq)
    return _ExactSweep(cloud.points, cloud.metric_kind, cloud.norm_kind)


def _settle_block(sweep: _GramSweep, x: np.ndarray, level: float) -> np.ndarray:
    """The centers one block settles, in pick order, as live positions (see
    `_farthest_point`).  It is called once the leader of x is settled against
    every live point and `level` (eps^power of the open rung), so its first
    pick is that leader."""
    b = sweep.block
    if x.size > b:
        top = np.argpartition(x, x.size - b - 1)  # the largest non-candidate at -b - 1
        cand, tau = np.sort(top[-b:]), float(x[top[-b - 1]])
    else:
        cand, tau = np.arange(x.size), -np.inf
    values, v = sweep.values(cand, cand), x[cand]
    width, picks = sweep.width, []
    for _ in cand:  # a picked candidate reads about 0: it fails the rung test
        far = int(v.argmax())
        lead = float(v[far])
        if (tau > lead - 2.0 * width or np.count_nonzero(v > lead - 2.0 * width) > 1
                or lead - width <= level):
            break
        picks.append(far)
        np.minimum(v, values[far], out=v)
    return cand[picks]


def _graph_sizes(cloud: PointCloud, sweep: _GramSweep, x: np.ndarray, live: np.ndarray,
                 net: list[int], rungs: Sequence[float]) -> list[int] | None:
    """The pass's sizes at the finer rungs `rungs`, read off the eps-graph once
    the net `net` has served a coarser rung (see `covering_sizes`), or None
    when the graph does not settle them.

    Edges are exact-kernel distances <= rungs[0], found from the sweep's
    values (|m^2 - x| <= W): a non-center's running value x bounds its
    distance to the nearest center, so only those with x <= rungs[0]^2 + W
    are taken to every center on the exact kernel, and the non-centers'
    own pairs are blocks of Gram values over the upper triangle, each pair
    within the same bound taken again on the kernel.  The graph is declined
    once its candidate pairs outnumber the cloud's points, counted before
    each block is gathered, or once the non-centers surely near a center
    would need more pairs than that to make cliques.  Each rung's graph is
    then a union of cliques iff every point's least neighbour (or itself) is
    shared along every edge and each such class holds as many edges as
    pairs; its size is the number of classes.
    """
    n_points, kinds, top = cloud.size, (cloud.metric_kind, cloud.norm_kind), rungs[0]
    center = np.zeros(n_points, dtype=bool)
    center[net] = True
    seen = center.copy()
    seen[live] = True
    if not seen.all():  # a dead non-center: the running values no longer track it
        return None
    level, budget = top * top + sweep.width, n_points
    rest = np.flatnonzero(~center[live])  # live positions of the non-centers
    xr = x[rest]
    near = rest[xr <= level]
    # K points surely within `top` of the M centers need K (K / M - 1) / 2 pairs or more
    # among them for cliques (by convexity), and more than `budget` of both is declined
    sure = np.count_nonzero(xr <= top * top - sweep.width)
    budget -= near.size
    if budget < 0 or sure * (sure / len(net) - 1.0) / 2.0 > budget:
        return None
    us, vs, dists, net = [live[:0]], [live[:0]], [np.empty(0)], np.asarray(net)
    for lo, d in _blocks(cloud.points[live[near]], *kinds, cloud.points[net]):
        i, c = np.nonzero(d <= top)
        us.append(live[near[lo + i]])
        vs.append(net[c])
        dists.append(d[i, c])
    # the non-centers' Gram values, from their rows gathered once (their W is at most
    # the sweep's), in blocks of rows that double from 8 to `_BLOCK` (on the 4000-point
    # sphere clouds 32 and 64 rows measured fastest of 32 to 256), so a dense graph is
    # declined early
    pairs = _GramSweep(sweep.points[rest], sweep.sq[rest])
    step = min(rest.size, _BLOCK)
    upper = np.arange(step)[:, None] < np.arange(step)  # a block's own pairs, each once
    lo, rows = 0, min(8, step)
    while lo < rest.size:
        close = pairs.values(slice(lo, lo + rows), slice(lo, None)) <= level
        close[:, :len(close)] &= upper[:len(close), :len(close)]
        count = np.count_nonzero(close)
        budget -= count
        if budget < 0:
            return None
        if count:
            i, j = np.nonzero(close)
            a, b = lo + i, lo + j
            d = _distances(pairs.points[a], *kinds, pairs.points[b])
            us.append(live[rest[a[d <= top]]])
            vs.append(live[rest[b[d <= top]]])
            dists.append(d[d <= top])
        lo, rows = lo + rows, min(2 * rows, step)
    u, v, dists = np.concatenate(us), np.concatenate(vs), np.concatenate(dists)
    low, high = np.minimum(u, v), np.maximum(u, v)
    sizes, points = [], np.arange(n_points)
    for eps in rungs:
        a, b = low[dists <= eps], high[dists <= eps]
        # each point's least neighbour or itself: on a graph of cliques, the
        # least point of its component
        least = points.copy()
        np.minimum.at(least, b, a)
        if not np.array_equal(least[a], least[b]):
            return None
        members = np.bincount(least, minlength=n_points)
        if not np.array_equal(np.bincount(least[a], minlength=n_points),
                              members * (members - 1) // 2):  # as many edges as pairs
            return None
        sizes.append(int(np.count_nonzero(least == points)))
    return sizes


def _farthest_point(cloud: PointCloud, ladder: Sequence[float],
                    graph: bool = False) -> tuple[list[int], list[int], float | None]:
    """Farthest-point (Gonzalez) order read off at every radius of a decreasing ladder.

    Centers are added at the currently worst-covered point, starting from
    point 0.  The order does not depend on the radius, so each radius
    continues from where the previous one stopped: its covering size is the
    first prefix whose coverage radius is <= eps.  Returns the centers of
    the finest covering, the size at each radius and None.  With `graph`,
    after each rung but the last the finer sizes are sought on the eps-graph
    (`_graph_sizes`, Gram sweep only); once it settles them the pass stops
    there and returns the centers it has, every size, and the first rung
    read off the graph.

    The decisions are those of the exact kernel's distances m to the nearest
    center: the argmax (ties to the lowest index), the rung test m <= eps, and
    the dead test below.  The sweeps (`_sweep`) keep a running minimum of
    values x with |m^power - x| <= W, so a decision is taken from x when W
    settles it: a point whose x is at least 2W below the leader's cannot tie
    or beat it, and the rung test is settled when eps^power is not within W
    of the leader's x.  Any other decision is taken again on the exact kernel
    for the leader's rivals (`_nearest`).  The exact sweep has W = 0 and
    never takes one again.  Once the rows taken again outnumber the cloud
    (exact ties, as on a lattice, or a cloud far from the origin, whose W is
    large against its distances), the exact sweep takes over from the running
    minimum it would hold, so such a cloud costs at most about twice the
    exact sweep.

    A settled leader on the Gram sweep opens a block (`_settle_block`) that
    settles the centers after it too.  Its candidates are the `block` live
    points with the largest x, in index order, and tau is the largest x of
    any other point.  Running values only fall, so tau bounds every other
    point's x for the whole block, and its m^2 stays at most tau + W.  The
    block replays the pass on the candidates' own values (one matrix
    product) and accepts each pick only while the same tests settle it: the
    leader's x exceeds tau by at least 2W, so its m^2 is at least every other
    point's; no other candidate is within 2W of it; and its rung test is
    settled.  Each accepted pick is thus the exact pass's next center, and a
    block stops at the first decision it cannot settle, a rung boundary
    included.  The accepted centers then lower every live x at once
    (`lower`: one matrix product, a chunk of rows at a time).

    A point whose x is at most (finest eps)^power - W is within the finest
    radius of the net, every center included, and can never be picked
    again, so the sweeps skip it: the live points are kept in index order
    (argmax ties resolve as over the whole cloud) and compacted once an
    eighth of them is dead.  Once no point is live, the remaining radii add
    nothing.
    """
    if ladder[-1] <= 0:
        raise ValueError("epsilon must be > 0")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    sweep, kinds = _sweep(cloud), (cloud.metric_kind, cloud.norm_kind)
    live, x = np.arange(cloud.size), np.full(cloud.size, np.inf)
    sweep.lower(x, np.array([0]))
    spare = cloud.size  # rows the exact kernel may take again before it takes over
    net, sizes = [0], []
    for j, eps in enumerate(ladder):
        while live.size:
            far, width, level = int(np.argmax(x)), sweep.width, eps ** sweep.power
            if x[far] + width <= level:
                break
            contested = x > x[far] - 2.0 * width
            if np.count_nonzero(contested) > 1 or x[far] - width <= level:
                rivals = np.flatnonzero(contested)
                spare -= rivals.size
                if spare < 0:  # the exact sweep, from the running minimum it would hold
                    sweep = _ExactSweep(cloud.points[live], *kinds)
                    x = _nearest(sweep.points, *kinds, cloud.points[net])
                    continue
                m = _nearest(cloud.points[live[rivals]], *kinds, cloud.points[net])
                best = int(np.argmax(m))
                if m[best] <= eps:
                    break
                picks = rivals[best:best + 1]
            else:
                picks = _settle_block(sweep, x, level) if sweep.block else np.array([far])
            net += live[picks].tolist()
            sweep.lower(x, picks)
            dead = x <= ladder[-1] ** sweep.power - sweep.width
            if 8 * np.count_nonzero(dead) >= live.size:
                live, x = live[~dead], x[~dead]
                sweep.keep(~dead)
        sizes.append(len(net))
        if graph and j + 1 < len(ladder) and isinstance(sweep, _GramSweep):
            finer = _graph_sizes(cloud, sweep, x, live, net, ladder[j + 1:])
            if finer is not None:
                return net, sizes + finer, ladder[j + 1]
    return net, sizes, None


def interval_covering_net(cloud: PointCloud, epsilon: float) -> NetReport:
    """Optimal point-centered covering of a one-dimensional state cloud.

    Sorted sweep: cover the leftmost uncovered value with the largest cloud
    point within epsilon of it (the first of its ties in stable order), then
    jump past everything that center covers.  Exchange argument makes this
    minimal among nets whose centers are cloud points.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if cloud.metric_kind != "state_norm" or cloud.points.shape[1] != 1:
        raise ValueError("interval covering needs a one-dimensional state cloud")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    order = np.argsort(cloud.points[:, 0], kind="stable")
    ordered = cloud.points[order, 0]
    net: list[int] = []
    pos = 0  # the leftmost uncovered value
    while pos < len(order):
        top = ordered[np.searchsorted(ordered, ordered[pos] + epsilon, side="right") - 1]
        net.append(int(order[np.searchsorted(ordered, top)]))
        pos = int(np.searchsorted(ordered, top + epsilon, side="right"))
    return NetReport(epsilon, net, len(net), _net_cells(cloud, epsilon, net)[0].size)


def covering_net(cloud: PointCloud, epsilon: float) -> NetReport:
    """Covering-number estimate: exact sweep in dimension one, otherwise the
    farthest-point net refined until its coverage radius is <= epsilon (its
    size tracks the k-center optimum within a factor of two)."""
    if cloud.metric_kind == "state_norm" and cloud.points.shape[1] == 1:
        return interval_covering_net(cloud, epsilon)
    net = _farthest_point(cloud, [epsilon])[0]
    return NetReport(epsilon, net, len(net), len(net))


def covering_sizes(cloud: PointCloud, ladder: Sequence[float]) -> list[int]:
    """``covering_net(cloud, eps).covering_size`` for every eps of a strictly
    decreasing ladder, from one farthest-point pass outside dimension one.

    The pass stops early when the eps-graph settles the finer rungs.  Once it
    has served a rung eps_j with centers S, take a finer rung e and the graph
    G_e joining two points whose exact-kernel distance is <= e (the pass's own
    rung test).  Every center was picked at a distance > eps_j > e from the
    earlier ones, so no two centers are joined and each component of G_e
    holds at most one center.  If every component is a clique, the pass's
    size at e is the number of components: a component without a center has
    every point farther than e from the net, so the pass cannot stop before
    it gets one, and a center covers its whole clique, so no point of it is
    the farthest again.  The proof needs every non-center's distances, so a
    pass that has dropped a non-center as dead is not shortcut.  When every
    finer rung passes the test (`_graph_sizes`: Gram sweep only, declined
    past one candidate pair per point), those sizes are filled in and the
    pass stops; otherwise it serves the next rung and tries again.  The
    sizes are the full pass's either way.
    """
    return _covering_pass(cloud, ladder)[0]


def _covering_pass(cloud: PointCloud,
                   ladder: Sequence[float]) -> tuple[list[int], int, float | None]:
    """`covering_sizes`, the centers its pass picked (the interval nets'
    summed in dimension one) and the first rung it read off the eps-graph
    (None when it read none)."""
    ladder = list(ladder)
    if not ladder or any(e2 >= e1 for e1, e2 in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be nonempty and strictly decreasing")
    if cloud.metric_kind == "state_norm" and cloud.points.shape[1] == 1:
        sizes = [interval_covering_net(cloud, eps).covering_size for eps in ladder]
        return sizes, sum(sizes), None
    net, sizes, graph_rung = _farthest_point(cloud, ladder, graph=True)
    return sizes, len(net), graph_rung


def packing_number(cloud: PointCloud, s: float) -> int:
    """Size of the greedy maximal subset with pairwise distances >= s."""
    if s <= 0:
        raise ValueError("s must be > 0")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    return _net_cells(cloud, s)[0].size


def hausdorff_distance(k1: PointCloud, k2: PointCloud) -> float:
    """Exact Hausdorff distance max of the two directed max-min distances."""
    if k1.size == 0 or k2.size == 0:
        raise ValueError("Hausdorff distance needs nonempty clouds")
    if k1.metric_kind != k2.metric_kind or k1.norm_kind != k2.norm_kind:
        raise ValueError("clouds must share metric and norm kind")
    kinds = (k1.metric_kind, k1.norm_kind)
    return float(max(_nearest(k1.points, *kinds, k2.points).max(),
                     _nearest(k2.points, *kinds, k1.points).max()))


def evaluation_set(trajectories: Sequence[TrajectoryGrid]) -> PointCloud:
    """All grid states of all trajectories, as a state cloud."""
    if not trajectories:
        return PointCloud(np.empty((0, 1)), "state_norm")
    stack = np.concatenate([tr.states for tr in trajectories], axis=0)
    return PointCloud(stack, "state_norm", trajectories[0].norm_kind)


def verify_coverage(points: PointCloud, centers: np.ndarray, epsilon: float,
                    slack: float = 1e-12) -> bool:
    """Brute-force check that every cloud point is within epsilon of a center."""
    center_cloud = PointCloud(centers, points.metric_kind, points.norm_kind)
    return bool(np.all(_nearest(points.points, points.metric_kind, points.norm_kind,
                                center_cloud.points) <= epsilon + slack))


def net_transfer(s_net: NetReport, trajectories: Sequence[TrajectoryGrid],
                 epsilon: float) -> NetReport:
    """Transfer an eps/2 trajectory net to a verified eps-net of the evaluation set.

    Each net trajectory's image gets its own eps/2 state net; the union of
    those nets covers every evaluated state within eps.  Both the input net
    and the output coverage are verified by brute force.  Returned indices
    refer to `evaluation_set(trajectories)` in trajectory-major order.
    """
    cloud = trajectory_cloud(trajectories)
    half = epsilon / 2.0
    reps = np.array(sorted(s_net.net_indices))
    if not verify_coverage(cloud, cloud.points[reps], half):
        raise ValueError("input net is not a valid eps/2-net of the trajectories")

    n_pts = trajectories[0].n_t + 1
    ev_indices: list[int] = []
    for i in reps:
        local = greedy_net(state_cloud(trajectories[i].states, trajectories[i].norm_kind), half)
        ev_indices.extend(int(i) * n_pts + j for j in local.net_indices)

    ev = evaluation_set(trajectories)
    centers = ev.points[np.array(ev_indices)]
    if not verify_coverage(ev, centers, epsilon):
        raise AssertionError("transferred net failed coverage verification")
    packing = _net_cells(ev, epsilon, ev_indices)[0].size
    return NetReport(epsilon, ev_indices, len(ev_indices), packing)


def _hausdorff_separated(clouds: Sequence[PointCloud], s: float) -> list[int]:
    """Index-order greedy s-separated subset of `clouds` under d_H (see `_net_cells`)."""
    chosen: list[int] = []
    for i, k in enumerate(clouds):
        if all(hausdorff_distance(k, clouds[j]) >= s for j in chosen):
            chosen.append(i)
    return chosen


def collection_union_nets(family: Sequence[PointCloud],
                          epsilon: float) -> tuple[NetReport, NetReport]:
    """Both constructive directions of the union/collection equivalence.

    Only-if: an eps/2 Hausdorff net of the family plus eps/2 nets of its
    representative clouds yields a verified eps-net of the union.  If: an
    eps-net xi_1..xi_M of the union induces the Hausdorff eps-net
    ``K' = {xi_i : dist(xi_i, K) <= eps}`` over the family.  Both outputs
    are verified by brute force before returning.
    """
    if not family:
        raise ValueError("empty family")
    if any(k.size == 0 for k in family):
        raise ValueError("family members must be nonempty")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    half = epsilon / 2.0

    # only-if direction: greedy eps/2-net of the family under d_H
    reps = _hausdorff_separated(family, half)

    offsets = np.cumsum([0] + [k.size for k in family])
    union = PointCloud(np.concatenate([k.points for k in family]),
                       family[0].metric_kind, family[0].norm_kind)
    union_indices: list[int] = []
    for i in reps:
        local = greedy_net(family[i], half)
        union_indices.extend(int(offsets[i]) + j for j in local.net_indices)
    centers = union.points[np.array(union_indices)]
    if not verify_coverage(union, centers, epsilon):
        raise AssertionError("union net failed coverage verification")
    union_report = NetReport(epsilon, union_indices, len(union_indices),
                             _net_cells(union, epsilon, union_indices)[0].size)

    # if direction: subsets of a union eps-net form a Hausdorff eps-net
    base = greedy_net(union, epsilon)
    base_points = union.points[np.array(base.net_indices)]
    subsets = []
    for k in family:
        min_d = _nearest(base_points, union.metric_kind, union.norm_kind, k.points)
        chosen = tuple(int(base.net_indices[i]) for i in np.nonzero(min_d <= epsilon)[0])
        if not chosen:
            raise AssertionError("union net left a family member uncovered")
        k_prime = PointCloud(union.points[np.array(chosen)], k.metric_kind, k.norm_kind)
        if hausdorff_distance(k, k_prime) > epsilon + 1e-12:
            raise AssertionError("Hausdorff net failed verification")
        subsets.append(chosen)
    distinct = sorted(set(subsets))
    # packing over the constructed centers themselves, under d_H
    kprime_clouds = [PointCloud(union.points[np.array(c)], union.metric_kind, union.norm_kind)
                     for c in distinct]
    hausdorff_report = NetReport(epsilon, distinct, len(distinct),
                                 len(_hausdorff_separated(kprime_clouds, epsilon)))
    return union_report, hausdorff_report
