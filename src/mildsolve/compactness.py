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
from typing import Callable, Sequence

import numpy as np

from .controls import Control
from .operator import ContractionCertificate, TrajectoryGrid
from .spaces import NormKind, check_norm_kind, vector_norm


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
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
        object.__setattr__(self, "points", pts)
        check_norm_kind(self.norm_kind)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def distances_to(self, q: np.ndarray, scratch: np.ndarray | None = None,
                     own: int | None = None) -> np.ndarray:
        """Distances from every cloud point to the single point q.

        `scratch`, of shape (2,) + points.shape, takes the differences and
        their elementwise pass (a new one is made when it is None).  `own`,
        the index of q when q is a cloud point, reads 0: its zero difference
        row is set to ones before the norm, so it never sends `vector_norm`
        into the underflow rescue; every other row is the same float operation.
        """
        if scratch is None:
            scratch = np.empty((2,) + self.points.shape)
        diff = np.subtract(self.points, q, out=scratch[0])
        if own is not None:
            diff[own] = 1.0
        d = vector_norm(diff, self.norm_kind, scratch[1])
        d = d.max(axis=-1) if self.metric_kind == "sup_norm" else d
        if own is not None:
            d[own] = 0.0
        return d


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


def _nearest(cloud: PointCloud, centers: np.ndarray) -> np.ndarray:
    """Distance from every cloud point to its nearest center, as a running
    minimum; every sweep reuses one scratch buffer (see `PointCloud.distances_to`)."""
    min_dist = np.full(cloud.size, np.inf)
    scratch = np.empty((2,) + cloud.points.shape)
    for c in centers:
        np.minimum(min_dist, cloud.distances_to(c, scratch), out=min_dist)
    return min_dist


def _separated(cloud: PointCloud, indices: Sequence[int], s: float) -> list[int]:
    """Index-order greedy s-separated subset of `indices`.

    A point joins iff its distance to every chosen point is >= s.  Distances
    are symmetric bit for bit (`vector_norm` is even in each coordinate), so
    the running minimum over the chosen points decides exactly that test.
    """
    min_dist = np.full(cloud.size, np.inf)
    scratch = np.empty((2,) + cloud.points.shape)
    chosen: list[int] = []
    for i in indices:
        if min_dist[i] >= s:
            chosen.append(int(i))
            np.minimum(min_dist, cloud.distances_to(cloud.points[i], scratch, i), out=min_dist)
    return chosen


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
    net = _separated(cloud, range(cloud.size), epsilon)
    return NetReport(epsilon, net, len(net), len(net))


def _farthest_point(cloud: PointCloud, ladder: Sequence[float]) -> tuple[list[int], list[int]]:
    """Farthest-point (Gonzalez) order read off at every radius of a decreasing ladder.

    Centers are added at the currently worst-covered point, starting from
    point 0.  The order does not depend on the radius, so each radius
    continues from where the previous one stopped: its covering size is the
    first prefix whose coverage radius is <= eps.  Returns the centers of
    the finest covering and the size at each radius.

    A point within the finest radius of the net, every center included, can
    never be picked again, so the sweeps skip it: the live points are kept in
    index order (argmax ties resolve as over the whole cloud) and compacted
    once an eighth of them is dead.  Once no point is live, the remaining
    radii add nothing.
    """
    if ladder[-1] <= 0:
        raise ValueError("epsilon must be > 0")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    scratch = np.empty((2,) + cloud.points.shape)
    live, live_cloud = np.arange(cloud.size), cloud
    min_dist = cloud.distances_to(cloud.points[0], scratch, 0)
    net, sizes = [0], []
    for eps in ladder:
        while live.size:
            far = int(np.argmax(min_dist))
            if min_dist[far] <= eps:
                break
            net.append(int(live[far]))
            np.minimum(min_dist, live_cloud.distances_to(live_cloud.points[far], scratch, far),
                       out=min_dist)
            dead = min_dist <= ladder[-1]
            if 8 * np.count_nonzero(dead) >= live.size:
                live, min_dist = live[~dead], min_dist[~dead]
                live_cloud = PointCloud(live_cloud.points[~dead], cloud.metric_kind,
                                        cloud.norm_kind)
                scratch = scratch[:, :live.size]
        sizes.append(len(net))
    return net, sizes


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
    return NetReport(epsilon, net, len(net), len(_separated(cloud, net, epsilon)))


def covering_net(cloud: PointCloud, epsilon: float) -> NetReport:
    """Covering-number estimate: exact sweep in dimension one, otherwise the
    farthest-point net refined until its coverage radius is <= epsilon (its
    size tracks the k-center optimum within a factor of two)."""
    if cloud.metric_kind == "state_norm" and cloud.points.shape[1] == 1:
        return interval_covering_net(cloud, epsilon)
    net, _ = _farthest_point(cloud, [epsilon])
    return NetReport(epsilon, net, len(net), len(net))


def covering_sizes(cloud: PointCloud, ladder: Sequence[float]) -> list[int]:
    """``covering_net(cloud, eps).covering_size`` for every eps of a strictly
    decreasing ladder, from one farthest-point pass outside dimension one."""
    ladder = list(ladder)
    if not ladder or any(e2 >= e1 for e1, e2 in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be nonempty and strictly decreasing")
    if cloud.metric_kind == "state_norm" and cloud.points.shape[1] == 1:
        return [interval_covering_net(cloud, eps).covering_size for eps in ladder]
    return _farthest_point(cloud, ladder)[1]


def packing_number(cloud: PointCloud, s: float) -> int:
    """Size of the greedy maximal subset with pairwise distances >= s."""
    if s <= 0:
        raise ValueError("s must be > 0")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    return len(_separated(cloud, range(cloud.size), s))


def hausdorff_distance(k1: PointCloud, k2: PointCloud) -> float:
    """Exact Hausdorff distance max of the two directed max-min distances."""
    if k1.size == 0 or k2.size == 0:
        raise ValueError("Hausdorff distance needs nonempty clouds")
    if k1.metric_kind != k2.metric_kind or k1.norm_kind != k2.norm_kind:
        raise ValueError("clouds must share metric and norm kind")
    return float(max(_nearest(k1, k2.points).max(), _nearest(k2, k1.points).max()))


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
    return bool(np.all(_nearest(points, center_cloud.points) <= epsilon + slack))


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
    packing = len(_separated(ev, ev_indices, epsilon))
    return NetReport(epsilon, ev_indices, len(ev_indices), packing)


def iterated_images(x0: TrajectoryGrid, u_sample: Sequence[Control],
                    apply_F: Callable[[TrajectoryGrid, Control], TrajectoryGrid],
                    n: int, budget: int = 256, subsample: bool = True,
                    seed: int = 0,
                    cert: ContractionCertificate | None = None) -> list[PointCloud]:
    """Iterated image clouds W_0 = {x0}, W_{k+1} = {F(x, u) : x in W_k, u in sample}.

    Cloud sizes grow like |u_sample|^k, so each generation is capped at
    `budget` members by seeded uniform subsampling (error if subsampling is
    disabled and the budget would be exceeded).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not u_sample:
        raise ValueError("u_sample must be nonempty")
    if cert is not None:
        for u in u_sample:
            cert.control_norm(u)
    rng = np.random.default_rng(seed)
    generations = [[x0]]
    for _ in range(n):
        prev = generations[-1]
        if len(prev) * len(u_sample) > budget and not subsample:
            raise ValueError("iterated image budget exceeded with subsampling disabled")
        nxt = [apply_F(x, u) for x in prev for u in u_sample]
        if len(nxt) > budget:
            keep = np.sort(rng.choice(len(nxt), size=budget, replace=False))
            nxt = [nxt[i] for i in keep]
        generations.append(nxt)
    return [trajectory_cloud(gen) for gen in generations]


def _hausdorff_separated(clouds: Sequence[PointCloud], s: float) -> list[int]:
    """Index-order greedy s-separated subset of `clouds` under d_H (see `_separated`)."""
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
                             len(_separated(union, union_indices, epsilon)))

    # if direction: subsets of a union eps-net form a Hausdorff eps-net
    base = greedy_net(union, epsilon)
    base_cloud = PointCloud(union.points[np.array(base.net_indices)], union.metric_kind,
                            union.norm_kind)
    subsets = []
    for k in family:
        min_d = _nearest(base_cloud, k.points)
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
