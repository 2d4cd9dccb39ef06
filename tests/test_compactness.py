import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildsolve import (
    StateVector,
    collection_union_nets,
    compactness_diagnostic,
    constant_trajectory,
    covering_net,
    covering_sizes,
    evaluation_set,
    greedy_net,
    hausdorff_distance,
    net_transfer,
    packing_number,
    state_cloud,
    sup_norm,
    trajectory_cloud,
)
from mildsolve import compactness, reachset
from mildsolve.compactness import (PointCloud, _distances, _farthest_point, _net_cells,
                                   verify_coverage)
from mildsolve.operator import TrajectoryGrid

from conftest import (diagnostic_system, farthest_point_oracle, greedy_cells_oracle,
                      random_trajectory)


def brute_force_covered(cloud, net_indices, eps):
    centers = cloud.points[np.array(net_indices)]
    return verify_coverage(cloud, centers, eps, slack=0.0)


class TestGreedyNet:
    def test_unit_interval_grid(self):
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        report = greedy_net(cloud, 0.25)
        assert report.covering_size <= 5
        assert brute_force_covered(cloud, report.net_indices, 0.25)

    def test_single_point(self):
        report = greedy_net(state_cloud([[3.0, 4.0]]), 0.1)
        assert report.covering_size == 1

    def test_eps_above_diameter(self, rng):
        cloud = state_cloud(rng.uniform(0, 1, size=(50, 2)))
        report = greedy_net(cloud, 10.0)
        assert report.covering_size == 1

    def test_net_points_are_separated(self, rng):
        cloud = state_cloud(rng.uniform(0, 1, size=(200, 3)))
        eps = 0.3
        report = greedy_net(cloud, eps)
        pts = cloud.points[np.array(report.net_indices)]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(pts[i] - pts[j]) >= eps
        assert report.packing_size == report.covering_size

    def test_duplicates_collapse(self):
        cloud = state_cloud(np.zeros((10, 2)))
        assert greedy_net(cloud, 0.5).covering_size == 1

    def test_near_duplicates_of_a_non_center_stay_covered(self):
        # point 1 lies within eps of point 0, point 2 just beyond it: point 2
        # must become a center even though it is within 1e-12 of point 1
        cloud = state_cloud([[0.0], [0.5 - 3e-13], [0.5 + 3e-13]])
        report = greedy_net(cloud, 0.5)
        assert report.net_indices == [0, 2]
        assert brute_force_covered(cloud, report.net_indices, 0.5)

    def test_empty_cloud_rejected(self):
        empty = evaluation_set([])
        with pytest.raises(ValueError, match="empty"):
            greedy_net(empty, 0.1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.05, 2.0))
    def test_coverage_and_separation_property(self, seed, eps):
        rng = np.random.default_rng(seed)
        cloud = state_cloud(rng.uniform(-1, 1, size=(rng.integers(1, 60), 2)))
        report = greedy_net(cloud, eps)
        assert brute_force_covered(cloud, report.net_indices, eps)


class TestCoveringNets:
    def test_interval_sweep_matches_halving_bound(self):
        # covering of a dense diameter-D segment needs about D / (2 eps) centers
        from mildsolve import covering_net, interval_covering_net
        cloud = state_cloud(np.linspace(0, 1, 400)[:, None])
        for eps in (0.3, 0.25, 0.1, 0.05):
            report = interval_covering_net(cloud, eps)
            assert report.covering_size <= math.ceil(1.0 / (2 * eps)) + 1
            assert verify_coverage(cloud, cloud.points[np.array(report.net_indices)], eps)
        # quarter points on the grid: the optimum 2 is attained exactly
        aligned = state_cloud(np.linspace(0, 1, 401)[:, None])
        assert covering_net(aligned, 0.25).covering_size == 2

        def stepping_sweep(values, eps):
            # the point-by-point sweep with one mask per center, written out
            order = np.argsort(values, kind="stable")
            net, covered_up_to, pos = [], -np.inf, 0
            while pos < len(order):
                v = values[order[pos]]
                if v <= covered_up_to:
                    pos += 1
                    continue
                inside = order[(values[order] <= v + eps) & (values[order] >= v)]
                net.append(int(inside[np.argmax(values[inside])]))
                covered_up_to = values[net[-1]] + eps
            return net

        rng = np.random.default_rng(3)
        for trial in range(200):
            size = int(rng.integers(1, 80))
            values = rng.integers(-6, 7, size) * 0.125  # repeated values, ties at eps
            if trial % 2:
                values = np.round(rng.standard_normal(size), 1)
            values[rng.uniform(size=size) < 0.1] = -0.0
            for eps in (0.125, 0.25, 0.3, 1.0):
                assert (interval_covering_net(state_cloud(values[:, None]), eps).net_indices
                        == stepping_sweep(values, eps))

    def test_fps_coverage_in_higher_dimension(self, rng):
        cloud = state_cloud(rng.standard_normal((300, 4)))
        for eps in (1.6, 0.8, 0.4):
            report = covering_net(cloud, eps)
            assert verify_coverage(cloud, cloud.points[np.array(report.net_indices)], eps)

    def test_fps_monotone_in_eps(self, rng):
        ladder = (1.6, 0.8, 0.4, 0.2, 0.1)
        pts = rng.standard_normal((300, 4))
        cloud = state_cloud(pts)
        sizes = [covering_net(cloud, eps).covering_size for eps in ladder]
        assert sizes == sorted(sizes)
        assert covering_sizes(cloud, ladder) == sizes
        # a doubled integer lattice: ties everywhere, censored below the spacing
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), -1).reshape(-1, 2)
        lattice = np.concatenate([grid, grid[::-1]])
        fine = (3.0, 2.0, 1.5, 1.0, 0.5, 0.25)
        for norm_kind in (1, 2, np.inf):
            for points, rungs in [(pts, ladder), (lattice, fine)]:
                d = full_distance_matrix(points, points, norm_kind)
                normed = state_cloud(points, norm_kind)
                assert _farthest_point(normed, rungs)[:2] == full_sweep_fps(d, rungs)
                for eps in rungs:  # one-rung ladders
                    assert covering_net(normed, eps).net_indices == full_sweep_fps(d, [eps])[0]
            assert covering_sizes(state_cloud(lattice, norm_kind), fine)[-2:] == [25, 25]
        line = state_cloud(rng.uniform(0.0, 4.0, size=(200, 1)))  # interval sweep
        assert covering_sizes(line, ladder) == [covering_net(line, eps).covering_size
                                                for eps in ladder]
        for bad in [(0.4, 0.4), (0.2, 0.4), ()]:
            with pytest.raises(ValueError, match="strictly decreasing"):
                covering_sizes(cloud, bad)
        with pytest.raises(ValueError, match="epsilon"):
            covering_sizes(cloud, (0.1, 0.0))


BENCH_LADDER = [0.1, 0.05, 0.02, 0.01]


def bench_clouds(monkeypatch, p=1.0):
    """The clouds of a diagnostic at the benchmark's size (1000 points at n = 16,
    32 and 64), in the order it covers them: each reach cloud, then its sphere."""
    clouds, cover = [], compactness._covering_pass
    monkeypatch.setattr(reachset, "_covering_pass",
                        lambda cloud, ladder: clouds.append(cloud) or cover(cloud, ladder))
    systems = [diagnostic_system(dim, p=p)[:3] for dim in (16, 32, 64)]
    compactness_diagnostic(systems, BENCH_LADDER, count=50, seed=5, cloud_budget=1000)
    return clouds


def assert_matches_oracle(cloud, ladder):
    """(net, sizes) of the pass, of `covering_sizes` and of the one-rung nets
    are the exact oracle's."""
    net, sizes = farthest_point_oracle(cloud, ladder)
    assert _farthest_point(cloud, ladder) == (net, sizes, None)
    assert covering_sizes(cloud, ladder) == sizes
    assert covering_net(cloud, ladder[-1]).net_indices == net
    assert covering_net(cloud, ladder[0]).net_indices == net[:sizes[0]]


def exact_ladder(cloud, norm_kind=2):
    """Rungs at exact distances of the cloud (ties at eps) and between them,
    down to below its smallest gap."""
    d = np.unique(full_distance_matrix(cloud.points, cloud.points, norm_kind))
    d = d[d > 0]
    return sorted({float(d[-1]) / 2, float(np.median(d)), float(d[len(d) // 8]),
                   float(d[0]), float(d[0]) / 2}, reverse=True)


class TestGramCovering:
    """Euclidean sweeps take Gram distances and every decision of the exact oracle."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_diagnostic_clouds(self, monkeypatch, p):
        clouds = bench_clouds(monkeypatch, p)
        assert [c.points.shape for c in clouds] == [(1000, n) for n in (16, 32, 64) for _ in "ab"]
        for cloud in clouds:
            assert_matches_oracle(cloud, BENCH_LADDER)

    def test_ties_duplicates_and_offsets(self, rng, monkeypatch):
        # a retake is a `_nearest` call while the pass still sweeps Gram
        # values, a takeover an exact sweep built in a pass that began on them
        retaken, takeovers, exact = [], [], [False]
        sweep, nearest = compactness._sweep, compactness._nearest
        init = compactness._ExactSweep.__init__

        def new_pass(cloud):
            exact[0] = False
            return sweep(cloud)

        def take_over(self, *args):
            exact[0] = True
            takeovers.append(1)
            init(self, *args)

        def kernel(points, *args):
            if not exact[0]:
                retaken.append(len(points))
            return nearest(points, *args)

        monkeypatch.setattr(compactness, "_sweep", new_pass)
        monkeypatch.setattr(compactness._ExactSweep, "__init__", take_over)
        monkeypatch.setattr(compactness, "_nearest", kernel)
        square = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
        assert_matches_oracle(state_cloud(square), [6.0, 3.0, math.sqrt(2.0), 1.0, 0.5])
        assert retaken and takeovers  # exact ties are taken again, then swept exactly
        # 40 x 40, spacing 0.1, offset 7.3: about a hundred retakes a pass
        retaken.clear()
        large = np.stack(np.meshgrid(np.arange(40.0), np.arange(40.0)), -1).reshape(-1, 2)
        assert_matches_oracle(state_cloud(large * 0.1 + 7.3), [2.0, 1.0, 0.5, 0.2, 0.1])
        assert len(retaken) > 50
        small = np.stack(np.meshgrid(*[np.arange(3.0)] * 3), -1).reshape(-1, 3)
        base = rng.standard_normal((12, 5))
        # off the origin, the Gram values of tied points differ in their last bits
        for points in [small, np.concatenate([small, small[::-1]]) * 0.3 + 11.0,
                       square * 0.1 + 7.3, rng.integers(-2, 3, (150, 4)) * 0.5 + 3.1,
                       base[rng.integers(0, 12, 150)],  # duplicate-heavy
                       rng.standard_normal((150, 6)) + 40.0]:
            cloud = state_cloud(points)
            assert_matches_oracle(cloud, exact_ladder(cloud))

    def test_nearest_is_the_kernels_minimum_in_any_block(self, rng, monkeypatch):
        clouds = [state_cloud(rng.standard_normal((50, 3)) + 7.3),
                  state_cloud(rng.standard_normal((50, 3)), np.inf),
                  trajectory_cloud([random_trajectory(rng, 8, 3) for _ in range(50)])]
        rows = rng.permutation(50)[:23]
        for cloud in clouds:
            kinds, points = (cloud.metric_kind, cloud.norm_kind), cloud.points[rows]
            others = rng.standard_normal(cloud.points[:7].shape)  # centers off the cloud
            for centers in (cloud.points[[0, 5, 9, 30]], others, cloud.points[:0]):
                brute = np.full(rows.size, np.inf)
                for c in centers:
                    brute = np.minimum(brute, _distances(points, *kinds, c))
                for step in (1, 5, 23, 100):  # rows a block: a partial last block at 5
                    monkeypatch.setattr(compactness, "_NEAREST_FLOATS",
                                        step * max(centers.size, 1))
                    assert np.array_equal(compactness._nearest(points, *kinds, centers), brute)
                    scratch = compactness._scratch(rows.size, centers)  # a caller's scratch
                    assert np.array_equal(
                        compactness._nearest(points, *kinds, centers, scratch), brute)

    def test_extreme_scales_sweep_exactly(self, rng):
        points = rng.standard_normal((120, 5))
        points[7] = points[3]
        ladder = exact_ladder(state_cloud(points))
        for scale in (1e-160, 1e160):  # squares underflow or overflow: no warning
            cloud = state_cloud(points * scale)
            assert isinstance(compactness._sweep(cloud), compactness._ExactSweep)
            assert_matches_oracle(cloud, [e * scale for e in ladder])
        assert isinstance(compactness._sweep(state_cloud(points)), compactness._GramSweep)

    @pytest.mark.parametrize("norm_kind", [1, np.inf])
    def test_other_norms_sweep_exactly(self, rng, norm_kind):
        lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
        for points in [lattice, rng.standard_normal((150, 4))]:
            cloud = state_cloud(points, norm_kind)
            assert isinstance(compactness._sweep(cloud), compactness._ExactSweep)
            assert_matches_oracle(cloud, exact_ladder(cloud, norm_kind))

    def test_trajectory_clouds_sweep_exactly(self, rng):
        cloud = trajectory_cloud([random_trajectory(rng, 8, 3) for _ in range(60)])
        assert isinstance(compactness._sweep(cloud), compactness._ExactSweep)
        d = full_distance_matrix(cloud.points, cloud.points, 2)
        assert_matches_oracle(cloud, [float(np.quantile(d, q)) for q in (0.9, 0.5, 0.1)])


def record_blocks(monkeypatch):
    """(live count, centers settled, centers it would settle on the finest
    possible rung) of every block the pass runs."""
    blocks, settle = [], compactness._settle_block

    def recorded(sweep, x, level):
        picks = settle(sweep, x, level)
        blocks.append((x.size, picks.size, settle(sweep, x, 0.0).size))
        return picks

    monkeypatch.setattr(compactness, "_settle_block", recorded)
    return blocks


class TestBlockCovering:
    """Each test of a block, put to work, keeps the exact oracle's decisions."""

    def test_next_leader_outside_the_candidates(self, rng, monkeypatch):
        # a block's worth of points at ~10 from point 0, the rest at ~9 on the
        # other side: after the first pick the leader is no candidate (tau)
        far = [10.0, 0.0] + 1e-3 * rng.standard_normal((compactness._BLOCK, 2))
        other = [-9.0, 0.0] + 1e-3 * rng.standard_normal((30, 2))
        cloud = state_cloud(np.concatenate([[[0.0, 0.0]], far, other]))
        blocks = record_blocks(monkeypatch)
        assert_matches_oracle(cloud, [1.0, 1e-5])
        assert blocks[0][:2] == (cloud.size, 1)  # one pick, then tau stops the block
        assert farthest_point_oracle(cloud, [1.0])[0][2] > compactness._BLOCK

    def test_contested_candidates(self, rng, monkeypatch):
        # a unique leader opens the block; off the origin the Gram values of
        # the tied points after it differ in their last bits
        pairs = [[a, s * b] for a in range(1, 12) for b in range(1, 6) for s in (1, -1)]
        square = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0)), -1).reshape(-1, 2)
        for points in [np.concatenate([[[0.0, 0.0], [20.0, 0.0]], pairs]) + 1e3 + 0.3,
                       np.concatenate([rng.standard_normal((60, 2)), square * 0.5 + 4.0]) + 7.3]:
            cloud = state_cloud(points)
            blocks = record_blocks(monkeypatch)
            assert_matches_oracle(cloud, [4.0, 2.0, 1.0, 0.5, 0.25])
            assert any(settled for _, settled, _ in blocks)

    def test_block_stops_at_a_rung_boundary(self, rng, monkeypatch):
        points = rng.standard_normal((400, 3))
        d = full_distance_matrix(points, points, 2)
        shifted = state_cloud(points[:150] + 5.0)  # rungs at its exact distances
        for cloud, ladder in [(state_cloud(points), [float(np.quantile(d, q))
                                                     for q in (0.5, 0.2, 0.1, 0.05)]),
                              (shifted, exact_ladder(shifted))]:
            blocks = record_blocks(monkeypatch)
            assert_matches_oracle(cloud, ladder)
            assert any(0 < settled < free for _, settled, free in blocks)

    def test_every_live_point_a_candidate(self, rng, monkeypatch):
        small = rng.standard_normal((40, 4))
        small[[5, 9]] = small[2]  # duplicates
        for points in [small, rng.standard_normal((150, 3))]:
            blocks = record_blocks(monkeypatch)
            cloud = state_cloud(points)
            d = full_distance_matrix(points, points, 2)
            d = d[d > 0]
            assert_matches_oracle(cloud, [float(np.quantile(d, q)) for q in (0.5, 0.1, 0.01)])
            assert any(live <= compactness._BLOCK and settled for live, settled, _ in blocks)

    def test_bench_sphere_clouds_settle_in_blocks(self, monkeypatch):
        for ball in bench_clouds(monkeypatch)[1::2]:  # each reach cloud, then its sphere
            blocks = record_blocks(monkeypatch)
            net, sizes, _ = _farthest_point(ball, BENCH_LADDER)
            assert ball.size == 1000 and len(net) > 900
            assert sum(settled for _, settled, _ in blocks) >= 0.8 * (len(net) - 1)


def planted(rng, *groups):
    """A 4 x 4 x 4 grid of spacing 2, off the origin and jittered by up to 0.2
    (no ties: a lattice would make the pass take over on the exact sweep), in
    random order, one point of each planted group at a grid point: each group
    is a list of offsets from it."""
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3) * 2.0 + 5.25
    grid += rng.uniform(-0.2, 0.2, grid.shape)
    points = [grid]
    for k, group in enumerate(groups):
        points.append(grid[3 * k + 1] + np.array(group, dtype=float))
    return np.concatenate(points)[rng.permutation(len(grid) + sum(map(len, groups)))]


class TestGraphCovering:
    """Finer rungs read off the eps-graph are the exact oracle's sizes."""

    @staticmethod
    def assert_pass(points, ladder, graph_rung):
        cloud = state_cloud(points)
        net, sizes = farthest_point_oracle(cloud, ladder)
        covered = compactness._covering_pass(cloud, ladder)
        assert covered[0] == sizes and covered[2] == graph_rung
        assert covered[1] == (sizes[ladder.index(graph_rung) - 1] if graph_rung else len(net))
        assert covering_sizes(cloud, ladder) == sizes

    def test_censored_finer_rungs(self, rng):
        # the grid's points are 2 apart: every rung finer than the first is censored
        self.assert_pass(planted(rng), [3.0, 1.0, 0.5], 1.0)

    def test_pairs_and_triangles(self, rng):
        # planted cliques at 0.3: one component each at 0.5, split at 0.2
        h = 0.3 * math.sqrt(3.0) / 2.0
        groups = [[[0.3, 0.0, 0.0]], [[0.0, 0.0, 0.3]], [[0.3, 0.0, 0.0], [0.15, h, 0.0]],
                  [[0.0, 0.3, 0.0], [0.0, 0.15, h]], [[0.25, 0.1, 0.0]]]
        points = planted(rng, *groups)
        self.assert_pass(points, [3.0, 0.5, 0.2], 0.5)
        self.assert_pass(points, [3.0, 0.5, 0.25, 0.1], 0.5)  # a rung between the sides

    def test_path_is_declined(self, rng):
        # a - b - c at 0.3 with |ac| = 0.6 > 0.5: not a clique at 0.5, so the pass
        # serves 0.5 itself and reads 0.2 off the graph
        points = planted(rng, [[0.3, 0.0, 0.0], [0.6, 0.0, 0.0]], [[0.0, 0.3, 0.0]])
        self.assert_pass(points, [3.0, 0.5, 0.2], 0.2)
        self.assert_pass(points, [3.0, 0.7, 0.2], 0.7)  # a triangle at 0.7
        self.assert_pass(points, [3.0, 0.7, 0.5, 0.2], 0.2)  # ... but a path at 0.5
        # a path of four points, least index second along it: each edge count
        # matches a clique's, and only the shared least neighbour fails
        path = np.array([[0.3, 0.0, 0.0], [0.6, 0.0, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]])
        grid = planted(rng)
        self.assert_pass(np.concatenate([grid, grid[5] + [0.0, 1.0, 1.0] + path]),
                         [20.0, 0.5, 0.2], 0.2)

    def test_pair_at_exactly_eps(self, rng):
        # dyadic coordinates: the kernel reads exactly 0.5, an edge of the 0.5 rung
        points = planted(rng, [[0.5, 0.0, 0.0]], [[0.0, 0.0, -0.5]], [[0.375, 0.0, 0.0]])
        assert 0.5 in full_distance_matrix(points, points, 2)
        self.assert_pass(points, [3.0, 0.5, 0.25], 0.5)
        self.assert_pass(points, [3.0, 0.4, 0.25], 0.4)

    def test_duplicates(self, rng):
        groups = [[[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                  [[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]]
        points = planted(rng, *groups)
        points = np.concatenate([points, points[:1]])  # and one of the first center
        # the first rung takes one center: no point is dropped before the graph
        self.assert_pass(points, [20.0, 0.5, 0.1], 0.5)

    def test_dead_non_center_is_declined(self, rng):
        # every grid point has two duplicates: once an eighth of the points is
        # within the finest eps of the net they are dropped, non-centers included
        points = planted(rng, *[[[0.0, 0.0, 0.0]] * 2] * 21)
        ladder = [1.0, 0.5, 0.1]
        self.assert_pass(points, ladder, None)

    def test_bench_sphere_clouds_stop_early(self, monkeypatch):
        # a counting check: the shortcut fires on every sphere cloud of the
        # benchmark's size, and spares most picks at n = 16
        for ball in bench_clouds(monkeypatch)[1::2]:
            sizes, picks, graph_rung = compactness._covering_pass(ball, BENCH_LADDER)
            assert sizes == farthest_point_oracle(ball, BENCH_LADDER)[1]
            assert graph_rung == 0.05 and picks == sizes[0]
            if ball.points.shape[1] == 16:
                assert picks < 400


class TestPackingNumber:
    def test_two_point_examples(self):
        cloud = state_cloud([[0.0], [1.0]])
        assert packing_number(cloud, 0.5) == 2
        assert packing_number(cloud, 1.5) == 1

    def test_packing_never_exceeds_cloud(self, rng):
        cloud = state_cloud(rng.uniform(0, 1, size=(40, 2)))
        for s in (0.05, 0.2, 0.9):
            assert 1 <= packing_number(cloud, s) <= 40

    def test_separated_follows_any_index_order(self, rng):
        pts = rng.standard_normal((80, 3))
        pts[9] = pts[4]
        d = full_distance_matrix(pts, pts, 2)
        s = float(np.quantile(d[d > 0], 0.2))
        order = [int(i) for i in rng.permutation(80)] + [4, 9, 0]  # repeats at the end
        expected: list[int] = []
        for i in order:
            if all(d[i, j] >= s for j in expected):
                expected.append(i)
        # the greedy sweep of the reordered subcloud, as positions in `order`
        net, _ = _net_cells(state_cloud(pts[order]), s)
        assert [order[k] for k in net] == expected
        assert np.array_equal(_net_cells(state_cloud(pts), s, order)[0], net)
        assert _net_cells(state_cloud(pts[[]]), s)[0].tolist() == []
        assert _net_cells(state_cloud(pts), s, [])[0].tolist() == []

    @pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
    def test_trajectory_clouds_sweep_as_brute_force(self, rng, norm_kind):
        trajectories = [random_trajectory(rng, 8, 3, norm_kind=norm_kind) for _ in range(60)]
        trajectories[7] = trajectories[2]  # a duplicate shares its cell
        cloud = trajectory_cloud(trajectories)
        d = full_distance_matrix(cloud.points, cloud.points, norm_kind)
        for s in (float(np.quantile(d, q)) for q in (0.5, 0.1, 0.02)):
            net, radii = _net_cells(cloud, s)
            oracle_net, oracle_radii = greedy_cells_oracle(cloud, s)
            assert net.tolist() == oracle_net and np.array_equal(radii, oracle_radii)
            assert packing_number(cloud, s) == len(oracle_net) > 1
            assert greedy_net(cloud, s).net_indices == oracle_net

    @pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
    def test_sweep_crosses_block_boundaries_as_brute_force(self, rng, norm_kind, monkeypatch):
        # blocks of 7 live points, and the default blocks on a cloud longer than one
        pts = rng.uniform(-1.0, 1.0, (300, 3))
        pts[150:160] = pts[:10]  # duplicates share a cell
        small = state_cloud(pts, norm_kind)
        cloud = state_cloud(0.3 * rng.standard_normal((5000, 16)), norm_kind)
        step = compactness._scratch(cloud.size, cloud.points[:1]).shape[1]
        assert step < cloud.size
        for c, q, rows in [(small, 0.02, 7), (small, 0.1, 7), (cloud, 0.03, None)]:
            s = float(np.quantile(_distances(c.points, "state_norm", norm_kind, c.points[0]), q))
            if rows:
                monkeypatch.setattr(compactness, "_NEAREST_FLOATS", rows * c.points.shape[1])
            net, radii = _net_cells(c, s)
            oracle_net, oracle_radii = greedy_cells_oracle(c, s)
            assert net.tolist() == oracle_net and np.array_equal(radii, oracle_radii)
            assert len(net) > 10
            monkeypatch.undo()

    def test_memory_stays_bounded(self):
        # 100 000 x 16 points (12.8 MB) sweep within a quarter of that
        cloud = state_cloud(0.3 * np.random.default_rng(8).standard_normal((100_000, 16)))
        _net_cells(state_cloud(cloud.points[:10]), 1.6)
        tracemalloc.start()
        try:
            net, _ = _net_cells(cloud, 1.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net) > 100
        assert peak < cloud.points.nbytes / 4


class TestHausdorffDistance:
    def test_reference_values(self):
        a = state_cloud([[0.0]])
        b = state_cloud([[3.0]])
        ab = state_cloud([[0.0], [1.0]])
        assert hausdorff_distance(a, a) == 0.0
        assert hausdorff_distance(a, b) == 3.0
        assert hausdorff_distance(ab, a) == 1.0

    def test_metric_axioms_on_random_triples(self, rng):
        clouds = [state_cloud(rng.uniform(-1, 1, size=(rng.integers(1, 8), 2)))
                  for _ in range(45)]
        combos = [(i, j, k) for i in range(45) for j in range(i + 1, 45)
                  for k in range(j + 1, 45)][:1000]
        for i, j, k in combos:
            dij = hausdorff_distance(clouds[i], clouds[j])
            dji = hausdorff_distance(clouds[j], clouds[i])
            dik = hausdorff_distance(clouds[i], clouds[k])
            dkj = hausdorff_distance(clouds[k], clouds[j])
            assert dij == dji
            assert dij <= dik + dkj + 1e-12

    def test_zero_iff_equal_as_sets(self, rng):
        pts = rng.uniform(0, 1, size=(6, 2))
        shuffled = pts[rng.permutation(6)]
        assert hausdorff_distance(state_cloud(pts), state_cloud(shuffled)) == 0.0
        moved = pts.copy()
        moved[0] += 0.5
        assert hausdorff_distance(state_cloud(pts), state_cloud(moved)) > 0.0


def full_distance_matrix(a, b, norm_kind):
    """Every pairwise distance at once; the sup over time for trajectory clouds."""
    d = np.linalg.norm(a[:, None] - b[None], ord=norm_kind, axis=-1)
    return d.reshape(len(a), len(b), -1).max(axis=-1)


def full_sweep_fps(d, ladder):
    """Farthest-point net and sizes along a ladder, every sweep over the whole cloud."""
    net, nearest, sizes = [0], d[0].copy(), []
    for e in ladder:
        while nearest.max() > e:
            net.append(int(np.argmax(nearest)))
            nearest = np.minimum(nearest, d[net[-1]])
        sizes.append(len(net))
    return net, sizes


@pytest.mark.parametrize("norm_kind", [1, 2, np.inf])
@pytest.mark.parametrize("shape", [(60, 3), (30, 9, 2)], ids=["states", "trajectories"])
def test_nets_match_full_distance_matrix_oracle(rng, norm_kind, shape):
    kind = "state_norm" if len(shape) == 2 else "sup_norm"
    pts = rng.standard_normal(shape)
    pts[7] = pts[3]  # an exact duplicate
    cloud = PointCloud(pts, kind, norm_kind)
    other = PointCloud(rng.standard_normal(shape)[:20] + 0.3, kind, norm_kind)
    d = full_distance_matrix(pts, pts, norm_kind)
    eps = float(np.quantile(d[d > 0], 0.2))

    greedy: list[int] = []
    for i in range(len(pts)):
        if all(d[i, j] >= eps for j in greedy):
            greedy.append(i)
    assert greedy_net(cloud, eps).net_indices == greedy
    assert packing_number(cloud, eps) == len(greedy)

    def fps(e):
        return full_sweep_fps(d, [e])[0]

    assert covering_net(cloud, eps).net_indices == fps(eps)
    # down to below the smallest gap: every point but the duplicate is a center
    ladder = [4 * eps, 2 * eps, eps, eps / 2, d[d > 0].min() / 2, d[d > 0].min() / 4]
    sizes = covering_sizes(cloud, ladder)
    assert sizes == [covering_net(cloud, e).covering_size for e in ladder]
    assert sizes == [len(fps(e)) for e in ladder]
    assert sizes[-2:] == [len(pts) - 1] * 2
    assert _farthest_point(cloud, ladder)[:2] == full_sweep_fps(d, ladder)
    for e in ladder:  # one-rung ladders
        assert covering_net(cloud, e).net_indices == fps(e)

    centers = [0, 11, 23]
    radius = d[:, centers].min(axis=1).max()
    assert verify_coverage(cloud, pts[centers], radius * (1 + 1e-9), slack=0.0)
    assert not verify_coverage(cloud, pts[centers], radius * (1 - 1e-6), slack=0.0)

    cross = full_distance_matrix(pts, other.points, norm_kind)
    expected = max(cross.min(axis=1).max(), cross.min(axis=0).max())
    assert hausdorff_distance(cloud, other) == pytest.approx(expected, rel=1e-12)
    assert hausdorff_distance(other, cloud) == hausdorff_distance(cloud, other)


class TestEvaluationAndImage:
    def test_constant_trajectory_evaluation(self):
        x = constant_trajectory(StateVector([2.0, 1.0]), 1.0, 16)
        ev = evaluation_set([x])
        assert ev.size == 17
        assert np.all(ev.points == [2.0, 1.0])

    def test_two_segments_net(self):
        n_t = 100
        t = np.linspace(0, 1, n_t + 1)
        up = TrajectoryGrid(1.0, t[:, None].copy())
        down = TrajectoryGrid(1.0, (1.0 - t)[:, None].copy())
        ev = evaluation_set([up, down])
        assert greedy_net(ev, 0.55).covering_size <= 2

    def test_empty_list_allowed(self):
        assert evaluation_set([]).size == 0

    def test_image_lipschitz_under_sup_norm(self, rng):
        for _ in range(100):
            x = random_trajectory(rng, 12, 2)
            y = random_trajectory(rng, 12, 2)
            d_h = hausdorff_distance(state_cloud(x.states, x.norm_kind),
                                     state_cloud(y.states, y.norm_kind))
            assert d_h <= sup_norm(x, y) + 1e-12


class TestNetTransfer:
    def test_single_trajectory_reduces_to_image_net(self, rng):
        x = random_trajectory(rng, 40, 2)
        s_net = greedy_net(trajectory_cloud([x]), 0.25)
        out = net_transfer(s_net, [x], 0.5)
        image = state_cloud(x.states, x.norm_kind)
        assert out.covering_size == greedy_net(image, 0.25).covering_size

    def test_perturbation_family_uses_one_image_net(self, rng):
        base = random_trajectory(rng, 30, 2)
        family = [base]
        for _ in range(9):
            bump = rng.standard_normal(base.states.shape)
            bump *= 0.1 / np.abs(bump).max() * rng.uniform(0.2, 0.9)
            family.append(TrajectoryGrid(1.0, base.states + bump))
        s_net = greedy_net(trajectory_cloud(family), 0.25)
        assert s_net.covering_size == 1
        out = net_transfer(s_net, family, 0.5)
        image = state_cloud(base.states, base.norm_kind)
        assert out.covering_size == greedy_net(image, 0.25).covering_size

    def test_coverage_on_random_families(self, rng):
        for _ in range(10):
            family = [random_trajectory(rng, 20, 2) for _ in range(rng.integers(2, 7))]
            eps = float(rng.uniform(0.5, 2.0))
            s_net = greedy_net(trajectory_cloud(family), eps / 2)
            out = net_transfer(s_net, family, eps)
            ev = evaluation_set(family)
            assert brute_force_covered(ev, out.net_indices, eps)
            assert out.packing_size <= out.covering_size

    def test_invalid_input_net_rejected(self, rng):
        family = [random_trajectory(rng, 20, 2, scale=5.0) for _ in range(6)]
        bogus = greedy_net(trajectory_cloud(family[:1]), 1e-6)
        with pytest.raises(ValueError, match="not a valid"):
            net_transfer(bogus, family, 1e-5)


class TestCollectionUnionNets:
    def test_single_cloud_family_collapses(self, rng):
        cloud = state_cloud(rng.uniform(0, 1, size=(30, 2)))
        union_rep, hd_rep = collection_union_nets([cloud], 0.4)
        assert union_rep.covering_size == greedy_net(cloud, 0.2).covering_size
        assert hd_rep.covering_size == 1

    def test_two_singletons(self):
        family = [state_cloud([[0.0]]), state_cloud([[1.0]])]
        union_rep, hd_rep = collection_union_nets(family, 0.6)
        assert union_rep.covering_size <= 2
        assert hd_rep.covering_size >= 1

    def test_random_plane_families_verify(self, rng):
        for _ in range(20):
            family = [state_cloud(rng.uniform(0, 1, size=(rng.integers(1, 12), 2)))
                      for _ in range(rng.integers(2, 8))]
            eps = float(rng.uniform(0.15, 0.8))
            union_rep, hd_rep = collection_union_nets(family, eps)
            union = PointCloud(np.concatenate([k.points for k in family]),
                               "state_norm", 2)
            assert brute_force_covered(union, union_rep.net_indices, eps)
            assert union_rep.packing_size <= union_rep.covering_size
            assert hd_rep.packing_size <= hd_rep.covering_size
            # every K' is a subset of the union eps-net covering its member
            for subset in hd_rep.net_indices:
                assert len(subset) >= 1

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collection_union_nets([], 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_clouds_raise(rng, bad):
    # min and max see a NaN, +inf or -inf anywhere, in state and trajectory clouds
    points = rng.uniform(-1.0, 1.0, size=(12, 5, 3))
    points[7, 2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        state_cloud(points.reshape(-1, 3))
    with pytest.raises(ValueError, match="finite"):
        PointCloud(points, "sup_norm")
    assert state_cloud(np.empty((0, 3))).size == 0


def test_net_report_and_cloud_serialize(rng):
    cloud = state_cloud(rng.uniform(0, 1, size=(20, 3)))
    report = greedy_net(cloud, 0.4)
    payload = report.to_dict()
    assert payload["covering_size"] == report.covering_size
    assert all(isinstance(i, int) for i in payload["net_indices"])


def test_counterexample_packing_is_dyadic_depth():
    # sup-distance between consecutive dyadic ramps is exactly 1/2
    n_t = 256
    t = np.linspace(0, 1, n_t + 1)
    family = [TrajectoryGrid(1.0, np.minimum(n * t, 1.0)[:, None]) for n in
              (1, 2, 4, 8, 16)]
    cloud = trajectory_cloud(family)
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            assert sup_norm(family[a], family[b]) >= 0.5
    assert packing_number(cloud, 0.5) == 5


@st.composite
def mixed_clouds(draw):
    """Small Euclidean clouds of lattice points and normal draws, with exact
    duplicates, shifted by offsets up to far from the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 4))
    lattice = rng.integers(-3, 4, (draw(st.integers(0, 90)), dim)) * draw(
        st.sampled_from([1.0, 0.3, 0.1]))
    points = np.concatenate([lattice, rng.standard_normal((draw(st.integers(1, 60)), dim))])
    # drawn with replacement: exact duplicates
    points = points[rng.integers(0, len(points), len(points) + draw(st.integers(0, 20)))]
    return points + draw(st.sampled_from([0.0, 7.3, 1e3, 1e6]))


@settings(max_examples=60, deadline=None)
@given(points=mixed_clouds(), norm_kind=st.sampled_from([1, 2, np.inf]), data=st.data())
def test_farthest_point_matches_full_sweep_on_mixed_clouds(points, norm_kind, data):
    d = full_distance_matrix(points, points, norm_kind)
    gaps = np.unique(d[d > 0]) if np.any(d > 0) else np.ones(1)
    rungs = data.draw(st.lists(  # exact distances (ties at eps) and values between them
        st.sampled_from(gaps.tolist()) | st.floats(gaps[0] / 4, 2 * gaps[-1]),
        min_size=1, max_size=6, unique=True))
    ladder = sorted(rungs, reverse=True)
    assert _farthest_point(state_cloud(points, norm_kind), ladder)[:2] == full_sweep_fps(d, ladder)
