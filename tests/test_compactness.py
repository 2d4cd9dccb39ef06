import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildsolve import (
    Control,
    StateVector,
    bilinear_field,
    certify_hidden_contraction,
    collection_union_nets,
    constant_field,
    constant_trajectory,
    covering_net,
    covering_sizes,
    diagonal_semigroup,
    evaluation_set,
    greedy_net,
    hausdorff_distance,
    integral_operator,
    iterated_images,
    net_transfer,
    packing_number,
    sample_ball,
    state_cloud,
    sup_norm,
    trajectory_cloud,
)
from mildsolve.compactness import PointCloud, _farthest_point, verify_coverage
from mildsolve.operator import TrajectoryGrid

from conftest import random_trajectory


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
                assert _farthest_point(normed, rungs) == full_sweep_fps(d, rungs)
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


class TestPackingNumber:
    def test_two_point_examples(self):
        cloud = state_cloud([[0.0], [1.0]])
        assert packing_number(cloud, 0.5) == 2
        assert packing_number(cloud, 1.5) == 1

    def test_packing_never_exceeds_cloud(self, rng):
        cloud = state_cloud(rng.uniform(0, 1, size=(40, 2)))
        for s in (0.05, 0.2, 0.9):
            assert 1 <= packing_number(cloud, s) <= 40


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
    assert _farthest_point(cloud, ladder) == full_sweep_fps(d, ladder)
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


class TestIteratedImages:
    @pytest.fixture
    def operator_setup(self):
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])

        def apply_f(field):
            return lambda x, u: integral_operator(x, u, xi0, [field], sg)

        return sg, xi0, apply_f

    def test_zeroth_generation(self, operator_setup, rng):
        _, xi0, apply_f = operator_setup
        x0 = constant_trajectory(xi0, 1.0, 16)
        u = sample_ball(1.0, 1.0, 1.0, 1, 16, 1, seed=0)
        clouds = iterated_images(x0, u, apply_f(bilinear_field([[1.0]])), 0)
        assert len(clouds) == 1
        assert clouds[0].size == 1

    def test_constant_field_stabilizes_after_one_step(self, operator_setup):
        _, xi0, apply_f = operator_setup
        x0 = constant_trajectory(xi0, 1.0, 16)
        us = sample_ball(1.0, 1.0, 1.0, 1, 16, 4, seed=1)
        clouds = iterated_images(x0, us, apply_f(constant_field([1.0])), 2)
        # F does not depend on x, so W_2 and W_1 agree as sets
        assert hausdorff_distance(clouds[2], clouds[1]) <= 1e-12

    def test_generation_counting(self, operator_setup):
        _, xi0, apply_f = operator_setup
        x0 = constant_trajectory(xi0, 1.0, 16)
        us = sample_ball(1.0, 1.0, 1.0, 1, 16, 3, seed=2)
        clouds = iterated_images(x0, us, apply_f(bilinear_field([[1.0]])), 2)
        assert clouds[1].size == 3
        assert clouds[2].size <= 9

    def test_budget_without_subsampling_rejected(self, operator_setup):
        _, xi0, apply_f = operator_setup
        x0 = constant_trajectory(xi0, 1.0, 16)
        us = sample_ball(1.0, 1.0, 1.0, 1, 16, 5, seed=3)
        with pytest.raises(ValueError, match="budget"):
            iterated_images(x0, us, apply_f(bilinear_field([[1.0]])), 2,
                            budget=10, subsample=False)

    def test_budget_subsampling_is_seeded(self, operator_setup):
        _, xi0, apply_f = operator_setup
        x0 = constant_trajectory(xi0, 1.0, 16)
        us = sample_ball(1.0, 1.0, 1.0, 1, 16, 5, seed=3)
        a = iterated_images(x0, us, apply_f(bilinear_field([[1.0]])), 2,
                            budget=10, seed=5)
        b = iterated_images(x0, us, apply_f(bilinear_field([[1.0]])), 2,
                            budget=10, seed=5)
        assert a[2].size == 10
        assert np.array_equal(a[2].points, b[2].points)

    def test_certificate_radius_enforced(self, operator_setup):
        _, xi0, apply_f = operator_setup
        x0 = constant_trajectory(xi0, 1.0, 16)
        cert = certify_hidden_contraction(0.1, 1.0, 0.0, 1.0, 1.0)
        us = [Control(1.0, np.full((1, 16), 2.0))]
        with pytest.raises(ValueError, match="radius"):
            iterated_images(x0, us, apply_f(bilinear_field([[1.0]])), 1, cert=cert)


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
