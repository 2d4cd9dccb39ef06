import math
import tracemalloc

import numpy as np
import pytest

from mildsolve import (
    Control,
    StateVector,
    VerificationError,
    bilinear_field,
    certify,
    certify_hidden_contraction,
    compactness_diagnostic,
    constant_field,
    convolution_compactness_check,
    counterexample_report,
    dense_semigroup,
    diagonal_semigroup,
    field_value_cloud,
    gamma_approximation,
    gronwall_radius,
    integral_operator,
    lp_norm,
    sample_reachset,
    saturation_field,
    semigroup_orbit,
    state_cloud,
)
from mildsolve.operator import BatchOperator, TrajectoryGrid, semigroup_act, semigroup_step
import mildsolve.reachset as reachset
import mildsolve.spaces
from mildsolve import GammaTable, gamma_tables, greedy_net
from mildsolve import compactness
from mildsolve.compactness import _distances, _net_cells
from mildsolve.reachset import ReachSetSample, _build_gamma_table, _certified_bound
from mildsolve.spaces import vector_norm

from conftest import (assert_tables_equal, diagnostic_system, gamma_approximation_oracle,
                      gamma_cells_oracle, greedy_cells_oracle, state_cell_oracle, verify_gamma)


class TestSampleReachset:
    def test_seed_determinism(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        a = sample_reachset(xi0, 8, 3, [f], sg, cert, 64)
        b = sample_reachset(xi0, 8, 3, [f], sg, cert, 64)
        assert np.array_equal(a.states.reshape(-1, 1), b.states.reshape(-1, 1))

    def test_scalar_bilinear_hoelder_envelope(self):
        # endpoints equal xi0 exp(int u); |int_0^t u| <= sqrt(t) |u|_2 <= r sqrt(T)
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        sample = sample_reachset(xi0, 40, 11, [f], sg, cert, 256)
        vals = sample.states.reshape(-1, 1)[:, 0]
        assert vals.max() <= math.exp(1.0) * (1 + 1e-6)
        assert vals.min() >= math.exp(-1.0) * (1 - 1e-6)

    def test_endpoints_inside_gronwall_ball(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        sample = sample_reachset(xi0, 60, 5, [f], sg, cert, 128)
        radius = gronwall_radius(xi0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert np.abs(sample.states.reshape(-1, 1) - 1.0).max() < radius

    def test_zero_control_orbit_is_a_valid_sample(self):
        # the degenerate one-member sample is exactly the semigroup orbit
        sg = diagonal_semigroup([-1.0, -4.0])
        xi0 = StateVector([1.0, 1.0])
        orbit = semigroup_orbit(sg, xi0, 1.0, 32)
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        sample = hand_sample(xi0, cert, np.zeros((1, 1, 32)), orbit.states[None])
        assert np.array_equal(sample.states.reshape(-1, 2), orbit.states)
        assert np.array_equal(sample.states[0], orbit.states)
        assert np.array_equal(sample.times, orbit.times)

    def test_states_are_held_once(self, monkeypatch):
        # the sample holds the forward pass's own state array, and sampling
        # peaks well below two copies of it
        passes, solve_stack = [], reachset._solve_stack

        def recorded(*args):
            passes.append(solve_stack(*args))
            return passes[-1]

        monkeypatch.setattr(reachset, "_solve_stack", recorded)
        sg, fields, cert, xi0 = diagnostic_system(64)
        sample_reachset(xi0, 2, 1, fields, sg, cert, 128, tol=1e-4)  # warm the caches
        tracemalloc.start()
        try:
            sample = sample_reachset(xi0, 50, 1, fields, sg, cert, 128, tol=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.states is passes[-1][0]
        assert sample.states.shape == (50, 129, 64)
        assert sample.controls.values.shape == (50, 1, 128)
        assert peak <= 1.6 * 50 * 129 * 64 * 8

    def test_controls_are_the_drawn_stack(self, monkeypatch):
        # the sample keeps `sample_ball`'s own array: no control is copied
        draws, draw = [], reachset.sample_ball

        def recorded(*args):
            draws.append(draw(*args))
            return draws[-1]

        monkeypatch.setattr(reachset, "sample_ball", recorded)
        sg, fields, cert, xi0 = diagnostic_system(16)
        sample = sample_reachset(xi0, 20, 3, fields, sg, cert, 32, tol=1e-4)
        assert np.shares_memory(sample.controls.values, draws[-1][0].values)
        assert sample.controls.values is draws[-1].values

    def test_start_violation_rejected(self):
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])
        states = np.stack([semigroup_orbit(sg, StateVector([start]), 1.0, 8).states
                           for start in (1.0, 2.0)])
        with pytest.raises(ValueError, match="start at xi0"):
            hand_sample(xi0, certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0),
                        np.zeros((2, 1, 8)), states)

    def test_ball_violation_rejected(self):
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])
        orbit = semigroup_orbit(sg, xi0, 1.0, 8)
        with pytest.raises(ValueError, match="radius"):
            hand_sample(xi0, certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0),
                        np.full((1, 1, 8), 5.0), orbit.states[None])

    def test_tolerance_must_be_positive(self):
        sg, fields, cert, xi0 = diagnostic_system(4)
        with pytest.raises(ValueError, match="tol must be > 0"):
            sample_reachset(xi0, 2, 1, fields, sg, cert, 16, tol=0)

    def test_one_trajectory_per_control_on_its_grid(self):
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])
        states = semigroup_orbit(sg, xi0, 1.0, 8).states[None]
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        for values in (np.zeros((2, 1, 8)), np.zeros((1, 1, 4))):
            with pytest.raises(ValueError, match="one trajectory per control, on its grid"):
                hand_sample(xi0, cert, values, states)


def hand_sample(xi0, cert, values, states):
    """A sample of given (B, m, n_t) control values and (B, n_t + 1, n) states."""
    return ReachSetSample(xi0, cert, Control(cert.horizon_T, values), states)


class TestCompactnessDiagnostic:
    def test_row_schema_and_determinism(self):
        systems = [diagnostic_system(d)[:3] for d in (2, 4)]
        kwargs = dict(systems=systems, eps_ladder=[0.5, 0.25], count=10, seed=2, n_t=32,
                      xi0_scale=0.5, cloud_budget=200)
        rep1 = compactness_diagnostic(**kwargs)
        rep2 = compactness_diagnostic(**kwargs)
        assert rep1.rows == rep2.rows
        assert len(rep1.rows) == 4
        for row in rep1.rows:
            assert set(row) == {"n", "p", "eps", "n_reach", "n_ball", "sample_size"}
            assert row["n_reach"] >= 1 and row["n_ball"] >= 1

    def test_scalar_reach_covering_respects_interval_bound(self):
        sg, fields, cert, xi0 = diagnostic_system(1, 1.0)
        rep = compactness_diagnostic([(sg, fields, cert)], eps_ladder=[0.05], count=50,
                                     seed=7, n_t=64, xi0_scale=1.0, cloud_budget=2000)
        sample = sample_reachset(xi0, 50, 7, fields, sg, cert, 64, tol=1e-4)
        vals = sample.states.reshape(-1, 1)[:, 0]
        diameter = vals.max() - vals.min()
        assert rep.rows[0]["n_reach"] <= math.ceil(diameter / 0.1) + 1

    @pytest.mark.parametrize("case", ["heat", "saturation"])
    def test_streamed_rows_equal_the_whole_stack(self, case, monkeypatch):
        # the streamed pass covers the rows that subsampling `sample_reachset`'s
        # whole stack with the diagnostic's own draw gives, and the sphere
        # cloud comes from the same generator after them; a saturation field
        # proves no rho (its eval_error is None), so its stack is solved whole
        sg, fields, cert, _ = diagnostic_system(8)
        if case == "saturation":
            fields = [saturation_field(1.0)]
        clouds, covering_pass = [], reachset._covering_pass

        def recorded(cloud, eps_ladder):
            clouds.append(cloud)
            return covering_pass(cloud, eps_ladder)

        monkeypatch.setattr(reachset, "_covering_pass", recorded)
        ladder = [0.02, 0.01]
        report = compactness_diagnostic([(sg, fields, cert)], ladder, count=12, seed=4, n_t=32,
                                        xi0_scale=0.5, cloud_budget=100)
        xi0 = StateVector(np.full(8, 0.5 / vector_norm(np.ones(8), 2)))
        sample = sample_reachset(xi0, 12, 4, fields, sg, cert, 32, tol=1e-4)
        rng = np.random.default_rng(4 + 7919 * 8)
        rows = sample.states.reshape(-1, 8)[np.sort(rng.choice(12 * 33, 100, replace=False))]
        sphere = rng.standard_normal((100, 8))
        sphere /= vector_norm(sphere, 2)[:, None]
        assert np.array_equal(clouds[0].points, rows)
        assert np.array_equal(clouds[1].points, sphere * report.config["gronwall_radius"]
                              + xi0.coords)
        assert [row["n_reach"] for row in report.rows] == covering_pass(state_cloud(rows),
                                                                         ladder)[0]
        solves = report.dimensions[8]["solves"]
        assert solves == {**sample.solves, "held_rows": 100, "full_stack": case == "saturation"}
        assert (solves["applications"] > 0) == (case == "saturation")

    def test_streamed_sample_holds_no_state_stack(self):
        # 200 controls x 129 grid times x 64 coordinates are a 13.2 MB stack,
        # of which the diagnostic covers 200 rows: it peaks far below the stack
        system = diagnostic_system(64)[:3]
        compactness_diagnostic([system], [0.05], count=2, seed=1, cloud_budget=20)  # warm up
        tracemalloc.start()
        try:
            report = compactness_diagnostic([system], [0.05], count=200, seed=1, n_t=128,
                                            cloud_budget=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        solves = report.dimensions[64]["solves"]
        assert (solves["held_rows"], solves["full_stack"]) == (200, False)
        assert solves["applications"] == 0
        assert peak < 200 * 129 * 64 * 8 / 4

    def test_invalid_ladders_rejected(self):
        systems = [diagnostic_system(d)[:3] for d in (2, 4)]
        with pytest.raises(ValueError, match="increasing"):
            compactness_diagnostic(systems[::-1], [0.5], 2, 0)
        with pytest.raises(ValueError, match="decreasing"):
            compactness_diagnostic(systems, [0.1, 0.5], 2, 0)


class TestCounterexample:
    def test_dyadic_family_report(self):
        rep = counterexample_report(n_max=16, n_t=64)
        assert rep.spike_indices == [1, 2, 4, 8, 16]
        assert rep.max_closed_form_error <= 1e-9
        assert rep.packing_size == 5
        assert rep.eval_covering_size <= 3

    def test_first_spike_is_identity_ramp(self):
        from mildsolve import Control, picard_solve, spike_control
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 0.0, 1.0)
        res = picard_solve(StateVector([0.0]), spike_control(1, 64), [f], sg, cert)
        assert np.allclose(res.trajectory.states[:, 0], res.trajectory.times,
                           atol=1e-14)

    def test_fourth_spike_saturates(self):
        from mildsolve import picard_solve, spike_control
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 0.0, 1.0)
        res = picard_solve(StateVector([0.0]), spike_control(4, 64), [f], sg, cert)
        t = res.trajectory.times
        assert np.allclose(res.trajectory.states[:, 0], np.minimum(4 * t, 1.0),
                           atol=1e-14)

    def test_misaligned_grid_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            counterexample_report(n_max=8, n_t=100)

    def test_packing_grows_while_covering_stays_bounded(self):
        # the dichotomy: trajectory packing tracks the dyadic depth, state
        # covering stays below ceil(1/(2 eps)) + 1 throughout
        for depth in (2, 3, 4, 5):
            rep = counterexample_report(n_max=2 ** depth, n_t=128)
            assert rep.packing_size == depth + 1
            assert rep.eval_covering_size <= math.ceil(1 / (2 * 0.25)) + 1


class TestGammaApproximation:
    def test_identity_semigroup_error_below_delta(self):
        sg = diagonal_semigroup([0.0])
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        table = gamma_approximation(sg, cloud, 1.0, 0.1)
        assert table.certified_bound < table.delta <= 0.1 + 1e-12

    def test_single_point_cloud(self):
        sg = diagonal_semigroup([-1.0])
        table = gamma_approximation(sg, state_cloud([[0.7]]), 1.0, 0.05)
        assert table.n_state_cells == 1
        assert table.certified_bound < 0.05
        # one-column table: values are the semigroup orbit of the center
        for i in range(1, table.n_time_cells + 1):
            t = i * 1.0 / table.n_time_cells
            assert table.values[i - 1, 0, 0] == pytest.approx(0.7 * math.exp(-t))

    def test_scalar_decay_grid(self):
        sg = diagonal_semigroup([-1.0])
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        table = gamma_approximation(sg, cloud, 1.0, 0.1)
        assert table.certified_bound < 0.1

    def test_cells_partition_and_cover(self):
        sg = diagonal_semigroup([-1.0])
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        table = gamma_approximation(sg, cloud, 1.0, 0.1)
        # time cells partition (0, T]; first cell closed at 0
        assert table.time_cell(0.0) == 1
        assert table.time_cell(1.0) == table.n_time_cells
        n_cells = table.n_time_cells
        for i in range(1, n_cells + 1):
            interior = (i - 0.5) / n_cells
            assert table.time_cell(interior) == i
        # every cloud point belongs to exactly one state cell (first match)
        j = table.state_cell(cloud.points)
        assert np.all(j >= 1)
        assert table.values.shape == (table.n_time_cells, table.n_state_cells, 1)

    @pytest.mark.parametrize("sg", [diagonal_semigroup([-1.0, -3.0]),
                                    dense_semigroup([[-1.0, 2.0], [0.0, -3.0]], 3.0, 0.0)],
                             ids=["diagonal", "dense"])
    def test_verification_matches_per_time_reference(self, sg, rng):
        cloud = state_cloud(rng.uniform(-1.0, 1.0, size=(80, 2)))
        table = _build_gamma_table(sg, cloud, 1.0, 0.1, 0.3)
        assert table.n_state_cells > 1
        times = np.union1d(np.linspace(0.0, 1.0, 41), rng.uniform(0.0, 1.0, 7))
        j = table.state_cell(cloud.points)
        worst = 0.0
        for t in times:
            truth = semigroup_act(semigroup_step(sg, float(t)), cloud.points)
            approx = table.values[int(table.time_cell(t)) - 1, j - 1]
            worst = max(worst, float(vector_norm(truth - approx, 2).max()))
        for order in (times, rng.permutation(times)):
            assert verify_gamma(sg, cloud, table, order) == (worst, len(times) * 80)
        # first-match cells against the stacked (N, M) distances, uncovered states too
        probe = np.concatenate([cloud.points, cloud.points * 1.5, cloud.points + 2.0])
        dist = np.stack([vector_norm(probe - c, 2) for c in table.centers], axis=1)
        inside = dist < table.delta
        stacked = np.where(inside.any(axis=1), inside.argmax(axis=1) + 1, -1)
        assert np.array_equal(table.state_cell(probe), stacked)
        assert (stacked == -1).any()

    @pytest.mark.parametrize("case", ["heat16-p1", "heat16-p2", "heat64-p1", "heat64-p2",
                                      "dense2", "dense8"])
    def test_certified_bound_covers_brute_force(self, case, rng):
        sg, cloud, tables = bound_case(case, rng)
        for table in tables:
            bound = _certified_bound(sg, table)
            assert table.certified_bound == bound  # each build certifies its table
            n = table.n_time_cells
            starts = np.arange(n) * 1.0 / n  # every t_{i-1}, and just inside cell i
            times = np.unique(np.concatenate([
                np.linspace(0.0, 1.0, 4 * n + 1), starts, starts + 1e-12, [1.0],
                rng.uniform(0.0, 1.0, 16)]))
            brute, _ = verify_gamma(sg, cloud, table, times)
            assert brute <= bound * (1.0 + 1e-12)
            if sg.is_diagonal:  # the oscillation term is exact: only r_j < delta is slack
                assert bound <= brute + sg.class_M * math.exp(sg.class_mu) * table.delta

    def test_determinism(self):
        sg = diagonal_semigroup([-2.0])
        cloud = state_cloud(np.linspace(0, 1, 33)[:, None])
        t1 = gamma_approximation(sg, cloud, 1.0, 0.1)
        t2 = gamma_approximation(sg, cloud, 1.0, 0.1)
        assert t1.delta == t2.delta
        assert np.array_equal(t1.values, t2.values)


def heat_field_cloud(count=20, dim=16):
    """The heat system's field-value cloud (identity field: the sample's states)."""
    sg, fields, cert, xi0 = diagnostic_system(dim)
    return sg, field_value_cloud(sample_reachset(xi0, count, 5, fields, sg, cert, 32), fields)


def lattice_cloud(norm_kind):
    """Integer points of a 6 x 6 grid, each of the first row twice: many
    points at exactly 1, sqrt 2 and 2 from one another."""
    grid = np.array([[i, j] for i in range(6) for j in range(6)], dtype=float)
    return state_cloud(np.concatenate([grid, grid[:6]]), norm_kind)


def spread(cloud):
    """The cloud's largest distance from its mean, on the exact kernel."""
    return float(_distances(cloud.points, cloud.metric_kind, cloud.norm_kind,
                            cloud.points.mean(axis=0)).max())


def sweep_case(case):
    """(semigroup, cloud, delta) of one sweep case, each with several state cells."""
    rng = np.random.default_rng(31)
    kind = {"1": 1, "2": 2, "inf": np.inf}[case.split("-")[-1]]
    if case.startswith("lattice"):  # delta a lattice distance: points that far lie outside
        return diagonal_semigroup([-1.0, -2.0]), lattice_cloud(kind), 2.0
    if case.startswith("uniform"):
        return (diagonal_semigroup([-1.0, -2.0, -3.0]),
                state_cloud(rng.uniform(-1.0, 1.0, (300, 3)), kind), 0.4)
    if case.startswith("tiny"):  # squared distances underflow: the rescued norm decides
        return (diagonal_semigroup([-1.0, -2.0, -3.0]),
                state_cloud(1e-160 * rng.uniform(-1.0, 1.0, (200, 3)), kind), 4e-161)
    sg, cloud = heat_field_cloud()
    cloud = state_cloud(cloud.points, kind)
    return sg, cloud, spread(cloud) / 10


SWEEPS = [f"{cloud}-{kind}" for cloud in ("lattice", "uniform", "tiny", "heat")
          for kind in ("1", "2", "inf")]


class TestGammaSweep:
    """One sweep builds each table's net, first-match cells and radii, and
    one ladder call builds what separate one-eps builds build."""

    @pytest.mark.parametrize("case", SWEEPS)
    def test_sweep_matches_state_cell_and_brute_force_radii(self, case):
        sg, cloud, delta = sweep_case(case)
        net, radii = _net_cells(cloud, delta)
        oracle_net, oracle_radii = greedy_cells_oracle(cloud, delta)
        assert net.tolist() == oracle_net == greedy_net(cloud, delta).net_indices
        assert np.array_equal(radii, oracle_radii)
        table = _build_gamma_table(sg, cloud, 10 * delta, 0.1, delta)  # 11 time cells
        assert table.n_state_cells == len(net) > 3
        assert np.array_equal(table.centers, cloud.points[net])
        _, brute = gamma_cells_oracle(table, cloud)
        assert np.array_equal(table.radii, brute) and np.array_equal(radii, brute)
        assert np.all(table.radii < delta)

    @pytest.mark.parametrize("kind", [1, 2, np.inf])
    def test_points_at_exactly_delta_stay_outside(self, kind):
        # delta 1 on the integer lattice: no other point is closer than 1, so
        # every distinct point is a center and only duplicates share a cell
        cloud = lattice_cloud(kind)
        net, radii = _net_cells(cloud, 1.0)
        assert net.tolist() == list(range(36))
        assert np.array_equal(radii, np.zeros(36))

    @pytest.mark.parametrize("case", ["heat", "dense2", "wide-eps"])
    def test_ladder_matches_separate_builds(self, case):
        T = 1.0
        if case == "heat":
            sg, cloud = heat_field_cloud()
            ladder = [0.1, 0.05, 0.02, 0.01]
        elif case == "dense2":
            sg = dense_semigroup([[-1.0, 2.0], [0.0, -3.0]], 3.0, 0.0)
            cloud = state_cloud(np.random.default_rng(3).uniform(-1.0, 1.0, (120, 2)))
            ladder = [0.6, 0.4]
        else:  # eps above T and the cloud's spread: single-cell tables
            sg = diagonal_semigroup([-1.0])
            cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
            ladder = [5.0, 3.0, 0.1, 0.05]
        tables = gamma_tables(sg, cloud, T, ladder)
        assert len(tables) == len(ladder)
        for eps, table in zip(ladder, tables):
            assert_tables_equal(table, gamma_approximation_oracle(sg, cloud, T, eps))
            assert_tables_equal(reachset.gamma_approximation(sg, cloud, T, eps), table)
            if table.builds > 1:  # the build before it, at twice its delta, did not pass
                before = _build_gamma_table(sg, cloud, T, eps, 2.0 * table.delta)
                assert _certified_bound(sg, before) >= eps
        if case == "heat":  # the ladder sees several cells and a rebuild
            assert max(t.n_state_cells for t in tables) > 1
            assert max(t.builds for t in tables) > 1

    def test_build_and_bound_never_call_state_cell(self, monkeypatch):
        sg, cloud = heat_field_cloud()

        def refuse(self, xi):
            raise AssertionError("state_cell called")

        monkeypatch.setattr(GammaTable, "state_cell", refuse)
        tables = gamma_tables(sg, cloud, 1.0, [0.02, 0.01])
        assert all(t.n_state_cells > 1 for t in tables)
        with pytest.raises(AssertionError, match="state_cell called"):
            tables[0].state_cell(cloud.points)

    def test_ladder_validation(self):
        sg, cloud = diagonal_semigroup([-1.0]), state_cloud([[0.5]])
        for ladder in ([0.1, 0.0], [0.0], [0.1, -1.0]):
            with pytest.raises(ValueError, match="eps must be > 0"):
                gamma_tables(sg, cloud, 1.0, ladder)
        for ladder in ([], [0.1, 0.1], [0.05, 0.1]):
            with pytest.raises(ValueError, match="nonempty and strictly decreasing"):
                gamma_tables(sg, cloud, 1.0, ladder)

    def test_dense_start_is_below_eps(self, rng):
        # 0.5 I plus a skew part: |e^{At}|_2 = e^{t / 2}, so class (2, 0.5) holds
        skew = 0.5 * rng.standard_normal((3, 3))
        sg = dense_semigroup(0.5 * np.eye(3) + skew - skew.T, 2.0, 0.5)
        cloud = state_cloud(rng.uniform(-1.0, 1.0, (60, 3)))
        ladder = [0.4, 0.2]
        for eps, table in zip(ladder, gamma_tables(sg, cloud, 1.0, ladder)):
            start = eps / (2.0 * math.exp(0.5))
            assert start < eps
            assert table.delta == pytest.approx(start * 0.5 ** (table.builds - 1), rel=1e-15)
            assert_tables_equal(table, gamma_approximation_oracle(sg, cloud, 1.0, eps))
            n = table.n_time_cells
            brute, _ = verify_gamma(sg, cloud, table, np.linspace(0.0, 1.0, 4 * n + 1))
            assert brute <= table.certified_bound < eps

    def test_dense_table_takes_one_expm(self, monkeypatch):
        # every time cell's orbit comes from one stacked expm, not one per cell
        sg = dense_semigroup([[-1.0, 2.0], [0.0, -3.0]], 3.0, 0.0)
        cloud = state_cloud(np.random.default_rng(3).uniform(-1.0, 1.0, (40, 2)))
        calls, expm = [], mildsolve.spaces.expm
        monkeypatch.setattr(mildsolve.spaces, "expm", lambda a: calls.append(a.shape) or expm(a))
        table = _build_gamma_table(sg, cloud, 1.0, 0.1, 0.1)
        assert table.n_time_cells == 11
        assert calls == [(11, 2, 2)]

    def test_table_over_the_time_cell_cap_raises_before_building(self, monkeypatch):
        sg, cloud = diagonal_semigroup([-1.0]), state_cloud(np.linspace(0, 1, 11)[:, None])
        assert gamma_approximation(sg, cloud, 1.0, 0.05).n_time_cells > 8
        monkeypatch.setattr(reachset, "_MAX_TABLE_CELLS", 8)
        monkeypatch.setattr(reachset, "_net_cells", None)  # no sweep may start
        with pytest.raises(VerificationError, match=r"eps 5\.000e-02 at delta .* 8 time cells"):
            gamma_approximation(sg, cloud, 1.0, 0.05)

    def test_table_over_the_cell_cap_raises_before_any_orbit(self, monkeypatch):
        # the first build (delta = eps on a heat system) has N time cells and
        # M > 1 state cells: a cap between N and N * M stops it after the sweep
        sg, cloud = heat_field_cloud()
        eps = spread(cloud) / 10
        n_cells, n_state = math.floor(1.0 / eps) + 1, _net_cells(cloud, eps)[0].size
        assert n_state > 1

        def refuse(*args):
            raise AssertionError("semigroup_step called")

        monkeypatch.setattr(reachset, "_MAX_TABLE_CELLS", n_cells * n_state - 1)
        monkeypatch.setattr(reachset, "semigroup_step", refuse)
        with pytest.raises(VerificationError,
                           match=rf"needs {n_cells} x {n_state} cells, more than"):
            gamma_approximation(sg, cloud, 1.0, eps)

    def test_start_that_underflows_raises(self, monkeypatch):
        # e^{-mu T} underflows to 0 at mu = 800: no table, and no division by 0
        monkeypatch.setattr(reachset, "_net_cells", None)  # no sweep may start
        with pytest.raises(VerificationError, match=r"at delta 0\.000e\+00 needs more than"):
            gamma_approximation(diagonal_semigroup([800.0]), state_cloud([[0.5]]), 1.0, 0.1)


class TestStateCell:
    """The blocked cell lookup equals the per-center first-match loop."""

    @pytest.mark.parametrize("block_rows", [1, 7, None])  # None: the default blocks
    @pytest.mark.parametrize("case", SWEEPS)
    def test_matches_the_per_center_loop(self, case, block_rows, monkeypatch):
        sg, cloud, delta = sweep_case(case)
        table = _build_gamma_table(sg, cloud, 10 * delta, 0.1, delta)
        assert table.n_state_cells > 3
        points = cloud.points
        far = points.max(axis=0) + 2 * delta  # in no cell
        # the cloud, its reverse (duplicates of every point), points at exactly
        # delta from a center where that is exact, and points no cell covers
        probes = np.concatenate([points, points[::-1], table.centers + delta * np.eye(
            points.shape[1])[0], far[None], -far[None]])
        if block_rows:
            monkeypatch.setattr(compactness, "_NEAREST_FLOATS", block_rows * table.centers.size)
        cells = table.state_cell(probes)
        assert np.array_equal(cells, state_cell_oracle(table, probes))
        assert np.all(cells[:2 * len(points)] >= 1) and np.all(cells[-2:] == -1)
        assert np.array_equal(cells[:len(points)], cells[2 * len(points) - 1:len(points) - 1:-1])

    @pytest.mark.parametrize("kind", [1, 2, np.inf])
    def test_points_at_exactly_delta_read_uncovered(self, kind):
        table = GammaTable(1.0, 0.1, 1.0, 1, np.array([[0.0, 0.0], [5.0, 5.0]]),
                           np.zeros((1, 2, 2)), np.zeros(2), kind, 0.0)
        probes = [[1.0, 0.0], [0.0, -1.0], [6.0, 5.0], [0.5, 0.0], [5.0, 4.5], [5.0, 4.0]]
        assert table.state_cell(probes).tolist() == [-1, -1, -1, 1, 2, -1]
        assert table.state_cell([0.0, 0.0]).tolist() == [1]  # one state

    def test_memory_stays_bounded(self):
        # 100 000 x 16 states (12.8 MB) against 40 centers within a quarter of that
        points = np.random.default_rng(8).standard_normal((100_000, 16))
        table = GammaTable(1.0, 0.1, 5.0, 1, points[:40].copy(), np.zeros((1, 40, 16)),
                           np.zeros(40), 2, 0.0)
        table.state_cell(points[:10])
        tracemalloc.start()
        try:
            cells = table.state_cell(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(cells, state_cell_oracle(table, points))
        assert np.unique(cells).size > 20 and np.any(cells == -1)
        assert peak < points.nbytes / 4


def bound_case(case, rng):
    """(semigroup, cloud, Gamma tables) of one certified-bound case: the heat
    system's field-value clouds at n = 16 and 64 under p = 1 and p = 2, and
    random clouds under a 2 x 2 and an 8 x 8 dense generator, each with a
    table of one state cell and one of several."""
    if case.startswith("heat"):
        dim, p = (float(part) for part in case[4:].split("-p"))
        sg, fields, cert, xi0 = diagnostic_system(int(dim), p=p)
        sample = sample_reachset(xi0, 20, 5, fields, sg, cert, 32)
        cloud = field_value_cloud(sample, fields)
        radius = spread(cloud)
        return sg, cloud, [gamma_approximation(sg, cloud, 1.0, 0.1),
                           _build_gamma_table(sg, cloud, 1.0, 0.1, radius / 4)]
    if case == "dense2":
        sg = dense_semigroup([[-1.0, 2.0], [0.0, -3.0]], 3.0, 0.0)
        deltas = (0.3, 0.05)
    else:  # -I plus a skew part: |e^{At}|_2 = e^{-t}, class (1, 0)
        skew = 0.5 * rng.standard_normal((8, 8))
        sg = dense_semigroup(-np.eye(8) + skew - skew.T, 1.0, 0.0)
        deltas = (1.5, 0.6)
    cloud = state_cloud(rng.uniform(-1.0, 1.0, size=(80, sg.dim)))
    return sg, cloud, [_build_gamma_table(sg, cloud, 1.0, 0.1, d) for d in deltas]


def batched_case(kind):
    """(semigroup, field, sample) of one batched-evaluation case: the heat
    system's identity field, a random 4 x 4 matrix field under the heat and
    under a dense generator, and a saturation field."""
    rng = np.random.default_rng(19)
    if kind == "identity":
        sg, (f,), cert, xi0 = diagnostic_system(4, 0.5)
    else:
        f = {"matrix": bilinear_field(0.5 * rng.standard_normal((4, 4))),
             "matrix-dense": bilinear_field(0.5 * rng.standard_normal((4, 4))),
             "saturation": saturation_field(0.7)}[kind]
        sg = (dense_semigroup(-np.eye(4) + 0.3 * rng.standard_normal((4, 4)), 2.0, 0.5)
              if kind == "matrix-dense" else diagonal_semigroup([-1.0, -4.0, -9.0, -16.0]))
        cert = certify(1.0, 1.0, sg.class_M, sg.class_mu, f.lipschitz_L, 1.0)
        xi0 = StateVector([0.25, -0.25, 0.25, 0.1])
    return sg, f, sample_reachset(xi0, 7, 3, [f], sg, cert, 32)


BATCHED = ["identity", "matrix", "matrix-dense", "saturation"]


class TestBatchedEvaluation:
    """One field call and one application of F over the sample's stack equal
    the per-trajectory evaluations bit for bit (BLAS row-blocking included)."""

    @pytest.mark.parametrize("kind", BATCHED)
    def test_field_value_cloud_matches_per_trajectory(self, kind):
        _, f, sample = batched_case(kind)
        looped = np.concatenate([f(sample.times, x) for x in sample.states])
        assert np.array_equal(field_value_cloud(sample, [f]).points, looped)

    def test_identity_field_cloud_is_the_endpoint_stack(self):
        _, f, sample = batched_case("identity")
        cloud = field_value_cloud(sample, [f])
        assert np.shares_memory(cloud.points, sample.states)
        assert np.array_equal(cloud.points, sample.states.reshape(-1, sample.xi0.dim))

    @pytest.mark.parametrize("kind", BATCHED)
    def test_convolution_matches_one_control_at_a_time(self, kind):
        sg, f, sample = batched_case(kind)
        table = _build_gamma_table(sg, field_value_cloud(sample, [f]), 1.0, 0.1, 0.05)
        batched = convolution_compactness_check(sample, table, [f], sg)
        assert batched.n_controls == len(sample.controls.values)
        for b, (values, x) in enumerate(zip(sample.controls.values, sample.states)):
            alone = hand_sample(sample.xi0, sample.cert, values[None], x[None])
            assert convolution_compactness_check(alone, table, [f], sg).per_control \
                == [batched.per_control[b]]

    @pytest.mark.parametrize("kind", BATCHED)
    def test_stacked_application_matches_integral_operator(self, kind):
        # the convolution check's one application of F to its whole stack
        sg, f, sample = batched_case(kind)
        zero = StateVector(np.zeros(sg.dim), sample.xi0.norm_kind)
        stacked = BatchOperator(zero, [f], sg, 1.0, 32)(sample.states, sample.controls.values)
        for x, u, fx in zip(sample.states, sample.controls, stacked):
            x = TrajectoryGrid(1.0, x, sample.xi0.norm_kind)
            assert np.array_equal(fx, integral_operator(x, u, zero, [f], sg).states)


class TestConvolutionCheck:
    def _sample(self, field, sg, xi0, p, r, count, n_t, seed):
        cert = certify(p, r, sg.class_M, sg.class_mu, field.lipschitz_L, 1.0)
        return sample_reachset(xi0, count, seed, [field], sg, cert, n_t)

    def test_constant_field_identity_semigroup_exact(self):
        # Gamma(t, xi) = xi and f = b: reconstruction equals the quadrature
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        xi0 = StateVector([0.0])
        sample = self._sample(f, sg, xi0, 1.0, 1.0, 10, 64, seed=9)
        cloud = field_value_cloud(sample, [f])
        table = gamma_approximation(sg, cloud, 1.0, 0.05)
        report = convolution_compactness_check(sample, table, [f], sg)
        assert report.max_reconstruction_error <= 1e-12
        assert report.max_coefficient <= report.max_l1_norm + 1e-12
        assert convolution_compactness_check(
            sample, table, [f], sg, max_controls=3).n_controls == 3
        with pytest.raises(ValueError, match="max_controls"):  # would pass vacuously
            convolution_compactness_check(sample, table, [f], sg, max_controls=0)

    def test_zero_control_reconstructs_zero(self):
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        xi0 = StateVector([0.0])
        orbit = semigroup_orbit(sg, xi0, 1.0, 32)
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        sample = hand_sample(xi0, cert, np.zeros((1, 1, 32)), orbit.states[None])
        cloud = field_value_cloud(sample, [f])
        table = gamma_approximation(sg, cloud, 1.0, 0.05)
        report = convolution_compactness_check(sample, table, [f], sg)
        assert report.max_coefficient == 0.0
        assert report.max_reconstruction_error == 0.0

    def test_heat_bilinear_reconstruction(self):
        dim, n_t, eps = 8, 64, 0.2
        sg, (f,), _, xi0 = diagnostic_system(dim, 0.5)
        sample = self._sample(f, sg, xi0, 1.0, 1.0, 20, n_t, seed=21)
        cloud = field_value_cloud(sample, [f])
        table = gamma_approximation(sg, cloud, 1.0, eps / 2)
        report = convolution_compactness_check(sample, table, [f], sg)
        # each quadrature term is within h |u_c| certified_bound of its table term
        assert report.max_reconstruction_error <= report.max_l1_norm * table.certified_bound \
            + 1e-12 * report.max_quadrature_norm
        assert report.tolerance == report.max_l1_norm * table.certified_bound \
            + 1e-12 * report.max_quadrature_norm
        assert report.max_coefficient <= 1.0 + 1e-12

    def test_matches_per_time_loop(self):
        # the one-bincount check against the per-grid-time loop it replaced:
        # each bin sums the same cells in the same order, so the coefficients
        # agree bit for bit; the reconstruction is one matrix product
        sg, (f,), _, xi0 = diagnostic_system(4, 0.5)
        sample = self._sample(f, sg, xi0, 1.0, 1.0, 6, 32, seed=21)
        cloud = field_value_cloud(sample, [f])
        table = _build_gamma_table(sg, cloud, 1.0, 0.05, 0.02)
        assert table.n_state_cells > 3
        report = convolution_compactness_check(sample, table, [f], sg)
        for row, x, u in zip(report.per_control, sample.states, sample.controls):
            x = TrajectoryGrid(1.0, x, xi0.norm_kind)
            coeff, error = looped_convolution(x, u, table, f, sg)
            assert row["coeff"] == coeff
            assert row["error"] == pytest.approx(error, rel=1e-12, abs=1e-16)

    def test_uncovered_field_values_rejected(self):
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        xi0 = StateVector([0.0])
        sample = self._sample(f, sg, xi0, 1.0, 1.0, 5, 32, seed=9)
        stranger = state_cloud([[40.0]])
        table = gamma_approximation(sg, stranger, 1.0, 0.05)
        with pytest.raises(ValueError, match="cover"):
            convolution_compactness_check(sample, table, [f], sg)


def looped_convolution(x, u, gamma, f, sg):
    """Largest |lambda| and reconstruction error of one control, one grid time at a time."""
    if lp_norm(u, 1) > 1.0:
        u = u.scaled(1.0 / lp_norm(u, 1))
    j_cell = gamma.state_cell(f(x.times[:-1], x.states[:-1]))
    lag_cell = gamma.time_cell(x.times[1:])
    zero = StateVector(np.zeros(x.dim), x.norm_kind)
    direct = integral_operator(x, u, zero, [f], sg).states
    coeff = error = 0.0
    for l in range(1, u.n_t + 1):
        c = np.arange(l)
        flat = (lag_cell[l - 1 - c] - 1) * gamma.n_state_cells + (j_cell[c] - 1)
        lam = np.bincount(flat, weights=u.cell_width * u.values[0, c],
                          minlength=gamma.n_time_cells * gamma.n_state_cells)
        coeff = max(coeff, float(np.abs(lam).max()))
        recon = lam @ gamma.values.reshape(-1, gamma.values.shape[-1])
        error = max(error, float(vector_norm(direct[l] - recon, x.norm_kind)))
    return coeff, error


def test_verification_error_type():
    assert issubclass(VerificationError, RuntimeError)
