import math

import numpy as np
import pytest

from mildsolve import (
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
    evaluation_set,
    field_value_cloud,
    gamma_approximation,
    gronwall_radius,
    integral_operator,
    lp_norm,
    sample_reachset,
    semigroup_orbit,
    state_cloud,
)
from mildsolve.operator import semigroup_act, semigroup_step
from mildsolve.reachset import (ReachSetSample, _build_gamma_table, _sampled_oscillation,
                                _verify_gamma)
from mildsolve.spaces import vector_norm

from conftest import diagnostic_system


class TestSampleReachset:
    def test_seed_determinism(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        a = sample_reachset(xi0, 8, 3, [f], sg, cert, 64)
        b = sample_reachset(xi0, 8, 3, [f], sg, cert, 64)
        assert np.array_equal(a.endpoints.points, b.endpoints.points)

    def test_scalar_bilinear_hoelder_envelope(self):
        # endpoints equal xi0 exp(int u); |int_0^t u| <= sqrt(t) |u|_2 <= r sqrt(T)
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        sample = sample_reachset(xi0, 40, 11, [f], sg, cert, 256)
        vals = sample.endpoints.points[:, 0]
        assert vals.max() <= math.exp(1.0) * (1 + 1e-6)
        assert vals.min() >= math.exp(-1.0) * (1 - 1e-6)

    def test_endpoints_inside_gronwall_ball(self):
        sg = diagonal_semigroup([0.0])
        f = bilinear_field([[1.0]])
        xi0 = StateVector([1.0])
        cert = certify(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        sample = sample_reachset(xi0, 60, 5, [f], sg, cert, 128)
        radius = gronwall_radius(xi0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert np.abs(sample.endpoints.points - 1.0).max() < radius

    def test_zero_control_orbit_is_a_valid_sample(self):
        # the degenerate one-member sample is exactly the semigroup orbit
        from mildsolve import Control
        sg = diagonal_semigroup([-1.0, -4.0])
        xi0 = StateVector([1.0, 1.0])
        orbit = semigroup_orbit(sg, xi0, 1.0, 32)
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        sample = ReachSetSample(xi0, cert, [Control(1.0, np.zeros((1, 32)))], [orbit],
                                evaluation_set([orbit]))
        assert np.array_equal(sample.endpoints.points, orbit.states)

    def test_ball_violation_rejected(self):
        from mildsolve import Control
        sg = diagonal_semigroup([0.0])
        xi0 = StateVector([1.0])
        orbit = semigroup_orbit(sg, xi0, 1.0, 8)
        with pytest.raises(ValueError, match="radius"):
            ReachSetSample(xi0, certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0),
                           [Control(1.0, np.full((1, 8), 5.0))],
                           [orbit], evaluation_set([orbit]))


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
        vals = sample.endpoints.points[:, 0]
        diameter = vals.max() - vals.min()
        assert rep.rows[0]["n_reach"] <= math.ceil(diameter / 0.1) + 1

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


def looped_oscillation(sg, cloud, T, delta, rng, sample_count):
    """`_sampled_oscillation` with one semigroup action per sample (same draws)."""
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
    worst = 0.0
    for t, td, a, b in zip(ts, dts, base, other):
        diff = semigroup_act(semigroup_step(sg, td), b) - semigroup_act(semigroup_step(sg, t), a)
        worst = max(worst, float(vector_norm(diff, cloud.norm_kind)))
    return worst


class TestGammaApproximation:
    def test_identity_semigroup_error_below_delta(self):
        sg = diagonal_semigroup([0.0])
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        table = gamma_approximation(sg, cloud, 1.0, 0.1, seed=1)
        assert table.verified_max_error < table.delta <= 0.1 + 1e-12

    def test_single_point_cloud(self):
        sg = diagonal_semigroup([-1.0])
        table = gamma_approximation(sg, state_cloud([[0.7]]), 1.0, 0.05, seed=1)
        assert table.n_state_cells == 1
        assert table.verified_max_error < 0.05
        # one-column table: values are the semigroup orbit of the center
        for i in range(1, table.n_time_cells + 1):
            t = i * 1.0 / table.n_time_cells
            assert table.values[i - 1, 0, 0] == pytest.approx(0.7 * math.exp(-t))

    def test_scalar_decay_grid(self):
        sg = diagonal_semigroup([-1.0])
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        table = gamma_approximation(sg, cloud, 1.0, 0.1, seed=1)
        assert table.verified_max_error < 0.1

    def test_cells_partition_and_cover(self):
        sg = diagonal_semigroup([-1.0])
        cloud = state_cloud(np.linspace(0, 1, 101)[:, None])
        table = gamma_approximation(sg, cloud, 1.0, 0.1, seed=1)
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
            assert _verify_gamma(sg, cloud, table, order) == (worst, len(times) * 80)
        # first-match cells against the stacked (N, M) distances, uncovered states too
        probe = np.concatenate([cloud.points, cloud.points * 1.5, cloud.points + 2.0])
        dist = np.stack([vector_norm(probe - c, 2) for c in table.centers], axis=1)
        inside = dist < table.delta
        stacked = np.where(inside.any(axis=1), inside.argmax(axis=1) + 1, -1)
        assert np.array_equal(table.state_cell(probe), stacked)
        assert (stacked == -1).any()
        # the sampled modulus of continuity against its per-sample loop
        assert _sampled_oscillation(sg, cloud, 1.0, 0.3, np.random.default_rng(5), 64) \
            == looped_oscillation(sg, cloud, 1.0, 0.3, np.random.default_rng(5), 64)

    def test_determinism(self):
        sg = diagonal_semigroup([-2.0])
        cloud = state_cloud(np.linspace(0, 1, 33)[:, None])
        t1 = gamma_approximation(sg, cloud, 1.0, 0.1, seed=3)
        t2 = gamma_approximation(sg, cloud, 1.0, 0.1, seed=3)
        assert t1.delta == t2.delta
        assert np.array_equal(t1.values, t2.values)


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
        table = gamma_approximation(sg, cloud, 1.0, 0.05, seed=2)
        report = convolution_compactness_check(sample, table, [f], sg)
        assert report.max_reconstruction_error <= 1e-12
        assert report.max_coefficient <= report.max_l1_norm + 1e-12
        assert convolution_compactness_check(
            sample, table, [f], sg, max_controls=3).n_controls == 3
        with pytest.raises(ValueError, match="max_controls"):  # would pass vacuously
            convolution_compactness_check(sample, table, [f], sg, max_controls=0)

    def test_zero_control_reconstructs_zero(self):
        from mildsolve import Control
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        xi0 = StateVector([0.0])
        orbit = semigroup_orbit(sg, xi0, 1.0, 32)
        cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
        sample = ReachSetSample(xi0, cert, [Control(1.0, np.zeros((1, 32)))], [orbit],
                                evaluation_set([orbit]))
        cloud = field_value_cloud(sample, [f])
        table = gamma_approximation(sg, cloud, 1.0, 0.05, seed=2)
        report = convolution_compactness_check(sample, table, [f], sg)
        assert report.max_coefficient == 0.0
        assert report.max_reconstruction_error == 0.0

    def test_heat_bilinear_reconstruction(self):
        dim, n_t, eps = 8, 64, 0.2
        sg, (f,), _, xi0 = diagnostic_system(dim, 0.5)
        sample = self._sample(f, sg, xi0, 1.0, 1.0, 20, n_t, seed=21)
        cloud = field_value_cloud(sample, [f])
        lag_grid = np.linspace(0.0, 1.0, n_t + 1)
        table = gamma_approximation(sg, cloud, 1.0, eps / 2, seed=4,
                                    extra_verify_times=lag_grid)
        report = convolution_compactness_check(sample, table, [f], sg)
        assert report.max_reconstruction_error < eps / 2 + 10.0 / n_t
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
        for row, (x, u) in zip(report.per_control, zip(sample.trajectories, sample.controls)):
            coeff, error = looped_convolution(x, u, table, f, sg)
            assert row["coeff"] == coeff
            assert row["error"] == pytest.approx(error, rel=1e-12, abs=1e-16)

    def test_uncovered_field_values_rejected(self):
        sg = diagonal_semigroup([0.0])
        f = constant_field([1.0])
        xi0 = StateVector([0.0])
        sample = self._sample(f, sg, xi0, 1.0, 1.0, 5, 32, seed=9)
        stranger = state_cloud([[40.0]])
        table = gamma_approximation(sg, stranger, 1.0, 0.05, seed=2)
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
