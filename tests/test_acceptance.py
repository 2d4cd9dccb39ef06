"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line once its assertions hold, so running

    pytest tests/test_acceptance.py -v -s

gives one line per criterion.  The heavyweight covering diagnostic (criterion
8) is shared with the Gamma-table pipeline (criterion 9) through module-scoped
fixtures.
"""

import math

import numpy as np
import pytest

from mildsolve import (
    StateVector,
    bilinear_field,
    bind_operator,
    certify_hidden_contraction,
    certify_omega_contraction,
    collection_union_nets,
    compactness_diagnostic,
    convolution_compactness_check,
    counterexample_report,
    cutoff_field,
    diagonal_semigroup,
    field_value_cloud,
    gamma_approximation,
    greedy_net,
    gronwall_radius,
    hausdorff_distance,
    heat_semigroup,
    integral_operator,
    iterate_differences,
    net_transfer,
    omega_norm_distance,
    picard_solve,
    renorm_equivalence_constant,
    renormed_distance,
    sample_ball,
    sample_reachset,
    solve_batch,
    state_cloud,
    sup_norm,
    trajectory_cloud,
)
from mildsolve.compactness import verify_coverage
from mildsolve.controls import stack_controls

from conftest import constant_control, diagnostic_system, random_trajectory, verify_gamma

# shared desk-scale configuration for criteria 8 and 9
DIAG_DIMS = [16, 32, 64]
DIAG_EPS = 0.1
DIAG_COUNT = 500
DIAG_SEED = 42
DIAG_NT = 128
DIAG_XI0_SCALE = 0.02


@pytest.fixture(scope="module")
def diagnostic_reports():
    return {
        p: compactness_diagnostic(
            [diagnostic_system(dim, p=p)[:3] for dim in DIAG_DIMS], eps_ladder=[DIAG_EPS],
            count=DIAG_COUNT, seed=DIAG_SEED, n_t=DIAG_NT,
            xi0_scale=DIAG_XI0_SCALE, cloud_budget=4000)
        for p in (1.0, 2.0)
    }


@pytest.fixture(scope="module")
def heat16_sample():
    """The n = 16 leg of the criterion-8 run (identical seed and settings)."""
    sg, fields, cert, xi0 = diagnostic_system(16, DIAG_XI0_SCALE)
    sample = sample_reachset(xi0, DIAG_COUNT, DIAG_SEED, fields, sg, cert, DIAG_NT, tol=1e-4)
    return sg, fields[0], sample


def test_c01_scalar_bilinear_oracle():
    # x(t) = xi0 exp(a t + int u), first-order quadrature convergence
    a = -0.5
    xi0 = StateVector([1.0])
    sg = diagonal_semigroup([a])
    f = bilinear_field([[1.0]])
    cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    worst = {}
    for n_t, rtol in ((1000, 1e-3), (10_000, 1e-4)):
        controls = sample_ball(2.0, 1.0, 1.0, 1, n_t, 50, seed=101)
        results = solve_batch(xi0, controls, [f], sg, cert, tol=1e-6)
        errs = []
        for u, res in zip(controls, results):
            w = np.concatenate([[0.0], np.cumsum(u.values[0] * u.cell_width)])
            truth = np.exp(a * res.trajectory.times + w)
            rel = np.abs(res.trajectory.states[:, 0] - truth) / np.abs(truth)
            errs.append(rel.max())
        worst[n_t] = max(errs)
        assert worst[n_t] <= rtol
    print(f"\nACCEPTANCE C1 PASS: scalar oracle rel err {worst[1000]:.2e} @ n_t=1000, "
          f"{worst[10_000]:.2e} @ n_t=10000")


def test_c02_bcc_factorial_gaps():
    sg = diagonal_semigroup([0.0])
    f = bilinear_field([[1.0]])
    xi0 = StateVector([1.0])
    u = constant_control(1.0, 1_000_000)
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, 1.0, 1.0)
    res = picard_solve(xi0, u, [f], sg, cert, tol=1e-8)
    assert res.iterations >= 10
    worst = max(abs(g - 1.0 / math.factorial(k))
                for k, g in enumerate(res.iterate_gaps[:10], start=1))
    assert worst <= 1e-6
    table = iterate_differences(res, u, sg, xi0, [f])  # raises on bound violation
    assert all(gap <= bound + 1e-9 for _, gap, bound in table)
    # the forward pass's recursion x_{j+1} = (1 + h) x_j in closed form: the
    # discrete fixed point, without a million-step pass
    fixed_point = np.exp(np.arange(u.n_t + 1) * np.log1p(u.cell_width))
    assert res.a_posteriori_bound >= np.abs(res.trajectory.states[:, 0] - fixed_point).max()
    # the batch path's pass is one product over the million cells, certified
    # by its proved rounding bound alone (stage 0), within that bound of x*
    batch = solve_batch(xi0, stack_controls([u]), [f], sg, cert, tol=1e-8)[0]
    assert batch.iterations == 0 and batch.a_posteriori_bound <= 1e-8
    assert np.abs(batch.trajectory.states[:, 0] - fixed_point).max() <= batch.a_posteriori_bound
    print(f"\nACCEPTANCE C2 PASS: gaps match 1/k! within {worst:.2e}, "
          f"all below the displayed bound; the batch pass certifies at stage 0")


def test_c03_omega_certificate_honesty():
    dim, n_t = 64, 64
    sg = heat_semigroup(dim)
    f = bilinear_field(np.eye(dim))
    xi0 = StateVector(np.zeros(dim))
    cert = certify_omega_contraction(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert cert.omega == 2.0
    assert cert.rate_C == pytest.approx(0.5)
    rng = np.random.default_rng(33)
    controls = sample_ball(2.0, 1.0, 1.0, 1, n_t, 100, seed=34)
    worst = 0.0
    for u in controls:
        x = random_trajectory(rng, n_t, dim)
        y = random_trajectory(rng, n_t, dim)
        fx = integral_operator(x, u, xi0, [f], sg)
        fy = integral_operator(y, u, xi0, [f], sg)
        quot = (omega_norm_distance(fx, fy, cert.omega)
                / omega_norm_distance(x, y, cert.omega))
        worst = max(worst, quot)
        assert quot <= cert.rate_C + 1e-6
    print(f"\nACCEPTANCE C3 PASS: omega rate 0.5 at omega=2; worst measured "
          f"quotient {worst:.4f}")


@pytest.fixture(scope="module")
def hidden_r2_setup():
    sg = diagonal_semigroup([0.0])
    f = bilinear_field([[1.0]])
    xi0 = StateVector([0.5])
    cert = certify_hidden_contraction(2.0, 1.0, 0.0, 1.0, 1.0)
    controls = sample_ball(1.0, 2.0, 1.0, 1, 256, 100, seed=55)
    return sg, f, xi0, cert, controls


def test_c04_hidden_certificate_honesty(hidden_r2_setup):
    sg, f, xi0, cert, controls = hidden_r2_setup
    assert cert.N == 4
    assert cert.rate_C == pytest.approx(16.0 / 24.0)
    rng = np.random.default_rng(44)
    base = 2.0  # M e^{mu T} L r for the certified ball
    worst = np.zeros(cert.N)
    for u in controls[:50]:
        apply_F = bind_operator(u, xi0, [f], sg)
        x = random_trajectory(rng, 256, 1)
        y = random_trajectory(rng, 256, 1)
        d0 = sup_norm(x, y)
        fx, fy = x, y
        for n in range(1, cert.N + 1):
            fx, fy = apply_F(fx), apply_F(fy)
            quot = sup_norm(fx, fy) / d0
            worst[n - 1] = max(worst[n - 1], quot)
            assert quot <= base ** n / math.factorial(n) + 1e-9
    summary = ", ".join(f"n={n + 1}: {worst[n]:.3f}<={base ** (n + 1) / math.factorial(n + 1):.3f}"
                        for n in range(cert.N))
    print(f"\nACCEPTANCE C4 PASS: N=4, C=16/24; iterate quotients {summary}")


def test_c05_renormed_metric(hidden_r2_setup):
    sg, f, xi0, cert, controls = hidden_r2_setup
    m_equiv = renorm_equivalence_constant(cert)
    step_rate = cert.rate_C ** (1.0 / cert.N)
    rng = np.random.default_rng(45)
    for i in range(100):
        u = controls[i % 50]
        apply_F = bind_operator(u, xi0, [f], sg)
        x = random_trajectory(rng, 256, 1)
        y = random_trajectory(rng, 256, 1)
        d = sup_norm(x, y)
        d_prime = renormed_distance(x, y, apply_F, cert)
        assert d <= d_prime <= m_equiv * d + 1e-9
        contracted = renormed_distance(apply_F(x), apply_F(y), apply_F, cert)
        assert contracted <= step_rate * d_prime + 1e-9
    print(f"\nACCEPTANCE C5 PASS: d <= d' <= {m_equiv:.3f} d and d' contracts "
          f"at C^(1/4) = {step_rate:.4f}")


def test_c06_gronwall_containment_and_cutoff():
    sg = diagonal_semigroup([0.0])
    f = bilinear_field([[1.0]])
    xi0 = StateVector([1.0])
    tol = 1e-8
    radius = gronwall_radius(xi0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
    assert radius == pytest.approx(math.e + 2.0)
    cert = certify_hidden_contraction(1.0, 1.0, 0.0, f.lipschitz_L, 1.0)
    fhat = cutoff_field(f, xi0, radius)
    cert_hat = certify_hidden_contraction(1.0, 1.0, 0.0, fhat.lipschitz_L, 1.0)
    controls = sample_ball(1.0, 1.0, 1.0, 1, 256, 200, seed=66)
    plain = solve_batch(xi0, controls, [f], sg, cert, tol=tol)
    cut = solve_batch(xi0, controls, [fhat], sg, cert_hat, tol=tol)
    max_drift = max(np.abs(res.trajectory.states - 1.0).max() for res in plain)
    assert max_drift < radius
    max_gap = max(sup_norm(a.trajectory, b.trajectory) for a, b in zip(plain, cut))
    assert max_gap <= 10 * tol
    print(f"\nACCEPTANCE C6 PASS: 200 trajectories stay within {max_drift:.3f} < "
          f"{radius:.3f}; cutoff agreement {max_gap:.2e} <= {10 * tol:.0e}")


def test_c07_appendix_dichotomy():
    report = counterexample_report(n_max=128, n_t=1024)
    assert report.spike_indices == [2 ** k for k in range(8)]
    assert report.max_closed_form_error <= 1e-9
    assert report.packing_size == 8
    assert report.eval_covering_size <= 3
    print(f"\nACCEPTANCE C7 PASS: spikes grid-exact (err {report.max_closed_form_error:.1e}), "
          f"0.5-packing {report.packing_size} = 8, evaluation covering "
          f"{report.eval_covering_size} <= 3")


def test_c08_compactness_signature(diagnostic_reports):
    for p, report in diagnostic_reports.items():
        rows = {row["n"]: row for row in report.rows if row["eps"] == DIAG_EPS}
        reach_32, reach_64 = rows[32]["n_reach"], rows[64]["n_reach"]
        ball_16, ball_64 = rows[16]["n_ball"], rows[64]["n_ball"]
        assert max(reach_64, reach_32) <= 2 * min(reach_64, reach_32), \
            f"p={p}: reach coverings {reach_32} -> {reach_64} not saturating"
        assert ball_64 >= 4 * ball_16, \
            f"p={p}: sphere coverings {ball_16} -> {ball_64} grow too slowly"
        print(f"\nACCEPTANCE C8 PASS (p={p}): N_reach {reach_32}->{reach_64} "
              f"saturates, N_ball {ball_16}->{ball_64} grows "
              f"{ball_64 / ball_16:.1f}x >= 4x")


def test_c09_gamma_verification(heat16_sample):
    sg, f, sample = heat16_sample
    cloud = field_value_cloud(sample, [f])
    lag_grid = np.linspace(0.0, 1.0, DIAG_NT + 1)
    errors, bounds = {}, {}
    for eps in (0.1, 0.05):
        table = gamma_approximation(sg, cloud, 1.0, eps)
        # the dense grid: four verify times per time cell and the convolution's lags
        dense = np.union1d(np.linspace(0.0, 1.0, 4 * math.ceil(1.0 / table.delta) + 1),
                           lag_grid)
        errors[eps] = verify_gamma(sg, cloud, table, dense)[0]
        bounds[eps] = table.certified_bound
        assert errors[eps] <= bounds[eps] * (1.0 + 1e-12)
        assert bounds[eps] < eps
    half = gamma_approximation(sg, cloud, 1.0, 0.05)
    conv = convolution_compactness_check(sample, half, [f], sg, max_controls=20)
    # each quadrature term is within h |u_c| certified_bound of its table term
    tolerance = conv.max_l1_norm * half.certified_bound + 1e-12 * conv.max_quadrature_norm
    assert conv.max_reconstruction_error <= tolerance
    assert conv.max_coefficient <= conv.max_l1_norm + 1e-12
    print(f"\nACCEPTANCE C9 PASS: Gamma dense-grid errors <= certified bounds "
          f"{errors[0.1]:.3e} <= {bounds[0.1]:.3e} < 0.1, "
          f"{errors[0.05]:.3e} <= {bounds[0.05]:.3e} < 0.05; reconstruction "
          f"error {conv.max_reconstruction_error:.3e} <= {tolerance:.3e}")


def test_c10_metric_and_net_suites():
    rng = np.random.default_rng(77)
    # Hausdorff metric axioms on 1000 random triples
    clouds = [state_cloud(rng.uniform(-1, 1, size=(rng.integers(1, 7), 2)))
              for _ in range(60)]
    triples = 0
    while triples < 1000:
        i, j, k = rng.integers(0, 60, size=3)
        dij = hausdorff_distance(clouds[i], clouds[j])
        assert dij == hausdorff_distance(clouds[j], clouds[i])
        assert dij <= (hausdorff_distance(clouds[i], clouds[k])
                       + hausdorff_distance(clouds[k], clouds[j]) + 1e-12)
        triples += 1
    # greedy-net coverage and separation
    for _ in range(10):
        cloud = state_cloud(rng.uniform(0, 1, size=(rng.integers(5, 80), 3)))
        eps = float(rng.uniform(0.1, 0.7))
        report = greedy_net(cloud, eps)
        assert verify_coverage(cloud, cloud.points[np.array(report.net_indices)], eps)
        pts = cloud.points[np.array(report.net_indices)]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                assert np.linalg.norm(pts[a] - pts[b]) >= eps
    # transfer and union/collection constructions on 20 random families
    for fam_idx in range(20):
        trajs = [random_trajectory(rng, 16, 2) for _ in range(int(rng.integers(2, 6)))]
        eps = float(rng.uniform(0.6, 1.6))
        s_net = greedy_net(trajectory_cloud(trajs), eps / 2)
        out = net_transfer(s_net, trajs, eps)  # verifies coverage internally
        assert out.covering_size >= 1
        family = [state_cloud(rng.uniform(0, 1, size=(int(rng.integers(1, 10)), 2)))
                  for _ in range(int(rng.integers(2, 6)))]
        union_rep, hd_rep = collection_union_nets(family, float(rng.uniform(0.2, 0.8)))
        assert union_rep.packing_size <= union_rep.covering_size
        assert hd_rep.packing_size <= hd_rep.covering_size
    print("\nACCEPTANCE C10 PASS: Hausdorff axioms (1000 triples, 1e-12), "
          "greedy coverage/separation, transfer and union nets verified")
