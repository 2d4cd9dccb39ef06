import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildsolve import Control, lp_norm, sample_ball, spike_control
from mildsolve.controls import control_from_csv, control_to_csv, stack_controls

from conftest import constant_control, sample_ball_oracle


class TestLpNorm:
    def test_zero_signal(self):
        assert lp_norm(constant_control(0.0, 16), 1) == 0.0
        assert lp_norm(constant_control(0.0, 16), np.inf) == 0.0

    def test_unit_constant(self):
        u = constant_control(1.0, 8, T=1.0)
        assert lp_norm(u, 1) == pytest.approx(1.0, abs=1e-15)
        assert lp_norm(u, np.inf) == 1.0

    def test_spike_norms(self):
        u4 = spike_control(4, 8)
        assert lp_norm(u4, 1) == pytest.approx(1.0, abs=1e-15)
        # \int |n|^p over [0, 1/n] = n^{p-1}: p = 2 gives sqrt(n)
        assert lp_norm(u4, 2) == pytest.approx(2.0, abs=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(constant_control(1.0, 4), 0.5)

    def test_underflowing_powers_are_rescaled(self, rng):
        # |value|^p underflows (1e-200 at p = 2, 0.5 at p = 2000): the norm read 0
        u = Control(2.0, rng.standard_normal((2, 12)))
        assert lp_norm(u.scaled(1e-200), 2) == pytest.approx(1e-200 * lp_norm(u, 2),
                                                             rel=1e-12, abs=0.0)
        assert lp_norm(Control(1.0, np.full((1, 4), 1e-200)), 2) == pytest.approx(
            1e-200, rel=1e-12, abs=0.0)
        # |c| on [0, T] has norm |c| T^(1/p); a zero channel adds its 0
        half = Control(2.0, [[0.5] * 8, [0.0] * 8])
        assert lp_norm(half, 2000) == pytest.approx(0.5 * 2.0 ** (1 / 2000), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 2000.0, np.inf])
    def test_stack_equals_per_control(self, rng, p):
        # rows whose |u|^p overflows, underflows, or has a zero channel take
        # the rescue inside the stack exactly as they do alone
        base = rng.standard_normal((4, 2, 12))
        base[0] *= 1e200
        base[1, 0] *= 1e-200
        base[2, 1] = 0.0
        stack = Control(2.0, base)
        norms = lp_norm(stack, p)
        assert norms.shape == (4,)
        assert norms.tolist() == [lp_norm(Control(2.0, row), p) for row in base]
        assert norms[2] > 0.0 and norms[1] > 0.0

    def test_stack_needs_one_grid(self):
        with pytest.raises(ValueError, match="one horizon and grid"):
            stack_controls([constant_control(1.0, 8), constant_control(1.0, 8, T=2.0)])
        with pytest.raises(ValueError, match="one horizon and grid"):
            stack_controls([constant_control(1.0, 8), constant_control(1.0, 4)])
        with pytest.raises(ValueError, match="one horizon and grid"):
            stack_controls([constant_control(1.0, 8), constant_control(1.0, 8, channels=2)])
        stacked = stack_controls([constant_control(1.0, 8), constant_control(2.0, 8)])
        assert stacked.values.shape == (2, 1, 8)
        assert stacked.channels == 1 and stacked.n_t == 8

    def test_multichannel_sums_channels(self):
        u = Control(1.0, np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert lp_norm(u, 1) == pytest.approx(3.0)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(-50, 50), p=st.sampled_from([1.0, 1.5, 2.0, 4.0, np.inf]),
           seed=st.integers(0, 10_000))
    def test_absolute_homogeneity(self, c, p, seed):
        rng = np.random.default_rng(seed)
        u = Control(2.0, rng.standard_normal((2, 12)))
        assert lp_norm(u.scaled(c), p) == pytest.approx(abs(c) * lp_norm(u, p),
                                                        rel=1e-12, abs=1e-12)

    def test_zeroing_tail_never_increases_norm(self, rng):
        for _ in range(100):
            vals = rng.standard_normal((1, 20))
            u = Control(1.0, vals)
            cut = rng.integers(1, 20)
            truncated = vals.copy()
            truncated[:, cut:] = 0.0
            v = Control(1.0, truncated)
            for p in (1.0, 2.0, np.inf):
                assert lp_norm(v, p) <= lp_norm(u, p) + 1e-14


class TestSampleBall:
    def test_norms_within_radius(self):
        for u in sample_ball(2.0, 1.0, 1.0, 1, 32, 5, seed=1):
            assert lp_norm(u, 2.0) <= 1.0 + 1e-12

    def test_seed_determinism(self):
        a = sample_ball(1.0, 2.0, 1.0, 2, 16, 3, seed=9)
        b = sample_ball(1.0, 2.0, 1.0, 2, 16, 3, seed=9)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.values, ub.values)

    def test_norm_scan_under_radius_three(self):
        norms = [lp_norm(u, 1.0) for u in sample_ball(1.0, 3.0, 1.0, 1, 24, 1000, seed=5)]
        assert max(norms) <= 3.0 + 1e-12
        assert min(norms) > 0.0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_matches_per_draw_oracle(self, p, m):
        # one array and one norm call draw the same controls, bit for bit
        for seed, count in ((0, 1), (5, 40)):
            fast = sample_ball(p, 1.5, 2.0, m, 24, count, seed)
            slow = sample_ball_oracle(p, 1.5, 2.0, m, 24, count, seed)
            assert len(fast) == len(slow) == count
            for u, v in zip(fast, slow):
                assert u.horizon_T == v.horizon_T
                assert np.array_equal(u.values, v.values)
                assert u.values.base is fast[0].values.base  # row views of one array

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            sample_ball(2.0, 1.0, 1.0, 1, 8, 0, seed=0)

    def test_empty_draws_raise(self):
        # an empty draw has no nonzero cell: it must raise, not be redrawn for ever
        for m, n_t in [(1, 0), (0, 8), (0, 0)]:
            with pytest.raises(ValueError, match="m and n_t"):
                sample_ball(1.0, 1.0, 1.0, m, n_t, 1, 0)


class TestSpikeControl:
    def test_n1_is_constant_one(self):
        u = spike_control(1, 8)
        assert np.array_equal(u.values, np.ones((1, 8)))
        assert lp_norm(u, 1) == pytest.approx(1.0)

    def test_n4_covers_first_quarter(self):
        u = spike_control(4, 8)
        assert np.array_equal(u.values[0], [4, 4, 0, 0, 0, 0, 0, 0])
        assert lp_norm(u, 1) == pytest.approx(1.0)

    def test_n2_l2_norm(self):
        assert lp_norm(spike_control(2, 8), 2) == pytest.approx(math.sqrt(2.0))

    def test_misaligned_grid_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            spike_control(3, 8)


def test_csv_round_trip(tmp_path, rng):
    u = Control(2.0, rng.standard_normal((3, 10)))
    path = tmp_path / "control.csv"
    control_to_csv(u, path)
    v = control_from_csv(path)
    assert v.horizon_T == pytest.approx(u.horizon_T)
    assert np.array_equal(v.values, u.values)


def test_control_validation():
    with pytest.raises(ValueError, match="horizon"):
        Control(0.0, np.ones((1, 4)))
    with pytest.raises(ValueError, match="finite"):
        Control(1.0, np.array([[np.inf, 0.0]]))


class TestStackRows:
    """A (B, m, n_t) `Control` stack is checked once as a whole, and its rows are
    checked views that equal the controls built from them one at a time."""

    def test_control_rows_equal_checked_controls(self, rng):
        values = rng.standard_normal((5, 2, 8))
        stack = Control(1.5, values)
        assert len(stack) == 5
        for k, u in enumerate(stack):  # iteration ends at the IndexError past the last row
            assert (u.horizon_T, u.channels, u.n_t) == (1.5, 2, 8)
            assert np.array_equal(u.values, values[k])
            assert np.shares_memory(u.values, stack.values)
            assert lp_norm(u, 2) == lp_norm(Control(1.5, values[k]), 2) == lp_norm(stack, 2)[k]
        assert k == 4
        part = stack[1:3]
        assert isinstance(part, Control) and len(part) == 2
        assert np.array_equal(part.values, values[1:3])
        with pytest.raises(IndexError):
            stack[5]
        single = stack[0]
        with pytest.raises(TypeError):
            len(single)
        with pytest.raises(TypeError):
            single[0]

    def test_control_stack_is_checked_once_as_a_whole(self, rng):
        stack = rng.standard_normal((4, 1, 6))
        stack[2, 0, 3] = np.nan  # one bad cell in one row
        with pytest.raises(ValueError, match="finite"):
            Control(1.0, stack)
        with pytest.raises(ValueError, match="horizon"):
            Control(0.0, np.ones((2, 1, 4)))
        with pytest.raises(ValueError, match="stack"):
            Control(1.0, np.ones((2, 2, 1, 4)))
        with pytest.raises(ValueError, match="B, m, n_t >= 1"):
            Control(1.0, np.ones((0, 1, 4)))
        with pytest.raises(ValueError, match="B, m, n_t >= 1"):
            Control(1.0, np.ones((3, 1, 4)))[3:]
