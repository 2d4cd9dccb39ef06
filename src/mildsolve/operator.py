"""The integral operator on discretized trajectories and its contraction data.

``F(x, u)(t) = e^{tA} xi0 + sum_i \\int_0^t e^{(t-s)A} u_i(s) f_i(s, x(s)) ds``

is discretized with a left-endpoint rule per control cell, the semigroup
factor evaluated at the cell's left-endpoint lag.  This is exact only for
A = 0 with an integrand constant on each cell, and O(h) in general; it
preserves every contraction estimate used here (the discrete sums
underestimate the continuous Hoelder/factorial majorants).

Two contraction routes are certified:

* weighted-norm route (p > 1): rate ``r M L / (q (omega - mu))^{1/q}`` in the
  exponentially weighted sup-norm, with omega searched over mu + 2^k;
* hidden-contraction route (p = 1, or p > 1 when the omega search
  overflows): smallest N with
  ``(M e^{mu T} L r)^N / N! < 1``, turned into a genuine contraction by the
  renormed metric d'.

`certify` is the one policy that chooses between them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controls import Control, lp_norm
from .spaces import (_EPS, _ETA, _TINY, NormKind, Semigroup, StateVector, VectorField, all_finite,
                     check_norm_kind, vector_norm)


@dataclass(frozen=True)
class TrajectoryGrid:
    """Curve [0, T] -> R^n sampled at the uniform grid t_j = j T / n_t."""

    horizon_T: float
    states: np.ndarray  # (n_t + 1, n)
    norm_kind: NormKind = 2

    def __post_init__(self):
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be > 0")
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError("states must be an (n_t + 1, n) array with n_t >= 1")
        if not all_finite(states):
            raise ValueError("trajectory states must be finite")
        check_norm_kind(self.norm_kind)
        object.__setattr__(self, "states", states)

    @property
    def n_t(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_T, self.n_t + 1)


def constant_trajectory(xi0: StateVector, T: float, n_t: int) -> TrajectoryGrid:
    states = np.tile(xi0.coords, (n_t + 1, 1))
    return TrajectoryGrid(T, states, xi0.norm_kind)


def _check_same_grid(x: TrajectoryGrid, y: TrajectoryGrid) -> None:
    if x.n_t != y.n_t or x.dim != y.dim or not math.isclose(x.horizon_T, y.horizon_T):
        raise ValueError("trajectories must share horizon, grid and dimension")


def sup_norm(x: TrajectoryGrid, y: TrajectoryGrid) -> float:
    """Maximum norm on curve space: max_j |x(t_j) - y(t_j)|."""
    _check_same_grid(x, y)
    return float(vector_norm(x.states - y.states, x.norm_kind).max())


def omega_norm_distance(x: TrajectoryGrid, y: TrajectoryGrid, omega: float) -> float:
    """Weighted distance max_j e^{-omega t_j} |x(t_j) - y(t_j)|."""
    if omega < 0:
        raise ValueError("omega must be >= 0")
    _check_same_grid(x, y)
    diff = vector_norm(x.states - y.states, x.norm_kind)
    return float((np.exp(-omega * x.times) * diff).max())


# ---------------------------------------------------------------------------
# semigroup scan


def semigroup_step(sg: Semigroup, h: float) -> np.ndarray:
    """E = e^{Ah} for row states: e^{lambda h} (elementwise) or (e^{Ah})^T (on the right)."""
    if sg.is_diagonal:
        return np.exp(sg.eigenvalues * h)
    return sg.matrix_exp(h).T


def semigroup_act(step: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row states y times E from `semigroup_step` (or a tiled table of
    `scan_powers`): e^{At} applied to each row, into `out` when given.

    It tells a diagonal step (elementwise) from a matrix one; the one other
    place is `reachset._build_gamma_table`, which takes a dense table's
    orbits from one stacked `Semigroup.matrix_exp`.
    """
    return np.matmul(y, step, out=out) if step.ndim == 2 else np.multiply(y, step, out=out)


def scan_powers(step: np.ndarray, length: int) -> list[np.ndarray]:
    """The factors E^d of the doubling passes d = 1, 2, 4, ... < length.

    A diagonal E^d is tiled once into a contiguous (1, length - d, n) table:
    multiplying a (B, length - d, n) slab by it runs over (length - d) n
    contiguous elements per row instead of n at a time.  A matrix E^d stays.
    """
    powers, d, power = [], 1, step
    while d < length:
        powers.append(power if step.ndim == 2 else np.tile(power, (1, length - d, 1)))
        d *= 2
        if d < length:
            power = semigroup_act(power, power)
    return powers


def semigroup_scan(powers: Sequence[np.ndarray], y: np.ndarray) -> np.ndarray:
    """In place along axis 1 of a (B, L, n) stack: y_j <- sum_{c<=j} E^{j-c} y_c.

    Log-depth doubling scan: after the pass with offset d each entry sums
    its last 2d inputs, so ceil(log2 L) passes of y[:, d:] += E^d y[:, :-d]
    replace the L-step recurrence.  `powers` is `scan_powers(E, L)`.
    """
    scratch = np.empty_like(y)
    for k, power in enumerate(powers):
        d = 1 << k
        y[:, d:] += semigroup_act(power, y[:, :-d], scratch[:, d:])
    return y


def semigroup_orbit(sg: Semigroup, xi0: StateVector, T: float, n_t: int) -> TrajectoryGrid:
    """The control-free trajectory t_j -> e^{A t_j} xi0; one that leaves the
    floats raises OverflowError."""
    times = np.linspace(0.0, T, n_t + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if sg.is_diagonal:
            states = np.exp(np.outer(times, sg.eigenvalues)) * xi0.coords
        else:
            y = np.zeros((1, n_t + 1, sg.dim))
            y[0, 0] = xi0.coords
            states = semigroup_scan(scan_powers(semigroup_step(sg, T / n_t), n_t + 1), y)[0]
    if not all_finite(states):
        raise OverflowError(f"the control-free orbit e^(At) xi0 leaves the floats by T = {T:.6g}")
    return TrajectoryGrid(T, states, xi0.norm_kind)


# The product path's rho takes blocks of controls whose (rows, n_t + 1) arrays
# hold about this many bytes.  One pass over the whole batch cost the same CPU
# but raised the `gamma-table` benchmark's peak RSS by 0.6 MB: 46.81-46.98 MB
# against 46.16-46.33 MB, unit CPU 12.4-17.1 ms against 12.2-16.9 ms (5
# alternating runs each; 2-vCPU Xeon, one BLAS thread, numpy 2.4.6).
_BOUND_BYTES = 1 << 15

# np.exp(a) is taken to lie within this many ulps of e^a.  The tests check it
# against 50-digit values on the arguments the rounding bound meets.
EXP_ULPS = 4


def exp_rounding(args: np.ndarray) -> np.ndarray:
    """kappa with |np.exp(args) - e^a| <= kappa (np.exp(args) + 2^-1022) for
    every real a that `args` rounds (|args - a| <= u |args| + 2^-1075).

    An ulp of y is at most 2u max(y, 2^-1022), so `EXP_ULPS` gives
    |np.exp(args) - e^args| <= 2 K u max(e^args, 2^-1022), and the argument's
    rounding d adds e^args (e^d - 1).  kappa = 2 (2 K u + d) covers both for
    d <= 0.01; a larger d has |args| > 9e13, where np.exp is 0 (and e^a <
    2^-1022 e^-36) or inf.
    """
    return 2.0 * (2.0 * EXP_ULPS * _EPS + _EPS * np.abs(args) + _ETA)


def _power_bound(base: np.ndarray, k: int) -> np.ndarray:
    """An upper bound on max(1, base)^k, elementwise: square and multiply,
    each rounded product raised by 4u so that it never falls below the exact one."""
    up = 1.0 + 4.0 * _EPS
    power, out = np.maximum(base, 1.0), np.ones_like(base)
    while k:
        if k & 1:
            out = out * power * up
        power, k = power * power * up, k >> 1
    return out


def _diagonal_couplings(fields: Sequence[VectorField], sg: Semigroup) -> np.ndarray | None:
    """The diagonals beta_i of fields f_i(x) = diag(beta_i) x, which commute
    with e^{At}: an (m, 1) array when each is a multiple of I, an (m, n) one
    under a diagonal generator, else None.  A field is read as diag(beta) x
    when it is of kind "bilinear" with an n x n diagonal `params["matrix"]`
    (`bilinear_field`)."""
    diagonals = []
    for f in fields:
        b = f.params.get("matrix") if f.kind == "bilinear" else None
        if b is None or b.shape != (sg.dim, sg.dim) or np.count_nonzero(b - np.diag(b.diagonal())):
            return None
        diagonals.append(b.diagonal())
    beta = np.array(diagonals)
    if (beta == beta[:, :1]).all():
        return beta[:, :1]
    return beta if sg.is_diagonal else None


class BatchOperator:
    """The discretized F(x, u) on the grid t_j = j T / n_t, applied to stacks.

    The orbit e^{At} xi0, the grid times, the step E = e^{Ah} and, at the
    first application, its scan factors are computed once.
    """

    def __init__(self, xi0: StateVector, fields: Sequence[VectorField],
                 sg: Semigroup, T: float, n_t: int):
        if xi0.dim != sg.dim:
            raise ValueError("state dimension mismatch with semigroup")
        self.fields = list(fields)
        self.h = T / n_t
        self.times = np.linspace(0.0, T, n_t + 1)
        self.orbit = semigroup_orbit(sg, xi0, T, n_t)  # first: it raises if e^{At} overflows
        self.step = semigroup_step(sg, self.h)
        self.eigenvalues = sg.eigenvalues  # None for a dense generator
        self.coupling = _diagonal_couplings(self.fields, sg)  # the product path's beta_i
        # whether `fixed_point` proves its rho: else every rho reads inf
        self.bounded = self.eigenvalues is not None and (self.coupling is not None or all(
            f.eval_error is not None for f in self.fields))
        # fields that do not read the state under A = 0: see `_free_point`
        self.state_free = (self.eigenvalues is not None and not self.eigenvalues.any()
                           and not any(f.lipschitz_L for f in self.fields))

    @functools.cached_property
    def powers(self) -> list[np.ndarray]:
        """`scan_powers` of the step, for `__call__` (and `_free_point`): the
        product path and the loop need none."""
        return scan_powers(self.step, len(self.times))

    def fixed_point(self, values: np.ndarray,
                    keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The discrete fixed points x_b = F(x_b, u_b) for control values
        (B, m, n_t), and bounds rho_b >= max_j |x_bj - F(x_b, u_b)_j| in the
        state norm.

        The one entry to the forward pass, over three kernels: the product
        path below for diagonal couplings, `_free_point` for `state_free`
        fields, else a loop over the cells.  With `keep` None the states come
        as one (B, n_t + 1, n) stack.  Else `keep` holds flat row indices
        b (n_t + 1) + j, as the stack's ``reshape(-1, n)`` numbers them, and
        the pass returns only those rows, a (len(keep), n) array in `keep`'s
        order, bit for bit the whole stack's, with the same rho: the product
        and the loop form only those rows (the loop gathers them from each
        (B, n) row as it makes it), `_free_point` takes them from its stack.
        Every kernel reads rho = inf for a control with a non-finite state;
        the loop checks each row finite as it makes it, with or without `keep`.

        F is strictly causal: cell c feeds only the states j >= c + 1.  So
        its fixed point is the exponential-Euler recursion S_{j+1} =
        E (S_j + h g_j), g_j = sum_i u_i(c_j) f_i(t_j, x_j), x_j = e^{A t_j}
        xi0 + S_j (Hochbruck & Ostermann, Acta Numerica 2010): one pass over
        the grid, equal to the limit of Picard iteration up to rounding.

        rho is a forward rounding analysis of this pass (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, ch. 3).  The F it bounds
        against takes the floats held (h, t_j, the eigenvalues, xi0, the
        control values, the computed states x) as exact data, with exact
        arithmetic and exact e^{lambda h}, e^{lambda t_j}.  With u = 2^-53,
        eta = 2^-1074, tau = 2^-1022 and |.| taken componentwise:

        * Each product is within u |result| + eta / 2 of the exact one, each
          sum within u |result|.  E^ = np.exp(fl(lambda h)) is within kappa E-
          of e^{lambda h}, E- = E^ + tau, kappa from `exp_rounding`.
        * One step computes a_i = fl(h u_i), b_i = fl(a_i f^_i), w^(i) =
          fl(w^(i-1) + b_i) from w^(0) = S^_j, and S^_{j+1} = fl(E^ w^(m)).
          |a_i - h u_i| <= u |a_i| holds when a_i is 0 or normal; a control
          with a subnormal h u_i reads rho = inf.  |f^_i - f_i| <= phi_i is
          the field's declared `eval_error`.  With |b_i| <= |w^(i)| / (1 - u)
          + |w^(i-1)| and |S^_{j+1}| <= (1 + u) E- |w^(m)| + eta / 2, a z_j >=
          |S^_j - S_j| + 3u |S^_j| obeys z_0 = 0 and z_{j+1} <= P z_j + Q W_j
          + R Phi_j + s, with W_j = sum_i |w^(i)|, Phi_j = sum_i |a_i| phi_i,
          P = (1 + kappa) E-, Q = (2 kappa + 10 u) E-, R = (1 + kappa)(1 + 2u) E-
          and s = ((1 + kappa) E- m + 6) eta.  Hence z_j <= G (Q sum_c W_c
          + R sum_c Phi_c + n_t s) for every j, G >= max(1, P)^(n_t - 1)
          (`_power_bound`): the pass sums W and Phi on its (B, n) slices.
        * x^_j = fl(S^_j + o^_j) is within u (1 + u)(|S^_j| + |o^_j|) of
          S^_j + o^_j, and the orbit o^_j = fl(np.exp(fl(t_j lambda)) xi0)
          within (u + 2 kappa_j)|o^_j| + kappa_j tau |xi0| + eta of
          e^{A t_j} xi0.  The first part of the former lies in z_j; the
          table D_j = (3u + 2 kappa_j)|o^_j| + kappa_j tau |xi0| + 4 eta
          covers the rest.

        So |x^_j - F(x^)_j| <= z_j + D_j, and rho = |G (...)| + max_j |D_j|
        in the state norm, raised by 2 k u for the k <= m n_t + n + 24
        roundings of its own evaluation.  A dense semigroup (expm's E^ has no
        proved error) or a field with no `eval_error` reads rho = inf, and so
        does a control with a non-finite state.

        Product path.  When every field is diag(beta_i) x
        (`_diagonal_couplings`), B x commutes with e^{At} and the fixed point
        is x_j = P_j o_j, P_j = prod_{c<j} g_c, g_c = 1 + h w_c, w_c =
        sum_i u_i(c) beta_i, up to the grid-time term below.  The pass forms
        g^_c = fl(1 + s^_c) (s^ the coupling sum of the a_i), one `np.cumprod`
        P^ and x^_j = fl(P^_j o^_j), only the kept rows with `keep`: no field
        is evaluated, and a multiple of I makes P^ (B, n_t + 1, 1).  With P,
        o_j = e^{A t_j} xi0 exact, e_j = x^_j - P_j o_j and eta_cj =
        e^{A((j - c) h + t_c - t_j)} - 1, P_{c+1} - P_c = h w_c P_c gives

            F(x^)_j - x^_j = o_j sum_{c<j} h w_c P_c eta_cj
                             + sum_{c<j} E^{j-c} h w_c e_c - e_j.

        * a_i normal or 0 (else rho = inf) gives |g^_c - g_c| <= d_c = u
          |g^_c| + (m + 2) u S_c + m eta, S_c = sum_i |a_i| |beta_i|.  While P^
          is normal (else rho = inf) P_j / P^_j is the product of the g_c /
          g^_c and of j roundings (1 + delta)^-1, so |P_j / P^_j - 1| <= Pi =
          e^sigma - 1 <= sigma / (1 - sigma), sigma = sum_c (d_c / |g^_c| +
          2u): each factor's rounding carried through the product.
        * |e_c| <= |P^_c| (u (1 + u)|o^_c| + omega_c + Pi O_c) + eta, omega_c =
          (u + 2 kappa_c)|o^_c| + kappa_c tau |xi0| + eta the orbit's rounding
          (above), O_c = |o^_c| + omega_c >= |o_c|.
        * The t_j are floats: |t_j - j h| <= eps_t (against fl(j h)), so
          |eta_cj| <= H = 4 eps_t max |lambda| while that is <= 1.
        * |E^{j-c}| <= G >= max(1, E-)^{n_t}, and h |w_c| <= |g^_c - 1| + d_c.

        With p and s the largest |P^| and |g^ - 1| + d over the components,
        rho = max_j |O_j| H (1 + Pi) sum_c s_c p_c + G sum_c s_c |e_c| +
        max_j |e_j| in the state norm: |F x~ - x~| + (1 + M e^{mu T} L
        |u|_1) |x^ - x~| for the exact product x~.  sigma, Pi and rho are
        raised for their own rounding (k <= n_t + n + m + 32).  A dense
        generator or a state that is not finite reads rho = inf.
        """
        if self.coupling is not None:
            return self._product(values, keep)
        if self.state_free:
            return self._free_point(values, keep)
        batch, (length, n) = values.shape[0], self.orbit.states.shape
        # row j is made in x, checked finite and stored: whole into held[:, j],
        # or its kept rows gathered into held
        x = np.tile(self.orbit.states[0], (batch, 1))
        if keep is None:
            held = np.empty((batch, length, n))
        else:
            held = np.empty((len(keep), n))
            owner, row = np.divmod(keep, length)
            order = np.argsort(row, kind="stable")
            cuts = np.searchsorted(row[order], np.arange(length + 1))
        finite = np.ones(batch, dtype=bool)
        integral, term = np.zeros((batch, n)), np.empty((batch, n))
        weights = self.h * values  # a_i per control and cell
        errors = [f.eval_error for f in self.fields]
        if self.bounded:
            sizes, field_errors = np.zeros_like(integral), np.zeros_like(integral)
        cell_times = np.broadcast_to(self.times[:-1, None], (values.shape[2], batch))
        with np.errstate(over="ignore", invalid="ignore"):  # a row past the floats reads rho = inf
            for j in range(length):
                if j:  # row j from row j - 1 = x
                    times, w = cell_times[j - 1], weights[:, :, j - 1, None]
                    for i, f in enumerate(self.fields):
                        integral += np.multiply(w[:, i], f(times, x), out=term)
                        if self.bounded:
                            sizes += np.abs(integral, out=term)
                            if callable(errors[i]):
                                field_errors += np.multiply(np.abs(w[:, i]), errors[i](times, x),
                                                            out=term)
                    semigroup_act(self.step, integral, integral)
                    np.add(integral, self.orbit.states[j], out=x)
                if not all_finite(x):
                    finite &= np.isfinite(x).all(axis=1)
                if keep is None:
                    held[:, j] = x
                else:
                    taken = order[cuts[j]:cuts[j + 1]]
                    held[taken] = x[owner[taken]]
        if not self.bounded:
            return held, np.full(batch, np.inf)
        rho = self._residual_bounds(weights, values, sizes, field_errors)
        rho[~finite] = np.inf
        return held, rho

    def _residual_bounds(self, weights: np.ndarray, values: np.ndarray, sizes: np.ndarray,
                         field_errors: np.ndarray) -> np.ndarray:
        """rho of `fixed_point` from the pass's sums W and Phi (see there)."""
        n_t, m, n = len(self.times) - 1, len(self.fields), self.orbit.dim
        kind = self.orbit.norm_kind
        kappa = exp_rounding(self.eigenvalues * self.h)
        e_bar = self.step + _TINY
        orbit = np.abs(self.orbit.states)
        orbit_kappa = exp_rounding(np.outer(self.times, self.eigenvalues))
        with np.errstate(over="ignore", invalid="ignore"):  # past the floats reads inf
            growth = _power_bound((1.0 + kappa) * e_bar, n_t - 1)
            bound = (2.0 * kappa + 10.0 * _EPS) * e_bar * sizes
            bound += (1.0 + kappa) * (1.0 + 2.0 * _EPS) * e_bar * field_errors
            bound += n_t * ((1.0 + kappa) * e_bar * m + 6.0) * _ETA
            bound *= growth
            table = ((3.0 * _EPS + 2.0 * orbit_kappa) * orbit
                     + orbit_kappa * _TINY * orbit[0] + 4.0 * _ETA)
            rho = vector_norm(bound, kind) + vector_norm(table, kind).max()
            rho *= 1.0 + 2.0 * (m * n_t + n + 24) * _EPS
        subnormal = (np.abs(weights) < _TINY) & (values != 0.0)
        rho[subnormal.any(axis=(1, 2))] = np.inf
        return rho

    def _product(self, values: np.ndarray,
                 keep: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The product path of `fixed_point`: x_bj = P^_bj o^_j (see there)."""
        length, n = self.orbit.states.shape
        # the states first, as the loop takes them: allocated after the
        # smaller arrays, they left ~0.4 MB more heap over a gamma-table run
        held = np.empty((len(values), length, n) if keep is None else (len(keep), n))
        weights = self.h * values  # a_i per control and cell
        factors = weights.swapaxes(1, 2) @ self.coupling  # s^_c, (B, n_t, 1 or n)
        factors += 1.0
        gains = np.empty((len(values), length, factors.shape[2]))  # P^
        gains[:, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(factors, axis=1, out=gains[:, 1:])
            rho = (self._product_bounds(weights, values, factors, gains) if self.bounded
                   else np.full(len(values), np.inf))
            if keep is None:
                return np.multiply(gains, self.orbit.states, out=held), rho
            owner, row = np.divmod(keep, length)
            return np.multiply(gains[owner, row], self.orbit.states[row], out=held), rho

    def _product_bounds(self, weights: np.ndarray, values: np.ndarray, factors: np.ndarray,
                        gains: np.ndarray) -> np.ndarray:
        """rho of the product path from its factors g^ and products P^ (see
        `fixed_point`), taken over blocks of controls whose (rows, n_t + 1)
        arrays stay near `_BOUND_BYTES`."""
        n_t, m, n = len(self.times) - 1, len(self.fields), self.orbit.dim
        kind = self.orbit.norm_kind
        orbit = np.abs(self.orbit.states)
        lags = np.abs(np.outer(self.times, self.eigenvalues))  # |t_j lambda|
        scale = vector_norm(orbit, kind)
        # |omega_j| from kappa_j = 2 (2 K u + u |t_j lambda| + eta), K = EXP_ULPS
        miss = ((1.0 + 8.0 * EXP_ULPS) * _EPS + 4.0 * _ETA) * scale + 4.0 * _EPS * vector_norm(
            lags * orbit, kind) + exp_rounding(lags.max()) * _TINY * scale[0] + n * _ETA
        near, far = _EPS * (1.0 + _EPS) * scale + miss, scale + miss  # |O_j| <= far_j
        grid = np.arange(n_t + 1) * self.h
        shift = 4.0 * (np.abs(self.times - grid).max() + _EPS * grid[-1]) * np.abs(
            self.eigenvalues).max()  # H
        step_kappa = exp_rounding(self.eigenvalues * self.h)
        peak = orbit.max(axis=-1)
        rho = np.empty(len(values))
        size = max(1, _BOUND_BYTES // gains[0].nbytes)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slip = (shift if shift <= 1.0 else np.inf) * far.max()
            growth = _power_bound((1.0 + step_kappa) * (self.step + _TINY), n_t).max()
            for lo in range(0, len(values), size):
                block = slice(lo, lo + size)
                sizes = np.abs(weights[block]).swapaxes(1, 2) @ np.abs(self.coupling)  # S_c
                gain = np.abs(factors[block])
                slack = _EPS * gain + (m + 2) * _EPS * sizes + m * _ETA  # d_c
                lips = (np.abs(factors[block] - 1.0) + slack).max(axis=-1)  # s_c
                total = ((slack / gain).sum(axis=1).max(axis=-1) + 2.0 * n_t * _EPS) * (
                    1.0 + 2.0 * (n_t + 8) * _EPS)  # sigma
                pi = np.where(total < 1.0, total / (1.0 - total) * (1.0 + 4.0 * _EPS), np.inf)
                spread = np.abs(gains[block]).max(axis=-1)  # p_j
                errors = spread * (near + pi[:, None] * far) + n * _ETA  # |e_j|
                bound = slip * (1.0 + pi) * (lips * spread[:, :-1]).sum(axis=1)
                bound += growth * (lips * errors[:, :-1]).sum(axis=1) + errors.max(axis=1)
                subnormal = (np.abs(weights[block]) < _TINY) & (values[block] != 0.0)
                bound[subnormal.any(axis=(1, 2)) | ~(spread.min(axis=1) >= _TINY)
                      | ~((spread * peak).max(axis=1) < np.inf)] = np.inf  # x^ leaves the floats
                rho[block] = bound
        return rho * (1.0 + 2.0 * (n_t + n + m + 32) * _EPS)

    def _free_point(self, values: np.ndarray,
                    keep: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The kernel of `fixed_point` for `state_free` fields (f_i(t, x) =
        f_i(t): every Lipschitz constant 0) under A = 0: x = F of the orbit,
        F's fixed point, and its rho; with `keep`, the kept rows of that stack.

        Every scan factor is e^0 = 1, so `__call__` sums q^_c = fl(h fl(sum_i
        t_ic)), t_ic = fl(u_i(c) f^_i), over a tree of depth K, one level per
        scan pass, and adds xi0: |y^_j - sum_{c<j} q^_c| <= gamma_K sum_c
        |q^_c| (Higham 2002, sec. 4.2), and |f^_i| <= alpha_i |xi0| + beta_i +
        phi_i, the declared growth and `eval_error` at the states read (xi0).
        With V = sum_c sum_i |u_i(c)| (alpha_i |xi0| + beta_i + phi_i) and W =
        sum_c sum_i |u_i(c)| phi_i, rho = u max_j |x^_j| + (K + m + 8) u h V +
        h W + 2 n n_t (m + 2)(1 + h) eta, raised for its own rounding.  A
        field with no `eval_error`, or a state that is not finite, reads rho =
        inf.
        """
        n_t, m, n = len(self.times) - 1, len(self.fields), self.orbit.dim
        orbit, kind = self.orbit.states, self.orbit.norm_kind
        with np.errstate(over="ignore", invalid="ignore"):  # past the floats reads rho = inf
            states = self(np.broadcast_to(orbit, (len(values),) + orbit.shape), values)
        held = states if keep is None else states.reshape(-1, n)[keep]
        if any(f.eval_error is None for f in self.fields):
            return held, np.full(len(values), np.inf)
        start = vector_norm(orbit[0], kind)
        errors = [vector_norm(f.eval_error(self.times[:-1], orbit[:-1]), kind).max()
                  if callable(f.eval_error) else 0.0 for f in self.fields]
        sizes = np.abs(values).sum(axis=2)  # sum_c |u_i(c)|, (B, m)
        with np.errstate(over="ignore", invalid="ignore"):
            total = sizes @ np.array([f.growth_alpha * start + f.growth_beta + e
                                      for f, e in zip(self.fields, errors)])
            rho = (len(self.powers) + m + 8) * _EPS * self.h * total
            rho += self.h * (sizes @ np.array(errors))
            rho += 2.0 * n * n_t * (m + 2) * (1.0 + self.h) * _ETA
            rho += _EPS * vector_norm(states, kind).max(axis=1)
            rho *= 1.0 + 2.0 * (m * n_t + n + 16) * _EPS
        rho[np.isnan(rho)] = np.inf  # a NaN state
        return held, rho

    def __call__(self, states: np.ndarray, values: np.ndarray) -> np.ndarray:
        """F(x_b, u_b) for states (B, n_t + 1, n) and control values (B, m, n_t).

        The integral S_j = sum_{c<j} h E^{j-c} g_c, g_c = sum_i u_i(c) f_i(t_c, x_c),
        obeys S_{j+1} = E (S_j + h g_j) and is evaluated as one scan.
        """
        cell_times = np.tile(self.times[:-1], states.shape[0])
        cell_states = states[:, :-1].reshape(-1, states.shape[2])
        y = np.zeros(states.shape)
        for i, f in enumerate(self.fields):
            y[:, 1:] += values[:, i, :, None] * f(cell_times, cell_states).reshape(y[:, 1:].shape)
        inputs = y[:, 1:]
        inputs *= self.h
        semigroup_act(self.powers[0], inputs, inputs)
        semigroup_scan(self.powers, y)
        y += self.orbit.states
        return y


def integral_operator(x: TrajectoryGrid, u: Control, xi0: StateVector,
                      fields: Sequence[VectorField], sg: Semigroup) -> TrajectoryGrid:
    """One application of the discretized integral operator F(x, u).

    The output starts exactly at xi0 and matches x's grid.  One field per
    control channel.
    """
    if u.channels != len(fields):
        raise ValueError(f"{u.channels} control channels but {len(fields)} fields")
    if u.n_t != x.n_t or not math.isclose(u.horizon_T, x.horizon_T):
        raise ValueError("control and trajectory must share horizon and grid")
    if x.dim != sg.dim:
        raise ValueError("state dimension mismatch with semigroup")
    states = BatchOperator(xi0, fields, sg, x.horizon_T, x.n_t)(x.states[None], u.values[None])
    return TrajectoryGrid(x.horizon_T, states[0], x.norm_kind)


def bind_operator(u: Control, xi0: StateVector, fields: Sequence[VectorField],
                  sg: Semigroup) -> Callable[[TrajectoryGrid], TrajectoryGrid]:
    """Closure x -> F(x, u) for a fixed control."""
    return lambda x: integral_operator(x, u, xi0, fields, sg)


# ---------------------------------------------------------------------------
# contraction certificates


class CertificateRadiusError(ValueError):
    """A control lies outside a certificate's ball; `index` is the first such control of a stack."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ContractionCertificate:
    """Proof data that the integral operator contracts on a control ball.

    mode "omega": F is a contraction with rate `rate_C` in the omega-weighted
    norm for all controls with |u|_p <= radius_r (requires p > 1, omega > mu).
    mode "hidden": F^N contracts the sup-norm with rate `rate_C`; the renormed
    metric d' makes F itself a contraction with rate rate_C^(1/N).
    """

    mode: str  # "omega" | "hidden"
    rate_C: float
    radius_r: float
    p: float
    M: float
    mu: float
    L_bound: float
    horizon_T: float
    omega: float | None = None
    N: int | None = None
    l1_mass: float | None = None  # hidden mode: L^1 mass bound of ball controls

    def __post_init__(self):
        if self.mode not in ("omega", "hidden"):
            raise ValueError(f"unknown certificate mode {self.mode!r}")
        if not (0.0 <= self.rate_C < 1.0):
            raise ValueError("rate_C must lie in [0, 1)")
        if self.mode == "omega":
            if self.omega is None or not (self.p > 1):
                raise ValueError("omega mode requires p > 1 and a weight omega")
            if self.omega <= self.mu and self.L_bound > 0:
                raise ValueError("omega must exceed mu")
        else:
            if self.N is None or self.N < 1:
                raise ValueError("hidden mode requires N >= 1")
            if self.l1_mass is None or not 0.0 <= self.l1_mass < math.inf:
                raise ValueError("hidden mode requires a finite l1_mass >= 0")
            if self.rate_C == 0.0 and self.N > 1:  # d' would divide by 0 ** (m / N)
                raise ValueError("a hidden certificate with rate 0 has N = 1")

    def control_norm(self, u: Control) -> float | np.ndarray:
        """|u|_p of a control on the certificate's horizon with |u|_p <= radius_r (up to
        a relative 1e-12); any other control raises `CertificateRadiusError`.  A stack
        is checked in one call, gets its norms and names its first control outside."""
        if not math.isclose(u.horizon_T, self.horizon_T):
            raise CertificateRadiusError(f"control horizon {u.horizon_T:.6g} is not the "
                                         f"certificate horizon {self.horizon_T:.6g}")
        norm = lp_norm(u, self.p)
        outside = np.flatnonzero(np.atleast_1d(norm) > self.radius_r * (1.0 + 1e-12))
        if outside.size:
            raise CertificateRadiusError(f"|u|_p = {np.atleast_1d(norm)[outside[0]]:.6g} exceeds "
                                         f"certificate radius {self.radius_r:.6g}", int(outside[0]))
        return norm

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "rate": self.rate_C,
            "radius": self.radius_r,
            "p": None if np.isinf(self.p) else self.p,
            "constants": {"M": self.M, "mu": self.mu,
                          "L_bound": self.L_bound, "T": self.horizon_T},
        }
        if self.mode == "omega":
            out["omega"] = self.omega
        else:
            out["N"] = self.N
            out["l1_mass"] = self.l1_mass
        return out

    @staticmethod
    def from_dict(d: dict) -> "ContractionCertificate":
        c = d["constants"]
        return ContractionCertificate(
            mode=d["mode"], rate_C=d["rate"], radius_r=d["radius"],
            p=np.inf if d["p"] is None else d["p"],
            M=c["M"], mu=c["mu"], L_bound=c["L_bound"], horizon_T=c["T"],
            omega=d.get("omega"), N=d.get("N"), l1_mass=d.get("l1_mass"),
        )


# The omega route's weight is the smallest that brings the rate down to this
_TARGET_RATE = 0.5


def certify_omega_contraction(p: float, r: float, M: float, mu: float,
                              L_bound: float, T: float) -> ContractionCertificate:
    """Certify contraction in the omega-weighted norm for |u|_p <= r, p > 1.

    rate = r M L / (q (omega - mu))^{1/q} with q the conjugate exponent
    (q = 1 at p = inf: rate r M L / (omega - mu)); omega is the smallest
    weight of the form mu + 2^k (k integer) meeting `_TARGET_RATE`, with 2^k
    at least the ulp of mu so that omega > mu in floats.  The radius factor r
    extends the unit-ball estimate by homogeneity of the Hoelder step.
    """
    if not p > 1:
        raise ValueError("omega certificates require p > 1")
    if r <= 0 or M < 1 or mu < 0 or L_bound < 0 or T <= 0:
        raise ValueError("invalid certificate constants")
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
    if L_bound == 0.0:
        return ContractionCertificate("omega", 0.0, r, p, M, mu, 0.0, T,
                                      omega=mu + 1.0)

    def rate(omega: float) -> float:
        return r * M * L_bound / (q * (omega - mu)) ** (1.0 / q)

    k_min = int(math.log2(math.ulp(mu)))  # omega = mu + 2^k > mu in floats
    k = max(k_min, math.ceil(q * (math.log2(r) + math.log2(M * L_bound / _TARGET_RATE))
                             - math.log2(q)))  # log2 of the gap (r M L / target)^q / q
    while rate(mu + 2.0 ** k) > _TARGET_RATE:  # guard log2 rounding
        k += 1
    while k > k_min and rate(mu + 2.0 ** (k - 1)) <= _TARGET_RATE:
        k -= 1
    omega = mu + 2.0 ** k
    return ContractionCertificate("omega", rate(omega), r, p, M, mu, L_bound,
                                  T, omega=omega)


def certify_hidden_contraction(r: float, M: float, mu: float, L_bound: float,
                               T: float, p: float = 1.0) -> ContractionCertificate:
    """Certify the hidden contraction: smallest N with (M e^{mu T} L m)^N / N! < 1.

    The factorial estimate consumes the ball's L^1 mass m = r T^{1/q}, the
    Hoelder bound on |u|_1 (q conjugate to p; m = r at p = 1).
    """
    if r < 0 or M < 1 or mu < 0 or L_bound < 0 or T <= 0:
        raise ValueError("invalid certificate constants")
    q = math.inf if p == 1 else 1.0 if math.isinf(p) else p / (p - 1.0)
    mass = r * T ** (1.0 / q)
    base = M * math.exp(mu * T) * L_bound * mass
    if base == 0.0:
        return ContractionCertificate("hidden", 0.0, r, p, M, mu, L_bound, T,
                                      N=1, l1_mass=mass)
    log_base = math.log(base)

    def holds(n: int) -> bool:  # concave in n and 0 at n = 0: {n : holds} is 0..N-1
        return n * log_base - math.lgamma(n + 1) >= 0.0

    lo, n = 0, 1
    while holds(n):
        lo, n = n, 2 * n
    while n - lo > 1:
        mid = (lo + n) // 2
        lo, n = (mid, n) if holds(mid) else (lo, mid)
    if n <= 170:
        rate = base ** n / math.factorial(n)
    else:  # the factorial leaves the floats past 170!
        rate = math.exp(n * log_base - math.lgamma(n + 1))
    if rate == 0.0:  # rounding lost a rate in (0, 1): 0 would claim a contraction to a point
        rate = math.nextafter(1.0, 0.0)
    return ContractionCertificate("hidden", rate, r, p, M, mu, L_bound, T,
                                  N=n, l1_mass=mass)


def certify(p: float, r: float, M: float, mu: float, L_bound: float,
            T: float) -> ContractionCertificate:
    """Certificate for the control ball |u|_p <= r: the one selection policy.

    p = 1 takes the hidden route; p > 1 the omega route, falling back to
    hidden if the weighted-norm search overflows.
    """
    if p == 1:
        return certify_hidden_contraction(r, M, mu, L_bound, T, p)
    try:
        return certify_omega_contraction(p, r, M, mu, L_bound, T)
    except (OverflowError, FloatingPointError):
        return certify_hidden_contraction(r, M, mu, L_bound, T, p)


def hidden_step_lipschitz(cert: ContractionCertificate) -> float:
    """One-step sup-norm Lipschitz bound M e^{mu T} L |u|_1 of F on the ball."""
    return cert.M * math.exp(cert.mu * cert.horizon_T) * cert.L_bound * cert.l1_mass


def renorm_equivalence_constant(cert: ContractionCertificate) -> float:
    """M_equiv with d <= d' <= M_equiv d for the renormed metric of `cert`."""
    if cert.mode != "hidden":
        raise ValueError("equivalence constant is defined for hidden certificates")
    lf = hidden_step_lipschitz(cert)
    return max(lf ** n / cert.rate_C ** (n / cert.N) for n in range(cert.N))


def renormed_distance(x: TrajectoryGrid, y: TrajectoryGrid,
                      apply_F: Callable[[TrajectoryGrid], TrajectoryGrid],
                      cert: ContractionCertificate) -> float:
    """Equivalent metric d'(x, y) = max_{n < N} sup|F^n x - F^n y| / C^{n/N}.

    F is a contraction with rate C^{1/N} with respect to d', and
    d <= d' <= M_equiv d (see `renorm_equivalence_constant`).
    """
    if cert.mode != "hidden":
        raise ValueError("renormed distance requires a hidden certificate")
    _check_same_grid(x, y)
    xs, ys = [x], [y]
    while len(xs) < cert.N:
        xs.append(apply_F(xs[-1]))
        ys.append(apply_F(ys[-1]))
    return max(sup_norm(fx, fy) / cert.rate_C ** (n / cert.N)
               for n, (fx, fy) in enumerate(zip(xs, ys)))
