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
* hidden-contraction route (any p, used for p = 1): smallest N with
  ``(M e^{mu T} L r)^N / N! < 1``, turned into a genuine contraction by the
  renormed metric d'.

`certify` is the one policy that chooses between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controls import Control, lp_norm
from .spaces import NormKind, Semigroup, StateVector, VectorField, check_norm_kind, vector_norm


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
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "states", states)
        check_norm_kind(self.norm_kind)

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

    The one place that tells a diagonal step (elementwise) from a matrix one.
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
    """The control-free trajectory t_j -> e^{A t_j} xi0."""
    times = np.linspace(0.0, T, n_t + 1)
    if sg.is_diagonal:
        states = np.exp(np.outer(times, sg.eigenvalues)) * xi0.coords
    else:
        y = np.zeros((1, n_t + 1, sg.dim))
        y[0, 0] = xi0.coords
        states = semigroup_scan(scan_powers(semigroup_step(sg, T / n_t), n_t + 1), y)[0]
    return TrajectoryGrid(T, states, xi0.norm_kind)


class BatchOperator:
    """The discretized F(x, u) on the grid t_j = j T / n_t, applied to stacks.

    The orbit e^{At} xi0, the grid times, the step E = e^{Ah} and its scan
    factors are computed once.
    """

    def __init__(self, xi0: StateVector, fields: Sequence[VectorField],
                 sg: Semigroup, T: float, n_t: int):
        if xi0.dim != sg.dim:
            raise ValueError("state dimension mismatch with semigroup")
        self.fields = list(fields)
        self.h = T / n_t
        self.times = np.linspace(0.0, T, n_t + 1)
        self.step = semigroup_step(sg, self.h)
        self.powers = scan_powers(self.step, n_t + 1)
        self.orbit = semigroup_orbit(sg, xi0, T, n_t)

    def fixed_point(self, values: np.ndarray) -> np.ndarray:
        """The discrete fixed points x_b = F(x_b, u_b) for control values (B, m, n_t).

        F is strictly causal: cell c feeds only the states j >= c + 1.  So
        its fixed point is the exponential-Euler recursion S_{j+1} =
        E (S_j + h g_j), g_j = sum_i u_i(c_j) f_i(t_j, x_j), x_j = e^{A t_j}
        xi0 + S_j (Hochbruck & Ostermann, Acta Numerica 2010): one pass over
        the grid, equal to the limit of Picard iteration up to rounding.
        """
        batch = values.shape[0]
        states = np.empty((batch,) + self.orbit.states.shape)
        states[:, 0] = self.orbit.states[0]
        integral = np.zeros(states[:, 0].shape)
        for j, t in enumerate(self.times[:-1]):
            times, x = np.full(batch, t), states[:, j]
            for i, f in enumerate(self.fields):
                integral += self.h * values[:, i, j, None] * f(times, x)
            semigroup_act(self.step, integral, integral)
            np.add(integral, self.orbit.states[j + 1], out=states[:, j + 1])
        return states

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
    """A control lies outside the ball a certificate was issued for."""


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
            if self.rate_C == 0.0 and self.N > 1:  # d' would divide by 0 ** (m / N)
                raise ValueError("a hidden certificate with rate 0 has N = 1")

    @property
    def block(self) -> int:
        """Applications of F per contraction step: N on the hidden route, 1 on the omega route."""
        return self.N if self.mode == "hidden" else 1

    def control_norm(self, u: Control) -> float:
        """|u|_p of a control on the certificate's horizon with |u|_p <= radius_r (up to
        a relative 1e-12); any other control raises `CertificateRadiusError`."""
        if not math.isclose(u.horizon_T, self.horizon_T):
            raise CertificateRadiusError(f"control horizon {u.horizon_T:.6g} is not the "
                                         f"certificate horizon {self.horizon_T:.6g}")
        norm = lp_norm(u, self.p)
        if norm > self.radius_r * (1.0 + 1e-12):
            raise CertificateRadiusError(
                f"|u|_p = {norm:.6g} exceeds certificate radius {self.radius_r:.6g}")
        return norm

    def distance(self, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray],
                 times: np.ndarray, norm_kind: NormKind) -> np.ndarray:
        """Distance of x and y in the certificate's metric, per row of a stack.

        ``xs[m]`` and ``ys[m]`` are the iterates F^m x and F^m y, m < `block`,
        as (..., n_t + 1, n) arrays on the grid `times`.  The omega route
        reads max_j e^{-omega t_j} |x(t_j) - y(t_j)|; the hidden route reads
        d'(x, y) = max_{m < N} sup|F^m x - F^m y| / C^{m/N}.
        """
        if self.mode == "omega":
            weight = np.exp(-self.omega * times)
            return (weight * vector_norm(xs[0] - ys[0], norm_kind)).max(axis=-1)
        return np.max([vector_norm(x - y, norm_kind).max(axis=-1) / self.rate_C ** (m / self.N)
                       for m, (x, y) in enumerate(zip(xs, ys))], axis=0)

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

    rate = r M L / (q (omega - mu))^{1/q} with q the conjugate exponent;
    omega is the smallest weight of the form mu + 2^k (k integer) meeting
    `_TARGET_RATE`.  The radius factor r extends the unit-ball estimate by
    homogeneity of the Hoelder step.
    """
    if not p > 1:
        raise ValueError("omega certificates require p > 1")
    if r <= 0 or M < 1 or mu < 0 or L_bound < 0 or T <= 0:
        raise ValueError("invalid certificate constants")
    q = p / (p - 1.0)
    if L_bound == 0.0:
        return ContractionCertificate("omega", 0.0, r, p, M, mu, 0.0, T,
                                      omega=mu + 1.0)

    def rate(omega: float) -> float:
        return r * M * L_bound / (q * (omega - mu)) ** (1.0 / q)

    gap_needed = (r * M * L_bound / _TARGET_RATE) ** q / q
    k = math.ceil(math.log2(gap_needed))
    while rate(mu + 2.0 ** k) > _TARGET_RATE:  # guard log2 rounding
        k += 1
    while k > -60 and rate(mu + 2.0 ** (k - 1)) <= _TARGET_RATE:
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


def certify(p: float, r: float, M: float, mu: float, L_bound: float, T: float,
            mode: str = "auto") -> ContractionCertificate:
    """Certificate for the control ball |u|_p <= r: the one selection policy.

    Mode "hidden", or "auto" with p = 1, takes the hidden route; otherwise the
    omega route, falling back to hidden if the weighted-norm search overflows.
    """
    if mode == "hidden" or (mode == "auto" and p == 1):
        return certify_hidden_contraction(r, M, mu, L_bound, T, p)
    try:
        return certify_omega_contraction(p, r, M, mu, L_bound, T)
    except (OverflowError, FloatingPointError):
        return certify_hidden_contraction(r, M, mu, L_bound, T, p)


def hidden_step_lipschitz(cert: ContractionCertificate) -> float:
    """One-step sup-norm Lipschitz bound M e^{mu T} L |u|_1 of F on the ball."""
    mass = cert.radius_r if cert.l1_mass is None else cert.l1_mass
    return cert.M * math.exp(cert.mu * cert.horizon_T) * cert.L_bound * mass


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
    while len(xs) < cert.block:
        xs.append(apply_F(xs[-1]))
        ys.append(apply_F(ys[-1]))
    return float(cert.distance([fx.states for fx in xs], [fy.states for fy in ys],
                               x.times, x.norm_kind))
