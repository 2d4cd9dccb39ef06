"""Finite-dimensional state spaces: p-norms, semigroup actions, vector fields.

The state space is a truncation of an abstract Banach space to R^n with a
selectable p-norm (p in {1, 2, inf}).  Linear dynamics enter through a
`Semigroup` (diagonal spectrum or dense generator matrix) carrying certified
growth constants (M, mu) with ``|e^{At} xi| <= M e^{mu t} |xi|``.  Nonlinear
dynamics enter through a `VectorField` with declared Lipschitz and
linear-growth constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

NormKind = Union[int, float]  # 1, 2 or np.inf

_VALID_NORMS = (1, 2, np.inf)
# IEEE double: unit roundoff, smallest positive and smallest normal float.
_EPS, _ETA, _TINY = 2.0 ** -53, 2.0 ** -1074, 2.0 ** -1022
# A 2-norm below this summed squares under the smallest normal float.
_TINY_NORM = np.sqrt(_TINY)


def check_norm_kind(norm_kind: NormKind) -> NormKind:
    if norm_kind not in _VALID_NORMS:
        raise ValueError(f"norm_kind must be one of 1, 2, inf, got {norm_kind!r}")
    return norm_kind


def all_finite(array: np.ndarray) -> bool:
    """Whether every entry is finite: NaN propagates through min and max, so
    no boolean copy of the array is made."""
    return not array.size or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


def vector_norm(coords: np.ndarray, norm_kind: NormKind,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """p-norm along the last axis (works on single vectors and batches).

    `scratch`, a float array shaped like `coords` and distinct from it, takes
    the elementwise pass instead of a new array.  A finite nonzero row whose
    direct sum overflows, or whose squares underflow (a 2-norm below
    `_TINY_NORM`), is summed again with its max-abs factored out.
    """
    x = np.asarray(coords, dtype=float)
    if norm_kind == np.inf:
        return np.abs(x, out=scratch).max(axis=-1)
    with np.errstate(over="ignore"):
        if norm_kind == 2:  # x * x == |x| * |x| bit for bit: no abs pass
            r = np.sqrt(np.square(x, out=scratch).sum(axis=-1))
        else:
            r = np.abs(x, out=scratch).sum(axis=-1)
        low = _TINY_NORM if norm_kind == 2 else 0.0
        if not r.size:
            return r
        top = r.max()
        if r.min() >= low and top < np.inf:
            return r
        bad = r < low if top < np.inf else ~((r >= low) & (r < np.inf))
        rows = x[bad]
        if not np.count_nonzero(rows):  # zero rows: duplicates of a covering center
            return r
        scale = np.abs(rows).max(axis=-1)
        fix = (scale > 0.0) & (scale < np.inf)  # finite nonzero rows
        r = np.array(r)
        rescued = r[bad]
        rescued[fix] = scale[fix] * vector_norm(rows[fix] / scale[fix, None], norm_kind)
        r[bad] = rescued
    return r[()]


def operator_norm(matrix: np.ndarray, norm_kind: NormKind):
    """Induced operator norm matching the state p-norm: a float for one
    matrix, the array of norms for a stack (..., n, n)."""
    m = np.asarray(matrix, dtype=float)
    if norm_kind == 2:
        norms = np.linalg.norm(m, 2, axis=(-2, -1))
    else:  # largest column (norm 1) or row (norm inf) sum
        norms = np.abs(m).sum(axis=-2 if norm_kind == 1 else -1).max(axis=-1)
    return float(norms) if m.ndim == 2 else norms


def log_norm(matrix: np.ndarray, norm_kind: NormKind) -> float:
    """mu[A] = lim_{h->0+} (|I + hA| - 1) / h, so |e^{At}| <= e^{mu[A] t} for
    t >= 0 (Soderlind, BIT 46, 2006): lambda_max((A + A^T)/2) in norm 2, else
    the largest column (norm 1) or row (norm inf) sum of a_kk + |a_lk|, l != k."""
    m = np.asarray(matrix, dtype=float)
    if norm_kind == 2:
        return float(np.linalg.eigvalsh(m / 2 + m.T / 2)[-1])
    off = np.abs(m)
    np.fill_diagonal(off, 0.0)
    return float((m.diagonal() + off.sum(axis=0 if norm_kind == 1 else 1)).max())


@dataclass(frozen=True)
class StateVector:
    """Point of the truncated state space together with the norm in use."""

    coords: np.ndarray
    norm_kind: NormKind = 2

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError("state must be a vector of dimension >= 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("state coordinates must be finite")
        object.__setattr__(self, "coords", coords)
        check_norm_kind(self.norm_kind)

    @property
    def dim(self) -> int:
        return self.coords.size

    def norm(self) -> float:
        return float(vector_norm(self.coords, self.norm_kind))


# Higham (2005): the coefficients b_0..b_13 of the [13/13] Pade approximant to
# e^x, and the 1-norm theta_13 up to which it is accurate to unit roundoff.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """e^A of a square matrix, or of each matrix of a stack (..., n, n).

    Scaling and squaring on the [13/13] Pade approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26(4), 2005): each matrix is scaled exactly by 2^-s,
    s = max(0, ceil(log2(|A|_1 / theta_13))), the approximant
    (V - U)^-1 (V + U) is formed from A^2, A^4, A^6 and one solve, and each
    matrix is squared its own s times.  A matrix of a stack takes the same
    float operations as it does alone.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not all_finite(a):
        raise ValueError("expm needs a finite square matrix or a stack of them")
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore"):  # log2(0) = -inf: s = 0
        s = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0).astype(int)
    a = np.ldexp(a, -s[..., None, None])
    b, ident = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    x = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        square = s > k
        y = x[square]
        x[square] = y @ y
    return x


@dataclass(frozen=True)
class Semigroup:
    """Action (t, xi) -> e^{At} xi of class (M, mu).

    Either ``eigenvalues`` (diagonal generator) or ``generator`` (dense n x n
    matrix) is set.  ``class_M >= 1`` and ``class_mu >= 0`` certify the growth
    bound.  A diagonal generator has |e^{At}| = e^{lambda_max t} in every
    p-norm, so its class holds for all t >= 0 iff class_mu >= lambda_max:
    a smaller class_mu is rejected.
    """

    eigenvalues: np.ndarray | None = None
    generator: np.ndarray | None = None
    class_M: float = 1.0
    class_mu: float = 0.0

    def __post_init__(self):
        if (self.eigenvalues is None) == (self.generator is None):
            raise ValueError("exactly one of eigenvalues/generator must be given")
        if self.eigenvalues is not None:
            eigs = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
            if eigs.ndim != 1 or not np.all(np.isfinite(eigs)):
                raise ValueError("eigenvalues must be a finite vector")
            object.__setattr__(self, "eigenvalues", eigs)
        else:
            gen = np.asarray(self.generator, dtype=float)
            if gen.ndim != 2 or gen.shape[0] != gen.shape[1] or not all_finite(gen):
                raise ValueError("generator must be a finite square matrix")
            object.__setattr__(self, "generator", gen)
        if not 1.0 <= self.class_M < np.inf:
            raise ValueError("class_M must be finite and >= 1")
        if not 0.0 <= self.class_mu < np.inf:
            raise ValueError("class_mu must be finite and >= 0")
        if self.eigenvalues is not None and self.class_mu < self.eigenvalues.max():
            raise ValueError(f"class_mu {self.class_mu:g} is below the largest "
                             f"eigenvalue {self.eigenvalues.max():g}")

    @property
    def dim(self) -> int:
        return self.eigenvalues.size if self.is_diagonal else self.generator.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.eigenvalues is not None

    def matrix_exp(self, t) -> np.ndarray:
        """e^{At} for a time t, or the stack (..., n, n) of e^{A t_i} for an
        array of times.  A diagonal kind fills the diagonal with e^{lambda t};
        a dense generator takes `expm` of the stack of At_i."""
        t = np.asarray(t, dtype=float)
        if self.is_diagonal:
            n = self.dim
            out = np.zeros(t.shape + (n, n))
            out.reshape(t.shape + (n * n,))[..., ::n + 1] = np.exp(self.eigenvalues * t[..., None])
            return out
        return expm(self.generator * t[..., None, None])


def diagonal_semigroup(eigenvalues) -> Semigroup:
    """Semigroup with diagonal generator and its exact class (1, max(0, max eigenvalue))."""
    eigs = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    return Semigroup(eigenvalues=eigs, class_mu=max(0.0, float(eigs.max())))


def dense_semigroup(generator, class_M: float, class_mu: float) -> Semigroup:
    return Semigroup(generator=generator, class_M=class_M, class_mu=class_mu)


def heat_semigroup(dim: int) -> Semigroup:
    """Diagonal semigroup with eigenvalues -k^2, k = 1..dim (class (1, 0))."""
    k = np.arange(1, dim + 1, dtype=float)
    return diagonal_semigroup(-k * k)


_GRID_FACTOR, _GRID_FLOATS = 1.1, 1 << 22  # see certify_class_constants


def certify_class_constants(generator, T: float,
                            norm_kind: NormKind = 2) -> tuple[float, float]:
    """(M, mu) with |e^{At}| <= M e^{mu t} on [0, T] in the induced norm.

    mu = max(0, spectral abscissa of A) and B = A - mu I, so e^{At} =
    e^{mu t} e^{Bt}, and e^{Bt} does not overflow for purely exponential
    growth.  N_i = |e^{B t_i}| on t_i = i h, h = T / K, come from one stacked
    `expm` call (N_0 = 1).  On [t_i, t_i + h], |e^{Bt}| <= N_i e^{nu h} with
    nu = max(0, log_norm(B)), so M = e^{nu h} max_i N_i.  K is the smallest
    power of two with e^{nu h} <= `_GRID_FACTOR`, unless its stack would hold
    more than `_GRID_FLOATS` floats; past that cap the factor is larger and M
    still a bound.  `expm`'s rounding of the N_i, near unit roundoff times
    |B t_i| (Higham 2005), is not added.  A generator that is not square and
    finite, a T not finite and > 0, or an M that overflows raise ValueError.
    """
    a = np.asarray(generator, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not all_finite(a):
        raise ValueError("generator must be a finite square matrix")
    if not 0.0 < T < np.inf:
        raise ValueError("T must be finite and > 0")
    mu = max(float(np.linalg.eigvals(a).real.max()), 0.0)
    b = a - mu * np.eye(len(a))
    nu = max(log_norm(b, norm_kind), 0.0)  # max(nan, 0.0) is nan: no M below
    k = 1
    while nu * T / k > math.log(_GRID_FACTOR) and 2 * k * a.size <= _GRID_FLOATS:
        k *= 2
    h = T / k
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf
        m_const = np.exp(nu * h)
        if m_const < np.inf:
            stack = expm(b * (h * np.arange(1, k + 1))[:, None, None])
            peak = operator_norm(stack, norm_kind).max() if all_finite(stack) else np.inf
            m_const *= max(1.0, peak)
    if not m_const < np.inf:
        raise ValueError(f"the class constant M of this generator on [0, {T:g}] overflows")
    return float(m_const), mu


@dataclass(frozen=True)
class VectorField:
    """Field f(t, xi) with certified Lipschitz and linear-growth data.

    ``eval_fn(t, states)`` must accept a scalar or (k,) time array together
    with an (n,) vector or (k, n) batch of states and return matching shape.
    On the declared working ball the constants certify
    ``|f(t,xi) - f(t,eta)| <= lipschitz_L |xi - eta|`` and
    ``|f(t,xi)| <= growth_alpha |xi| + growth_beta``.

    ``eval_error`` bounds, componentwise, how far the floats ``eval_fn``
    returns lie from the exact f(t, xi): 0.0 for a field computed exactly,
    else a function of (t, states) shaped like ``eval_fn``'s output.  None
    declares no bound; a batch solve then certifies the field's trajectories
    by applications of F (see `BatchOperator.fixed_point`).
    """

    eval_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_L: float
    growth_alpha: float
    growth_beta: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    eval_error: float | Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name in ("lipschitz_L", "growth_alpha", "growth_beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (self.eval_error is None or callable(self.eval_error) or self.eval_error == 0.0):
            raise ValueError("eval_error must be None, 0.0 or a function")

    def __call__(self, t, states) -> np.ndarray:
        return self.eval_fn(np.asarray(t, dtype=float),
                            np.asarray(states, dtype=float))


def bilinear_field(matrix, norm_kind: NormKind = 2) -> VectorField:
    """f(xi) = B xi with L = alpha = |B| (induced norm), beta = 0.

    B = I returns the input states themselves: no caller writes into a
    field's output, and the field is exact.  States of another dimension
    still raise.  Any other B is a product of n-term dot products, each
    within gamma_n sum_k |B_lk| |x_k| + n 2^-1075 of its exact value,
    gamma_n = n u / (1 - n u) in any summation order (Higham 2002, sec. 3.1);
    the declared error doubles gamma_n to cover the bound's own rounding.
    """
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or not all_finite(b):
        raise ValueError("bilinear field needs a finite square matrix")
    nrm = operator_norm(b, norm_kind)
    n = b.shape[0]
    identity = np.array_equal(b, np.eye(n))
    gamma, magnitude = n * _EPS / (1.0 - n * _EPS), np.abs(b).T

    def eval_error(t, x):
        return 2.0 * gamma * (np.abs(x) @ magnitude) + n * _ETA

    return VectorField(
        eval_fn=lambda t, x: x if identity and x.shape[-1:] == b.shape[:1] else x @ b.T,
        lipschitz_L=nrm, growth_alpha=nrm, growth_beta=0.0,
        kind="bilinear", params={"matrix": b}, eval_error=0.0 if identity else eval_error,
    )


def constant_field(vector, norm_kind: NormKind = 2) -> VectorField:
    """f(xi) = b with L = alpha = 0, beta = |b|."""
    b = np.atleast_1d(np.asarray(vector, dtype=float))
    if not np.all(np.isfinite(b)):
        raise ValueError("constant field vector must be finite")
    return VectorField(
        eval_fn=lambda t, x: np.broadcast_to(b, np.shape(x)).copy(),
        lipschitz_L=0.0, growth_alpha=0.0,
        growth_beta=float(vector_norm(b, norm_kind)),
        kind="constant", params={"vector": b}, eval_error=0.0,
    )


def saturation_field(scale: float) -> VectorField:
    """Coordinatewise f(xi)_k = scale * tanh(xi_k); L = alpha = scale."""
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be finite and >= 0")
    return VectorField(
        eval_fn=lambda t, x: scale * np.tanh(x),
        lipschitz_L=scale, growth_alpha=scale, growth_beta=0.0,
        kind="saturation", params={"scale": scale},
    )
