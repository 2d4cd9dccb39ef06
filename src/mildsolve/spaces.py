"""Finite-dimensional state spaces: p-norms, semigroup actions, vector fields.

The state space is a truncation of an abstract Banach space to R^n with a
selectable p-norm (p in {1, 2, inf}).  Linear dynamics enter through a
`Semigroup` (diagonal spectrum or dense generator matrix) carrying certified
growth constants (M, mu) with ``|e^{At} xi| <= M e^{mu t} |xi|``.  Nonlinear
dynamics enter through a `VectorField` with declared Lipschitz and
linear-growth constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

NormKind = Union[int, float]  # 1, 2 or np.inf

_VALID_NORMS = (1, 2, np.inf)
# A 2-norm below this summed squares under the smallest normal float.
_TINY_NORM = np.sqrt(np.finfo(float).tiny)


def check_norm_kind(norm_kind: NormKind) -> NormKind:
    if norm_kind not in _VALID_NORMS:
        raise ValueError(f"norm_kind must be one of 1, 2, inf, got {norm_kind!r}")
    return norm_kind


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


def operator_norm(matrix: np.ndarray, norm_kind: NormKind) -> float:
    """Induced operator norm matching the state p-norm."""
    m = np.asarray(matrix, dtype=float)
    if norm_kind == 1:
        return float(np.abs(m).sum(axis=0).max())
    if norm_kind == np.inf:
        return float(np.abs(m).sum(axis=1).max())
    return float(np.linalg.norm(m, 2))


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


@dataclass(frozen=True)
class Semigroup:
    """Action (t, xi) -> e^{At} xi of class (M, mu).

    Either ``eigenvalues`` (diagonal generator) or ``generator`` (dense n x n
    matrix) is set.  ``class_M >= 1`` and ``class_mu >= 0`` certify the growth
    bound; for a diagonal generator with all eigenvalues <= class_mu the bound
    holds exactly with class_M = 1.
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
            if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
                raise ValueError("generator must be a square matrix")
            if not np.all(np.isfinite(gen)):
                raise ValueError("generator entries must be finite")
            object.__setattr__(self, "generator", gen)
        if not 1.0 <= self.class_M < np.inf:
            raise ValueError("class_M must be finite and >= 1")
        if not 0.0 <= self.class_mu < np.inf:
            raise ValueError("class_mu must be finite and >= 0")

    @property
    def dim(self) -> int:
        if self.eigenvalues is not None:
            return self.eigenvalues.size
        return self.generator.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.eigenvalues is not None

    def spectral_abscissa(self) -> float:
        if self.is_diagonal:
            return float(self.eigenvalues.max())
        return float(np.linalg.eigvals(self.generator).real.max())

    def matrix_exp(self, t: float) -> np.ndarray:
        """Dense e^{At} (diagonal kinds get a diagonal matrix)."""
        if self.is_diagonal:
            return np.diag(np.exp(self.eigenvalues * t))
        import scipy.linalg  # loaded by the first dense exponential only

        return scipy.linalg.expm(self.generator * t)


def diagonal_semigroup(eigenvalues, class_M: float = 1.0,
                       class_mu: float | None = None) -> Semigroup:
    """Semigroup with diagonal generator; mu defaults to max(0, max eigenvalue)."""
    eigs = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    if class_mu is None:
        class_mu = max(0.0, float(eigs.max()))
    return Semigroup(eigenvalues=eigs, class_M=class_M, class_mu=class_mu)


def dense_semigroup(generator, class_M: float, class_mu: float) -> Semigroup:
    return Semigroup(generator=np.asarray(generator, dtype=float),
                     class_M=class_M, class_mu=class_mu)


def heat_semigroup(dim: int) -> Semigroup:
    """Diagonal semigroup with eigenvalues -k^2, k = 1..dim (class (1, 0))."""
    k = np.arange(1, dim + 1, dtype=float)
    return diagonal_semigroup(-k * k)


def apply_semigroup(sg: Semigroup, t: float, xi: StateVector) -> StateVector:
    """Evaluate e^{At} xi.

    Exact (up to exp rounding) for diagonal generators; scaling-and-squaring
    matrix exponential for dense ones.
    """
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    if xi.dim != sg.dim:
        raise ValueError(f"dimension mismatch: state {xi.dim}, semigroup {sg.dim}")
    if sg.is_diagonal:
        out = np.exp(sg.eigenvalues * t) * xi.coords
    else:
        out = sg.matrix_exp(t) @ xi.coords
    return StateVector(out, xi.norm_kind)


# Factor by which certified class constants exceed what the samples show
_CLASS_SAFETY = 1.1


def certify_class_constants(sg: Semigroup, t_grid, sample_count: int,
                            norm_kind: NormKind = 2) -> tuple[float, float]:
    """Numerically certify (M, mu) with ``|e^{At} xi| <= M e^{mu t} |xi|``.

    mu is fixed first as s * max(0, spectral abscissa), s = `_CLASS_SAFETY`;
    M is then s times the largest ratio |e^{At} xi| / (e^{mu t} |xi|) over
    `sample_count` normal samples xi (seed 0), floored at 1.  The returned
    pair satisfies the bound on every sample.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if np.any(t_grid < 0):
        raise ValueError("t_grid times must be >= 0")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")

    rng = np.random.default_rng(0)
    xs = rng.standard_normal((sample_count, sg.dim))
    norms = vector_norm(xs, norm_kind)
    if np.all(norms == 0.0):
        raise ValueError("degenerate sampling: all sample states are zero")
    xs = xs[norms > 0]
    norms = norms[norms > 0]

    mu = _CLASS_SAFETY * max(0.0, sg.spectral_abscissa())
    ratio = 0.0
    for t in t_grid:
        et = sg.matrix_exp(float(t))
        image_norms = vector_norm(xs @ et.T, norm_kind)
        ratio = max(ratio, float((image_norms / (np.exp(mu * t) * norms)).max()))
    return max(1.0, _CLASS_SAFETY * ratio), mu


@dataclass(frozen=True)
class VectorField:
    """Field f(t, xi) with certified Lipschitz and linear-growth data.

    ``eval_fn(t, states)`` must accept a scalar or (k,) time array together
    with an (n,) vector or (k, n) batch of states and return matching shape.
    On the declared working ball the constants certify
    ``|f(t,xi) - f(t,eta)| <= lipschitz_L |xi - eta|`` and
    ``|f(t,xi)| <= growth_alpha |xi| + growth_beta``.
    """

    eval_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_L: float
    growth_alpha: float
    growth_beta: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lipschitz_L", "growth_alpha", "growth_beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def __call__(self, t, states) -> np.ndarray:
        return self.eval_fn(np.asarray(t, dtype=float),
                            np.asarray(states, dtype=float))


def bilinear_field(matrix, norm_kind: NormKind = 2) -> VectorField:
    """f(xi) = B xi with L = alpha = |B| (induced norm), beta = 0.

    B = I returns the input states themselves: no caller writes into a
    field's output.  States of another dimension still raise.
    """
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("bilinear field needs a square matrix")
    if not np.all(np.isfinite(b)):
        raise ValueError("bilinear field matrix must be finite")
    nrm = operator_norm(b, norm_kind)
    identity = np.array_equal(b, np.eye(b.shape[0]))
    return VectorField(
        eval_fn=lambda t, x: x if identity and x.shape[-1:] == b.shape[:1] else x @ b.T,
        lipschitz_L=nrm, growth_alpha=nrm, growth_beta=0.0,
        kind="bilinear", params={"matrix": b},
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
        kind="constant", params={"vector": b},
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
