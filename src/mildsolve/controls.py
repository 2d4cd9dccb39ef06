"""L^p control signals: piecewise-constant grids, norms, ball samplers, spikes.

A control is an m-channel signal on [0, T], constant on the uniform cells
[j T/n_t, (j+1) T/n_t).  Multi-channel norms combine channels additively,
``|u|_p = sum_i |u_i|_p``, so the factorial contraction estimates apply
verbatim.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Control:
    """Piecewise-constant control: values[i, j] on cell j of channel i."""

    horizon_T: float
    values: np.ndarray  # shape (m, n_t)

    def __post_init__(self):
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be > 0")
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("values must be an (m, n_t) array with m, n_t >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_t(self) -> int:
        return self.values.shape[1]

    @property
    def cell_width(self) -> float:
        return self.horizon_T / self.n_t

    def scaled(self, factor: float) -> "Control":
        return Control(self.horizon_T, self.values * factor)


def lp_norm(u: Control, p: float) -> float:
    """Exact L^p norm of the piecewise-constant signal, channels summed.

    Per channel |u_i|_p = (sum_cells |value|^p * T/n_t)^(1/p) (max for
    p = inf); channels combine as sum_i |u_i|_p.  A channel whose direct
    sum overflows is summed again with its maximum factored out.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(u.values)
    if np.isinf(p):
        return float(a.max(axis=1).sum())
    with np.errstate(over="ignore"):
        per_channel = (np.sum(a ** p, axis=1) * u.cell_width) ** (1.0 / p)
    big = ~np.isfinite(per_channel)
    if big.any():
        scale = a[big].max(axis=1)
        scaled = a[big] / scale[:, None]
        per_channel[big] = scale * (np.sum(scaled ** p, axis=1) * u.cell_width) ** (1.0 / p)
    return float(per_channel.sum())


def sample_ball(p: float, r: float, T: float, m: int, n_t: int,
                count: int, seed: int) -> list[Control]:
    """Draw `count` controls with lp_norm <= r, deterministically from `seed`.

    Cell values are i.i.d. standard normal, rescaled so the norm is r U^(1/(m n_t)),
    U uniform(0, 1): most draws lie near the sphere (norm >= 0.97 r with
    probability 0.98 at m n_t = 128), few are small.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if r <= 0:
        raise ValueError("r must be > 0")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        shape = rng.standard_normal((m, n_t))
        u = Control(T, shape)
        nrm = lp_norm(u, p)
        while nrm == 0.0:  # astronomically unlikely, but keep the sampler total
            shape = rng.standard_normal((m, n_t))
            u = Control(T, shape)
            nrm = lp_norm(u, p)
        target = r * rng.uniform() ** (1.0 / (m * n_t))
        out.append(u.scaled(target / nrm))
    return out


def spike_control(n: int, n_t: int) -> Control:
    """Appendix-style spike on [0, 1]: value n on [0, 1/n], zero after.

    The L^1 norm is exactly 1; the grid must align (n divides n_t) so the
    spike is exactly representable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_t % n != 0:
        raise ValueError(f"misaligned grid: n_t={n_t} not divisible by n={n}")
    values = np.zeros((1, n_t))
    values[0, : n_t // n] = float(n)
    return Control(1.0, values)


def control_to_csv(u: Control, path) -> None:
    """Write one row per cell: t_start, then one column per channel."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_start"] + [f"u{i}" for i in range(u.channels)])
        # csv writes a float as its repr
        starts = np.arange(u.n_t) * u.cell_width
        writer.writerows(np.column_stack([starts, u.values.T]).tolist())


def control_from_csv(path, horizon_T: float | None = None) -> Control:
    """Read a control written by `control_to_csv`.

    The horizon defaults to n_t * (inferred cell width); pass `horizon_T`
    to override (the cells must be uniform either way).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("control CSV needs a header and at least one cell")
    body = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    t_start, values = body[:, 0], body[:, 1:].T
    n_t = values.shape[1]
    if n_t > 1:
        widths = np.diff(t_start)
        h = widths[0]
        if h <= 0 or not np.allclose(widths, h, rtol=1e-9, atol=1e-12):
            raise ValueError("control CSV cells must form a uniform grid")
    else:
        h = horizon_T if horizon_T is not None else t_start[0] * 2 if t_start[0] > 0 else 1.0
    T = horizon_T if horizon_T is not None else float(h * n_t)
    return Control(T, values)
