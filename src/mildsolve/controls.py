"""L^p control signals: piecewise-constant grids, norms, ball samplers, spikes.

A control is an m-channel signal on [0, T], constant on the uniform cells
[j T/n_t, (j+1) T/n_t).  Multi-channel norms combine channels additively,
``|u|_p = sum_i |u_i|_p``, so the factorial contraction estimates apply
verbatim.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .floatcsv import write_csv
from .spaces import all_finite

_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class Control:
    """Piecewise-constant control: values[i, j] on cell j of channel i.  A (B, m, n_t)
    stack of B >= 1 controls on one grid indexes like a sequence: `stack[k]` is control
    k, a view of its row, and `stack[a:b]` a stack; a single control has neither."""

    horizon_T: float
    values: np.ndarray  # shape (m, n_t), or (B, m, n_t) for a stack

    def __post_init__(self):
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be > 0")
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim > 3 or min(vals.shape) < 1:
            raise ValueError("values must be (m, n_t) or a (B, m, n_t) stack, B, m, n_t >= 1")
        if not all_finite(vals):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-2]

    @property
    def n_t(self) -> int:
        return self.values.shape[-1]

    @property
    def cell_width(self) -> float:
        return self.horizon_T / self.n_t

    def scaled(self, factor: float) -> "Control":
        return Control(self.horizon_T, self.values * factor)

    @property
    def _rows(self) -> np.ndarray:
        if self.values.ndim != 3:
            raise TypeError("a single control is not a stack")
        return self.values

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index) -> "Control":
        return Control(self.horizon_T, self._rows[index])


def stack_controls(controls: Sequence[Control]) -> Control:
    """Controls built one at a time as one (B, m, n_t) stack, on one horizon and grid."""
    if len({(u.horizon_T, u.values.shape) for u in controls}) != 1:
        raise ValueError("a control stack needs controls on one horizon and grid")
    return Control(controls[0].horizon_T, np.stack([u.values for u in controls]))


def lp_norm(u: Control, p: float) -> float | np.ndarray:
    """Exact L^p norm of the piecewise-constant signal, channels summed.

    Per channel |u_i|_p = (sum_cells |value|^p * T/n_t)^(1/p) (max for
    p = inf); channels combine as sum_i |u_i|_p.  A channel whose direct
    sum overflows, or falls below the smallest normal float while the
    channel is nonzero (|value|^p underflows), is summed again with its
    maximum factored out.  A control is a float; a (B, m, n_t) stack gets
    its B norms as an array, each equal to its control's own.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(u.values)
    if np.isinf(p):
        norms = a.max(axis=-1).sum(axis=-1)
    else:
        with np.errstate(over="ignore"):
            sums = np.sum(a ** p, axis=-1) * u.cell_width
        per_channel = sums ** (1.0 / p)
        redo = ~((sums >= _SMALLEST_NORMAL) & (sums < np.inf))
        if redo.any():
            scale = a[redo].max(axis=-1)
            scale[scale == 0.0] = 1.0  # a zero channel's norm is its direct 0
            scaled = a[redo] / scale[:, None]
            per_channel[redo] = scale * (np.sum(scaled ** p, axis=-1) * u.cell_width) ** (1.0 / p)
        norms = per_channel.sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def sample_ball(p: float, r: float, T: float, m: int, n_t: int,
                count: int, seed: int) -> Control:
    """Draw a (count, m, n_t) stack of controls with lp_norm <= r, deterministically from `seed`.

    Cell values are i.i.d. standard normal, rescaled so the norm is r U^(1/(m n_t)),
    U uniform(0, 1): most draws lie near the sphere (norm >= 0.97 r with
    probability 0.98 at m n_t = 128), few are small.  Each (m, n_t) draw, then its
    uniform, fills a row of the stack, the norms are taken in one `lp_norm` call,
    and a ball whose scaled draws leave the floats raises OverflowError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if m < 1 or n_t < 1:  # an empty draw is all zero: it would be redrawn for ever
        raise ValueError("m and n_t must be >= 1")
    if r <= 0:
        raise ValueError("r must be > 0")
    rng = np.random.default_rng(seed)
    values, targets = np.empty((count, m, n_t)), np.empty(count)
    for k in range(count):
        while not rng.standard_normal(out=values[k]).any():
            pass  # a zero draw (norm 0) is astronomically unlikely; keep the sampler total
        targets[k] = r * rng.uniform() ** (1.0 / (m * n_t))
    with np.errstate(over="ignore", invalid="ignore"):
        values *= (targets / lp_norm(Control(T, values), p))[:, None, None]
    if not all_finite(values):
        raise OverflowError(f"controls of the ball of radius {r:.6g} leave the floats")
    return Control(T, values)


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


def control_to_csv(u: Control, path) -> int:
    """Write one row per cell: t_start, then one column per channel; return
    the number of bytes written."""
    starts = np.arange(u.n_t) * u.cell_width
    return write_csv(path, ["t_start"] + [f"u{i}" for i in range(u.channels)],
                     np.column_stack([starts, u.values.T]))


def control_from_csv(path, horizon_T: float | None = None) -> Control:
    """Read a control written by `control_to_csv`.

    Cell j must start at j T / n_t (relative 1e-9, absolute 1e-12), where T
    is `horizon_T` or, when that is None, n_t times the first cell's width.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("control CSV needs a header and at least one cell")
    body = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    t_start, values = body[:, 0], body[:, 1:].T
    n_t = values.shape[1]
    if horizon_T is None:
        if n_t < 2:
            raise ValueError("a one-cell control CSV needs the horizon")
        horizon_T = float((t_start[1] - t_start[0]) * n_t)
    if not (horizon_T > 0 and np.allclose(t_start, np.arange(n_t) * (horizon_T / n_t),
                                          rtol=1e-9, atol=1e-12)):
        raise ValueError(f"control CSV cells must start at j T / n_t for T = {horizon_T:.6g}, "
                         f"n_t = {n_t}")
    return Control(horizon_T, values)
