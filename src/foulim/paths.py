"""Uniform time grids, the Hurst and scale parameters, the package error base
and the master seed of the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FoulimError", "MASTER_SEED", "TimeGrid", "as_hurst", "as_eps", "as_eps_list",
           "as_horizon"]

# the pinned seed of `foulim verify`; kept here so that the CLI parser reads
# it without importing the acceptance suite and its scipy modules
MASTER_SEED = 20240917


class FoulimError(Exception):
    """Base of the package's numerical failures; the CLI exits 2 on them."""


def as_hurst(H) -> float:
    """Coerce H to a float in (0, 1)."""
    h = float(H)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {h}")
    return h


def as_eps(eps) -> float:
    """Coerce the fast time scale eps to a float in (0, 1]."""
    e = float(eps)
    if not 0.0 < e <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {e}")
    return e


def as_eps_list(eps_list) -> np.ndarray:
    """The distinct scales of eps_list, each checked by ``as_eps``, largest first."""
    scales = sorted({as_eps(e) for e in eps_list}, reverse=True)
    if not scales:
        raise ValueError("need at least one eps")
    return np.asarray(scales)


def as_horizon(t) -> float:
    """Coerce a time horizon to a positive, finite float (before it sets a step count)."""
    T = float(t)
    if not 0.0 < T < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {T}")
    return T


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = horizon with t_k = k*dt."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        as_horizon(self.horizon)
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @classmethod
    def with_step(cls, horizon, step: float) -> TimeGrid:
        """The grid on [0, horizon] of round(horizon / step) steps, at least one."""
        T = as_horizon(horizon)
        if not (step > 0.0 and np.isfinite(T / step)):
            raise ValueError(f"a step of {step:g} on a horizon of {T:g} "
                             "gives no finite step count")
        return cls(horizon, max(int(round(T / step)), 1))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)
