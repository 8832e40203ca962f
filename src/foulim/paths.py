"""Uniform time grids, the Hurst and scale parameters, and the package error base."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FoulimError", "TimeGrid", "as_hurst", "as_eps"]


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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = horizon with t_k = k*dt."""

    horizon: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t0 != 0.0:
            raise ValueError("grids start at t0 = 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)
