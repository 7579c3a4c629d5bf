"""Uniform spatial grid on (0, 1) with homogeneous Dirichlet boundaries.

The interior nodes are x_i = i*h, i = 1..K, h = 1/(K+1).  Grid functions
are plain arrays of the K interior values, shape (K,), or blocks of R of
them as the columns of a (K, R) array; the boundary values are
identically zero and never materialized.  The second-difference
Laplacian and the shifted systems (I + c*Lap) that the time steppers
solve are all symmetric tridiagonal, so a direct Thomas elimination is
used throughout, factored once per system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pivots smaller than this abort the elimination: the system is treated
# as numerically singular rather than silently amplifying roundoff.
PIVOT_FLOOR = 1e-14


class SolverError(Exception):
    """Raised when tridiagonal elimination hits a vanishing pivot."""


@dataclass(frozen=True)
class SpatialGrid:
    """Interior of (0, 1) sampled at K equispaced nodes."""

    K: int

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError(f"need at least 2 interior nodes, got K={self.K}")

    @property
    def h(self) -> float:
        return 1.0 / (self.K + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_i = i*h, shape (K,)."""
        return self.h * np.arange(1, self.K + 1)


def apply_laplacian(grid: SpatialGrid, f: np.ndarray) -> np.ndarray:
    """Second differences (f_{i-1} - 2 f_i + f_{i+1}) / h^2 along the first axis.

    Dirichlet boundaries are built in: the stencil sees zero outside the
    interior band.  The operator is symmetric negative definite with
    eigenvectors sin(k*pi*x_i) and eigenvalues -(4/h^2) sin^2(k*pi*h/2).
    """
    out = -2.0 * f
    out[:-1] += f[1:]
    out[1:] += f[:-1]
    out *= 1.0 / grid.h**2
    return out


class TridiagonalSolver:
    """Thomas elimination of one tridiagonal matrix, factored at construction.

    The forward elimination depends on the bands alone, so the multipliers
    and pivots are computed once here, and SolverError is raised if any
    pivot magnitude falls below PIVOT_FLOOR.  The systems stepped in this
    package are strictly diagonally dominant, so a failure indicates a
    misconstructed matrix rather than roundoff.  solve() then runs only the
    two substitution sweeps, over the rows of a (K, R) block of right-hand
    sides, so each column sees exactly the arithmetic of a lone solve.
    """

    def __init__(self, lower, diag, upper) -> None:
        lower, diag, upper = (np.asarray(b, dtype=float).tolist() for b in (lower, diag, upper))
        n = len(diag)
        if len(lower) != n - 1 or len(upper) != n - 1:
            raise ValueError("band lengths must be K-1, K, K-1")
        # Plain Python floats: the sweeps scale whole rows by them.
        pivots = [diag[0]]
        multipliers = []
        for i in range(1, n):
            self._check_pivot(pivots[i - 1], i - 1)
            w = lower[i - 1] / pivots[i - 1]
            multipliers.append(w)
            pivots.append(diag[i] - w * upper[i - 1])
        self._check_pivot(pivots[-1], n - 1)
        self.size = n
        self._multipliers = multipliers
        self._pivots = pivots
        self._upper = upper

    @staticmethod
    def _check_pivot(pivot: float, row: int) -> None:
        if abs(pivot) < PIVOT_FLOOR:
            raise SolverError(f"pivot {pivot!r} at row {row} below {PIVOT_FLOOR}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs, for rhs of shape (K,) or a block (K, R) of R columns."""
        n = self.size
        if rhs.shape[0] != n:
            raise ValueError(f"right-hand side has {rhs.shape[0]} rows, system has {n}")
        x = np.array(rhs, dtype=float, order="C")
        # Row views: each update below acts in place on all R columns at once.
        d = list(x.reshape(n, -1))
        mult, piv, upper = self._multipliers, self._pivots, self._upper
        for i in range(1, n):
            d[i] -= mult[i - 1] * d[i - 1]
        d[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            d[i] -= upper[i] * d[i + 1]
            d[i] /= piv[i]
        return x


def shifted_laplacian(grid: SpatialGrid, scale: float) -> TridiagonalSolver:
    """The system I + scale * Lap on grid, factored."""
    off = np.full(grid.K - 1, scale * (1.0 / grid.h**2))
    diag = np.full(grid.K, 1.0 + scale * (-2.0 / grid.h**2))
    return TridiagonalSolver(off, diag, off)


def dirichlet_eigenvalue(grid: SpatialGrid, k: int) -> float:
    """k-th eigenvalue of the negative discrete Laplacian, (4/h^2) sin^2(k pi h / 2)."""
    if not 1 <= k <= grid.K:
        raise ValueError(f"mode index must be in 1..{grid.K}, got {k}")
    h = grid.h
    s = math.sin(0.5 * k * math.pi * h)
    return 4.0 / h**2 * s * s


def sine_mode(grid: SpatialGrid, k: int) -> np.ndarray:
    """Grid samples of sin(k pi x), the k-th discrete Laplacian eigenvector."""
    if not 1 <= k <= grid.K:
        raise ValueError(f"mode index must be in 1..{grid.K}, got {k}")
    return np.sin(k * math.pi * grid.nodes)


def l2_inner(f: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 inner product h * sum(f_i g_i), with h = 1/(K+1)."""
    if f.shape != g.shape:
        raise ValueError(f"grid functions of shapes {f.shape} and {g.shape} differ")
    return float(np.dot(f, g)) / (f.size + 1)


def l2_norm(f: np.ndarray) -> float:
    """Discrete L2 norm sqrt(h * sum f_i^2), with h = 1/(K+1)."""
    return math.sqrt(float(np.dot(f, f)) / (f.size + 1))


def h1_seminorm(f: np.ndarray) -> float:
    """Discrete H1 seminorm sqrt(h * sum ((f_{i+1} - f_i)/h)^2) including boundary jumps."""
    h = 1.0 / (f.size + 1)
    diffs = np.diff(f, prepend=0.0, append=0.0) / h
    return math.sqrt(h * float(np.dot(diffs, diffs)))
