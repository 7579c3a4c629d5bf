"""Uniform spatial grid on (0, 1) with homogeneous Dirichlet boundaries.

The interior nodes are x_i = i*h, i = 1..K, h = 1/(K+1).  Grid functions
are plain arrays of the K interior values, shape (K,), or blocks of R of
them as the columns of a (K, R) array; the boundary values are
identically zero and never materialized.  The second-difference
Laplacian is diagonalized exactly by the discrete sine basis
S_ik = sqrt(2h) sin(i k pi h), which is orthogonal and symmetric, so the
steppers' implicit systems become one division per mode (LeVeque, Finite
Difference Methods for Ordinary and Partial Differential Equations,
SIAM 2007, ch. 2) and no linear system is ever solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """lambda_k of -Lap for k = 1..K, shape (K,): dirichlet_eigenvalue of each mode."""
        return np.array([dirichlet_eigenvalue(self, k) for k in range(1, self.K + 1)])

    @cached_property
    def sine_basis(self) -> np.ndarray:
        """S_ik = sqrt(2h) sin(i k pi h), shape (K, K): orthogonal, symmetric, S S = I.

        Column k is the k-th eigenvector of Lap.  The product i*k is
        reduced modulo 2(K+1) before scaling, so the sine's argument stays
        below 2 pi and is exact to rounding for any K.
        """
        index = np.arange(1, self.K + 1)
        phase = np.outer(index, index) % (2 * (self.K + 1))
        return math.sqrt(2.0 * self.h) * np.sin(math.pi * self.h * phase)

    def sine_transform(self, f: np.ndarray) -> np.ndarray:
        """S f along the first axis, for f of shape (K,) or a (K, R) block.

        S is its own inverse, so this takes grid values to sine-mode
        coefficients and back.  The product is accumulated one basis row
        at a time in elementwise operations, never by a BLAS product: each
        column of a block then gets the same bits for any R, and no BLAS
        thread pool wakes up.
        """
        if f.shape[0] != self.K:
            raise ValueError(f"grid function has {f.shape[0]} rows, grid has {self.K}")
        basis = self.sine_basis.reshape((self.K, self.K) + (1,) * (f.ndim - 1))
        out = np.zeros(f.shape)
        for row, coefficient in zip(basis, f):
            out += row * coefficient
        return out


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


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of an (n, R) array, added one row at a time.

    The order of the additions is fixed, so each column gets the same
    bits for any R (numpy's own reductions may pair terms differently
    when R = 1).
    """
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def squared_l2_norms(block: np.ndarray) -> np.ndarray:
    """l2_norm(column)^2 of every column of a (K, R) block, shape (R,)."""
    return _column_sums(block * block) / (block.shape[0] + 1)


def squared_h1_seminorms(block: np.ndarray) -> np.ndarray:
    """h1_seminorm(column)^2 of every column of a (K, R) block, shape (R,)."""
    h = 1.0 / (block.shape[0] + 1)
    diffs = np.diff(block, axis=0, prepend=0.0, append=0.0) / h
    return h * _column_sums(diffs * diffs)
