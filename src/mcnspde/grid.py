"""Uniform spatial grid on (0, 1) with homogeneous Dirichlet boundaries.

The interior nodes are x_i = i*h, i = 1..K, h = 1/(K+1).  The
second-difference Laplacian is diagonalized exactly by the discrete sine
modes sin(k pi x_i), k = 1..K, with eigenvalues -lambda_k (LeVeque,
Finite Difference Methods for Ordinary and Partial Differential
Equations, SIAM 2007, ch. 2), so every state of the steppers is held by
its sine amplitudes: a plain (K,) array a, or a (K, R) block of R of
them as columns, standing for the grid function f_i = sum_k a_k
sin(k pi x_i).  sine_mode(grid, k) is the unit amplitude vector e_k.
The norms follow by Parseval, h sum_i f_i^2 = (1/2) sum_k a_k^2, and
node values are formed only on request, by SpatialGrid.node_values.
l2_inner, l2_norm and h1_seminorm are the node-space norms of a (K,)
array of node values, kept as the references.
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

    def node_values(self, amplitudes: np.ndarray) -> np.ndarray:
        """Node values sum_k a_k sin(k pi x_i) of sine amplitudes, (K,) or a (K, R) block."""
        if np.shape(amplitudes)[:1] != (self.K,):
            raise ValueError(f"amplitudes have {np.shape(amplitudes)[:1]} rows, grid has {self.K}")
        return self.sine_basis @ amplitudes / math.sqrt(2.0 * self.h)

    def l2_squared(self, amplitudes: np.ndarray) -> np.ndarray:
        """l2_norm(node_values(a))^2 = (1/2) sum_k a_k^2, per column of a (K, R) block: (R,)."""
        return _mode_sums(1.0, amplitudes)

    def h1_squared(self, amplitudes: np.ndarray) -> np.ndarray:
        """h1_seminorm(node_values(a))^2 = (1/2) sum_k lambda_k a_k^2, per column: (R,)."""
        return _mode_sums(self.eigenvalues, amplitudes)


def _mode_sums(weights, amplitudes: np.ndarray) -> np.ndarray:
    """(1/2) sum_k weights_k a_k^2 of each column of a, shape (R,), or a scalar for (K,).

    Each column's modes are summed as one contiguous row, so a column gets
    the same bits for any R: numpy reduces a contiguous row pairwise, and
    a column of a (K, R) array row by row, so summing the (K, R) block
    directly would give a lone column other bits.
    """
    rows = np.ascontiguousarray(amplitudes.T)
    return 0.5 * np.sum(weights * rows * rows, axis=-1)


def dirichlet_eigenvalue(grid: SpatialGrid, k: int) -> float:
    """k-th eigenvalue of the negative discrete Laplacian, (4/h^2) sin^2(k pi h / 2)."""
    if not 1 <= k <= grid.K:
        raise ValueError(f"mode index must be in 1..{grid.K}, got {k}")
    h = grid.h
    s = math.sin(0.5 * k * math.pi * h)
    return 4.0 / h**2 * s * s


def sine_mode(grid: SpatialGrid, k: int) -> np.ndarray:
    """Amplitudes of sin(k pi x), the k-th discrete Laplacian eigenvector: e_k, shape (K,)."""
    if not 1 <= k <= grid.K:
        raise ValueError(f"mode index must be in 1..{grid.K}, got {k}")
    mode = np.zeros(grid.K)
    mode[k - 1] = 1.0
    return mode


def l2_inner(f: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 inner product h * sum(f_i g_i) of node values, with h = 1/(K+1)."""
    if f.shape != g.shape:
        raise ValueError(f"grid functions of shapes {f.shape} and {g.shape} differ")
    return float(np.dot(f, g)) / (f.size + 1)


def l2_norm(f: np.ndarray) -> float:
    """Discrete L2 norm sqrt(h * sum f_i^2) of node values, with h = 1/(K+1)."""
    return math.sqrt(float(np.dot(f, f)) / (f.size + 1))


def h1_seminorm(f: np.ndarray) -> float:
    """Discrete H1 seminorm sqrt(h * sum ((f_{i+1} - f_i)/h)^2) of node values.

    The sum includes the jumps to the zero boundary values.
    """
    h = 1.0 / (f.size + 1)
    diffs = np.diff(f, prepend=0.0, append=0.0) / h
    return math.sqrt(h * float(np.dot(diffs, diffs)))
