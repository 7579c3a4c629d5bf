"""Corrected Crank-Nicolson stepper for the stochastic wave equation.

The first-order form advances displacement X and velocity Y together:

    X_{j+1} - X_j = (tau/2)(Y_{j+1} + Y_j) + displacement correction
    Y_{j+1} - Y_j = (tau/2) Lap (X_{j+1} + X_j) + Phi dW + velocity correction

The pair is solved by eliminating X_{j+1}: a single symmetric tridiagonal
solve with matrix I - (tau^2/4) Lap, factored once per problem, yields
Y_{j+1}, after which X_{j+1} follows explicitly.  Both corrections, and
Phi dW, come from each step's noise coordinates (noise.NoiseBlock), and
run_wave marches R paths at once on (K, R) states.
With the micro-grid corrections the scheme converges strongly at order 2;
with the noise switched off it is the classical trapezoid rule and
conserves the discrete wave energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import SpatialGrid, TridiagonalSolver, apply_laplacian, shifted_laplacian, sine_mode
from .heat import BENCHMARK_INITIAL_MODE, ConfigError, benchmark_phi
from .noise import NoiseBlock, NoiseCoefficient, TimeMesh, WienerPath, noise_block


@dataclass
class WaveProblem:
    """Spatially discretized wave equation with additive noise."""

    grid: SpatialGrid
    mesh: TimeMesh
    phi: NoiseCoefficient
    initial_displacement: np.ndarray
    initial_velocity: np.ndarray

    def __post_init__(self) -> None:
        self.initial_displacement = np.asarray(self.initial_displacement, dtype=float)
        self.initial_velocity = np.asarray(self.initial_velocity, dtype=float)
        same = (
            self.phi.grid == self.grid
            and self.initial_displacement.shape == (self.grid.K,)
            and self.initial_velocity.shape == (self.grid.K,)
        )
        if not same:
            raise ConfigError("noise coefficient and initial data must share the grid")

    @cached_property
    def implicit_matrix(self) -> TridiagonalSolver:
        return shifted_laplacian(self.grid, -0.25 * self.mesh.tau**2)

    def with_mesh(self, mesh: TimeMesh) -> "WaveProblem":
        return WaveProblem(
            self.grid, mesh, self.phi, self.initial_displacement, self.initial_velocity
        )


# The noise coordinates (NoiseBlock fields) the scheme reads.
WAVE_NOISE = ("increments", "gaps", "velocity_sums")


def _forcing_rows(problem: WaveProblem, block: NoiseBlock):
    """(displacement, velocity) forcing of each step for every path of block, each (K, R).

    The displacement forcing of step j is the correction
    Phi (micro Riemann sum) - (tau/2) Phi (W(t_{j+1}) + W(t_j)), the same
    trapezoid-versus-micro-quadrature gap as the heat correction but
    without the Laplacian.  The velocity forcing is Phi dW_j plus the
    correction (1/2) sum_{l=1}^{M} (2 t_{j+1} - tau - 2 t_{j,l}) tau^2
    Lap[Phi W(t_{j,l})], whose weight simplifies to (tau^3/2)(1 - 2 l tau),
    independent of j.
    """
    phi = problem.phi
    for j in range(problem.mesh.N):
        displacement = phi.combine(block.gaps[j])
        velocity = phi.combine(block.increments[j]) + phi.combine_laplacian(
            block.velocity_sums[j]
        )
        yield displacement, velocity


def wave_forcing(problem: WaveProblem, path: WienerPath) -> tuple[np.ndarray, np.ndarray]:
    """Noise forcing of every step of one path: (displacement, velocity), each (N, K).

    These are the rows run_wave steps with.
    """
    block = noise_block(path, problem.mesh, WAVE_NOISE)
    displacement, velocity = zip(*_forcing_rows(problem, block))
    return np.stack(displacement)[..., 0], np.stack(velocity)[..., 0]


def mcn_wave_step(
    problem: WaveProblem,
    x: np.ndarray,
    y: np.ndarray,
    displacement: np.ndarray,
    velocity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (X_j, Y_j) one coarse step via the eliminated tridiagonal solve.

    displacement and velocity are row j of wave_forcing; all four arrays
    are (K,) for one path or (K, R) for R paths.  Substituting the
    displacement relation into the velocity one gives
    (I - tau^2/4 Lap) Y_{j+1} = Y_j + Lap(tau^2/4 Y_j + tau X_j + tau/2 displacement) + velocity.
    """
    grid, tau = problem.grid, problem.mesh.tau
    coupled = 0.25 * tau * tau * y + tau * x + 0.5 * tau * displacement
    y_next = problem.implicit_matrix.solve(y + apply_laplacian(grid, coupled) + velocity)
    x_next = x + 0.5 * tau * (y + y_next) + displacement
    return x_next, y_next


def run_wave(
    problem: WaveProblem, noise: WienerPath | NoiseBlock
) -> tuple[np.ndarray, np.ndarray]:
    """March the corrected scheme over the whole mesh; returns (X_N, Y_N).

    noise is one WienerPath, giving (K,) arrays, or a NoiseBlock of R
    paths on problem.mesh, giving (K, R) blocks.  A path is marched as a
    block of one, so both give the same bits per path.
    """
    block = noise_block(noise, problem.mesh, WAVE_NOISE)
    x = np.repeat(problem.initial_displacement[:, None], block.count, axis=1)
    y = np.repeat(problem.initial_velocity[:, None], block.count, axis=1)
    for displacement, velocity in _forcing_rows(problem, block):
        x, y = mcn_wave_step(problem, x, y, displacement, velocity)
    return (x, y) if block is noise else (x[:, 0], y[:, 0])


def reference_wave_solution(
    problem: WaveProblem, noise: WienerPath | NoiseBlock, n_ref: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run the same scheme on a refined mesh with n_ref steps as reference.

    The noise is shared, so comparing a coarse run against this reference
    measures the scheme's own refinement error on a common noise sample;
    a NoiseBlock must lie on the refined mesh.  n_ref may not be coarser
    than the problem mesh (equal is allowed and gives back run_wave
    exactly).
    """
    if n_ref < problem.mesh.N:
        raise ConfigError(
            f"reference resolution {n_ref} is coarser than the problem mesh {problem.mesh.N}"
        )
    return run_wave(problem.with_mesh(TimeMesh(n_ref)), noise)


def benchmark_wave_problem(
    grid: SpatialGrid, mesh: TimeMesh, noise_scale: float = 1.0
) -> WaveProblem:
    """Benchmark: X(0) = sin(pi x), zero velocity, one channel on modes 2 and 3."""
    return WaveProblem(
        grid,
        mesh,
        benchmark_phi(grid, noise_scale),
        sine_mode(grid, BENCHMARK_INITIAL_MODE),
        np.zeros(grid.K),
    )


def wave_energy(problem: WaveProblem, x: np.ndarray, y: np.ndarray) -> float:
    """Discrete energy ||Y||^2 + <-Lap X, X> (conserved exactly when Phi = 0)."""
    h = problem.grid.h
    lap_x = apply_laplacian(problem.grid, x)
    return h * float(np.dot(y, y)) - h * float(np.dot(lap_x, x))
