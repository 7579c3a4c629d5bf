"""Corrected Crank-Nicolson stepper for the stochastic wave equation.

The first-order form advances displacement X and velocity Y together:

    X_{j+1} - X_j = (tau/2)(Y_{j+1} + Y_j) + displacement forcing
    Y_{j+1} - Y_j = (tau/2) Lap (X_{j+1} + X_j) + velocity forcing

The displacement forcing is the correction Phi gap_j, the quadrature gap
of the heat scheme without the Laplacian; the velocity forcing is
Phi dW_j plus the correction Lap Phi v_j, with v_j the step's weighted
micro sum (noise.NoiseBlock).  X, Y, their initial data and Phi are
sine amplitudes (grid module), a_k the coefficient of sin(k pi x).  The
step is one fixed affine map, and on the amplitudes it splits into one
2x2 map per mode, found by eliminating X_{j+1} from the pair with
Lap = -lambda_k, plus three forcing columns: wave_step_map gives them in
the (matrix, loads) form that heat_step_map gives the 1x1 heat maps in.
run_wave and mcn_wave_step march R paths at once on (K, R) amplitudes
through heat.modal_march, in passes of up to 128 steps with no loop over
the steps; a single step is the pass of one step.

With the micro-grid corrections the scheme converges strongly at order
2; with the noise switched off it is the classical trapezoid rule and
conserves the discrete wave energy, (1/2) sum_k (y_k^2 + lambda_k x_k^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import SpatialGrid
from .heat import ConfigError, benchmark_initial, benchmark_phi, modal_march
from .noise import NoiseBlock, TimeMesh, WienerPath


@dataclass
class WaveProblem:
    """Spatially discretized wave equation with additive noise, in sine amplitudes.

    phi is (m, K): row i holds the amplitudes of the noise coefficient
    Phi_i; initial_displacement and initial_velocity (K,) those of X(0)
    and Y(0).  a_k is the coefficient of sin(k pi x).
    """

    grid: SpatialGrid
    mesh: TimeMesh
    phi: np.ndarray
    initial_displacement: np.ndarray
    initial_velocity: np.ndarray

    def __post_init__(self) -> None:
        self.phi = np.asarray(self.phi, dtype=float)
        self.initial_displacement = np.asarray(self.initial_displacement, dtype=float)
        self.initial_velocity = np.asarray(self.initial_velocity, dtype=float)
        K = self.grid.K
        same = (
            self.phi.ndim == 2
            and self.phi.shape[1] == K
            and self.initial_displacement.shape == (K,)
            and self.initial_velocity.shape == (K,)
        )
        if not same:
            raise ConfigError("noise coefficient and initial data must share the grid")


# The noise coordinates (NoiseBlock fields) the scheme reads.
WAVE_NOISE = ("increments", "gaps", "velocity_sums")


def wave_step_map(problem: WaveProblem) -> tuple:
    """One step on the sine amplitudes, as heat.modal_march takes it: (matrix, loads).

    Each mode's (x, y) goes through the 2x2 matrix[:, :, k], and loads
    maps each noise coordinate to its (2, K, m) load on x and on y.  Per
    mode, with a = tau^2 lambda/4 and D = 1 + a, eliminating x' from
    x' - x = (tau/2)(y' + y) + g and y' - y = -(tau lambda/2)(x' + x) + w - lambda v
    (g, w, v the step's gap, increment and velocity sum, times Phi) gives
    y' = ((1 - a) y - tau lambda x - (tau lambda/2) g + w - lambda v) / D and
    x' = x + (tau/2)(y + y') + g.  The matrix has determinant 1.
    """
    grid, tau = problem.grid, problem.mesh.tau
    lam, phi = grid.eigenvalues, problem.phi.T
    inverse = 1.0 / (1.0 + 0.25 * tau * tau * lam)
    diagonal = (1.0 - 0.25 * tau * tau * lam) * inverse
    half_tau_lam = 0.5 * tau * lam * inverse
    matrix = np.array([[diagonal, tau * inverse], [-tau * lam * inverse, diagonal]])
    columns = {
        "gaps": (inverse, -half_tau_lam),
        "increments": (0.5 * tau * inverse, inverse),
        "velocity_sums": (-half_tau_lam, -lam * inverse),
    }
    return matrix, {name: np.array(column)[..., None] * phi for name, column in columns.items()}


def mcn_wave_step(
    problem: WaveProblem,
    x: np.ndarray,
    y: np.ndarray,
    noise: WienerPath | NoiseBlock,
    j: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (X_j, Y_j) over coarse step j.

    x and y hold sine amplitudes, (K,) or (K, R), and noise is a chunk of
    n paths or a block of R paths; the results are (K, n) or (K, R).
    """
    x, y = modal_march(problem, wave_step_map(problem), [x, y], noise, range(j, j + 1))
    return x, y


def run_wave(
    problem: WaveProblem, noise: WienerPath | NoiseBlock
) -> tuple[np.ndarray, np.ndarray]:
    """March the corrected scheme over the whole mesh; returns the amplitudes (X_N, Y_N).

    noise is a chunk of n paths (WienerPath) or a NoiseBlock of R paths
    on problem.mesh, giving (K, n) or (K, R) blocks.  Column i is bit for
    bit that of path i marched as the chunk of one.
    """
    states = [problem.initial_displacement, problem.initial_velocity]
    x, y = modal_march(problem, wave_step_map(problem), states, noise, range(problem.mesh.N))
    return x, y


def reference_wave_solution(
    problem: WaveProblem, noise: WienerPath | NoiseBlock, n_ref: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run the same scheme on a refined mesh with n_ref steps as reference.

    The noise is shared, so comparing a coarse run against this reference
    measures the scheme's own refinement error on a common noise sample;
    a NoiseBlock must lie on the refined mesh.  Returns (K, n) or (K, R)
    blocks, as run_wave.  n_ref may not be coarser than the problem mesh
    (equal is allowed and gives back run_wave exactly).
    """
    if n_ref < problem.mesh.N:
        raise ConfigError(
            f"reference resolution {n_ref} is coarser than the problem mesh {problem.mesh.N}"
        )
    return run_wave(replace(problem, mesh=TimeMesh(n_ref)), noise)


def benchmark_wave_problem(
    grid: SpatialGrid, mesh: TimeMesh, noise_scale: float = 1.0
) -> WaveProblem:
    """Benchmark: X(0) = sin(pi x), zero velocity, one channel on modes 2 and 3."""
    return WaveProblem(
        grid, mesh, benchmark_phi(grid, noise_scale), benchmark_initial(grid), np.zeros(grid.K)
    )


def wave_energy(problem: WaveProblem, x: np.ndarray, y: np.ndarray) -> float:
    """Discrete energy ||Y||^2 + <-Lap X, X> = (1/2) sum_k (y_k^2 + lambda_k x_k^2).

    x and y are (K,) amplitudes; the energy is conserved exactly when Phi = 0.
    """
    return float(problem.grid.l2_squared(y) + problem.grid.h1_squared(x))
