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
Lap = -lambda_k, plus three forcing columns: wave_step_map gives them,
for P meshes at once, in the (matrix, loads) form that heat_step_map
gives the 1x1 heat maps in.  A study marches every mesh of a block in
one heat.modal_march call; run_wave and mcn_wave_step are its one-mesh
case and march R paths at once on (K, R) amplitudes, with no loop over
the steps; a single step is the march of one step.

With the micro-grid corrections the scheme converges strongly at order
2; with the noise switched off it is the classical trapezoid rule and
conserves the discrete wave energy, (1/2) sum_k (y_k^2 + lambda_k x_k^2).

The module also carries the exact solution of the spatially discrete
benchmark, which a wave study measures its rows against: like heat's,
it is read from oracle pieces drawn with the paths (window_wave_solution,
on the rates of wave_oracle_rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import SpatialGrid, dirichlet_eigenvalue
from .heat import (
    BENCHMARK_INITIAL_MODE,
    BENCHMARK_NOISE_MODES,
    ConfigError,
    benchmark_initial,
    benchmark_phi,
    modal_march,
    stacked_problems,
)
from .noise import NoiseBlock, TimeMesh, WienerPath, window_sum


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


def wave_step_map(problems: Sequence[WaveProblem]) -> tuple:
    """One step on the sine amplitudes of each problem, as heat.modal_march takes it.

    Returns (matrix, loads): each mode's (x, y) on mesh p goes through the
    2x2 matrix[p, :, :, k], and loads maps each noise coordinate to its
    (P, 2, K, m) loads on x and on y.  Per mode, with a = tau^2 lambda/4
    and D = 1 + a, eliminating x' from
    x' - x = (tau/2)(y' + y) + g and y' - y = -(tau lambda/2)(x' + x) + w - lambda v
    (g, w, v the step's gap, increment and velocity sum, times Phi) gives
    y' = ((1 - a) y - tau lambda x - (tau lambda/2) g + w - lambda v) / D and
    x' = x + (tau/2)(y + y') + g.  The matrix has determinant 1.
    """
    lam, tau, phi = stacked_problems(problems)
    inverse = 1.0 / (1.0 + 0.25 * tau * tau * lam)
    diagonal = (1.0 - 0.25 * tau * tau * lam) * inverse
    half_tau_lam = 0.5 * tau * lam * inverse
    matrix = np.array([[diagonal, tau * inverse], [-tau * lam * inverse, diagonal]])
    columns = {
        "gaps": (inverse, -half_tau_lam),
        "increments": (0.5 * tau * inverse, inverse),
        "velocity_sums": (-half_tau_lam, -lam * inverse),
    }
    loads = {name: np.array(column)[..., None] * phi for name, column in columns.items()}
    return matrix.transpose(2, 0, 1, 3), {name: load.swapaxes(0, 1) for name, load in loads.items()}


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
    return _wave_march(problem, [x, y], noise, range(j, j + 1))


def run_wave(
    problem: WaveProblem, noise: WienerPath | NoiseBlock
) -> tuple[np.ndarray, np.ndarray]:
    """March the corrected scheme over the whole mesh; returns the amplitudes (X_N, Y_N).

    noise is a chunk of n paths (WienerPath) or a NoiseBlock of R paths
    on problem.mesh, giving (K, n) or (K, R) blocks.  Column i is bit for
    bit that of path i marched as the chunk of one.
    """
    states = [problem.initial_displacement, problem.initial_velocity]
    return _wave_march(problem, states, noise, range(problem.mesh.N))


def _wave_march(problem: WaveProblem, states: list, noise, steps: range):
    """modal_march of the one mesh of problem from (x, y) over steps: (X, Y)."""
    x, y = modal_march([problem], wave_step_map([problem]), states, [noise], [steps])[0]
    return x, y


def benchmark_wave_problem(
    grid: SpatialGrid, mesh: TimeMesh, noise_scale: float = 1.0
) -> WaveProblem:
    """Benchmark: X(0) = sin(pi x), zero velocity, one channel on modes 2 and 3."""
    return WaveProblem(
        grid, mesh, benchmark_phi(grid, noise_scale), benchmark_initial(grid), np.zeros(grid.K)
    )


def wave_oracle_rates(grid: SpatialGrid) -> tuple[complex, ...]:
    """Rates i omega_k of the benchmark noise modes, omega_k = sqrt(lambda_k) on the grid.

    A wave study draws two oracle pieces per rate (noise.WindowLaw), the
    window's int cos(omega_k (t_w - s)) dW(s) and int sin(omega_k (t_w - s)) dW(s).
    """
    # From a list, as in noise.WindowLaw.pieces: this runs once a block.
    return tuple([1j * math.sqrt(dirichlet_eigenvalue(grid, k)) for k in BENCHMARK_NOISE_MODES])


def window_wave_solution(
    pieces: np.ndarray, grid: SpatialGrid, noise_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (X(1), Y(1)), each (K, n), of the exact semidiscrete benchmark solution.

    pieces (n, windows, 4) are the oracle pieces of a chunk drawn by
    noise.sample_windows under the rates of wave_oracle_rates(grid): the
    sin and the cos piece of mode 2, then those of mode 3.
    Each sine mode of the spatially discrete equation, dX = Y dt and
    dY = -lambda X dt + phi dW with omega = sqrt(lambda) and Y(0) = 0,
    solves by variation of constants (Cohen, Larsson & Sigg, SIAM J.
    Numer. Anal. 51 (2013) 204-222) as

        X(1) = cos(omega) X(0) + (phi/omega) int_0^1 sin(omega (1 - s)) dW(s),
        Y(1) = -omega sin(omega) X(0) + phi int_0^1 cos(omega (1 - s)) dW(s),

    and the integrals are minus the imaginary part and the real part of
    int_0^1 exp(-i omega (1 - s)) dW(s), the window sum of the complex
    pieces (noise.window_sum).  The benchmark starts at X(0) = 1 on
    mode 1 and loads modes 2 and 3 with phi = noise_scale; every other
    amplitude is zero.  So the oracle has no time-stepping error, and a
    study's rows measure the scheme's own.  Column i is bit for bit that
    of path i alone.
    """
    rates = wave_oracle_rates(grid)
    conv = window_sum(pieces[..., 1::2] - 1j * pieces[..., 0::2], rates)
    x, y = np.zeros((2, grid.K, conv.shape[1]))
    omega = math.sqrt(dirichlet_eigenvalue(grid, BENCHMARK_INITIAL_MODE))
    x[BENCHMARK_INITIAL_MODE - 1] = math.cos(omega)
    y[BENCHMARK_INITIAL_MODE - 1] = -omega * math.sin(omega)
    noise = [k - 1 for k in BENCHMARK_NOISE_MODES]
    x[noise] = noise_scale * -conv.imag / np.imag(rates)[:, None]
    y[noise] = noise_scale * conv.real
    return x, y


def wave_energy(problem: WaveProblem, x: np.ndarray, y: np.ndarray) -> float:
    """Discrete energy ||Y||^2 + <-Lap X, X> = (1/2) sum_k (y_k^2 + lambda_k x_k^2).

    x and y are (K,) amplitudes; the energy is conserved exactly when Phi = 0.
    """
    return float(problem.grid.l2_squared(y) + problem.grid.h1_squared(x))
