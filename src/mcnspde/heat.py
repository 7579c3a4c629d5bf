"""Time steppers for the stochastic heat equation dX = Lap X dt + Phi dW.

Two one-step maps are provided on the spatially discretized equation:

* em_step: implicit Euler-Maruyama, strong order 1 in time for additive
  smooth noise,
* mcn_heat_step: Crank-Nicolson with a micro-grid quadrature correction,
  strong order 3/2 guaranteed; on the smooth two-mode benchmark noise it
  shows order 2 once tau*lambda/2 < 1 for the driven modes.

States, initial data and the noise coefficient are sine amplitudes
(grid module): a_k is the coefficient of sin(k pi x).  Each step is one
fixed affine map of the state, and the sine modes diagonalize it: mode k
of the state is multiplied by the scheme's amplification factor on the
grid eigenvalue lambda_k, (1 - tau lambda/2) / (1 + tau lambda/2) for
mcn and 1/(1 + tau lambda) for em, and takes its share of the step's
noise coordinates (noise.NoiseBlock).  These are the schemes' own
factors, not exp(-lambda tau), so the march is the scheme exactly, up to
rounding.  modal_march, which the wave stepper shares, takes the step
maps of both equations in one form, (matrix, loads), and marches R
paths at once on (K, R) amplitudes.  It marches only the live modes,
where a load or a start state is nonzero (three of the benchmark's K),
and leaves the others exactly 0.  It has no loop over the steps: it
goes in passes of up to CONVOLUTION_BLOCK steps, each applying the map's
power over the pass and adding the pass's noise coordinates weighed by
the lower powers, one einsum per coordinate, with the powers formed by
doubling.  One path is the block of one, and a single step is the pass
of one step.

The module also carries the closed-form benchmark solution used by the
convergence harness: initial data sin(pi x) (amplitudes e_1) with one
noise channel loading sin(2 pi x) + sin(3 pi x) (e_2 + e_3), whose
exact solution has three nonzero amplitudes (one deterministic decay,
two stochastic convolutions).  A study reads the convolutions exactly,
as sums of the window pieces it draws (window_heat_solution, on the
rates of oracle_rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SpatialGrid, dirichlet_eigenvalue
from .noise import NoiseBlock, TimeMesh, WienerPath, noise_block, window_sum

SCHEME_EULER = "em"
SCHEME_MCN = "mcn"
EXACT_CONTINUOUS = "continuous"
EXACT_SEMIDISCRETE = "semidiscrete"

# Eigenmode layout of the benchmark problem: initial data on mode 1,
# noise loading modes 2 and 3 through a single Wiener channel.
BENCHMARK_INITIAL_MODE = 1
BENCHMARK_NOISE_MODES = (2, 3)


class ConfigError(ValueError):
    """Raised for inconsistent problem or study configuration.

    The command line reports it as a bad configuration (exit 2); other
    ValueErrors are bugs and propagate.
    """


@dataclass
class HeatProblem:
    """Spatially discretized heat equation with additive noise, in sine amplitudes.

    phi is (m, K): row i holds the amplitudes of the noise coefficient
    Phi_i, and initial (K,) those of X(0); a_k is the coefficient of
    sin(k pi x).
    """

    grid: SpatialGrid
    mesh: TimeMesh
    phi: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        self.phi = np.asarray(self.phi, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        K = self.grid.K
        if self.phi.ndim != 2 or self.phi.shape[1] != K or self.initial.shape != (K,):
            raise ConfigError("noise coefficient and initial data must share the grid")


# The noise coordinates (NoiseBlock fields) each scheme reads.
HEAT_NOISE = {SCHEME_EULER: ("increments",), SCHEME_MCN: ("increments", "gaps")}


def heat_step_map(problem: HeatProblem, scheme: str) -> tuple:
    """One step of the scheme on the sine amplitudes, as modal_march takes it.

    Returns (matrix, loads): matrix (1, 1, K) holds the amplification
    factor of each mode and loads maps each noise coordinate to its
    (1, K, m) load.  em solves (I - tau Lap) X_{j+1} = X_j + Phi dW; mcn
    solves (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW + Lap Phi gap,
    whose correction replaces the trapezoid-in-time treatment of the
    noise with the micro-grid quadrature.  With Lap = -lambda per mode,
    each solve is a division by the implicit factor.
    """
    grid, tau = problem.grid, problem.mesh.tau
    lam, phi = grid.eigenvalues[:, None], problem.phi.T
    if scheme == SCHEME_EULER:
        rho = 1.0 / (1.0 + tau * lam)
        loads = {"increments": rho * phi}
    elif scheme == SCHEME_MCN:
        implicit = 1.0 / (1.0 + 0.5 * tau * lam)
        rho = (1.0 - 0.5 * tau * lam) * implicit
        loads = {"increments": implicit * phi, "gaps": -lam * implicit * phi}
    else:
        raise ConfigError(f"unknown scheme {scheme!r}; use 'em' or 'mcn'")
    return rho.reshape(1, 1, -1), {name: load[None] for name, load in loads.items()}


# modal_march marches a mesh's steps in passes of at most this many.
CONVOLUTION_BLOCK = 128


def modal_march(
    problem, step_map: tuple, states: list, noise: WienerPath | NoiseBlock, steps: range
) -> list:
    """March C stacked states, each of sine amplitudes, by a fixed affine step map.

    problem is a heat or wave problem and step_map its (matrix, loads): a
    step takes the amplitudes s, shape (C, K, R), to A s, A =
    matrix (C, C, K) being one C x C map per mode, plus, for each noise
    coordinate (NoiseBlock field) in loads, its (C, K, m) load times the
    step's coordinate of each path.  Only the live modes are marched,
    those where a load or a start state is nonzero; every other mode
    stays exactly 0.  The steps go in passes of w = gcd(len(steps),
    CONVOLUTION_BLOCK), one step being the case w = 1: a pass takes s to
    A^w s plus, per coordinate, one einsum of the kernels A^(w-1-i) load
    of its steps i against their coordinates, with A^0..A^w formed once
    per call by doubling, A^(h+i) = A^h A^i for i = 1..h.  states are C
    arrays, each (K,), one start for every path, or (K, R).  noise is a
    chunk of n paths or a NoiseBlock of R paths on problem.mesh, and the
    result C arrays (K, n) or (K, R).  No operation calls BLAS, so each
    column gets the same bits for any R.
    """
    matrix, loads = step_map
    K = problem.grid.K
    if any(np.shape(state)[:1] != (K,) for state in states):
        raise ValueError(f"states must have {K} rows, got {[np.shape(s) for s in states]}")
    block = noise_block(noise, problem.mesh, tuple(loads))
    # A shared start is one column, broadcast to every path by the first pass.
    starts = np.stack([np.reshape(state, (K, -1)) for state in states])
    live = np.any(starts != 0.0, axis=(0, 2))
    for load in loads.values():
        live |= np.any(load != 0.0, axis=(0, 2))
    matrix = matrix[..., live]
    width = math.gcd(len(steps), CONVOLUTION_BLOCK)
    powers = np.stack([np.broadcast_to(np.eye(len(matrix))[..., None], matrix.shape), matrix])
    while len(powers) <= width:
        powers = np.concatenate([powers, np.einsum("abk,ibck->iack", powers[-1], powers[1:])])
    # Step i of a pass reaches the end of the pass through A^(w-1-i).
    kernels = {
        name: np.einsum("iabk,bkc->iakc", powers[width - 1 :: -1], load[:, live])
        for name, load in loads.items()
    }
    modes = starts[:, live]
    for j in range(steps.start, steps.stop, width):
        modes = np.einsum("abk,bkr->akr", powers[width], modes)
        for name, kernel in kernels.items():
            coordinates = getattr(block, name)[j : j + width]
            modes = modes + np.einsum("iakc,irc->akr", kernel, coordinates)
    marched = np.zeros((len(states), K, modes.shape[-1]))
    marched[:, live] = modes
    return list(marched)


def em_step(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, j: int = 0
) -> np.ndarray:
    """Implicit Euler-Maruyama step j: (I - tau Lap) X_{j+1} = X_j + Phi dW_j.

    Shapes as for mcn_heat_step.
    """
    step_map = heat_step_map(problem, SCHEME_EULER)
    (x,) = modal_march(problem, step_map, [x], noise, range(j, j + 1))
    return x


def mcn_heat_step(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, j: int = 0
) -> np.ndarray:
    """Corrected Crank-Nicolson step j.

    (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW_j + Lap Phi gap_j,
    with gap_j the step's quadrature gap.  x holds sine amplitudes, (K,)
    or (K, R), and noise is a chunk of n paths or a block of R paths; the
    result is (K, n) or (K, R).
    """
    step_map = heat_step_map(problem, SCHEME_MCN)
    (x,) = modal_march(problem, step_map, [x], noise, range(j, j + 1))
    return x


def run_heat(
    problem: HeatProblem, noise: WienerPath | NoiseBlock, scheme: str = SCHEME_MCN
) -> np.ndarray:
    """March the chosen scheme over the whole mesh and return X_N's sine amplitudes at time 1.

    noise is a chunk of n paths (WienerPath) or a NoiseBlock of R paths
    on problem.mesh, giving the (K, n) or (K, R) block of their X_N.
    Column i is bit for bit that of path i marched as the chunk of one.
    """
    step_map = heat_step_map(problem, scheme)
    (final,) = modal_march(problem, step_map, [problem.initial], noise, range(problem.mesh.N))
    return final


def benchmark_phi(grid: SpatialGrid, noise_scale: float = 1.0) -> np.ndarray:
    """Single-channel coefficient scale * (sin(2 pi x) + sin(3 pi x)): (1, K) amplitudes."""
    phi = np.zeros((1, grid.K))
    phi[0, [k - 1 for k in BENCHMARK_NOISE_MODES]] = noise_scale
    return phi


def benchmark_initial(grid: SpatialGrid) -> np.ndarray:
    """X(0) = sin(pi x): the amplitudes e_1."""
    initial = np.zeros(grid.K)
    initial[BENCHMARK_INITIAL_MODE - 1] = 1.0
    return initial


def benchmark_heat_problem(
    grid: SpatialGrid, mesh: TimeMesh, noise_scale: float = 1.0
) -> HeatProblem:
    """Benchmark problem: X(0) = sin(pi x), one channel on modes 2 and 3."""
    return HeatProblem(grid, mesh, benchmark_phi(grid, noise_scale), benchmark_initial(grid))


def _benchmark_rate(grid: SpatialGrid, mode: str, k: int) -> float:
    """Decay rate of sine mode k: (k pi)^2 in continuous mode, else the grid eigenvalue."""
    if mode == EXACT_CONTINUOUS:
        return (k * math.pi) ** 2
    if mode == EXACT_SEMIDISCRETE:
        return dirichlet_eigenvalue(grid, k)
    raise ConfigError(f"unknown exact mode {mode!r}")


def oracle_rates(grid: SpatialGrid) -> tuple[float, ...]:
    """Decay rates of the benchmark noise modes, continuous and then semidiscrete.

    A heat study draws one oracle piece per rate (noise.WindowLaw), so
    both exact modes, and the spatial floor between them, read one draw.
    """
    modes = (EXACT_CONTINUOUS, EXACT_SEMIDISCRETE)
    return tuple(_benchmark_rate(grid, m, k) for m in modes for k in BENCHMARK_NOISE_MODES)


def window_heat_solution(
    pieces: np.ndarray, grid: SpatialGrid, mode: str = EXACT_CONTINUOUS, noise_scale: float = 1.0
) -> np.ndarray:
    """Sine amplitudes (K, n) of the exact benchmark solution at time 1, from its window pieces.

    pieces (n, windows, rates) are the oracle pieces of a chunk drawn by
    noise.sample_windows under the rates of oracle_rates(grid).  The
    solution is

        X(1) = exp(-mu_1) sin(pi x) + conv(mu_2) sin(2 pi x) + conv(mu_3) sin(3 pi x),

    with the stochastic convolutions conv(mu) = int_0^1 exp(-mu (1-s)) dW(s)
    = sum_w exp(-mu (1 - t_w)) piece_w over the windows w, t_w the end of
    w (noise.window_sum), scaled by noise_scale.  In 'continuous' mode
    the decay rates are the PDE eigenvalues (k pi)^2, so the comparison
    against a scheme includes the spatial discretization error; in
    'semidiscrete' mode they are the discrete eigenvalues of the grid
    Laplacian and the comparison isolates the time-stepping error.  Every
    amplitude but those of modes 1-3 is zero.  Column i is bit for bit
    that of path i alone.
    """
    rates = [_benchmark_rate(grid, mode, k) for k in BENCHMARK_NOISE_MODES]
    first = 0 if mode == EXACT_CONTINUOUS else len(rates)
    conv = window_sum(pieces[..., first : first + len(rates)], rates)
    return _benchmark_solution(grid, mode, noise_scale * conv)


def _benchmark_solution(grid: SpatialGrid, mode: str, conv: np.ndarray) -> np.ndarray:
    """(K, n) amplitudes: exp(-mu_1) on mode 1 and conv (2, n) on the noise modes."""
    values = np.zeros((grid.K, conv.shape[1]))
    initial = _benchmark_rate(grid, mode, BENCHMARK_INITIAL_MODE)
    values[BENCHMARK_INITIAL_MODE - 1] = math.exp(-initial)
    values[[k - 1 for k in BENCHMARK_NOISE_MODES]] = conv
    return values
