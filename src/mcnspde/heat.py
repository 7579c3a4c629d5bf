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
maps of both equations in one form, (matrix, loads), stated for P meshes
at once, and marches R paths on every mesh in one call on (P, C, K, R)
amplitudes.  It marches only the live modes, where a load or a start
state is nonzero (three of the benchmark's K), and leaves the others
exactly 0.  It has no loop over the steps: each mesh goes to the map's
power over all its steps applied to the start, plus its noise
coordinates weighed by the lower powers, one einsum per coordinate,
with the powers of every mesh formed together by doubling.  One path is
the block of one, one mesh the march of P = 1 (run_heat, em_step,
mcn_heat_step), and a single step the march of one step.

The module also carries the closed-form benchmark solution used by the
convergence harness: initial data sin(pi x) (amplitudes e_1) with one
noise channel loading sin(2 pi x) + sin(3 pi x) (e_2 + e_3), whose
exact solution has three nonzero amplitudes (one deterministic decay,
two stochastic convolutions).  A study reads the convolutions exactly,
as sums of the window pieces it draws (window_heat_solution, on the
rates of oracle_rates), and the RMS gap between the solutions with the
PDE and the grid spectrum, the spatial floor, in closed form
(spatial_error_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def stacked_problems(problems: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, tau, phi) of P heat or wave problems on one grid, each mesh's in its row p.

    lam (P, K) holds the grid eigenvalues, tau (P, 1) the step lengths
    and phi (P, K, m) the noise coefficients' amplitudes, so a step map
    states every mesh's at once.
    """
    lam = np.stack([problem.grid.eigenvalues for problem in problems])
    tau = np.array([[problem.mesh.tau] for problem in problems])
    return lam, tau, np.stack([problem.phi.T for problem in problems])


def heat_step_map(problems: Sequence[HeatProblem], scheme: str) -> tuple:
    """One step of the scheme on the sine amplitudes of each problem, as modal_march takes it.

    Returns (matrix, loads): matrix (P, 1, 1, K) holds the amplification
    factor of each mode on mesh p and loads maps each noise coordinate to
    its (P, 1, K, m) loads.  em solves (I - tau Lap) X_{j+1} = X_j + Phi dW;
    mcn solves (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW + Lap Phi gap,
    whose correction replaces the trapezoid-in-time treatment of the
    noise with the micro-grid quadrature.  With Lap = -lambda per mode,
    each solve is a division by the implicit factor.
    """
    lam, tau, phi = stacked_problems(problems)
    if scheme == SCHEME_EULER:
        rho = 1.0 / (1.0 + tau * lam)
        loads = {"increments": rho[..., None] * phi}
    elif scheme == SCHEME_MCN:
        implicit = 1.0 / (1.0 + 0.5 * tau * lam)
        rho = (1.0 - 0.5 * tau * lam) * implicit
        gaps = (-lam * implicit)[..., None] * phi
        loads = {"increments": implicit[..., None] * phi, "gaps": gaps}
    else:
        raise ConfigError(f"unknown scheme {scheme!r}; use 'em' or 'mcn'")
    return rho[:, None, None], {name: load[:, None] for name, load in loads.items()}


def modal_march(
    problems: Sequence,
    step_map: tuple,
    states: list,
    noises: Sequence[WienerPath | NoiseBlock],
    steps: Sequence[range],
) -> np.ndarray:
    """March C stacked states of sine amplitudes on P meshes at once, each by its affine step map.

    problems are P heat or wave problems on one grid and step_map their
    (matrix, loads): on mesh p a step takes the amplitudes s, shape
    (C, K, R), to A_p s, A_p = matrix[p] (C, C, K) being one C x C map per
    mode, plus, for each noise coordinate (NoiseBlock field) in loads, its
    (C, K, m) load loads[name][p] times the step's coordinate of each path.
    Only the live modes are marched, those where a load or a start state
    is nonzero; every other mode stays exactly 0.  Mesh p marches the
    steps of steps[p], w_p of them, at once: it goes to A_p^w_p s plus, per
    coordinate, one einsum of the kernels A_p^(w_p-1-i) load of its steps
    i against their coordinates, one step being the case w_p = 1.  The
    powers A_p^0..A_p^w, w the largest w_p, are formed once per call for
    every mesh together by doubling, A^(h+i) = A^h A^i for i = 1..h, and
    the kernels of each coordinate by one einsum.  states are C arrays,
    each (K,), one start for every path, or (K, R), shared by every mesh.
    noises[p] is a chunk of n paths or a NoiseBlock of R paths on
    problems[p].mesh, and the result is (P, C, K, n) or (P, C, K, R).
    No operation calls BLAS, so each column gets the same bits for any R,
    and each mesh the same bits as marched alone.
    """
    matrix, loads = step_map
    K = problems[0].grid.K
    if any(np.shape(state)[:1] != (K,) for state in states):
        raise ValueError(f"states must have {K} rows, got {[np.shape(s) for s in states]}")
    blocks = [noise_block(n, p.mesh, tuple(loads)) for p, n in zip(problems, noises)]
    # A shared start is one column, broadcast to every path by the first coordinate.
    starts = np.stack([np.reshape(state, (K, -1)) for state in states])
    live = (starts != 0.0).any(axis=(0, 2))
    for load in loads.values():
        live |= (load != 0.0).any(axis=(0, 1, 3))
    P, C, L = len(problems), len(states), int(live.sum())
    widths = [len(span) for span in steps]
    width = max(widths)
    # Every mesh's live modes on one axis, mesh-major: A^0..A^(2h) of (C, C, P L)
    # maps, h the largest power of two below width.
    powers = np.empty(((1 << (width - 1).bit_length()) + 1, C, C, P * L))
    powers[0] = np.eye(C)[..., None]
    powers[1] = matrix[..., live].transpose(1, 2, 0, 3).reshape(C, C, P * L)
    h = 1
    while h < width:
        np.einsum("abk,ibck->iack", powers[h], powers[1 : h + 1], out=powers[h + 1 : 2 * h + 1])
        h *= 2
    # kernels[name][p, width-1-h] is A_p^h load: mesh p's step i reaches its end
    # through A_p^(w_p-1-i), row width - w_p + i of its contiguous (width, C, L, m) slab.
    kernels = {}
    for name, load in loads.items():
        load = load[:, :, live].swapaxes(0, 1).reshape(C, P * L, -1)
        kernel = np.einsum("iabk,bkc->iakc", powers[width - 1 :: -1], load)
        kernel = kernel.reshape(width, C, P, L, -1)
        kernels[name] = np.ascontiguousarray(kernel.transpose(2, 0, 1, 3, 4))
    ends = powers.reshape(-1, C, C, P, L)[widths, :, :, range(P)]
    ends = np.einsum("pabk,bkr->pakr", ends, starts[:, live])
    modes = []
    for p, (block, span) in enumerate(zip(blocks, steps)):
        state = ends[p]
        for name, kernel in kernels.items():
            coordinates = getattr(block, name)[span.start : span.stop]
            state = state + np.einsum("iakc,irc->akr", kernel[p, width - len(span) :], coordinates)
        modes.append(state)
    marched = np.zeros((P, C, K, modes[0].shape[-1]))
    marched[:, :, live] = modes
    return marched


def em_step(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, j: int = 0
) -> np.ndarray:
    """Implicit Euler-Maruyama step j: (I - tau Lap) X_{j+1} = X_j + Phi dW_j.

    Shapes as for mcn_heat_step.
    """
    return _heat_march(problem, SCHEME_EULER, x, noise, range(j, j + 1))


def mcn_heat_step(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, j: int = 0
) -> np.ndarray:
    """Corrected Crank-Nicolson step j.

    (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW_j + Lap Phi gap_j,
    with gap_j the step's quadrature gap.  x holds sine amplitudes, (K,)
    or (K, R), and noise is a chunk of n paths or a block of R paths; the
    result is (K, n) or (K, R).
    """
    return _heat_march(problem, SCHEME_MCN, x, noise, range(j, j + 1))


def run_heat(
    problem: HeatProblem, noise: WienerPath | NoiseBlock, scheme: str = SCHEME_MCN
) -> np.ndarray:
    """March the chosen scheme over the whole mesh and return X_N's sine amplitudes at time 1.

    noise is a chunk of n paths (WienerPath) or a NoiseBlock of R paths
    on problem.mesh, giving the (K, n) or (K, R) block of their X_N.
    Column i is bit for bit that of path i marched as the chunk of one.
    """
    return _heat_march(problem, scheme, problem.initial, noise, range(problem.mesh.N))


def _heat_march(problem: HeatProblem, scheme: str, x, noise, steps: range) -> np.ndarray:
    """modal_march of the one mesh of problem from x over steps: (K, n) or (K, R)."""
    step_map = heat_step_map([problem], scheme)
    return modal_march([problem], step_map, [x], [noise], [steps])[0, 0]


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
    both exact modes read one draw: continuous and semidiscrete studies
    at one seed march the same paths.
    """
    modes = (EXACT_CONTINUOUS, EXACT_SEMIDISCRETE)
    # From a list, as in noise.WindowLaw.pieces: this runs once a block.
    return tuple([_benchmark_rate(grid, m, k) for m in modes for k in BENCHMARK_NOISE_MODES])


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


def spatial_error_floor(grid: SpatialGrid, noise_scale: float = 1.0) -> float:
    """Exact RMS L2 gap at time 1 between the continuous and the semidiscrete benchmark solutions.

    Mode 1 differs by exp(-mu_1) - exp(-lambda_1), mu_k = (k pi)^2 and
    lambda_k the grid eigenvalue; each noise mode by noise_scale times
    int_0^1 (exp(-mu_k u) - exp(-lambda_k u)) dW, of variance
    E(2 mu_k) - 2 E(mu_k + lambda_k) + E(2 lambda_k), E(z) = int_0^1
    exp(-z u) du = -expm1(-z) / z.  The squared norm halves the sum of
    the squared amplitudes (SpatialGrid.l2_squared).
    """
    def rates(k):
        return [_benchmark_rate(grid, mode, k) for mode in (EXACT_CONTINUOUS, EXACT_SEMIDISCRETE)]

    def decay(z):
        return -math.expm1(-z) / z

    mu, lam = rates(BENCHMARK_INITIAL_MODE)
    total = (math.exp(-mu) - math.exp(-lam)) ** 2
    for mu, lam in map(rates, BENCHMARK_NOISE_MODES):
        total += noise_scale**2 * (decay(2 * mu) - 2 * decay(mu + lam) + decay(2 * lam))
    return math.sqrt(0.5 * total)


def _benchmark_solution(grid: SpatialGrid, mode: str, conv: np.ndarray) -> np.ndarray:
    """(K, n) amplitudes: exp(-mu_1) on mode 1 and conv (2, n) on the noise modes."""
    values = np.zeros((grid.K, conv.shape[1]))
    initial = _benchmark_rate(grid, mode, BENCHMARK_INITIAL_MODE)
    values[BENCHMARK_INITIAL_MODE - 1] = math.exp(-initial)
    values[[k - 1 for k in BENCHMARK_NOISE_MODES]] = conv
    return values
