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
paths at once on (K, R) amplitudes.  It has no loop over the steps: it
goes in passes of up to CONVOLUTION_BLOCK steps, each applying the map's
power over the pass and adding the pass's noise coordinates weighed by
the lower powers, one einsum per coordinate.  One path is the block of
one, and a single step is the pass of one step.

The module also carries the closed-form benchmark solution used by the
convergence harness: initial data sin(pi x) (amplitudes e_1) with one
noise channel loading sin(2 pi x) + sin(3 pi x) (e_2 + e_3), whose
exact solution has three nonzero amplitudes (one deterministic decay,
two stochastic convolutions).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import SpatialGrid, dirichlet_eigenvalue
from .noise import NoiseBlock, TimeMesh, WienerPath, bridge_factor, noise_block

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


# convolve sums a path's steps, and modal_march a mesh's, by blocks of this many.
CONVOLUTION_BLOCK = 128


def modal_march(
    problem, step_map: tuple, states: list, noise: WienerPath | NoiseBlock, steps: range
) -> list:
    """March C stacked states, each of sine amplitudes, by a fixed affine step map.

    problem is a heat or wave problem and step_map its (matrix, loads): a
    step takes the amplitudes s, shape (C, K, R), to A s, A =
    matrix (C, C, K) being one C x C map per mode, plus, for each noise
    coordinate (NoiseBlock field) in loads, its (C, K, m) load times the
    step's coordinate of each path.  The steps go in passes of w =
    gcd(len(steps), CONVOLUTION_BLOCK), one step being the case w = 1: a
    pass takes s to A^w s plus, per coordinate, one einsum of the kernels
    A^(w-1-i) load of its steps i against their coordinates, with
    A^0..A^w formed once per call by repeated multiplication.  states are
    C arrays, each (K,), one start for every path, or (K, R).  noise is
    one path, a chunk of n paths or a NoiseBlock of R paths on
    problem.mesh; the result is (K, R) for (K, R) states, and otherwise
    (K,) for one path and (K, n) or (K, R) for a chunk or a block.  No
    operation calls BLAS, so each column gets the same bits for any R.
    """
    matrix, loads = step_map
    K = problem.grid.K
    if any(np.shape(state)[:1] != (K,) for state in states):
        raise ValueError(f"states must have {K} rows, got {[np.shape(s) for s in states]}")
    block = noise_block(noise, problem.mesh, tuple(loads))
    width = math.gcd(len(steps), CONVOLUTION_BLOCK)
    powers = [np.broadcast_to(np.eye(len(matrix))[..., None], matrix.shape)]
    for _ in range(width):
        powers.append(np.einsum("abk,bck->ack", powers[-1], matrix))
    powers = np.stack(powers)
    # Step i of a pass reaches the end of the pass through A^(w-1-i).
    kernels = {
        name: np.einsum("iabk,bkc->iakc", powers[width - 1 :: -1], load)
        for name, load in loads.items()
    }
    # A shared start is one column, broadcast to every path by the first pass.
    modes = np.stack([np.reshape(state, (K, -1)) for state in states])
    for j in range(steps.start, steps.stop, width):
        modes = np.einsum("abk,bkr->akr", powers[width], modes)
        for name, kernel in kernels.items():
            coordinates = getattr(block, name)[j : j + width]
            modes = modes + np.einsum("iakc,irc->akr", kernel, coordinates)
    # A lone path (S, m) from (K,) states, unlike a chunk or a block, gives (K,) arrays.
    lone = noise.increments.ndim == 2 and all(np.ndim(state) == 1 for state in states)
    return [mode[:, 0] for mode in modes] if lone else list(modes)


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
    or (K, R), and noise is one path, a chunk or a block of R paths;
    shapes as modal_march gives them.
    """
    step_map = heat_step_map(problem, SCHEME_MCN)
    (x,) = modal_march(problem, step_map, [x], noise, range(j, j + 1))
    return x


def run_heat(
    problem: HeatProblem, noise: WienerPath | NoiseBlock, scheme: str = SCHEME_MCN
) -> np.ndarray:
    """March the chosen scheme over the whole mesh and return X_N's sine amplitudes at time 1.

    noise is one WienerPath, giving X_N of shape (K,), or a chunk of n
    paths or a NoiseBlock of R paths on problem.mesh, giving the (K, n)
    or (K, R) block of their X_N.  Column i is bit for bit that of path i
    marched alone.
    """
    step_map = heat_step_map(problem, scheme)
    (final,) = modal_march(problem, step_map, [problem.initial], noise, range(problem.mesh.N))
    return final


@functools.lru_cache(maxsize=None)
def bridge_conditional_weights(
    functionals: tuple[tuple[int, int], ...], rate: float, delta: float
) -> tuple[float, np.ndarray]:
    """Weights of dW and of each bridge sum in E[int_0^delta exp(rate u) dW(u) | dW, sums].

    Over one master step of length delta the integral is dW times the
    kernel's step average expm1(rate delta)/(rate delta), exactly 1 at
    rate 0, plus int exp(rate u) dB(u) over the step's Brownian bridge B,
    which is independent of dW.  Its conditional mean given the bridge
    sums S_p = sum_{i=1}^{q-1} i^p B(i delta/q) named by functionals
    ((q, p) pairs, as noise.bridge_covariance takes them) is c . S with
    C c = v, C their covariance and v_f = Cov(int exp(rate u) dB, S_f)
    = sum_i i^p (expm1(rate t_i) - (t_i/delta) expm1(rate delta))/rate at
    t_i = i delta/q.  Returns (step average, c), cached per argument.
    """
    x = rate * delta
    if x == 0.0:
        return 1.0, np.zeros(len(functionals))
    loads = np.empty(len(functionals))
    for f, (q, p) in enumerate(functionals):
        i = np.arange(1.0, q)
        loads[f] = np.sum(i**p * (np.expm1(x * i / q) - (i / q) * math.expm1(x))) / rate
    # C = L L^T: solve L y = v from the top row down, then L^T c = y from the bottom up.
    factor = bridge_factor(functionals, delta)
    coefficients = np.empty(len(loads))
    for f in range(len(loads)):
        loads[f] = (loads[f] - np.sum(factor[f, :f] * loads[:f])) / factor[f, f]
    for f in reversed(range(len(loads))):
        rest = np.sum(factor[f + 1 :, f] * coefficients[f + 1 :])
        coefficients[f] = (loads[f] - rest) / factor[f, f]
    return math.expm1(x) / x, coefficients


def convolution_kernel(
    rates: Sequence[float], steps: int, functionals: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Weights of E[int_0^1 exp(-rate (1 - s)) dW(s) | path] for each rate, (rates, 1 + F, S).

    Over master step k the kernel is its left-point value exp(-rate (1 -
    s_k)) times exp(rate u), u the time into the step, so the integral's
    conditional mean given the master increments and the bridge sums
    (functionals, as WienerPath.bridge_functionals lists them) is that
    left-point weight times the step's bridge_conditional_weights
    combination of dW_k and its sums.  Row 0 weighs dW_k and row 1 + f
    the step's sum f.
    """
    delta = 1.0 / steps
    kernel = np.empty((len(rates), 1 + len(functionals), steps))
    for weights, rate in zip(kernel, rates):
        step_average, coefficients = bridge_conditional_weights(functionals, rate, delta)
        np.exp(-rate * delta * np.arange(steps, 0, -1), out=weights[0])
        weights[1:] = coefficients[:, None] * weights[0]
        weights[0] *= step_average
    return kernel


def convolve(path: WienerPath, kernel: np.ndarray) -> np.ndarray:
    """Each rate's conditional mean of the convolution given path, (..., rates, m).

    kernel is convolution_kernel's for the path's S and bridge
    functionals, and path one path or a chunk, whose leading axis the
    result keeps.  Each sum runs by einsum over blocks of
    CONVOLUTION_BLOCK steps and then pairwise over the blocks: no
    S-long temporary, no BLAS call (a BLAS product this long wakes the
    BLAS thread pool, whose threads then spin through the Python code
    that follows), the same bits for a path alone or in any chunk, and
    the result correctly rounded to about 1e-14 at 2^20 steps.
    """
    functionals = path.bridge_functionals
    if kernel.shape[1:] != (1 + len(functionals), path.S):
        raise ValueError(
            f"kernel of shape {kernel.shape} does not weigh a {path.S}-step path "
            f"with bridge sums {functionals}"
        )
    block = math.gcd(path.S, CONVOLUTION_BLOCK)
    blocked = lambda x: x.reshape(x.shape[:-2] + (-1, block, path.m))
    terms = [path.increments] + [path.bridge[q][..., p, :, :] for q, p in functionals]
    result = 0.0
    for f, term in enumerate(terms):
        weights = kernel[:, f].reshape(len(kernel), -1, block)
        result = result + np.einsum("kbw,...bwm->...kmb", weights, blocked(term)).sum(axis=-1)
    return result


def stochastic_convolution(path: WienerPath, rate: float) -> np.ndarray:
    """Conditional mean of int_0^1 exp(-rate (1 - s)) dW(s) given the path, shape (..., m).

    The path's master increments and bridge sums weighed by
    convolution_kernel.  A bare left-point sum drops the step average,
    and on the desk heat study at N = 256 it inflated the reference
    strong error by 5-7%.  What the path leaves undetermined keeps errors
    measured against this reference slightly below the continuous-time
    value.  On the desk heat path, 1024 master steps with S0 and S1 of the
    bridge levels q = 4, 16 and 64, that deficit E ||X - E[X | path]||^2
    is 6.2237e-10 in continuous mode, against 6.2236e-10 given the dW of
    all 2^16 finer steps alone; it lowers the mcn RMS error at N = 256 by
    about 0.14%.  Given S0 alone it would be 8.63e-10, and given the 1024
    dW alone 4094 times larger.
    """
    kernel = convolution_kernel((rate,), path.S, path.bridge_functionals)
    return convolve(path, kernel)[..., 0, :]


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


def heat_oracle_kernel(
    grid: SpatialGrid, mode: str, steps: int, functionals: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """convolution_kernel of the benchmark noise modes' decay rates in the exact mode."""
    rates = [_benchmark_rate(grid, mode, k) for k in BENCHMARK_NOISE_MODES]
    return convolution_kernel(rates, steps, functionals)


def exact_heat_solution(
    path: WienerPath,
    grid: SpatialGrid,
    mode: str = EXACT_CONTINUOUS,
    noise_scale: float = 1.0,
    kernel: np.ndarray | None = None,
) -> np.ndarray:
    """Sine amplitudes of the exact benchmark solution at the final time 1.

    X(1) = exp(-mu_1) sin(pi x)
         + conv(mu_2) sin(2 pi x) + conv(mu_3) sin(3 pi x),

    with conv(mu) = int_0^1 exp(-mu (1-s)) dW(s), given the path.  In
    'continuous' mode the decay rates are the PDE eigenvalues (k pi)^2, so
    the comparison against a scheme includes the spatial discretization
    error; in 'semidiscrete' mode they are the discrete eigenvalues of the
    grid Laplacian and the comparison isolates the time-stepping error.
    Requires a single-channel path (the benchmark noise drives both modes
    with one Wiener process).  Every amplitude but those of modes 1-3 is
    zero.  One path gives shape (K,), a chunk of n paths (K, n), column i
    bit for bit that of path i alone.  kernel is
    heat_oracle_kernel's for the mode and the path's grid and levels,
    formed here when not given.
    """
    if path.m != 1:
        raise ConfigError(f"benchmark exact solution needs m=1 noise, got m={path.m}")
    initial = _benchmark_rate(grid, mode, BENCHMARK_INITIAL_MODE)
    if kernel is None:
        kernel = heat_oracle_kernel(grid, mode, path.S, path.bridge_functionals)
    conv = noise_scale * convolve(path.chunk(), kernel)[..., 0]
    values = np.zeros((grid.K, len(conv)))
    values[BENCHMARK_INITIAL_MODE - 1] = math.exp(-initial)
    values[[k - 1 for k in BENCHMARK_NOISE_MODES]] = conv.T
    return values if path.increments.ndim == 3 else values[:, 0]
