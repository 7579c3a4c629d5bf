"""Time steppers for the stochastic heat equation dX = Lap X dt + Phi dW.

Two one-step maps are provided on the spatially discretized equation:

* em_step: implicit Euler-Maruyama, strong order 1 in time for additive
  smooth noise,
* mcn_heat_step: Crank-Nicolson with a micro-grid quadrature correction,
  strong order 3/2 guaranteed; on the smooth two-mode benchmark noise it
  shows order 2 once tau*lambda/2 < 1 for the driven modes.

Each step is one fixed affine map of the state, and the discrete sine
basis diagonalizes it: mode k of the state is multiplied by the scheme's
amplification factor on the grid eigenvalue lambda_k, (1 - tau lambda/2)
/ (1 + tau lambda/2) for mcn and 1/(1 + tau lambda) for em, and takes
its share of the step's noise coordinates (noise.NoiseBlock).  These are
the schemes' own factors, not exp(-lambda tau), so the march is the
scheme exactly, up to rounding.  modal_march, which the wave stepper
shares, marches R paths at once on (K, R) mode coefficients, entering
the basis once from the initial data and leaving it once for X_N; one
path is the block of one, and a single step is the march of one step.

The module also carries the closed-form benchmark solution used by the
convergence harness: initial data sin(pi x) with one noise channel
loading sin(2 pi x) + sin(3 pi x), whose exact solution is a sum of
three eigenmode terms (one deterministic decay, two stochastic
convolutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SpatialGrid, dirichlet_eigenvalue, sine_mode
from .noise import NoiseBlock, NoiseCoefficient, TimeMesh, WienerPath, noise_block

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
    """Spatially discretized heat equation with additive noise."""

    grid: SpatialGrid
    mesh: TimeMesh
    phi: NoiseCoefficient
    initial: np.ndarray

    def __post_init__(self) -> None:
        self.initial = np.asarray(self.initial, dtype=float)
        if self.phi.grid != self.grid or self.initial.shape != (self.grid.K,):
            raise ConfigError("noise coefficient and initial data must share the grid")


# The noise coordinates (NoiseBlock fields) each scheme reads.
HEAT_NOISE = {SCHEME_EULER: ("increments",), SCHEME_MCN: ("increments", "gaps")}


def heat_step_map(problem: HeatProblem, scheme: str) -> tuple:
    """One step of the scheme in the sine basis, as modal_march takes it.

    Returns (rho, None, loads): rho (1, K, 1) holds the amplification
    factor of each mode and loads maps each noise coordinate to its
    (1, K, m) load.  em solves (I - tau Lap) X_{j+1} = X_j + Phi dW; mcn
    solves (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW + Lap Phi gap,
    whose correction replaces the trapezoid-in-time treatment of the
    noise with the micro-grid quadrature.  With Lap = -lambda per mode,
    each solve is a division by the implicit factor.
    """
    grid, tau = problem.grid, problem.mesh.tau
    lam = grid.eigenvalues[None, :, None]
    phi = grid.sine_transform(problem.phi.values.T)[None]
    if scheme == SCHEME_EULER:
        rho = 1.0 / (1.0 + tau * lam)
        return rho, None, {"increments": rho * phi}
    if scheme == SCHEME_MCN:
        implicit = 1.0 / (1.0 + 0.5 * tau * lam)
        rho = (1.0 - 0.5 * tau * lam) * implicit
        return rho, None, {"increments": implicit * phi, "gaps": -lam * implicit * phi}
    raise ConfigError(f"unknown scheme {scheme!r}; use 'em' or 'mcn'")


def modal_march(
    grid: SpatialGrid, noise: NoiseBlock, step_map: tuple, states: list, steps: range
) -> list:
    """March C stacked grid functions by a fixed affine step map in the sine basis.

    step_map is (diagonal, coupling, loads).  Per step the mode
    coefficients s, shape (C, K, R), become diagonal * s, plus
    coupling * s[::-1] unless coupling is None, plus, for each noise
    coordinate and channel c, load[..., c] times the step's coordinate of
    each path.  diagonal and coupling are (C, K, 1) and loads (C, K, m).
    states are C arrays, each (K,), the same start for every path, or
    (K, R); they enter the basis once and leave it once.  Every operation
    is elementwise, with no BLAS call, so each column gets the same bits
    for any R.
    """
    diagonal, coupling, loads = step_map
    modes = np.stack([grid.sine_transform(state) for state in states])
    if modes.ndim == 2:
        modes = np.repeat(modes[..., None], noise.count, axis=2)
    scratch = np.empty_like(modes)
    for j in steps:
        if coupling is not None:
            np.multiply(coupling, modes[::-1], out=scratch)
        modes *= diagonal
        if coupling is not None:
            modes += scratch
        for name, load in loads.items():
            values = getattr(noise, name)[j]
            for c in range(load.shape[-1]):
                np.multiply(load[..., c, None], values[:, c], out=scratch)
                modes += scratch
    return [grid.sine_transform(component) for component in modes]


def _march(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, scheme: str, steps: range
) -> np.ndarray:
    """Step x over the given steps for one path, giving (K,), or a block of R paths, (K, R)."""
    step_map = heat_step_map(problem, scheme)
    block = noise_block(noise, problem.mesh, HEAT_NOISE[scheme])
    (final,) = modal_march(problem.grid, block, step_map, [x], steps)
    return final if block is noise else final[:, 0]


def em_step(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, j: int = 0
) -> np.ndarray:
    """Implicit Euler-Maruyama step j: (I - tau Lap) X_{j+1} = X_j + Phi dW_j.

    Shapes as for mcn_heat_step.
    """
    return _march(problem, x, noise, SCHEME_EULER, range(j, j + 1))


def mcn_heat_step(
    problem: HeatProblem, x: np.ndarray, noise: WienerPath | NoiseBlock, j: int = 0
) -> np.ndarray:
    """Corrected Crank-Nicolson step j.

    (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW_j + Lap Phi gap_j,
    with gap_j the step's quadrature gap.  x is (K,) and noise one path,
    or x is (K,) or (K, R) and noise a block of R paths.
    """
    return _march(problem, x, noise, SCHEME_MCN, range(j, j + 1))


def run_heat(
    problem: HeatProblem, noise: WienerPath | NoiseBlock, scheme: str = SCHEME_MCN
) -> np.ndarray:
    """March the chosen scheme over the whole mesh and return X_N at time 1.

    noise is one WienerPath, giving X_N of shape (K,), or a NoiseBlock of
    R paths on problem.mesh, giving the (K, R) block of their X_N.  A path
    is marched as a block of one, so both give the same bits per path.
    """
    return _march(problem, problem.initial, noise, scheme, range(problem.mesh.N))


def stochastic_convolution(path: WienerPath, rate: float) -> np.ndarray:
    """Conditional mean of int_0^1 exp(-rate (1 - s)) dW(s) given the path, shape (m,).

    Over master step k the integral's conditional mean given the master
    increments is dW_k times the step average of the kernel: the
    left-point weight exp(-rate (1 - s_k)) times the scalar
    expm1(rate delta) / (rate delta), exactly 1 at rate 0.  A bare
    left-point sum drops that factor, and on the desk heat study at
    N = 256 it inflated the reference strong error by 5-7%.  What the
    master increments leave undetermined, the kernel's variation inside
    each master step, keeps errors measured against this reference about
    0.15% below the continuous-time value at N = 256.

    The weights factor: with master index k = i w + q, w a power of two
    near sqrt(S) dividing S, and b = S/w blocks, 1 - s_k =
    ((b - 1 - i) w + (w - q)) delta, so exp(-rate (1 - s_k)) is an outer
    factor per block times an inner factor per offset, both at most 1.
    That takes two exps of length about sqrt(S) instead of one of length S.
    """
    steps, m = path.increments.shape
    w = 1 << ((steps & -steps).bit_length() - 1) // 2
    inner = np.exp(-rate * path.delta * np.arange(w, 0, -1))
    outer = np.exp(-rate * path.delta * w * np.arange(steps // w - 1, -1, -1))
    x = rate * path.delta
    step_average = math.expm1(x) / x if x != 0.0 else 1.0
    # einsum, not a matmul: a BLAS matrix-vector product this long wakes
    # the BLAS thread pool, which then spins through the stepping loops.
    per_block = np.einsum("q,iqm->im", inner, path.increments.reshape(-1, w, m))
    return step_average * np.einsum("i,im->m", outer, per_block)


def benchmark_phi(grid: SpatialGrid, noise_scale: float = 1.0) -> NoiseCoefficient:
    """Single-channel coefficient scale * (sin(2 pi x) + sin(3 pi x))."""
    profile = sum(sine_mode(grid, k) for k in BENCHMARK_NOISE_MODES)
    return NoiseCoefficient.from_components(grid, [noise_scale * profile])


def benchmark_heat_problem(
    grid: SpatialGrid, mesh: TimeMesh, noise_scale: float = 1.0
) -> HeatProblem:
    """Benchmark problem: X(0) = sin(pi x), one channel on modes 2 and 3."""
    return HeatProblem(
        grid, mesh, benchmark_phi(grid, noise_scale), sine_mode(grid, BENCHMARK_INITIAL_MODE)
    )


def exact_heat_solution(
    path: WienerPath, grid: SpatialGrid, mode: str = EXACT_CONTINUOUS, noise_scale: float = 1.0
) -> np.ndarray:
    """Exact benchmark solution at the final time 1, evaluated on the grid.

    X(1) = exp(-mu_1) sin(pi x)
         + conv(mu_2) sin(2 pi x) + conv(mu_3) sin(3 pi x),

    with conv(mu) = int_0^1 exp(-mu (1-s)) dW(s), given the path.  In
    'continuous' mode the decay rates are the PDE eigenvalues (k pi)^2, so
    the comparison against a scheme includes the spatial discretization
    error; in 'semidiscrete' mode they are the discrete eigenvalues of the
    grid Laplacian and the comparison isolates the time-stepping error.
    Requires a single-channel path (the benchmark noise drives both modes
    with one Wiener process).
    """
    if path.m != 1:
        raise ConfigError(f"benchmark exact solution needs m=1 noise, got m={path.m}")
    if mode == EXACT_CONTINUOUS:
        rate = lambda k: (k * math.pi) ** 2
    elif mode == EXACT_SEMIDISCRETE:
        rate = lambda k: dirichlet_eigenvalue(grid, k)
    else:
        raise ConfigError(f"unknown exact mode {mode!r}")
    values = math.exp(-rate(BENCHMARK_INITIAL_MODE)) * sine_mode(grid, BENCHMARK_INITIAL_MODE)
    for k in BENCHMARK_NOISE_MODES:
        conv = float(stochastic_convolution(path, rate(k))[0])
        values = values + noise_scale * conv * sine_mode(grid, k)
    return values
