"""Time steppers for the stochastic heat equation dX = Lap X dt + Phi dW.

Two one-step maps are provided on the spatially discretized equation:

* em_step: implicit Euler-Maruyama, strong order 1 in time for additive
  smooth noise,
* mcn_heat_step: Crank-Nicolson with a micro-grid quadrature correction,
  strong order 3/2 guaranteed; on the smooth two-mode benchmark noise it
  shows order 2 once tau*lambda/2 < 1 for the driven modes.

Both solve a constant symmetric tridiagonal system per step, factored
once per problem, and build each step's noise forcing from that step's
noise coordinates (noise.NoiseBlock).  run_heat marches R paths at once
on (K, R) states; one path is the block of one.  The module
also carries the closed-form benchmark solution used by the convergence
harness: initial data sin(pi x) with one noise channel loading
sin(2 pi x) + sin(3 pi x), whose exact solution is a sum of three
eigenmode terms (one deterministic decay, two stochastic convolutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    SpatialGrid,
    TridiagonalSolver,
    apply_laplacian,
    dirichlet_eigenvalue,
    shifted_laplacian,
    sine_mode,
)
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

    @cached_property
    def euler_implicit(self) -> TridiagonalSolver:
        return shifted_laplacian(self.grid, -self.mesh.tau)

    @cached_property
    def cn_implicit(self) -> TridiagonalSolver:
        return shifted_laplacian(self.grid, -0.5 * self.mesh.tau)


# The noise coordinates (NoiseBlock fields) each scheme reads.
HEAT_NOISE = {SCHEME_EULER: ("increments",), SCHEME_MCN: ("increments", "gaps")}


def _forcing_rows(problem: HeatProblem, block: NoiseBlock, scheme: str):
    """Noise forcing of each step for every path of block, one (K, R) array per step.

    Row j is Phi dW_j, plus for the corrected scheme the correction
    Lap[Phi (micro Riemann sum)] - (tau/2) Lap[Phi (W(t_{j+1}) + W(t_j))],
    which replaces the trapezoid-in-time treatment of the noise with the
    micro-grid quadrature.
    """
    phi = problem.phi
    for j in range(problem.mesh.N):
        forcing = phi.combine(block.increments[j])
        if scheme == SCHEME_MCN:
            forcing += phi.combine_laplacian(block.gaps[j])
        yield forcing


def heat_forcing(problem: HeatProblem, path: WienerPath, scheme: str = SCHEME_MCN) -> np.ndarray:
    """Noise forcing of every step of one path, shape (N, K): the rows run_heat steps with.

    Raises AlignmentError if the path's master grid does not carry the
    mesh's micro nodes.
    """
    block = noise_block(path, problem.mesh, HEAT_NOISE[scheme])
    return np.stack(list(_forcing_rows(problem, block, scheme)))[..., 0]


def em_step(problem: HeatProblem, x: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """One implicit Euler-Maruyama step: (I - tau Lap) X_{j+1} = X_j + Phi dW."""
    return problem.euler_implicit.solve(x + forcing)


def mcn_heat_step(problem: HeatProblem, x: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """One corrected Crank-Nicolson step.

    (I - tau/2 Lap) X_{j+1} = (I + tau/2 Lap) X_j + Phi dW + correction,
    with forcing = Phi dW + correction, a row of heat_forcing.  x and
    forcing are (K,) for one path or (K, R) for R paths.
    """
    explicit = x + 0.5 * problem.mesh.tau * apply_laplacian(problem.grid, x)
    return problem.cn_implicit.solve(explicit + forcing)


_STEPPERS = {SCHEME_EULER: em_step, SCHEME_MCN: mcn_heat_step}


def run_heat(
    problem: HeatProblem, noise: WienerPath | NoiseBlock, scheme: str = SCHEME_MCN
) -> np.ndarray:
    """March the chosen scheme over the whole mesh and return X_N at time 1.

    noise is one WienerPath, giving X_N of shape (K,), or a NoiseBlock of
    R paths on problem.mesh, giving the (K, R) block of their X_N.  A path
    is marched as a block of one, so both give the same bits per path.
    """
    try:
        stepper = _STEPPERS[scheme]
    except KeyError:
        raise ConfigError(f"unknown scheme {scheme!r}; use 'em' or 'mcn'") from None
    block = noise_block(noise, problem.mesh, HEAT_NOISE[scheme])
    x = np.repeat(problem.initial[:, None], block.count, axis=1)
    for forcing in _forcing_rows(problem, block, scheme):
        x = stepper(problem, x, forcing)
    return x if block is noise else x[:, 0]


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
