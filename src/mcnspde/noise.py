"""Wiener paths on the micro grid of a mesh and micro-interval quadrature sums.

The time horizon is fixed at T = 1, so 1/tau is an integer for every
mesh.  Time is discretized twice over.  A coarse mesh with step
tau = 1/N carries the scheme iterates.  Each coarse interval
[t_j, t_{j+1}] additionally carries a micro grid t_{j,l} = t_j + l*tau^2,
l = 0..M with M = 1/tau = N, so the M micro steps of size tau^2 tile the
interval exactly.  A path is drawn on the micro grid of one mesh, its
S = N*M uniform steps of size 1/S forming the master grid, and all path
values are read off that grid by integer master index.  Another mesh
can read the path by stride only when every one of its micro nodes lands
exactly on a master node (S divisible by its N*M), which holds for every
coarser power-of-two mesh and keeps every quadrature in this module
interpolation-free.

One finer mesh can read the path too, through a bridge level.  Its micro
grid splits each master step into q finer steps, and a mesh reads W at
those nodes only through linear sums per coarse step (the increment, the
micro sum and a weighted micro sum).  Given the master grid, W on the
finer nodes of one master step is the linear interpolant plus a discrete
Brownian bridge B_1..B_{q-1}, independent across steps, so those sums
need only S0 = sum_i B_i and S1 = sum_i i*B_i of each step.  sample_path
draws them from their exact joint Gaussian law (Glasserman, Monte Carlo
Methods in Financial Engineering, 2004, sec. 3.1) instead of the q-fold
finer path, and NoiseBlock.put combines them with the master grid
exactly, with no interpolation error.

mesh_values is the one place that knows where the coarse and micro nodes
of a mesh sit on the master grid.  It returns them as views of the
cumulative path, for one path (S+1, m) or a block of paths (n, S+1, m),
so every quadrature over a whole mesh is a few array operations on those
views, and a single path is simply the one-path case of a block.

Paths are sampled once per realization from a counter-based generator and
then shared by every scheme and every coarse resolution that is compared,
so refinement studies measure scheme error on a common noise sample.  A
scheme reads a path only through a few numbers per step, its noise
coordinates (the increment, the quadrature gap and, for the wave scheme,
a weighted micro sum).  NoiseBlock holds them for R paths on one mesh,
so a path can be reduced on every mesh and dropped, and the schemes step
all R paths together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import SpatialGrid, apply_laplacian

class AlignmentError(Exception):
    """Raised when a mesh/path combination would require interpolation."""


@dataclass(frozen=True)
class TimeMesh:
    """Coarse mesh with N steps of size tau = 1/N on [0, 1] plus the tau^2 micro grid.

    The micro count M = 1/tau = N makes M steps of size tau^2 span one
    coarse step exactly.
    """

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"need at least one step, got N={self.N}")

    @property
    def tau(self) -> float:
        return 1.0 / self.N

    @property
    def M(self) -> int:
        """Micro steps per coarse interval, M = 1/tau = N."""
        return self.N

    def coarse_time(self, j: int) -> float:
        if not 0 <= j <= self.N:
            raise ValueError(f"coarse index must be in 0..{self.N}, got {j}")
        return j * self.tau

    def micro_time(self, j: int, ell: int) -> float:
        """Micro node t_{j,l} = t_j + l*tau^2 for l = 0..M."""
        if not 0 <= j < self.N:
            raise ValueError(f"interval index must be in 0..{self.N - 1}, got {j}")
        if not 0 <= ell <= self.M:
            raise ValueError(f"micro index must be in 0..{self.M}, got {ell}")
        return j * self.tau + ell * self.tau * self.tau


@dataclass(frozen=True)
class WienerPath:
    """One sampled m-dimensional Wiener path on the S-step master grid of [0, 1].

    increments[k] is W(s_{k+1}) - W(s_k) and cumulative[k] is W(s_k) with
    W(0) = 0, where s_k = k*delta and delta = 1/S.  Values are only ever
    read at master nodes, through mesh_values.

    A path may carry one bridge level of q steps per master step:
    bridge[0, k] and bridge[1, k] are S0 = sum_i B_i and S1 = sum_i i*B_i
    over the discrete Brownian bridge B_i = W(s_k + i*delta/q) - W(s_k)
    - (i/q)*increments[k], i = 1..q-1, of master step k.
    """

    increments: np.ndarray  # shape (S, m)
    cumulative: np.ndarray  # shape (S + 1, m)
    bridge: np.ndarray | None = None  # shape (2, S, m)
    q: int = 1

    @property
    def S(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    @property
    def delta(self) -> float:
        """Master step 1/S."""
        return 1.0 / self.S


def sample_path(
    seed: int | tuple[int, int], mesh: TimeMesh, m: int = 1, fine: TimeMesh | None = None
) -> WienerPath:
    """Draw one Wiener path on the micro grid of mesh: S = N*M master steps of [0, 1].

    The generator is Philox keyed by seed, an integer or a pair of 64-bit
    words, so paths are reproducible and distinct keys give independent
    counter-based streams.  When the micro grid of fine is finer, the
    same stream then draws the bridge level that fine reads: the master
    grid must split into q = (fine's N*M)/S finer steps per master step
    and tile fine's coarse steps, else AlignmentError.
    """
    if m < 1:
        raise ValueError(f"need at least one noise component, got m={m}")
    if min(np.atleast_1d(seed)) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    steps = mesh.N * mesh.M
    rng = np.random.Generator(np.random.Philox(key=seed))
    increments = rng.standard_normal((steps, m)) * math.sqrt(1.0 / steps)
    cumulative = np.zeros((steps + 1, m))
    np.cumsum(increments, axis=0, out=cumulative[1:])
    if fine is None or fine.N * fine.M <= steps:
        return WienerPath(increments, cumulative)
    q, rest = divmod(fine.N * fine.M, steps)
    if rest or steps % fine.N:
        raise AlignmentError(f"{fine} does not refine the {steps}-step master grid")
    # S0 and S1 - (q/2) S0 are independent, the bridge being symmetric in time.
    bridge = rng.standard_normal((2, steps, m))
    var_s0, var_centered = bridge_variances(q, 1.0 / (fine.N * fine.M))
    bridge[0] *= math.sqrt(var_s0)
    bridge[1] *= math.sqrt(var_centered)
    bridge[1] += 0.5 * q * bridge[0]
    return WienerPath(increments, cumulative, bridge, q)


def bridge_variances(q: int, delta: float) -> tuple[float, float]:
    """Var S0 and Var(S1 - (q/2) S0) of one master step split into q steps of delta.

    From Cov(B_i, B_k) = delta (min(i, k) - i k / q): Var S0 =
    delta q (q^2 - 1)/12, Cov(S0, S1) = (q/2) Var S0, so the centered
    S1 - (q/2) S0 is uncorrelated with S0, with variance
    delta q (q^2 - 1)(q^2 - 4)/720.
    """
    return delta * q * (q * q - 1) / 12.0, delta * q * (q * q - 1) * (q * q - 4) / 720.0


def master_strides(mesh: TimeMesh, master_steps: int) -> tuple[int, int]:
    """(master steps per coarse step, master steps per micro step).

    The mesh has N*M micro steps, so the micro stride is S/(N*M) and the
    coarse stride M times that.  Raises AlignmentError unless the micro
    stride is a positive integer, i.e. unless every micro node of the mesh
    is a master node.
    """
    micro, rest = divmod(master_steps, mesh.N * mesh.M)
    if rest or micro < 1:
        raise AlignmentError(
            f"micro step is not a whole number of master steps (N={mesh.N}, S={master_steps})"
        )
    return micro * mesh.M, micro


def mesh_values(cumulative: np.ndarray, mesh: TimeMesh) -> tuple[np.ndarray, np.ndarray]:
    """W at every coarse and every micro node of mesh, as views of cumulative.

    cumulative holds W on the master grid, shape (S+1, m) for one path or
    (n, S+1, m) for a block of paths.  Returns
    coarse (..., N+1, m) with coarse[..., j, :] = W(t_j), and micro
    (..., N, M, m) with micro[..., j, l-1, :] = W(t_{j,l}) for l = 1..M, so
    micro[..., j, M-1, :] is W(t_{j+1}).  Raises AlignmentError unless
    every micro node is a master node.
    """
    stride_coarse, stride_micro = master_strides(mesh, cumulative.shape[-2] - 1)
    coarse = cumulative[..., ::stride_coarse, :]
    # Micro node t_{j,l} sits at master index (j*M + l) * stride_micro, so
    # the nodes after 0, taken at the micro stride, are the micro grid in
    # interval-major order and split into (N, M) without a copy.
    micro = cumulative[..., stride_micro::stride_micro, :].reshape(
        cumulative.shape[:-2] + (mesh.N, mesh.M, cumulative.shape[-1])
    )
    return coarse, micro


def quadrature_gaps(coarse: np.ndarray, micro: np.ndarray, tau: float) -> np.ndarray:
    """Micro Riemann sum minus trapezoid for every interval, shape (..., N, m).

    tau^2 sum_{l=1}^{M} W(t_{j,l}) - (tau/2)(W(t_j) + W(t_{j+1})), from the
    views of mesh_values.  The micro sum is the micro-grid quadrature of
    int_{t_j}^{t_{j+1}} W(s) ds that the corrected schemes consume; the
    gap vanishes for paths constant on the interval.
    """
    return tau * tau * micro.sum(axis=-2) - 0.5 * tau * (coarse[..., :-1, :] + coarse[..., 1:, :])


def velocity_micro_sums(micro: np.ndarray, tau: float) -> np.ndarray:
    """The wave velocity correction's micro sum for every interval, shape (N, m).

    sum_{l=1}^{M} (tau^3/2)(1 - 2 l tau) W(t_{j,l}), from one path's micro
    view (N, M, m) of mesh_values.
    """
    weights = 0.5 * tau**3 * (1.0 - 2.0 * tau * np.arange(1, micro.shape[-2] + 1))
    return np.einsum("l,jlm->jm", weights, micro)


def bridge_sums(path: WienerPath, mesh: TimeMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coarse, micro sums, micro moments) of a mesh whose micro grid is the path's bridge level.

    coarse (N+1, m) holds W(t_j); micro_sums[j] = sum_{l=1}^{M} W(t_{j,l})
    and moments[j] = sum_{l=1}^{M} l W(t_{j,l}), each (N, m), exact linear
    combinations of the master grid and the bridge sums.  Raises
    AlignmentError unless the path's bridge level is the mesh's micro grid.
    """
    q = path.q
    if path.bridge is None or path.S * q != mesh.N * mesh.M or path.S % mesh.N:
        level = "no bridge level" if path.bridge is None else f"a bridge level of q={q}"
        raise AlignmentError(
            f"the micro grid of N={mesh.N} is neither read by stride nor the bridge level "
            f"of a {path.S}-step path with {level}"
        )
    cells = path.S // mesh.N  # master steps per coarse step
    shape = (mesh.N, cells, path.m)
    left = path.cumulative[:-1].reshape(shape)
    rise = path.increments.reshape(shape)
    s0, s1 = path.bridge.reshape((2,) + shape)
    # On master step k, W(s_k + i delta/q) = W(s_k) + (i/q) dW_k + B_i for
    # i = 1..q (B_q = 0), so its q finer nodes sum to, and weighted by i sum to:
    sums = q * left + 0.5 * (q + 1) * rise + s0
    moments = 0.5 * q * (q + 1) * left + (q + 1) * (2 * q + 1) / 6.0 * rise + s1
    # Finer node i of master step a in coarse step j is micro node l = a q + i.
    offsets = q * np.arange(cells)[:, None]
    return path.cumulative[::cells], sums.sum(axis=1), (offsets * sums + moments).sum(axis=1)


@dataclass(frozen=True)
class NoiseBlock:
    """What R Wiener paths contribute to the steps of one mesh.

    Each array is shaped (N, R, m), row j belonging to step j and column r
    to path r: increments[j] = W(t_{j+1}) - W(t_j), gaps[j] the
    quadrature_gaps of the corrected schemes and velocity_sums[j] the wave
    scheme's velocity_micro_sums.  A scheme reads only the coordinates it
    names (a tuple of these field names), so the others may be None.
    """

    mesh: TimeMesh
    increments: np.ndarray
    gaps: np.ndarray | None = None
    velocity_sums: np.ndarray | None = None

    @classmethod
    def empty(
        cls, mesh: TimeMesh, count: int, m: int, coordinates: Sequence[str]
    ) -> "NoiseBlock":
        """An unfilled block of count paths holding the named coordinates."""
        return cls(mesh, **{name: np.empty((mesh.N, count, m)) for name in coordinates})

    @property
    def count(self) -> int:
        return self.increments.shape[1]

    @property
    def nbytes(self) -> int:
        arrays = (self.increments, self.gaps, self.velocity_sums)
        return sum(a.nbytes for a in arrays if a is not None)

    def put(self, r: int, path: WienerPath) -> None:
        """Reduce path to its coordinates on the mesh and store them as column r.

        A mesh whose micro grid is finer than the master grid reads the
        path's bridge level (bridge_sums), and a path without one raises
        AlignmentError.
        """
        tau = self.mesh.tau
        if path.S % (self.mesh.N * self.mesh.M) == 0:
            coarse, micro = mesh_values(path.cumulative, self.mesh)
            gaps = lambda: quadrature_gaps(coarse, micro, tau)
            velocity_sums = lambda: velocity_micro_sums(micro, tau)
        else:
            coarse, micro_sums, moments = bridge_sums(path, self.mesh)
            gaps = lambda: tau * tau * micro_sums - 0.5 * tau * (coarse[:-1] + coarse[1:])
            velocity_sums = lambda: 0.5 * tau**3 * (micro_sums - 2.0 * tau * moments)
        self.increments[:, r] = np.diff(coarse, axis=0)
        if self.gaps is not None:
            self.gaps[:, r] = gaps()
        if self.velocity_sums is not None:
            self.velocity_sums[:, r] = velocity_sums()


def noise_block(
    noise: WienerPath | NoiseBlock, mesh: TimeMesh, coordinates: Sequence[str]
) -> NoiseBlock:
    """noise as a block on mesh with the named coordinates.

    A path becomes a block of one; a block must already lie on mesh and
    carry every coordinate asked for, else AlignmentError.
    """
    if isinstance(noise, WienerPath):
        block = NoiseBlock.empty(mesh, 1, noise.m, coordinates)
        block.put(0, noise)
        return block
    if noise.mesh != mesh:
        raise AlignmentError(f"noise block lies on {noise.mesh}, the scheme steps {mesh}")
    missing = [name for name in coordinates if getattr(noise, name) is None]
    if missing:
        raise AlignmentError(f"noise block lacks the coordinates {missing}")
    return noise


def defect_moment_exact(tau: float, m: int) -> float:
    """Exact E ||defect||^2 = (m/3) tau^5 for the micro quadrature defect."""
    if m < 0:
        raise ValueError(f"noise dimension must be nonnegative, got m={m}")
    return m / 3.0 * tau**5


def wave_micro_sum_moment_exact(mesh: TimeMesh, j: int, m: int) -> float:
    """Exact second moment of the weighted micro sum (tau^4/2) sum_l W(t_{j,l}).

    Equals (m tau^8 / 4) * sum_{l,l'} min(t_{j,l}, t_{j,l'}); the double sum
    collapses to a single pass because min(t_l, t_l') = t_l exactly
    2(M - l) + 1 times among the ordered pairs.
    """
    if not 0 <= j < mesh.N:
        raise ValueError(f"interval index must be in 0..{mesh.N - 1}, got {j}")
    if m < 0:
        raise ValueError(f"noise dimension must be nonnegative, got m={m}")
    tau, M = mesh.tau, mesh.M
    ells = np.arange(1, M + 1)
    times = j * tau + ells * tau * tau
    double_sum = float(np.dot(times, 2.0 * (M - ells) + 1.0))
    return m * tau**8 / 4.0 * double_sum


@dataclass(frozen=True)
class NoiseCoefficient:
    """Finite-dimensional noise coefficient Phi = (Phi_1 .. Phi_m).

    values[i] holds the grid samples of Phi_i and laplacian_values[i] the
    precomputed discrete Laplacian of Phi_i.
    """

    grid: SpatialGrid
    values: np.ndarray  # shape (m, K)
    laplacian_values: np.ndarray  # shape (m, K)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_components(
        cls, grid: SpatialGrid, components: Sequence[np.ndarray | Callable]
    ) -> "NoiseCoefficient":
        rows = [np.asarray(c(grid.nodes) if callable(c) else c, dtype=float) for c in components]
        values = np.vstack(rows) if rows else np.zeros((0, grid.K))
        if values.shape[1:] != (grid.K,):
            raise ValueError(f"components must have {grid.K} values each")
        return cls(grid, values, apply_laplacian(grid, values.T).T)

    def combine(self, weights: np.ndarray) -> np.ndarray:
        """sum_i Phi_i * weights_i: weights (m,) give (K,), and (R, m) give (K, R)."""
        return np.einsum("ik,...i->k...", self.values, weights)
