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

Finer meshes can read the path too, through bridge levels.  A level
splits each master step into q finer steps, and a mesh whose micro grid
is a level reads W at those nodes only through linear sums per coarse
step (the increment, the micro sum and, for the wave scheme, a weighted
micro sum).  Given the master grid, W on the finer nodes of one master
step is the linear interpolant plus a discrete Brownian bridge
B_1..B_{q-1}, independent across steps, so those sums need only
S0 = sum_i B_i, and for the weighted sum S1 = sum_i i*B_i, of each step.
sample_path draws every level's sums from their exact joint Gaussian law
(bridge_covariance; Glasserman, Monte Carlo Methods in Financial
Engineering, 2004, sec. 3.1) instead of the finer path, and mesh_sums
combines them with the master grid exactly, with no interpolation
error.  A wave study draws its paths by this law
(harness.StudyConfig.path_mesh): on the micro grid of a mesh P of about
an eighth of its finest study mesh, with the levels q = 4, 16 and 64 of
the two, four and eight times finer meshes and the level of the
reference mesh, every level carrying S0 and S1.

A heat study needs less (WindowLaw): its schemes read only increments
and gaps, its exact solution one stochastic convolution per noise mode,
and all of these split into independent, alike windows of time.
sample_windows draws, window by window, the increments of the finest
mesh N_max, the gaps of the meshes whose micro nodes are not N_max
nodes, and the windows' pieces of the convolutions, jointly, through
one factor of their exact covariance (window_factor).  The path it
returns lies on the N_max grid and carries the drawn gaps
(WienerPath.gaps); the coarser meshes read their gaps from it by stride.

mesh_values is the one place that knows where the coarse and micro nodes
of a mesh sit on the master grid.  It returns them as views of the
cumulative path, for one path (S+1, m) or a chunk of paths (n, S+1, m).
mesh_sums reduces any mesh, read by stride or through a bridge level,
to the same three sums per coarse step (W(t_j), sum_l W(t_{j,l}) and
sum_l l W(t_{j,l})), from which NoiseBlock.put forms every noise
coordinate by one formula each; a single path is simply the one-path
case of a chunk.

Paths are sampled once per realization from a counter-based generator and
then shared by every scheme and every coarse resolution that is compared,
so refinement studies measure scheme error on a common noise sample.
sample_path draws a chunk of paths from a list of keys, each key's
stream into its own row, so a path gets the same bits alone or in any
chunk.  A scheme reads a path only through a few numbers per step, its
noise coordinates (the increment, the quadrature gap and, for the wave
scheme, a weighted micro sum).  NoiseBlock holds them for R paths on one
mesh, so a chunk of paths can be reduced on every mesh and dropped, and
the schemes step all R paths together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


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
    """One sampled m-dimensional Wiener path on the S-step master grid of [0, 1], or a chunk of n.

    increments[k] is W(s_{k+1}) - W(s_k) and cumulative[k] is W(s_k) with
    W(0) = 0, where s_k = k*delta and delta = 1/S.  Values are only ever
    read at master nodes, through mesh_values.

    A path may carry bridge levels: bridge[q], shape (2, S, m), holds,
    for each master step k, S0 = sum_i B_i and S1 = sum_i i*B_i over the
    discrete Brownian bridge B_i = W(s_k + i*delta/q) - W(s_k) -
    (i/q)*increments[k], i = 1..q-1, of the level that splits each master
    step into q steps.

    A path may also carry drawn quadrature gaps: gaps[N], shape (N, m),
    holds NoiseBlock's gap of each step of the mesh N, whose micro grid
    the path does not carry (sample_windows).

    A chunk of n paths puts a leading axis of n rows in front of every
    array, row i holding path i.
    """

    increments: np.ndarray  # shape (S, m), or (n, S, m) for a chunk
    cumulative: np.ndarray  # shape (S + 1, m), or (n, S + 1, m)
    bridge: dict[int, np.ndarray] = field(default_factory=dict)
    gaps: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def S(self) -> int:
        return self.increments.shape[-2]

    @property
    def m(self) -> int:
        return self.increments.shape[-1]

    @property
    def delta(self) -> float:
        """Master step 1/S."""
        return 1.0 / self.S

    @property
    def bridge_functionals(self) -> tuple[tuple[int, int], ...]:
        """(q, p) for each bridge sum S_p = bridge[q][..., p, :, :], levels by increasing q."""
        return tuple(
            (q, p) for q in sorted(self.bridge) for p in range(self.bridge[q].shape[-3])
        )

    def chunk(self) -> "WienerPath":
        """The path as a chunk: itself if it is one, else a chunk of one, as views."""
        if self.increments.ndim == 3:
            return self
        bridge = {q: sums[None] for q, sums in self.bridge.items()}
        gaps = {n: gaps[None] for n, gaps in self.gaps.items()}
        return WienerPath(self.increments[None], self.cumulative[None], bridge, gaps)


def bridge_level(master_steps: int, mesh: TimeMesh) -> int:
    """q such that the micro grid of mesh splits each master step into q steps.

    Raises AlignmentError unless q is a whole number and each coarse step
    of mesh spans whole master steps.
    """
    q, rest = divmod(mesh.N * mesh.M, master_steps)
    if rest or master_steps % mesh.N:
        raise AlignmentError(f"{mesh} does not refine the {master_steps}-step master grid")
    return q


def path_functionals(mesh: TimeMesh, fine: Sequence[TimeMesh] = ()) -> tuple[tuple[int, int], ...]:
    """(q, p) of every bridge sum that sample_path draws for these arguments.

    Every mesh of fine whose micro grid is finer than that of mesh gets
    its level q (bridge_level), with S0 (p = 0) and S1 (p = 1); levels
    by increasing q.
    """
    steps = mesh.N * mesh.M
    levels = sorted({bridge_level(steps, f) for f in fine if f.N * f.M > steps})
    return tuple((q, p) for q in levels for p in (0, 1))


def sample_path(
    seed: int | tuple[int, int] | list, mesh: TimeMesh, m: int = 1, fine: Sequence[TimeMesh] = ()
) -> WienerPath:
    """Draw a Wiener path on the micro grid of mesh: S = N*M master steps of [0, 1].

    The generator is Philox keyed by seed, an integer or a pair of 64-bit
    words, so paths are reproducible and distinct keys give independent
    counter-based streams.  A list of such keys draws a chunk, one row
    per key, each row bit for bit the path of its key alone.  Every mesh
    of fine whose micro grid is finer than the master grid gets its
    bridge level (path_functionals): after the master grid, the same
    stream draws S0 and S1 of every level, jointly, through the Cholesky
    factor of their exact covariance.  Levels must nest, each q dividing
    the next, else AlignmentError.
    """
    if m < 1:
        raise ValueError(f"need at least one noise component, got m={m}")
    keys = seed if isinstance(seed, list) else [seed]
    if any(min(np.atleast_1d(key)) < 0 for key in keys):
        raise ValueError(f"seed must be nonnegative, got {seed}")
    steps = mesh.N * mesh.M
    functionals = path_functionals(mesh, fine)
    # One allocation holds the chunk, so that chunk after chunk reuses the
    # same heap memory instead of mapping fresh pages.  Each key's stream
    # gives its increments and then the normals of its bridge sums, kept
    # apart until one einsum turns them into the sums.
    n, width = len(keys), len(functionals)
    memory = np.empty(n * ((2 + width) * steps + 1) * m)
    increments = memory[: n * steps * m].reshape(n, steps, m)
    sums = memory[n * steps * m : n * (1 + width) * steps * m].reshape(n, width, steps, m)
    cumulative = memory[n * (1 + width) * steps * m :].reshape(n, steps + 1, m)
    normals = np.empty_like(sums)
    for i, key in enumerate(keys):
        generator = np.random.Generator(np.random.Philox(key=key))
        generator.standard_normal(out=increments[i])
        generator.standard_normal(out=normals[i])
    increments *= math.sqrt(1.0 / steps)
    cumulative[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=cumulative[:, 1:])
    np.einsum("fg,ngsm->nfsm", bridge_factor(functionals, 1.0 / steps), normals, out=sums)
    levels = sorted({q for q, _ in functionals})
    levels_sums = sums.reshape(n, len(levels), 2, steps, m)
    bridge = {q: levels_sums[:, i] for i, q in enumerate(levels)}
    if isinstance(seed, list):
        return WienerPath(increments, cumulative, bridge)
    return WienerPath(increments[0], cumulative[0], {q: level[0] for q, level in bridge.items()})


@functools.lru_cache(maxsize=None)
def bridge_factor(functionals: tuple[tuple[int, int], ...], delta: float) -> np.ndarray:
    """Lower Cholesky factor L of bridge_covariance(functionals, delta), cached per argument.

    The entries of S0 of a finer level against S1 of a coarser one vanish
    (see bridge_covariance), and are set to 0 rather than left to rounding.
    """
    factor = lower_factor(bridge_covariance(functionals, delta))
    powers = np.array([p for _, p in functionals])
    factor[(powers[:, None] == 0) & (powers == 1)] = 0.0
    return factor


def lower_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of cov, L L^T = cov, formed entry by entry.

    No LAPACK: the matrices are a few dozen rows at most, and a first
    LAPACK call costs the process about 0.4 MB.  A pivot that is rounding
    residue, at most len(cov) eps cov[f, f], gets a zero column: its row
    is, to rounding, a combination of the rows above it.
    """
    factor = np.zeros_like(cov)
    residue = len(cov) * np.finfo(float).eps
    for f in range(len(cov)):
        for g in range(f + 1):
            rest = cov[f, g] - np.sum(factor[f, :g] * factor[g, :g])
            if f == g:
                factor[f, f] = math.sqrt(rest) if rest > residue * cov[f, f] else 0.0
            elif factor[g, g] > 0.0:
                factor[f, g] = rest / factor[g, g]
    return factor


def bridge_covariance(functionals: Sequence[tuple[int, int]], delta: float) -> np.ndarray:
    """Covariance of the bridge sums of one master step of length delta, shape (F, F).

    functionals lists (q, p) for S_p = sum_{i=1}^{q-1} i^p B_i of the level
    of q steps.  With u the time within the master step in units of delta,
    Cov(B(u), B(v)) = delta (min(u, v) - u v), and for levels a and b = r a
    the double sum over the nodes i/a and k/b collapses to

        Cov(S0^a, S0^b) = delta r (a^2 - 1)/12
        Cov(S0^a, S1^b) = delta a r^2 (a^2 - 1)/24
        Cov(S1^a, S0^b) = delta a r (a^2 - 1)/24
        Cov(S1^a, S1^b) = delta r^2 (a^2 - 1)(4 a^2 - 1)/180.

    So S1 - (q/2) S0 of one level, and S0^b - r S0^a, are uncorrelated
    with S0^a.  Raises AlignmentError unless the levels nest.
    """
    cov = np.empty((len(functionals), len(functionals)))
    for x, fx in enumerate(functionals):
        for y, fy in enumerate(functionals):
            (a, p), (b, pp) = sorted((fx, fy))
            r, rest = divmod(b, a)
            if rest:
                raise AlignmentError(f"bridge levels q={a} and q={b} do not nest")
            shape = ((1.0, 0.5 * a), (0.5 * a, (4.0 * a * a - 1.0) / 15.0))[p][pp]
            cov[x, y] = delta * r ** (1 + pp) * (a * a - 1) / 12.0 * shape
    return cov


class WindowLaw(NamedTuple):
    """The joint law of every noise coordinate and oracle value a heat study reads.

    A heat scheme on mesh N reads each step's increment and quadrature
    gap, and the exact solution reads int_0^1 exp(-mu (1 - s)) dW(s) for
    each decay rate mu of rates.  Each is an integral of dW against a
    fixed function, so they are jointly Gaussian, and they split over
    windows: the steps of the mesh of `windows` steps, the coarsest power
    of two whose square exceeds `steps`, the finest mesh N_max, but at
    most N_max.  A gap depends only on dW inside its step (its weights
    sum to zero), and the oracle integral is the sum over windows of
    exp(-mu (1 - t_w)) times the window's piece int exp(-mu (t_w - s))
    dW(s), t_w the window's end.  So the windows are independent and
    alike, and one window's values, `width` of them, are drawn by one
    factor (window_factor) in this order:

    * the steps/windows increments of the N_max steps, in time order,
    * the gaps of every mesh of meshes, coarsest first, each in time order,
    * one oracle piece per rate.

    meshes are the powers of two N from windows to N_max, all with
    N^2 > N_max, whether or not a study marches them, so the law depends
    only on N_max and rates.  The coarser meshes are not drawn: their
    micro nodes are N_max nodes, so their gaps are read from the
    increments by stride.  Scheme rows come first, so they do not depend
    on the rates.
    """

    steps: int
    rates: tuple[float, ...]

    @property
    def windows(self) -> int:
        """Windows per path."""
        w = 1
        while w * w <= self.steps and w < self.steps:
            w *= 2
        return w

    @property
    def meshes(self) -> tuple[TimeMesh, ...]:
        """The meshes whose gaps are drawn, coarsest first."""
        n, meshes = self.windows, []
        while n <= self.steps:
            if n * n > self.steps:
                meshes.append(TimeMesh(n))
            n *= 2
        return tuple(meshes)

    @property
    def width(self) -> int:
        """Values drawn per window."""
        gaps = sum(mesh.N for mesh in self.meshes) // self.windows
        return self.steps // self.windows + gaps + len(self.rates)

    @property
    def normals(self) -> int:
        """Normals drawn per path."""
        return self.windows * self.width


def window_functions(law: WindowLaw) -> list[tuple[int, int, float, float, int]]:
    """(lo, hi, a, b, w) of each scheme row of law: the function it integrates dW against.

    In units of the finest micro cell 1/N_max^2 from the window's start,
    the function is a - b floor((c - lo)/w) on the cells c in [lo, hi)
    and 0 elsewhere: 1 on its step for an increment and, for the gap of
    a step of tau, tau/2 - l tau^2 on the step's micro cell l = 0..M-1.
    """
    steps, windows = law.steps, law.windows
    rows = [(i * steps, (i + 1) * steps, 1.0, 0.0, steps) for i in range(steps // windows)]
    for mesh in law.meshes:
        span, tau = steps * steps // mesh.N, mesh.tau
        rows += [
            (j * span, (j + 1) * span, 0.5 * tau, tau * tau, span // mesh.N)
            for j in range(mesh.N // windows)
        ]
    return rows


def window_covariance(law: WindowLaw) -> np.ndarray:
    """Covariance of one window's values, (width, width), in the row order of WindowLaw.

    By the Ito isometry: two scheme rows give the sum of their product
    over the finer of their two cell grids on their overlap, times the
    cell length (cell widths are powers of two and steps start on cell
    edges, so both rows are constant on each finer cell); a scheme row
    and an oracle piece give the sum over the row's cells of its value
    times the cell's integral of exp(-mu (T - s)); two pieces give
    -expm1(-(mu + nu) T)/(mu + nu), with T = 1/windows the window
    length.  Rates must be positive.
    """
    rows, rates = window_functions(law), law.rates
    cell, length, scheme = 1.0 / law.steps**2, 1.0 / law.windows, len(rows)
    cov = np.zeros((law.width, law.width))
    for x, (lo, hi, a, b, w) in enumerate(rows):
        for y, (lo_y, hi_y, a_y, b_y, w_y) in enumerate(rows[: x + 1]):
            fine = min(w, w_y)
            c = np.arange(max(lo, lo_y), min(hi, hi_y), fine)
            product = (a - b * ((c - lo) // w)) * (a_y - b_y * ((c - lo_y) // w_y))
            cov[x, y] = cov[y, x] = cell * fine * math.fsum(product)
        c = np.arange(lo, hi, w)
        for z, rate in enumerate(rates, scheme):
            decay = np.exp(-rate * (length - cell * (c + w))) * -math.expm1(-rate * cell * w) / rate
            cov[x, z] = cov[z, x] = math.fsum((a - b * ((c - lo) // w)) * decay)
    for z, mu in enumerate(rates, scheme):
        for y, nu in enumerate(rates, scheme):
            cov[z, y] = -math.expm1(-(mu + nu) * length) / (mu + nu)
    return cov


@functools.lru_cache(maxsize=None)
def window_factor(law: WindowLaw) -> np.ndarray:
    """Lower Cholesky factor of window_covariance(law), cached per law."""
    return lower_factor(window_covariance(law))


def sample_windows(keys: list, law: WindowLaw) -> tuple[WienerPath, np.ndarray]:
    """Draw a chunk of paths by law, one per key, each bit for bit that of its key alone.

    Each key's Philox stream gives law.normals normals, window by window,
    and one einsum with window_factor turns each window's normals into
    its values.  Returns (path, pieces): path the chunk on the N_max grid,
    its increments and cumulative values, carrying the gaps of
    law.meshes (WienerPath.gaps), and pieces (n, windows, rates) the
    oracle pieces.
    """
    n, steps, windows = len(keys), law.steps, law.windows
    normals = np.empty((n, windows, law.width))
    for row, key in zip(normals, keys):
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=row)
    values = np.einsum("fg,rwg->rwf", window_factor(law), normals)
    start = steps // windows
    increments = values[..., :start].reshape(n, steps, 1)
    cumulative = np.zeros((n, steps + 1, 1))
    np.cumsum(increments, axis=1, out=cumulative[:, 1:])
    gaps = {}
    for mesh in law.meshes:
        stop = start + mesh.N // windows
        gaps[mesh.N] = values[..., start:stop].reshape(n, mesh.N, 1)
        start = stop
    return WienerPath(increments, cumulative, gaps=gaps), values[..., start:]


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


def mesh_sums(
    path: WienerPath, mesh: TimeMesh, count: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(coarse, micro sums, micro moments) of path on mesh, by stride or through a bridge level.

    coarse (..., N+1, m) holds W(t_j), sums[..., j, :] = sum_{l=1}^{M}
    W(t_{j,l}) and moments[..., j, :] = sum_{l=1}^{M} l W(t_{j,l}), each
    (..., N, m) with the leading axis of a chunk; only the first count of
    the two sums are formed, the others are None.  A mesh whose micro
    nodes are master nodes reads them by stride (mesh_values); a finer
    one forms the sums as exact linear combinations of the master grid
    and the bridge sums of its level.  A mesh whose gaps the path carries
    (WienerPath.gaps) gives its coarse values with count 0.  Raises
    AlignmentError if the mesh is none of these.
    """
    if path.S % (mesh.N * mesh.M) == 0:
        coarse, micro = mesh_values(path.cumulative, mesh)
        sums = micro.sum(axis=-2) if count > 0 else None
        if count < 2:
            return coarse, sums, None
        return coarse, sums, np.einsum("l,...jlm->...jm", np.arange(1.0, mesh.M + 1), micro)
    q = bridge_level(path.S, mesh)
    cells = path.S // mesh.N  # master steps per coarse step
    coarse = path.cumulative[..., ::cells, :]
    if count == 0 and mesh.N in path.gaps:
        return coarse, None, None
    if q not in path.bridge:
        raise AlignmentError(
            f"the micro grid of N={mesh.N} is neither read by stride nor a bridge level "
            f"of a {path.S}-step path with levels q in {sorted(path.bridge)}"
        )
    if count == 0:
        return coarse, None, None
    shape = path.increments.shape[:-2] + (mesh.N, cells, path.m)
    level = np.moveaxis(path.bridge[q].reshape(shape[:-3] + (-1,) + shape[-3:]), -4, 0)
    left = path.cumulative[..., :-1, :].reshape(shape)
    rise = path.increments.reshape(shape)
    # On master step k, W(s_k + i delta/q) = W(s_k) + (i/q) dW_k + B_i for
    # i = 1..q (B_q = 0), so its q finer nodes sum to, and weighted by i sum to:
    sums = q * left + 0.5 * (q + 1) * rise + level[0]
    if count == 1:
        return coarse, sums.sum(axis=-2), None
    weighted = 0.5 * q * (q + 1) * left + (q + 1) * (2 * q + 1) / 6.0 * rise + level[1]
    # Finer node i of master step a in coarse step j is micro node l = a q + i.
    offsets = q * np.arange(cells)[:, None]
    return coarse, sums.sum(axis=-2), (offsets * sums + weighted).sum(axis=-2)


@dataclass(frozen=True)
class NoiseBlock:
    """What R Wiener paths contribute to the steps of one mesh.

    Each array is shaped (N, R, m), row j belonging to step j and column r
    to path r: increments[j] = W(t_{j+1}) - W(t_j), gaps[j] the micro
    Riemann sum minus the trapezoid,

        tau^2 sum_{l=1}^{M} W(t_{j,l}) - (tau/2)(W(t_j) + W(t_{j+1})),

    of the corrected schemes (it vanishes for paths constant on the
    step), and velocity_sums[j] the wave scheme's weighted micro sum
    sum_{l=1}^{M} (tau^3/2)(1 - 2 l tau) W(t_{j,l}).  A scheme reads only
    the coordinates it names (a tuple of these field names), so the
    others may be None.
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
        """Reduce path to its coordinates on the mesh and store them from column r on.

        One path fills column r, a chunk of n paths columns r..r+n-1.
        Gaps the path carries for the mesh (WienerPath.gaps) are copied;
        everything else is reduced through the mesh's mesh_sums, by stride
        or through a bridge level, and a path that offers neither raises
        AlignmentError.
        """
        chunk = path.chunk()
        columns = slice(r, r + len(chunk.increments))
        tau = self.mesh.tau
        gaps = chunk.gaps.get(self.mesh.N)
        # Form only the sums that the block's coordinates read.
        needs_sums = self.gaps is not None and gaps is None
        count = 2 if self.velocity_sums is not None else 1 if needs_sums else 0
        coarse, sums, moments = mesh_sums(chunk, self.mesh, count)
        # Chunk rows become block columns.
        self.increments[:, columns] = np.diff(coarse, axis=1).swapaxes(0, 1)
        if needs_sums:
            gaps = tau * tau * sums - 0.5 * tau * (coarse[:, :-1] + coarse[:, 1:])
        if self.gaps is not None:
            self.gaps[:, columns] = gaps.swapaxes(0, 1)
        if self.velocity_sums is not None:
            velocity_sums = 0.5 * tau**3 * (sums - 2.0 * tau * moments)
            self.velocity_sums[:, columns] = velocity_sums.swapaxes(0, 1)


def noise_block(
    noise: WienerPath | NoiseBlock, mesh: TimeMesh, coordinates: Sequence[str]
) -> NoiseBlock:
    """noise as a block on mesh with the named coordinates.

    A path becomes a block of one and a chunk of n paths a block of n; a
    block must already lie on mesh and carry every coordinate asked for,
    else AlignmentError.
    """
    if isinstance(noise, WienerPath):
        block = NoiseBlock.empty(mesh, len(noise.chunk().increments), noise.m, coordinates)
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

