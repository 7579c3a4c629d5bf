"""Wiener paths on the micro grid of a mesh and micro-interval quadrature sums.

The time horizon is fixed at T = 1, so 1/tau is an integer for every
mesh.  Time is discretized twice over.  A coarse mesh with step
tau = 1/N carries the scheme iterates.  Each coarse interval
[t_j, t_{j+1}] additionally carries a micro grid t_{j,l} = t_j + l*tau^2,
l = 0..M with M = 1/tau = N, so the M micro steps of size tau^2 tile the
interval exactly.  A full path (sample_path) is drawn on the micro grid
of one mesh, its S = N*M uniform steps of size 1/S forming the master
grid, and all path values are read off that grid by integer master
index.  Another mesh can read the path by stride only when every one of
its micro nodes lands exactly on a master node (S divisible by its N*M),
which holds for every coarser power-of-two mesh and keeps every
quadrature in this module interpolation-free.

A study never draws a full path of its finest micro grid.  Its schemes
read only a few numbers per step, the noise coordinates (the increment,
the quadrature gap and, for the wave scheme, a weighted micro sum), and
the heat oracle one stochastic convolution per noise mode.  Each is an
integral of dW against a fixed function, and all of them split into
independent, alike windows of time (WindowLaw).  sample_windows draws,
window by window and through one factor of their exact joint covariance
(window_factor; the Ito isometry, Kloeden & Platen 1992, sec. 10.4), the
increments of the finest mesh N_max, the gaps and, for wave, the local
velocity parts of the meshes whose micro nodes are not N_max nodes, and
the windows' pieces of the convolutions.  The path it returns lies on
the N_max grid and carries the drawn coordinates (WienerPath.gaps and
WienerPath.parts); the coarser meshes read theirs from it by stride.

mesh_values is the one place that knows where the coarse and micro nodes
of a mesh sit on the master grid.  It returns them as views of the
cumulative path, for one path (S+1, m) or a chunk of paths (n, S+1, m).
mesh_sums reduces a mesh read by stride to three sums per coarse step
(W(t_j), sum_l W(t_{j,l}) and sum_l l W(t_{j,l})), from which
NoiseBlock.put forms every noise coordinate by one formula each, and
copies or completes the drawn ones; a single path is simply the one-path
case of a chunk.

Paths are sampled once per realization from a counter-based generator and
then shared by every scheme and every coarse resolution that is compared,
so refinement studies measure scheme error on a common noise sample.
Both samplers draw a chunk of paths from a list of keys, each key's
stream into its own row, so a path gets the same bits alone or in any
chunk.  NoiseBlock holds the noise coordinates of R paths on one mesh,
so a chunk of paths can be reduced on every mesh and dropped, and the
schemes step all R paths together.
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

    A path may also carry drawn noise coordinates of meshes whose micro
    grid it does not carry (sample_windows): gaps[N], shape (N, m), holds
    NoiseBlock's gap of each step of the mesh N, and parts[N] the local
    velocity part u_j = sum_c (c + 1)(tau c - 1) dW_c of each step j, dW_c
    the increment over its micro cell c = 0..M-1, from which NoiseBlock
    forms the velocity sum.

    A chunk of n paths puts a leading axis of n rows in front of every
    array, row i holding path i.
    """

    increments: np.ndarray  # shape (S, m), or (n, S, m) for a chunk
    cumulative: np.ndarray  # shape (S + 1, m), or (n, S + 1, m)
    gaps: dict[int, np.ndarray] = field(default_factory=dict)
    parts: dict[int, np.ndarray] = field(default_factory=dict)

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

    def chunk(self) -> "WienerPath":
        """The path as a chunk: itself if it is one, else a chunk of one, as views."""
        if self.increments.ndim == 3:
            return self
        gaps = {n: gaps[None] for n, gaps in self.gaps.items()}
        parts = {n: parts[None] for n, parts in self.parts.items()}
        return WienerPath(self.increments[None], self.cumulative[None], gaps, parts)


def standard_normals(keys: Sequence, out: np.ndarray) -> None:
    """Fill out[i] with the first standard normals of the Philox stream of keys[i].

    A key is an integer or a pair of 64-bit words.  One generator is
    re-keyed per key by setting its state, with the same bits as a fresh
    np.random.Philox(key=key) wherever that takes the key exactly (it
    rounds words of 2^63 and more through a float): 240 desk heat paths
    of 864 normals take 2.96 ms instead of 4.09 ms on a 2-core VM.  Keys
    must be nonnegative.
    """
    bits = np.random.Philox(key=0)
    generator, state = np.random.Generator(bits), bits.state
    for row, key in zip(out, keys):
        words = divmod(int(key), 2**64)[::-1] if np.ndim(key) == 0 else key
        state["state"]["key"] = np.array([int(word) for word in words], dtype=np.uint64)
        bits.state = state
        generator.standard_normal(out=row)


def sample_path(seed: int | tuple[int, int] | list, mesh: TimeMesh, m: int = 1) -> WienerPath:
    """Draw a Wiener path on the micro grid of mesh: S = N*M master steps of [0, 1].

    The generator is Philox keyed by seed, an integer or a pair of 64-bit
    words, so paths are reproducible and distinct keys give independent
    counter-based streams (standard_normals).  A list of such keys draws
    a chunk, one row per key, each row bit for bit the path of its key
    alone.
    """
    if m < 1:
        raise ValueError(f"need at least one noise component, got m={m}")
    keys = seed if isinstance(seed, list) else [seed]
    if any(min(np.atleast_1d(key)) < 0 for key in keys):
        raise ValueError(f"seed must be nonnegative, got {seed}")
    steps = mesh.N * mesh.M
    increments = np.empty((len(keys), steps, m))
    standard_normals(keys, increments)
    increments *= math.sqrt(1.0 / steps)
    cumulative = np.zeros((len(keys), steps + 1, m))
    np.cumsum(increments, axis=1, out=cumulative[:, 1:])
    if isinstance(seed, list):
        return WienerPath(increments, cumulative)
    return WienerPath(increments[0], cumulative[0])


def lower_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of cov, L L^T = cov, formed column by column.

    No LAPACK: the matrices have at most a few hundred rows (158 for a
    --paper wave window, 4 ms on a 2-core VM), and a first LAPACK call
    costs the process about 0.4 MB.  Column g takes one row-wise sum of
    the products of the columns before it, each row summed as the 1-D
    sum of the entry-by-entry form would be.  A pivot that is rounding
    residue, at most len(cov) eps cov[g, g], gets a zero column: its row
    is, to rounding, a combination of the rows above it.
    """
    factor = np.zeros_like(cov)
    residue = len(cov) * np.finfo(float).eps
    for g in range(len(cov)):
        rest = cov[g:, g] - np.sum(factor[g:, :g] * factor[g, :g], axis=1)
        factor[g, g] = math.sqrt(rest[0]) if rest[0] > residue * cov[g, g] else 0.0
        if factor[g, g] > 0.0:
            factor[g + 1 :, g] = rest[1:] / factor[g, g]
    return factor


class WindowLaw(NamedTuple):
    """The joint law of every noise coordinate and oracle value a study reads.

    A scheme on mesh N reads each step's increment and quadrature gap,
    the wave scheme also its velocity sum, and the heat oracle reads
    int_0^1 exp(-mu (1 - s)) dW(s) for each decay rate mu of rates.
    Each is an integral of dW against a fixed function, so they are
    jointly Gaussian, and they split over windows: the steps of the mesh
    of `windows` steps, the coarsest power of two whose square exceeds
    `steps`, the finest marched mesh N_max, but at most N_max.  A gap
    depends only on dW inside its step (its weights sum to zero).  The
    velocity sum of step j is (tau^3/2)(u_j - W(t_j)), since
    sum_{l=1..M} (1 - 2 l tau) = -1, with the part u_j local to its step
    (WienerPath.parts) and W(t_j) the sum of the increments before it.
    The oracle integral is the sum over windows of exp(-mu (1 - t_w))
    times the window's piece int exp(-mu (t_w - s)) dW(s), t_w the
    window's end.  So the windows are independent and alike, and one
    window's values, `width` of them, are drawn by one factor
    (window_factor) in this order:

    * the steps/windows increments of the N_max steps, in time order,
    * the gaps of every mesh of meshes, coarsest first, each in time order,
    * if velocity, the velocity parts of the same steps in the same order,
    * one oracle piece per rate.

    meshes are the powers of two N from windows to N_max, all with
    N^2 > N_max, whether or not a study marches them, so the law depends
    only on N_max, rates and velocity.  The coarser meshes are not drawn:
    their micro nodes are N_max nodes, so their coordinates are read from
    the increments by stride.  Scheme rows come first, so they do not
    depend on the rates.
    """

    steps: int
    rates: tuple[float, ...]
    velocity: bool = False

    @property
    def windows(self) -> int:
        """Windows per path."""
        w = 1
        while w * w <= self.steps and w < self.steps:
            w *= 2
        return w

    @property
    def meshes(self) -> tuple[TimeMesh, ...]:
        """The meshes whose coordinates are drawn, coarsest first."""
        n, meshes = self.windows, []
        while n <= self.steps:
            if n * n > self.steps:
                meshes.append(TimeMesh(n))
            n *= 2
        return tuple(meshes)

    @property
    def width(self) -> int:
        """Values drawn per window."""
        drawn = sum(mesh.N for mesh in self.meshes) // self.windows * (1 + self.velocity)
        return self.steps // self.windows + drawn + len(self.rates)

    @property
    def normals(self) -> int:
        """Normals drawn per path."""
        return self.windows * self.width


def window_functions(law: WindowLaw) -> list[tuple[int, int, int, tuple[float, float, float]]]:
    """(lo, hi, w, p) of each scheme row of law: the function it integrates dW against.

    In units of the finest micro cell 1/N_max^2 from the window's start,
    the function is p[0] + l (p[1] + l p[2]) on the cells c in [lo, hi)
    of micro cell l = floor((c - lo)/w), and 0 elsewhere: 1 on its step
    for an increment and, on the micro cells l = 0..M-1 of a step of tau,
    tau/2 - l tau^2 for a gap and (l + 1)(tau l - 1) for a velocity part.
    """
    steps, windows = law.steps, law.windows
    rows = [(i * steps, (i + 1) * steps, steps, (1.0, 0.0, 0.0)) for i in range(steps // windows)]
    polynomials = [lambda tau: (0.5 * tau, -tau * tau, 0.0)]
    if law.velocity:
        polynomials.append(lambda tau: (-1.0, tau - 1.0, tau))
    for polynomial in polynomials:
        for mesh in law.meshes:
            span, p = steps * steps // mesh.N, polynomial(mesh.tau)
            rows += [(j * span, (j + 1) * span, span // mesh.N, p) for j in range(mesh.N // windows)]
    return rows


def window_covariance(law: WindowLaw) -> np.ndarray:
    """Covariance of one window's values, (width, width), in the row order of WindowLaw.

    By the Ito isometry: two scheme rows give the sum of their product
    over the finer of their two cell grids on their overlap, times the
    cell length (cell widths are powers of two and steps start on cell
    edges, so both rows are constant on each finer cell, and an overlap
    holds whole cells of both); a scheme row and an oracle piece give the
    sum over the row's cells of its value times the cell's integral of
    exp(-mu (T - s)); two pieces give -expm1(-(mu + nu) T)/(mu + nu), with
    T = 1/windows the window length.  Rates must be positive.

    The scheme pairs are summed in closed form, 16 rows at a time.  On the
    overlap, the coarser row's n cells l = m + t, t = -(n-1)/2..(n-1)/2,
    each hold r cells of the finer row, whose sum there is a quadratic in
    t; so the pair sums a polynomial of degree 4 in t, whose odd powers
    cancel and whose even ones sum to n, n(n^2-1)/12 and n(n^2-1)(3n^2-7)/240
    (Faulhaber).  Expanding each polynomial about its cells' centre keeps
    the terms of the size of the sum.
    """
    rows, rates = window_functions(law), law.rates
    cell, length, scheme = 1.0 / law.steps**2, 1.0 / law.windows, len(rows)
    value = lambda c, lo, w, p: p[0] + (c - lo) // w * (p[1] + (c - lo) // w * p[2])
    cov = np.zeros((law.width, law.width))
    lo, hi, w = (np.array(column, dtype=float) for column in list(zip(*rows))[:3])
    polynomials, y = np.array([row[3] for row in rows]), np.arange(scheme)
    # Rows x against every row y, 16 rows x at a time, so that no temporary
    # outgrows 16 rows of the covariance.
    for x in np.split(y[:, None], range(16, scheme, 16)):
        # Pair [x, y] as its coarser row c and its finer row f; a tie goes to the later
        # row, so pairs [x, y] and [y, x] compute the same sum.
        x_coarser = (w[x] > w[y]) | ((w[x] == w[y]) & (x >= y))
        c, f = np.where(x_coarser, x, y), np.where(x_coarser, y, x)
        start = np.maximum(lo[x], lo[y])
        n = np.maximum(np.minimum(hi[x], hi[y]) - start, 0.0) / w[c]  # coarse cells shared
        r = w[c] / w[f]  # fine cells per coarse cell
        centre = (start - lo[c]) / w[c] + 0.5 * (n - 1.0)
        middle = (start - lo[f]) / w[f] + 0.5 * (r * n - 1.0)
        p0, p1, p2 = np.moveaxis(polynomials[c], -1, 0)
        q0, q1, q2 = np.moveaxis(polynomials[f], -1, 0)
        # Both rows in powers of t: the coarse row about its centre, and the fine row
        # summed over the r cells of each coarse cell, about their centre.
        a0, a1, a2 = p0 + centre * (p1 + centre * p2), p1 + 2.0 * centre * p2, p2
        b0 = r * (q0 + middle * (q1 + middle * q2) + q2 * (r * r - 1.0) / 12.0)
        b1, b2 = r * r * (q1 + 2.0 * middle * q2), r**3 * q2
        second = n * (n * n - 1.0) / 12.0
        fourth = second * (3.0 * n * n - 7.0) / 20.0
        total = n * a0 * b0 + (a0 * b2 + a1 * b1 + a2 * b0) * second + a2 * b2 * fourth
        cov[x, y] = cell * w[f] * total
    for x, (lo, hi, w, p) in enumerate(rows):
        c = np.arange(lo, hi, w)
        for z, rate in enumerate(rates, scheme):
            decay = np.exp(-rate * (length - cell * (c + w))) * -math.expm1(-rate * cell * w) / rate
            cov[x, z] = cov[z, x] = math.fsum(value(c, lo, w, p) * decay)
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

    Each key's Philox stream gives law.normals normals, window by window
    (standard_normals), and one einsum with window_factor turns each
    window's normals into its values.  Returns (path, pieces): path the
    chunk on the N_max grid, its increments and cumulative values,
    carrying the gaps and, if law.velocity, the velocity parts of
    law.meshes (WienerPath.gaps and parts), and pieces (n, windows,
    rates) the oracle pieces, copied out so that they do not keep the
    window values alive.
    """
    n, steps, windows = len(keys), law.steps, law.windows
    normals = np.empty((n, windows, law.width))
    standard_normals(keys, normals)
    values = np.einsum("fg,rwg->rwf", window_factor(law), normals)
    del normals  # so the copies below do not stack on top of them
    start = steps // windows
    increments = values[..., :start].reshape(n, steps, 1)
    cumulative = np.zeros((n, steps + 1, 1))
    np.cumsum(increments, axis=1, out=cumulative[:, 1:])
    drawn = ({}, {}) if law.velocity else ({},)
    for coordinates in drawn:
        for mesh in law.meshes:
            stop = start + mesh.N // windows
            coordinates[mesh.N] = values[..., start:stop].reshape(n, mesh.N, 1)
            start = stop
    return WienerPath(increments, cumulative, *drawn), values[..., start:].copy()


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
    """(coarse, micro sums, micro moments) of path on mesh, read by stride.

    coarse (..., N+1, m) holds W(t_j), sums[..., j, :] = sum_{l=1}^{M}
    W(t_{j,l}) and moments[..., j, :] = sum_{l=1}^{M} l W(t_{j,l}), each
    (..., N, m) with the leading axis of a chunk; only the first count of
    the two sums are formed, the others are None.  A mesh whose micro
    nodes are master nodes reads them through mesh_values.  A finer mesh
    whose gaps the path carries (WienerPath.gaps) gives its coarse values
    with count 0, and any other raises AlignmentError.
    """
    if path.S % (mesh.N * mesh.M) == 0:
        coarse, micro = mesh_values(path.cumulative, mesh)
        sums = micro.sum(axis=-2) if count > 0 else None
        if count < 2:
            return coarse, sums, None
        return coarse, sums, np.einsum("l,...jlm->...jm", np.arange(1.0, mesh.M + 1), micro)
    if count > 0 or mesh.N not in path.gaps:
        raise AlignmentError(
            f"the micro grid of N={mesh.N} is finer than the {path.S}-step path, "
            f"which carries the drawn coordinates of N in {sorted(path.gaps)} only"
        )
    return path.cumulative[..., :: path.S // mesh.N, :], None, None


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
        Gaps the path carries for the mesh (WienerPath.gaps) are copied,
        and velocity parts (WienerPath.parts) completed to velocity sums
        by the coarse values, v_j = (tau^3/2)(u_j - W(t_j)); everything
        else is reduced through mesh_sums, and a path that offers neither
        raises AlignmentError.
        """
        chunk = path.chunk()
        columns = slice(r, r + len(chunk.increments))
        tau = self.mesh.tau
        gaps, parts = chunk.gaps.get(self.mesh.N), chunk.parts.get(self.mesh.N)
        # Form only the sums that the block's coordinates read.
        needs_moments = self.velocity_sums is not None and parts is None
        needs_sums = needs_moments or (self.gaps is not None and gaps is None)
        coarse, sums, moments = mesh_sums(chunk, self.mesh, needs_sums + needs_moments)
        # Chunk rows become block columns.
        self.increments[:, columns] = np.diff(coarse, axis=1).swapaxes(0, 1)
        if self.gaps is not None:
            if gaps is None:
                gaps = tau * tau * sums - 0.5 * tau * (coarse[:, :-1] + coarse[:, 1:])
            self.gaps[:, columns] = gaps.swapaxes(0, 1)
        if self.velocity_sums is not None:
            if parts is None:
                velocity_sums = 0.5 * tau**3 * (sums - 2.0 * tau * moments)
            else:
                velocity_sums = 0.5 * tau**3 * (parts - coarse[:, :-1])
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

