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
the windows' pieces of the convolutions.  The factor product is the one
BLAS call of a study: np.matmul makes gemm calls of one fixed shape per
path, small enough for one BLAS thread, so a path's values have the same
bits in any chunk and for any thread count.  The path it returns lies on
the N_max grid and carries the drawn coordinates (WienerPath.gaps and
WienerPath.parts); the coarser meshes read theirs from it by stride.

mesh_values is the one place that knows where the coarse and micro nodes
of a mesh sit on the master grid.  It returns them as views of the
cumulative values of a chunk of paths, (n, S+1, m).  NoiseBlock.put
reduces a chunk to the noise coordinates of a mesh by one rule: a mesh
whose coordinates the chunk carries copies its drawn gaps and completes
its drawn velocity parts, with its coarse values read by stride, and
every other mesh forms them from mesh_values, by one formula each.

Paths are sampled once per realization from a counter-based generator and
then shared by every scheme and every coarse resolution that is compared,
so refinement studies measure scheme error on a common noise sample.
Both samplers draw a chunk of paths from a list of keys, each key's
stream into its own row, so a path gets the same bits alone or in any
chunk, and a single path is the chunk of one.  NoiseBlock holds the
noise coordinates of R paths on one mesh, so a chunk of paths can be
reduced on every mesh and dropped, and the schemes step all R paths
together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


# Multiply-adds per BLAS gemm of the window product (sample_windows).  OpenBLAS
# runs a gemm of at most 2^18 of them on one thread (65536 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4), so drawing wakes no BLAS thread.
GEMM_SIZE = 2**18


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
    """A chunk of n sampled m-dimensional Wiener paths on the S-step master grid of [0, 1].

    increments[i, k] is W(s_{k+1}) - W(s_k) of path i and cumulative[i, k]
    is W(s_k) with W(0) = 0, where s_k = k*delta and delta = 1/S.  Values
    are only ever read at master nodes, through mesh_values.  One path is
    the chunk of one; any other rank raises ValueError.

    A chunk may also carry drawn noise coordinates of meshes whose micro
    grid it does not carry (sample_windows): gaps[N], shape (n, N, m),
    holds NoiseBlock's gap of each step of the mesh N, and parts[N] the
    local velocity part u_j = sum_c (c + 1)(tau c - 1) dW_c of each step
    j, dW_c the increment over its micro cell c = 0..M-1, from which
    NoiseBlock forms the velocity sum.
    """

    increments: np.ndarray  # shape (n, S, m)
    cumulative: np.ndarray  # shape (n, S + 1, m)
    gaps: dict[int, np.ndarray] = field(default_factory=dict)
    parts: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.increments.ndim != 3 or self.cumulative.ndim != 3:
            raise ValueError(
                f"a path is a chunk (n, S, m) and (n, S+1, m), got increments "
                f"{self.increments.shape} and cumulative {self.cumulative.shape}"
            )

    @property
    def S(self) -> int:
        return self.increments.shape[1]

    @property
    def m(self) -> int:
        return self.increments.shape[2]

    @property
    def delta(self) -> float:
        """Master step 1/S."""
        return 1.0 / self.S


def standard_normals(keys: Sequence, out: np.ndarray) -> None:
    """Fill out[i] with the first standard normals of the Philox stream of keys[i].

    A key is an integer (Python or numpy) or a pair of 64-bit words.  The
    keys become one (n, 2) array of words, which also checks their range,
    and one generator is re-keyed per key by writing its two words into
    the generator's state, with the same bits as a fresh
    np.random.Philox(key=key) wherever that takes the key exactly (it
    rounds words of 2^63 and more through a float).  36 desk heat paths
    of 864 normals take 0.56 ms on a 2-core VM, against 0.49-0.50 ms for
    one unkeyed stream of their length and 0.66-0.67 ms when each key was
    converted alone into a state of numpy arrays.  Keys must be
    nonnegative.
    """
    words = [divmod(int(k), 2**64)[::-1] if isinstance(k, (int, np.integer)) else k for k in keys]
    bits = np.random.Philox(key=0)
    generator, state = np.random.Generator(bits), bits.state
    # The state setter reads each word of the state alone, faster from a list.
    state["state"]["counter"], state["buffer"] = [0] * 4, [0] * 4
    for row, word in zip(out, np.array(words, dtype=np.uint64).tolist()):
        state["state"]["key"] = word
        bits.state = state
        generator.standard_normal(out=row)


def sample_path(seed: int | tuple[int, int] | list, mesh: TimeMesh, m: int = 1) -> WienerPath:
    """Draw a chunk of Wiener paths on the micro grid of mesh: S = N*M master steps of [0, 1].

    The generator is Philox keyed by seed, an integer or a pair of 64-bit
    words, so paths are reproducible and distinct keys give independent
    counter-based streams (standard_normals).  One key draws the chunk of
    one, and a list of keys a chunk with one row per key, each row bit
    for bit the path of its key alone.
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
    return WienerPath(increments, cumulative)


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
    the wave scheme also its velocity sum, and the oracle reads
    int_0^1 exp(-mu (1 - s)) dW(s) for each rate mu of rates: a real
    decay rate for heat, and mu = i omega for a wave mode of frequency
    omega, whose real part and minus imaginary part are
    int cos(omega (1 - s)) dW and int sin(omega (1 - s)) dW.  Each is an
    integral of dW against a fixed function, so they are jointly
    Gaussian, and they split over windows: the steps of the mesh of
    `windows` steps, the coarsest power of two whose square exceeds
    `steps`, the finest marched mesh N_max, but at most N_max.  A gap
    depends only on dW inside its step (its weights sum to zero).  The
    velocity sum of step j is (tau^3/2)(u_j - W(t_j)), since
    sum_{l=1..M} (1 - 2 l tau) = -1, with the part u_j local to its step
    (WienerPath.parts) and W(t_j) the sum of the increments before it.
    The oracle integral is the sum over windows of exp(-mu (1 - t_w))
    times the window's piece int exp(-mu (t_w - s)) dW(s), t_w the
    window's end (window_sum).  So the windows are independent and alike,
    and one window's values, `width` of them, are drawn by one factor
    (window_factor) in this order:

    * the steps/windows increments of the N_max steps, in time order,
    * the gaps of every mesh of meshes, coarsest first, each in time order,
    * if velocity, the velocity parts of the same steps in the same order,
    * the oracle pieces: per rate, in order, the real part of its piece,
      for a complex rate preceded by minus its imaginary part (pieces).

    meshes are the powers of two N from windows to N_max, all with
    N^2 > N_max, whether or not a study marches them, so the law depends
    only on N_max, rates and velocity.  The coarser meshes are not drawn:
    their micro nodes are N_max nodes, so their coordinates are read from
    the increments by stride.  Scheme rows come first, so they do not
    depend on the rates.
    """

    steps: int
    rates: tuple[float | complex, ...]
    velocity: bool = False

    @property
    def windows(self) -> int:
        """Windows per path."""
        return _window_meshes(self.steps)[0]

    @property
    def meshes(self) -> tuple[TimeMesh, ...]:
        """The meshes whose coordinates are drawn, coarsest first."""
        return _window_meshes(self.steps)[1]

    @property
    def pieces(self) -> tuple[tuple[float | complex, complex], ...]:
        """(mu, alpha) of each drawn oracle piece, which is Re(alpha P) of the piece P at rate mu.

        alpha = 1 gives the real part, and alpha = i minus the imaginary
        part, which only a complex rate draws, and draws first.  At
        mu = i omega these are the cos and the sin piece.  Beyond the
        scheme rows, which span quadratics on each step of N_max, a cos
        piece is left a residue of fourth order in omega tau, a sin
        piece one of third order, so where the factor finds a cos piece
        to be rounding residue (window_factor at N_max >= 256), the sin
        piece before it has already taken its covariance.
        """
        parts = lambda mu: (1j, 1) if isinstance(mu, complex) else (1,)
        return tuple((mu, alpha) for mu in self.rates for alpha in parts(mu))

    @property
    def width(self) -> int:
        """Values drawn per window."""
        drawn = sum(mesh.N for mesh in self.meshes) // self.windows * (1 + self.velocity)
        return self.steps // self.windows + drawn + len(self.pieces)

    @property
    def normals(self) -> int:
        """Normals drawn per path."""
        return self.windows * self.width


@functools.cache
def _window_meshes(steps: int) -> tuple[int, tuple[TimeMesh, ...]]:
    """(windows, meshes) of the window laws of N_max = steps, formed once per steps."""
    windows = 1
    while windows * windows <= steps and windows < steps:
        windows *= 2
    n, meshes = windows, []
    while n <= steps:
        if n * n > steps:
            meshes.append(TimeMesh(n))
        n *= 2
    return windows, tuple(meshes)


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
    holds whole cells of both); a scheme row and an oracle piece
    Re(alpha P(mu)) give Re(alpha sum_c value_c decay_c), decay_c the
    integral of exp(-mu (T - s)) over cell c, summed by fsum of the terms
    Re(alpha value_c decay_c), for alpha = 1 or i the real part or minus
    the imaginary part of each term exactly; two pieces Re(alpha P(mu))
    and Re(beta P(nu)) give (1/2) Re(alpha beta E(mu + nu) + alpha
    conj(beta) E(mu + conj(nu))), E(z) = -expm1(-z T)/z the integral of
    exp(-z u) over [0, T], or T at z = 0, with T = 1/windows the window
    length.  Real rates must be positive; a real rate takes real
    arithmetic only.

    The scheme pairs are summed in closed form, 16 rows at a time.  On the
    overlap, the coarser row's n cells l = m + t, t = -(n-1)/2..(n-1)/2,
    each hold r cells of the finer row, whose sum there is a quadratic in
    t; so the pair sums a polynomial of degree 4 in t, whose odd powers
    cancel and whose even ones sum to n, n(n^2-1)/12 and n(n^2-1)(3n^2-7)/240
    (Faulhaber).  Expanding each polynomial about its cells' centre keeps
    the terms of the size of the sum.
    """
    rows, pieces = window_functions(law), law.pieces
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
        terms = {}  # value_c decay_c of each rate, shared by its pieces
        for z, (mu, alpha) in enumerate(pieces, scheme):
            if mu not in terms:
                decay = np.exp(-mu * (length - cell * (c + w))) * -_expm1(-mu * cell * w) / mu
                terms[mu] = value(c, lo, w, p) * decay
            cov[x, z] = cov[z, x] = math.fsum((alpha * terms[mu]).real)
    integral = lambda z: -_expm1(-z * length) / z if z else length
    for z, (mu, alpha) in enumerate(pieces, scheme):
        for y, (nu, beta) in enumerate(pieces, scheme):
            same, conjugate = integral(mu + nu), integral(mu + nu.conjugate())
            cov[z, y] = 0.5 * (alpha * beta * same + alpha * beta.conjugate() * conjugate).real
    return cov


def _expm1(z: float | complex) -> float | complex:
    """exp(z) - 1 without cancellation: math.expm1 for a real z, numpy's for a complex one."""
    return math.expm1(z) if isinstance(z, float) else complex(np.expm1(z))


@functools.lru_cache(maxsize=None)
def window_factor(law: WindowLaw) -> np.ndarray:
    """Lower Cholesky factor of window_covariance(law), cached per law."""
    return lower_factor(window_covariance(law))


def sample_windows(keys: list, law: WindowLaw, buffers=None) -> tuple[WienerPath, np.ndarray]:
    """Draw a chunk of paths by law, one per key, each bit for bit that of its key alone.

    Each key's Philox stream gives law.normals normals, window by window
    (standard_normals), and np.matmul with window_factor turns each
    window's normals into its values.  matmul loops over the paths and
    makes BLAS gemm calls of one fixed shape per path, `group` windows by
    width, so a path's values do not depend on its chunk: the most windows
    (a power of two) whose gemm takes at most GEMM_SIZE multiply-adds, all
    32 of a desk heat path, 32 of the 64 of a desk wave path and 8 of the
    128 of a --paper wave path.  That also keeps every gemm on one BLAS
    thread.  buffers, if given, holds two arrays of at least len(keys)
    rows of (windows, width), which the normals and the window values are
    drawn into, so that a caller drawing many chunks allocates them once.
    Returns (path, pieces): path the chunk on the N_max grid, its
    increments and cumulative values, carrying the gaps and, if
    law.velocity, the velocity parts of law.meshes (WienerPath.gaps and
    parts), and pieces (n, windows, len(law.pieces)) the oracle pieces.
    The window values are copied, in that order, over the spent normals,
    and all but the cumulative values are views of them: they hold until
    the next draw into the same buffers.
    """
    n, steps, windows, width = len(keys), law.steps, law.windows, law.width
    buffers = buffers or [np.empty((n, windows, width)) for _ in range(2)]
    normals, values = (buffer[:n] for buffer in buffers)
    standard_normals(keys, normals)
    # The largest power of two at most windows and GEMM_SIZE / width^2, at least 1.
    group = min(windows, 2 ** max(0, (GEMM_SIZE // width**2).bit_length() - 1))
    shape = (n, windows // group, group, width)
    np.matmul(normals.reshape(shape), window_factor(law).T, out=values.reshape(shape))

    def section(lo: int, hi: int) -> np.ndarray:
        """Values lo..hi-1 of each window, over the normals in time order: (n, windows, hi-lo)."""
        out = normals.reshape(n, -1)[:, windows * lo : windows * hi].reshape(n, windows, hi - lo)
        out[...] = values[..., lo:hi]
        return out

    start = steps // windows
    increments = section(0, start).reshape(n, steps, 1)
    cumulative = np.zeros((n, steps + 1, 1))
    np.cumsum(increments, axis=1, out=cumulative[:, 1:])
    drawn = ({}, {}) if law.velocity else ({},)
    for coordinates in drawn:
        for mesh in law.meshes:
            stop = start + mesh.N // windows
            coordinates[mesh.N] = section(start, stop).reshape(n, mesh.N, 1)
            start = stop
    return WienerPath(increments, cumulative, *drawn), section(start, width)


def window_sum(pieces: np.ndarray, rates: Sequence[float | complex]) -> np.ndarray:
    """int_0^1 exp(-mu (1 - s)) dW(s) of each rate mu, from its pieces: (rates, n).

    pieces (n, windows, rates) hold each window's piece
    int exp(-mu (t_w - s)) dW(s), complex for a complex rate, and the
    integral is their sum rotated to time 1, sum_w exp(-mu (1 - t_w))
    piece_w, t_w the end of window w.  Column i is bit for bit that of
    path i alone.
    """
    windows = pieces.shape[1]
    weights = np.exp(-np.outer(1.0 - np.arange(1, windows + 1) / windows, rates))
    return np.einsum("wk,nwk->kn", weights, pieces)


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

    cumulative holds W of a chunk of n paths on the master grid, shape
    (n, S+1, m).  Returns coarse (n, N+1, m) with coarse[:, j] = W(t_j),
    and micro (n, N, M, m) with micro[:, j, l-1] = W(t_{j,l}) for
    l = 1..M, so micro[:, j, M-1] is W(t_{j+1}).  Raises AlignmentError
    unless every micro node is a master node.
    """
    n, nodes, m = cumulative.shape
    stride_coarse, stride_micro = master_strides(mesh, nodes - 1)
    coarse = cumulative[:, ::stride_coarse]
    # Micro node t_{j,l} sits at master index (j*M + l) * stride_micro, so
    # the nodes after 0, taken at the micro stride, are the micro grid in
    # interval-major order and split into (N, M) without a copy.
    micro = cumulative[:, stride_micro::stride_micro].reshape(n, mesh.N, mesh.M, m)
    return coarse, micro


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
    def nbytes(self) -> int:
        arrays = (self.increments, self.gaps, self.velocity_sums)
        return sum(a.nbytes for a in arrays if a is not None)

    def put(self, r: int, path: WienerPath) -> None:
        """Reduce a chunk of n paths to its coordinates on the mesh, in columns r..r+n-1.

        A mesh whose gaps the chunk carries (WienerPath.gaps) reads its
        coarse values by stride, copies the gaps and completes the velocity
        parts (WienerPath.parts) to velocity sums, v_j = (tau^3/2)(u_j - W(t_j)).
        Every other mesh reads its coarse and micro values through
        mesh_values, and forms the gaps and velocity sums from the micro
        sums, sum_l W(t_{j,l}), and moments, sum_l l W(t_{j,l}).  A mesh
        that offers neither the drawn coordinates nor its micro nodes
        raises AlignmentError.
        """
        columns = slice(r, r + len(path.increments))
        N, tau = self.mesh.N, self.mesh.tau
        gaps, velocity_sums = path.gaps.get(N), None
        if gaps is not None:
            coarse = path.cumulative[:, :: path.S // N]
            if self.velocity_sums is not None:
                if N not in path.parts:
                    raise AlignmentError(f"the path carries the gaps of N={N}, no velocity parts")
                velocity_sums = 0.5 * tau**3 * (path.parts[N] - coarse[:, :-1])
        else:
            coarse, micro = mesh_values(path.cumulative, self.mesh)
            # Form only the sums that the block's coordinates read.
            if self.gaps is not None or self.velocity_sums is not None:
                sums = micro.sum(axis=2)
                gaps = tau * tau * sums - 0.5 * tau * (coarse[:, :-1] + coarse[:, 1:])
            if self.velocity_sums is not None:
                moments = np.einsum("l,njlm->njm", np.arange(1.0, self.mesh.M + 1), micro)
                velocity_sums = 0.5 * tau**3 * (sums - 2.0 * tau * moments)
        # Chunk rows become block columns.
        self.increments[:, columns] = np.diff(coarse, axis=1).swapaxes(0, 1)
        if self.gaps is not None:
            self.gaps[:, columns] = gaps.swapaxes(0, 1)
        if self.velocity_sums is not None:
            self.velocity_sums[:, columns] = velocity_sums.swapaxes(0, 1)


def noise_block(
    noise: WienerPath | NoiseBlock, mesh: TimeMesh, coordinates: Sequence[str]
) -> NoiseBlock:
    """noise as a block on mesh with the named coordinates.

    A chunk of n paths becomes a block of n; a block must already lie on
    mesh and carry every coordinate asked for, else AlignmentError.
    """
    if isinstance(noise, WienerPath):
        block = NoiseBlock.empty(mesh, len(noise.increments), noise.m, coordinates)
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

