"""Statistical validation of the noise quadrature against closed-form moments.

Every corrected scheme in this package leans on micro-grid quadratures of
Wiener paths whose defects have exactly computable second moments.  This
module re-derives those moments by direct Monte Carlo on freshly sampled
paths and compares against the closed forms:

* micro Riemann sum defect:        E||defect||^2 = (m/3) tau^5,
* weighted wave micro sum:         E||.||^2 = (m tau^8/4) sum min(t_l, t_l'),
* current-interval wave defect:    E||.||^2 <= m tau^6,
* past-interval wave defect:       E||.||^2 <= t_j m tau^5 / 3,
* Wiener covariance:               E[(W(t)-W(s))(W(t)-W(r))^T] = (t - max(s,r)) I,

plus a deterministic sharpness check of the trapezoid defect bound for
Holder-continuous derivatives, where f(t) = t^2 attains the bound exactly.

The Monte Carlo kernels here are batched (many paths per numpy block).
Each check draws only what its kernel reads (_cell_block): the coarse
intervals it covers, at micro resolution, with the first one, two or
three of the exact integrals of each micro cell, so the path integrals
the defects compare against carry no discretization bias.  A block has
one row per path component, row i*m + c for component c of path i, so
every sum over micro cells runs along a contiguous axis, and
_squared_norms adds each path's m rows back up.  The heat defects read
a whole-mesh block through noise.mesh_values, the accessor behind the
schemes' noise coordinates, so the quadrature checked is the one the
schemes consume; the other kernels read their blocks by reshape or read
only the cell integrals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heat import ConfigError
from .noise import (
    TimeMesh,
    defect_moment_exact,
    mesh_values,
    wave_micro_sum_moment_exact,
)

# Largest batched block, in path values (micro nodes drawn times components).
# A value comes with at most three normals and three cell quantities, so
# a chunk's arrays take about 2 MB and stay in cache.  Each path's normals
# are consecutive in its stream, so the chunk size moves no sample.
_CHUNK_ELEMENTS = 1 << 15

# Cell quantity k of (dW, I1, I2) is h^(k+1/2) sum_i z_i / d_ki: row k of the
# closed-form Cholesky factor of their covariance (see _cell_block).
_CELL_DIVISORS = ((1.0,), (2.0, 2 * math.sqrt(3)), (3.0, 4 * math.sqrt(3), 12 * math.sqrt(5)))

LEMMA_TOLERANCE = 1e-12
TWO_SIDED_BAND = 3.0
BOUND_BAND = 3.0
COVARIANCE_BAND = 4.0


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check."""

    name: str
    passed: bool
    observed: float
    expected: float
    band: float  # allowed |observed - expected| (or bound slack), in absolute terms
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status}  {self.name}: observed={self.observed:.8e} "
            f"expected={self.expected:.8e} band={self.band:.2e}{extra}"
        )


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def text(self) -> str:
        lines = [check.line() for check in self.checks]
        n_fail = len(self.failures())
        lines.append("")
        lines.append(
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed"
            + ("" if n_fail == 0 else f", {n_fail} FAILED")
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deterministic trapezoid defect bound


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(16)


def trapezoid_defect(f, a: float, kappa: float) -> float:
    """|(f(a) + f(a+kappa))/2 - kappa^{-1} int_a^{a+kappa} f| via Gauss quadrature."""
    if kappa <= 0:
        raise ValueError(f"interval length must be positive, got {kappa}")
    nodes, weights = _gauss_legendre()
    x = a + 0.5 * kappa * (nodes + 1.0)
    integral = 0.5 * kappa * float(weights @ f(x))
    return abs(0.5 * (f(a) + f(a + kappa)) - integral / kappa)


def holder_trapezoid_bound(holder_const: float, gamma: float, kappa: float) -> float:
    """Defect bound C/((gamma+2)(gamma+3)) kappa^{1+gamma} for f' in C^gamma."""
    return holder_const / ((gamma + 2.0) * (gamma + 3.0)) * kappa ** (1.0 + gamma)


def _lemma_checks() -> list[CheckResult]:
    checks = []
    for kappa in (1.0, 0.5, 1.0 / 16.0):
        defect = trapezoid_defect(lambda t: t * t, 0.0, kappa)
        # f(t) = t^2 has f' Lipschitz with constant 2 (gamma = 1), and the
        # defect kappa^2/6 attains the bound exactly.
        bound = holder_trapezoid_bound(2.0, 1.0, kappa)
        target = kappa * kappa / 6.0
        band = LEMMA_TOLERANCE * target
        passed = abs(defect - target) <= band and abs(bound - target) <= band
        name = f"trapezoid_defect_sharpness[kappa={Fraction(kappa).limit_denominator()}]"
        checks.append(CheckResult(name, passed, defect, target, band, f"bound={bound:.12e}"))
    return checks


# ---------------------------------------------------------------------------
# batched Wiener kernels


def _cell_block(rng, n_paths: int, mesh: TimeMesh, m: int, intervals=None, moments=3, path=True):
    """Wiener paths at micro resolution over some coarse intervals, with exact cell integrals.

    On a micro cell [t, t + h], h = tau^2, the increment dW = W(t+h) - W(t)
    and the integrals I1 = int_0^h (W(t+u) - W(t)) du and
    I2 = int_0^h u (W(t+u) - W(t)) du are jointly Gaussian with covariance
    [[h, h^2/2, h^3/3], [h^2/2, h^3/3, 5h^4/24], [h^3/3, 5h^4/24, 2h^5/15]],
    and are drawn from it through its closed-form Cholesky factor
    (Kloeden & Platen, Numerical Solution of SDEs, 1992, section 10.4),
    whose first k rows need only k normals.  intervals, a range of K
    consecutive coarse intervals from j0 (all N by default), starts at
    W(t_j0) = sqrt(t_j0) z.  A path's normals are consecutive in the
    stream, so it does not depend on how many are drawn with it: m for
    W(t_j0) if j0 > 0, then its cells' in (moment, interval, cell,
    component) order.  Row i*m + c of every array is component c of path
    i.  Returns the cumulative block (n*m, K*M+1, 1), W on the micro grid
    from t_j0 on, or None unless path, and cells, the first `moments` of
    (dW, I1, I2), each (n*m, K, M, 1) with [:, i, l-1] the cell
    [t_{j,l-1}, t_{j,l}] of interval j = j0 + i.
    """
    intervals = intervals or range(mesh.N)
    h, start, count, rows = mesh.tau**2, intervals.start, len(intervals), n_paths * m
    lead = m if start else 0
    normals = rng.standard_normal((n_paths, lead + moments * count * mesh.M * m))
    # Each cell array is summed term by term, in place, into an array in row
    # order, from a transposed view of the normals.
    z = normals[:, lead:].reshape(n_paths, moments, -1, m).transpose(1, 0, 3, 2)
    cells, scales = [], (math.sqrt(h), h**1.5, h**2.5)
    for k, divisors in enumerate(_CELL_DIVISORS[:moments]):
        cell = np.divide(z[0], divisors[0], order="C")
        for i in range(1, k + 1):
            cell += z[i] / divisors[i]
        cell *= scales[k]
        cells.append(cell.reshape(rows, count, mesh.M, 1))
    first = math.sqrt(start * mesh.tau) * normals[:, :m].ravel() if start else 0.0
    del normals, z
    if not path:
        return None, cells
    block = np.empty((rows, count * mesh.M + 1, 1))
    block[:, 0, 0] = first
    block[:, 1:] = cells[0].reshape(rows, -1, 1)
    return np.cumsum(block, axis=1, out=block), cells


def heat_defect_block(block: np.ndarray, mesh: TimeMesh, cells) -> np.ndarray:
    """Micro quadrature defects for every row and interval; shape (n*m, N, 1).

    block and cells, (dW, I1) at least, come from a whole-mesh _cell_block.
    Interval j's defect is the exact int_{t_j}^{t_{j+1}} W(s) ds =
    sum_l (h W(t_{j,l-1}) + I1_l) minus the micro Riemann sum
    h sum_{l=1}^{M} W(t_{j,l}), with h = tau^2.
    """
    h = mesh.tau**2
    coarse, micro = mesh_values(block, mesh)
    left_sums = coarse[:, :-1, :] + micro[:, :, :-1, :].sum(axis=2)
    integrals = h * left_sums + cells[1].sum(axis=2)
    return integrals - h * micro.sum(axis=2)


def wave_current_defect_block(block: np.ndarray, mesh: TimeMesh, cells) -> np.ndarray:
    """Current-interval wave defects for every row and interval; shape (n*m, N, 1).

    For interval j this is
    sum_l int_{t_{j,l-1}}^{t_{j,l}} (t_{j+1} - s)(W(s) - W(t_{j,l})) ds.
    On cell l, with s = t_{j,l-1} + u and a_l = t_{j+1} - t_{j,l-1} =
    tau - (l-1) h, the integrand is
    (a_l - u)(W(t_{j,l-1} + u) - W(t_{j,l-1}) - dW_l), so the cell
    contributes a_l I1_l - I2_l - dW_l (a_l h - h^2/2) exactly.  block is
    unused: the cells, all three, determine the defect.
    """
    increments, i1, i2 = cells
    h = mesh.tau**2
    a = (mesh.tau - h * np.arange(mesh.M))[:, None]
    return (a * i1 - i2 - increments * (a * h - h * h / 2)).sum(axis=2)


def _wave_micro_sum_kernel(block: np.ndarray, mesh: TimeMesh, cells=None) -> np.ndarray:
    """Weighted micro sums (tau^4/2) sum_l W(t_{j,l}) of the block's K intervals; (n*m, K, 1)."""
    n, _, m = block.shape
    return 0.5 * mesh.tau**4 * block[:, 1:].reshape(n, -1, mesh.M, m).sum(axis=2)


def _old_defect_kernel(block: np.ndarray, mesh: TimeMesh, cells) -> np.ndarray:
    """tau times the heat defects of the block's intervals summed, shape (n*m, 1, 1).

    On cell l, h W(t_{j,l-1}) + I1_l - h W(t_{j,l}) = I1_l - h dW_l, so
    the defects read only the cells (dW, I1), and block may be None.
    """
    return mesh.tau * (cells[1] - mesh.tau**2 * cells[0]).sum(axis=(1, 2))[:, None]


def _squared_norms(values: np.ndarray, m: int) -> np.ndarray:
    """Squared norms of kernel outputs (n*m, P, 1), each path's m rows summed; (n*P,)."""
    squares = values[..., 0] ** 2
    return squares.reshape(-1, m, squares.shape[1]).sum(axis=1).ravel()


def _kernel_samples(key: tuple[int, int], mesh: TimeMesh, m: int, samples: int, draw):
    """Squared norms of a per-interval kernel's outputs, pooled across intervals.

    draw is (kernel, per_path, intervals, moments, path), and kernel maps
    _cell_block(..., intervals, moments, path) to (n*m, per_path, 1)
    outputs.  The defect laws are identical and independent across coarse
    intervals, so each path gives per_path samples: N if the kernel
    returns all N intervals.  Each chunk draws only the paths still needed.
    """
    kernel, per_path, intervals, moments, path = draw
    rng = np.random.Generator(np.random.Philox(key=key))
    chunk = max(1, _CHUNK_ELEMENTS // ((len(intervals) * mesh.M + 1) * m))
    out = np.empty(samples)
    filled = 0
    while filled < samples:
        n_paths = min(chunk, -(-(samples - filled) // per_path))
        block, cells = _cell_block(rng, n_paths, mesh, m, intervals, moments, path)
        sq = _squared_norms(kernel(block, mesh, cells), m)
        take = min(sq.size, samples - filled)
        out[filled : filled + take] = sq[:take]
        filled += take
    return out


def _mean_and_se(samples: np.ndarray):
    """Mean and standard error along the last axis."""
    se = samples.std(axis=-1, ddof=1) / math.sqrt(samples.shape[-1])
    return samples.mean(axis=-1), se


# ---------------------------------------------------------------------------
# individual statistical checks


def _moment_checks(samples: int, seed: int) -> list[CheckResult]:
    """The twelve quadrature moment checks, on Philox streams (seed, 16..67).

    Each compares the Monte Carlo mean of a kernel's squared norm with its
    closed form.  Two-sided checks pass within TWO_SIDED_BAND standard
    errors of expected; upper checks (upper=True) pass when the mean lies
    below the bound expected plus BOUND_BAND standard errors.
    """
    mesh = TimeMesh(8)
    tau = mesh.tau
    cases = []  # (name, stream, mesh, m, draw, expected, upper), draw as in _kernel_samples
    for i, (n, m) in enumerate([(8, 1), (8, 2), (16, 1), (16, 2)]):
        name = f"heat_defect_moment[tau=1/{n},m={m}]"
        draw = (heat_defect_block, n, range(n), 2, True)
        cases.append((name, 16 + i, TimeMesh(n), m, draw, defect_moment_exact(1.0 / n, m), False))
    for i, (j, m) in enumerate([(0, 1), (0, 2), (7, 1), (7, 2)]):
        name = f"wave_micro_sum_moment[tau=1/8,j={j},m={m}]"
        expected = wave_micro_sum_moment_exact(mesh, j, m)
        draw = (_wave_micro_sum_kernel, 1, range(j, j + 1), 1, True)
        cases.append((name, 32 + i, mesh, m, draw, expected, False))
    for i, m in enumerate((1, 2)):
        name = f"wave_current_defect_bound[tau=1/8,m={m}]"
        draw = (wave_current_defect_block, 8, range(8), 3, True)
        cases.append((name, 48 + i, mesh, m, draw, m * tau**6, True))
    for i, m in enumerate((1, 2)):
        name = f"wave_old_defect_bound[tau=1/8,j=4,m={m}]"
        bound = mesh.coarse_time(4) * m * tau**5 / 3.0
        draw = (_old_defect_kernel, 1, range(4), 2, False)  # reads only the cells
        cases.append((name, 64 + i, mesh, m, draw, bound, True))
    checks = []
    for name, stream, mesh_, m, draw, expected, upper in cases:
        drawn = _kernel_samples((seed, stream), mesh_, m, samples, draw)
        mean, se = map(float, _mean_and_se(drawn))
        band = (BOUND_BAND if upper else TWO_SIDED_BAND) * se
        passed = mean <= expected + band if upper else abs(mean - expected) <= band
        detail = "upper bound" if upper else f"z={(mean - expected) / se:+.2f}"
        checks.append(CheckResult(name, passed, mean, expected, band, detail))
    return checks


def _covariance_checks(samples: int, seed: int, stream: int) -> list[CheckResult]:
    """E[(W(t)-W(s))(W(t)-W(r))^T] = (t - max(s,r)) I, m = 2."""
    checks = []
    m = 2
    rng = np.random.Generator(np.random.Philox(key=(seed, stream)))
    for s, r, t in [(0.25, 0.5, 1.0), (0.5, 0.5, 1.0), (0.125, 0.875, 1.0)]:
        times = sorted({0.0, s, r, t})
        gaps = np.diff(times)
        values = {0.0: np.zeros((samples, m))}
        w = np.zeros((samples, m))
        for t_prev, gap in zip(times[1:], gaps):
            w = w + rng.standard_normal((samples, m)) * math.sqrt(gap)
            values[t_prev] = w
        inc_s, inc_r = (np.ascontiguousarray((values[t] - values[u]).T) for u in (s, r))
        # Row i*m + k holds component i of inc_s times component k of inc_r.
        mean, se = _mean_and_se((inc_s[:, None] * inc_r[None]).reshape(m * m, samples))
        error = np.abs(mean - (t - max(s, r)) * np.eye(m).ravel())
        checks.append(
            CheckResult(
                name=f"wiener_covariance[s={s},r={r},t={t}]",
                passed=bool((error <= COVARIANCE_BAND * se).all()),
                observed=float((error / se).max()),
                expected=0.0,
                band=COVARIANCE_BAND,
                detail="worst |z| over 2x2 components",
            )
        )
    return checks


def validate_statistics(samples: int = 100_000, seed: int = 20260814) -> ValidationReport:
    """Run every statistical and deterministic quadrature check.

    samples is the Monte Carlo sample count per check; each check draws
    its own counter-based stream, Philox keyed by the pair (seed, stream),
    so reports are reproducible.
    """
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit word in [0, 2^64), got {seed}")
    checks: list[CheckResult] = []
    checks.extend(_lemma_checks())
    checks.extend(_covariance_checks(samples, seed, 1))
    checks.extend(_moment_checks(samples, seed))
    return ValidationReport(tuple(checks))
