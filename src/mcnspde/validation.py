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

The Monte Carlo kernels here are batched (many paths per numpy block) and
read the micro and coarse nodes through noise.mesh_values, the same
accessor the time steppers use, so the quadratures checked here are the
ones the schemes consume.  Path integrals are left-point Riemann sums on
the master grid.  Their second-moment bias relative to the tau^5-scale
targets is (3/2) * (master step)/tau^2, so each check picks the master
refinement to keep that bias well inside a fraction of one Monte Carlo
standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heat import ConfigError
from .noise import (
    TimeMesh,
    defect_moment_exact,
    master_strides,
    mesh_values,
    wave_micro_sum_moment_exact,
)

# Largest batched block, in doubles; keeps peak kernel memory near 100 MB.
_CHUNK_ELEMENTS = 1 << 22

# Master steps per micro step for the defect estimators.  1024 puts the
# left-point quadrature bias below half a standard error at 1e5 samples;
# the bound checks have order-of-magnitude slack and use a cheaper grid.
_DEFECT_REFINE = 1024
_BOUND_REFINE = 64

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


def trapezoid_defect(f, a: float, kappa: float) -> float:
    """|(f(a) + f(a+kappa))/2 - kappa^{-1} int_a^{a+kappa} f| via Gauss quadrature."""
    if kappa <= 0:
        raise ValueError(f"interval length must be positive, got {kappa}")
    nodes, weights = np.polynomial.legendre.leggauss(16)
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
        checks.append(
            CheckResult(
                name=f"trapezoid_defect_sharpness[kappa={Fraction(kappa).limit_denominator()}]",
                passed=passed,
                observed=defect,
                expected=target,
                band=band,
                detail=f"bound={bound:.12e}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# batched Wiener kernels


def _cumulative_block(rng: np.random.Generator, n_paths: int, steps: int, m: int, delta: float):
    increments = rng.standard_normal((n_paths, steps, m)) * math.sqrt(delta)
    block = np.zeros((n_paths, steps + 1, m))
    np.cumsum(increments, axis=1, out=block[:, 1:, :])
    return block


def heat_defect_block(block: np.ndarray, mesh: TimeMesh, delta: float) -> np.ndarray:
    """Micro quadrature defects for every path and interval; shape (n, N, m).

    block holds cumulative path values on the master grid, shape
    (n, S+1, m) with S*delta = T.  Interval j's defect is
    int_{t_j}^{t_{j+1}} W(s) ds, as a left-point master-grid Riemann sum,
    minus the micro Riemann sum tau^2 sum_{l=1}^{M} W(t_{j,l}).
    """
    n_paths, nodes, m = block.shape
    stride_coarse, _ = master_strides(mesh, nodes - 1)
    body = block[:, :-1, :].reshape(n_paths, mesh.N, stride_coarse, m)
    integrals = delta * body.sum(axis=2)
    _, micro = mesh_values(block, mesh)
    return integrals - mesh.tau**2 * micro.sum(axis=2)


def wave_current_defect_block(block: np.ndarray, mesh: TimeMesh, delta: float) -> np.ndarray:
    """Current-interval wave defects for every path and interval; shape (n, N, m).

    For interval j this is
    sum_l int_{t_{j,l-1}}^{t_{j,l}} (t_{j+1} - s)(W(s) - W(t_{j,l})) ds
    with the integral taken as a left-point master-grid Riemann sum.  The
    weight t_{j+1} - s depends only on the offset inside the interval, so
    all intervals share one weight table.
    """
    n_paths, nodes, m = block.shape
    tau, micro_count = mesh.tau, mesh.M
    _, stride_micro = master_strides(mesh, nodes - 1)
    body = block[:, :-1, :].reshape(n_paths, mesh.N, micro_count, stride_micro, m)
    offsets = np.arange(stride_micro) * delta
    cells = np.arange(micro_count) * tau * tau
    weights = tau - cells[:, None] - offsets[None, :]  # (M, stride_micro)
    weighted = np.einsum("njlam,la->njlm", body, weights)
    _, right = mesh_values(block, mesh)
    weighted -= right * weights.sum(axis=1)[None, None, :, None]
    return delta * weighted.sum(axis=2)


def _wave_micro_sum_kernel(block: np.ndarray, mesh: TimeMesh, delta: float) -> np.ndarray:
    """Weighted micro sums (tau^4/2) sum_l W(t_{j,l}) for all j; shape (n, N, m)."""
    _, micro = mesh_values(block, mesh)
    return 0.5 * mesh.tau**4 * micro.sum(axis=2)


def _kernel_samples(seed: int, mesh: TimeMesh, m: int, refine: int, samples: int, kernel):
    """Squared norms of a per-interval kernel's outputs, pooled across intervals.

    kernel maps a cumulative block (n, S+1, m) to (n, P, m) outputs.  The
    defect laws are identical and independent across coarse intervals, so
    a kernel that returns all N intervals makes each path contribute N
    samples; one that returns a fixed interval, one sample.
    """
    steps = mesh.N * mesh.M * refine
    delta = mesh.T / steps
    rng = np.random.Generator(np.random.Philox(key=seed))
    chunk = max(1, _CHUNK_ELEMENTS // ((steps + 1) * m))
    out = np.empty(samples)
    filled = 0
    while filled < samples:
        block = _cumulative_block(rng, chunk, steps, m, delta)
        sq = (kernel(block, mesh, delta) ** 2).sum(axis=2).ravel()
        take = min(sq.size, samples - filled)
        out[filled : filled + take] = sq[:take]
        filled += take
    return out


def _mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return mean, se


def _tau_name(mesh: TimeMesh) -> str:
    return f"tau=1/{mesh.N}" if mesh.T == 1.0 else f"tau={mesh.tau}"


# ---------------------------------------------------------------------------
# individual statistical checks


def _heat_defect_checks(samples: int, seed: int) -> list[CheckResult]:
    checks = []
    for idx, (n_coarse, m) in enumerate([(8, 1), (8, 2), (16, 1), (16, 2)]):
        mesh = TimeMesh(n_coarse)
        sq = _kernel_samples(seed + idx, mesh, m, _DEFECT_REFINE, samples, heat_defect_block)
        mean, se = _mean_and_se(sq)
        target = defect_moment_exact(mesh.tau, m)
        band = TWO_SIDED_BAND * se
        checks.append(
            CheckResult(
                name=f"heat_defect_moment[{_tau_name(mesh)},m={m}]",
                passed=abs(mean - target) <= band,
                observed=mean,
                expected=target,
                band=band,
                detail=f"z={(mean - target) / se:+.2f}",
            )
        )
    return checks


def _wave_micro_sum_checks(samples: int, seed: int) -> list[CheckResult]:
    checks = []
    mesh = TimeMesh(8)
    for idx, (j, m) in enumerate([(0, 1), (0, 2), (7, 1), (7, 2)]):
        def kernel(block, mesh_, delta):
            return _wave_micro_sum_kernel(block, mesh_, delta)[:, j : j + 1]

        sq = _kernel_samples(seed + idx, mesh, m, 1, samples, kernel)
        mean, se = _mean_and_se(sq)
        target = wave_micro_sum_moment_exact(mesh, j, m)
        band = TWO_SIDED_BAND * se
        checks.append(
            CheckResult(
                name=f"wave_micro_sum_moment[{_tau_name(mesh)},j={j},m={m}]",
                passed=abs(mean - target) <= band,
                observed=mean,
                expected=target,
                band=band,
                detail=f"z={(mean - target) / se:+.2f}",
            )
        )
    return checks


def _wave_current_defect_checks(samples: int, seed: int) -> list[CheckResult]:
    checks = []
    mesh = TimeMesh(8)
    for idx, m in enumerate((1, 2)):
        sq = _kernel_samples(
            seed + idx, mesh, m, _BOUND_REFINE, samples, wave_current_defect_block
        )
        mean, se = _mean_and_se(sq)
        bound = m * mesh.tau**6
        checks.append(
            CheckResult(
                name=f"wave_current_defect_bound[{_tau_name(mesh)},m={m}]",
                passed=mean <= bound + BOUND_BAND * se,
                observed=mean,
                expected=bound,
                band=BOUND_BAND * se,
                detail="upper bound",
            )
        )
    return checks


def _wave_old_defect_checks(samples: int, seed: int) -> list[CheckResult]:
    checks = []
    mesh = TimeMesh(8)
    j = 4
    t_j = mesh.coarse_time(j)

    def old_kernel(block, mesh_, delta):
        defects = heat_defect_block(block, mesh_, delta)
        return mesh_.tau * defects[:, :j, :].sum(axis=1, keepdims=True)

    for idx, m in enumerate((1, 2)):
        sq = _kernel_samples(seed + idx, mesh, m, _BOUND_REFINE, samples, old_kernel)
        mean, se = _mean_and_se(sq)
        bound = t_j * m * mesh.tau**5 / 3.0
        checks.append(
            CheckResult(
                name=f"wave_old_defect_bound[{_tau_name(mesh)},j={j},m={m}]",
                passed=mean <= bound + BOUND_BAND * se,
                observed=mean,
                expected=bound,
                band=BOUND_BAND * se,
                detail="upper bound",
            )
        )
    return checks


def _covariance_checks(samples: int, seed: int) -> list[CheckResult]:
    """E[(W(t)-W(s))(W(t)-W(r))^T] = (t - max(s,r)) I, m = 2."""
    checks = []
    m = 2
    rng = np.random.Generator(np.random.Philox(key=seed))
    for s, r, t in [(0.25, 0.5, 1.0), (0.5, 0.5, 1.0), (0.125, 0.875, 1.0)]:
        times = sorted({0.0, s, r, t})
        gaps = np.diff(times)
        values = {0.0: np.zeros((samples, m))}
        w = np.zeros((samples, m))
        for t_prev, gap in zip(times[1:], gaps):
            w = w + rng.standard_normal((samples, m)) * math.sqrt(gap)
            values[t_prev] = w
        inc_s = values[t] - values[s]
        inc_r = values[t] - values[r]
        target = t - max(s, r)
        worst_z = 0.0
        ok = True
        for i in range(m):
            for k in range(m):
                prod = inc_s[:, i] * inc_r[:, k]
                mean, se = _mean_and_se(prod)
                expect = target if i == k else 0.0
                z = (mean - expect) / se
                worst_z = max(worst_z, abs(z))
                ok = ok and abs(mean - expect) <= COVARIANCE_BAND * se
        checks.append(
            CheckResult(
                name=f"wiener_covariance[s={s},r={r},t={t}]",
                passed=ok,
                observed=worst_z,
                expected=0.0,
                band=COVARIANCE_BAND,
                detail="worst |z| over 2x2 components",
            )
        )
    return checks


def validate_statistics(samples: int = 100_000, seed: int = 20260814) -> ValidationReport:
    """Run every statistical and deterministic quadrature check.

    samples is the Monte Carlo sample count per check; each check draws
    its own counter-based stream derived from seed, so reports are
    reproducible.
    """
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    checks: list[CheckResult] = []
    checks.extend(_lemma_checks())
    checks.extend(_covariance_checks(samples, (seed << 8) + 1))
    checks.extend(_heat_defect_checks(samples, (seed << 8) + 16))
    checks.extend(_wave_micro_sum_checks(samples, (seed << 8) + 32))
    checks.extend(_wave_current_defect_checks(samples, (seed << 8) + 48))
    checks.extend(_wave_old_defect_checks(samples, (seed << 8) + 64))
    return ValidationReport(tuple(checks))
