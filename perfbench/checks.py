"""Output checks for the benchmark workloads, independent of the program.

Each check recomputes what it compares against from first principles and
returns a list of failure messages (empty when the output is right).
Nothing here is imported from the package or from its tests.
"""

from __future__ import annotations

import math

import numpy as np

HEAT_ROW_Z = 4.0  # rows within this many standard errors of the exact RMS error
HEAT_RATE_AGREEMENT = 0.15  # fitted rate within this of the exact rate, same window
HEAT_MCN_MIN_RATE = 1.35  # the paper's guaranteed 3/2, with the acceptance suite's slack
HEAT_EM_MAX_RATE = 1.05  # Euler-Maruyama is at most first order
WAVE_RATE_BAND = (1.8, 2.2)  # order 2 for the corrected wave scheme

# Benchmark problem layout: initial data on mode 1, one Wiener channel
# loading modes 2 and 3 with unit weight.
INITIAL_MODE = 1
NOISE_MODES = (2, 3)


def log2_slope(taus, errors) -> float:
    """Least-squares slope of log2(error) against log2(tau)."""
    return float(np.polyfit(np.log2(taus), np.log2(errors), 1)[0])


def grid_eigenvalue(k_nodes: int, mode: int) -> float:
    """Eigenvalue of the negative second-difference Laplacian on K interior nodes."""
    h = 1.0 / (k_nodes + 1)
    return 4.0 / h**2 * math.sin(0.5 * mode * math.pi * h) ** 2


def exact_heat_rms(scheme: str, exact_mode: str, k_nodes: int, n_steps: int) -> float:
    """sqrt(E ||X_N - X(1)||^2) of one desk heat row, computed without sampling.

    In eigenmode k the scheme's X_N is rho^N x0_k plus a Wiener integral of
    a kernel g that is constant on each of the N*M micro cells, and the
    exact solution is exp(-mu T) x0_k plus the integral of exp(-mu (T - s)).
    Per step, the noise enters through 1/(1 + lam tau) (em) or
    1/(1 + lam tau/2) (mcn).  The mcn micro-sum correction
    -lam (tau^2 sum_l W(t_{j,l}) - (tau/2)(W(t_j) + W(t_{j+1}))) puts
    weight 1 - lam (tau^2 (M - l + 1) - tau/2) on micro cell l.  The Ito
    isometry then gives the mean square in closed form, cell by cell.
    Sine modes have squared grid norm 1/2, hence the final factor.
    """
    tau = 1.0 / n_steps
    micro = n_steps  # M = 1/tau micro steps per coarse step at T = 1
    cell = tau * tau
    right_ends = cell * np.arange(1, n_steps * micro + 1)
    total = 0.0
    for mode in (INITIAL_MODE,) + NOISE_MODES:
        lam = grid_eigenvalue(k_nodes, mode)
        mu = (mode * math.pi) ** 2 if exact_mode == "continuous" else lam
        if scheme == "mcn":
            rho = (1.0 - 0.5 * lam * tau) / (1.0 + 0.5 * lam * tau)
            inject = 1.0 / (1.0 + 0.5 * lam * tau)
            ell = np.arange(1, micro + 1)
            cell_weight = 1.0 - lam * (cell * (micro - ell + 1) - 0.5 * tau)
        else:
            rho = 1.0 / (1.0 + lam * tau)
            inject = rho
            cell_weight = np.ones(micro)
        if mode == INITIAL_MODE:
            total += (rho**n_steps - math.exp(-mu)) ** 2
            continue
        step_weight = inject * rho ** np.arange(n_steps - 1, -1, -1)
        g = (step_weight[:, None] * cell_weight[None, :]).ravel()
        decay = np.exp(-mu * (1.0 - right_ends))
        int_kernel = decay * -math.expm1(-mu * cell) / mu
        int_kernel_sq = decay**2 * -math.expm1(-2.0 * mu * cell) / (2.0 * mu)
        total += float(np.sum(g * g * cell - 2.0 * g * int_kernel + int_kernel_sq))
    return math.sqrt(0.5 * total)


def _rows_are_well_formed(table, n_list) -> list[str]:
    problems = []
    if tuple(row.n_steps for row in table.rows) != tuple(n_list):
        problems.append(f"rows are for N = {[r.n_steps for r in table.rows]}, wanted {list(n_list)}")
        return problems
    for row in table.rows:
        if row.tau != 1.0 / row.n_steps:
            problems.append(f"N = {row.n_steps}: tau {row.tau!r} is not 1/N")
        if not (math.isfinite(row.rms_error) and row.rms_error > 0.0):
            problems.append(f"N = {row.n_steps}: rms error {row.rms_error!r}")
        if not (math.isfinite(row.standard_error) and row.standard_error > 0.0):
            problems.append(f"N = {row.n_steps}: standard error {row.standard_error!r}")
    return problems


def _fitted_rate(table, label: str) -> tuple[float | None, list[str]]:
    """The table's rate, recomputed from its rows over its own fit window."""
    window = [row for row in table.rows if row.n_steps in table.fit_range]
    if len(window) < 2:
        return None, [f"{label}: fit window {table.fit_range} has fewer than two rows"]
    rate = log2_slope([row.tau for row in window], [row.rms_error for row in window])
    if not abs(rate - table.fitted_rate) <= 1e-9 * max(1.0, abs(rate)):
        return rate, [f"{label}: reported rate {table.fitted_rate!r} but its rows give {rate!r}"]
    return rate, []


def check_heat(table, config) -> list[str]:
    """Rows within 4 SE of the exact RMS error; rate within 0.15 of the exact rate."""
    label = f"heat {config.scheme} {config.exact_mode}"
    problems = _rows_are_well_formed(table, config.n_list)
    if problems:
        return [f"{label}: {p}" for p in problems]
    exact = {
        row.n_steps: exact_heat_rms(config.scheme, config.exact_mode, config.k, row.n_steps)
        for row in table.rows
    }
    for row in table.rows:
        z = (row.rms_error - exact[row.n_steps]) / row.standard_error
        if abs(z) > HEAT_ROW_Z:
            problems.append(
                f"{label}: N = {row.n_steps} rms {row.rms_error:.6e} is {z:+.2f} SE "
                f"from the exact {exact[row.n_steps]:.6e}"
            )
    rate, fit_problems = _fitted_rate(table, label)
    problems += fit_problems
    if rate is None:
        return problems
    window = table.fit_range
    exact_rate = log2_slope([1.0 / n for n in window], [exact[n] for n in window])
    if abs(rate - exact_rate) > HEAT_RATE_AGREEMENT:
        problems.append(
            f"{label}: fitted rate {rate:.4f} is more than {HEAT_RATE_AGREEMENT} from the "
            f"exact rate {exact_rate:.4f} over N = {window}"
        )
    if config.scheme == "mcn" and rate < HEAT_MCN_MIN_RATE:
        problems.append(f"{label}: fitted rate {rate:.4f} below {HEAT_MCN_MIN_RATE}")
    if config.scheme == "em" and rate > HEAT_EM_MAX_RATE:
        problems.append(f"{label}: fitted rate {rate:.4f} above {HEAT_EM_MAX_RATE}")
    return problems


def check_wave(tables, config) -> list[str]:
    """Both norms: rows strictly decreasing in N and a fitted rate in [1.8, 2.2]."""
    problems = []
    if sorted(tables) != ["h1_displacement", "l2_velocity"]:
        return [f"wave: tables for norms {sorted(tables)}"]
    for norm, table in tables.items():
        label = f"wave {norm}"
        row_problems = _rows_are_well_formed(table, config.n_list)
        if row_problems:
            problems += [f"{label}: {p}" for p in row_problems]
            continue
        errors = [row.rms_error for row in table.rows]
        if any(b >= a for a, b in zip(errors, errors[1:])):
            problems.append(f"{label}: rms errors do not decrease strictly in N: {errors}")
        rate, fit_problems = _fitted_rate(table, label)
        problems += fit_problems
        lo, hi = WAVE_RATE_BAND
        if rate is not None and not lo <= rate <= hi:
            problems.append(f"{label}: fitted rate {rate:.4f} outside [{lo}, {hi}]")
    return problems


def validation_expectations() -> dict[str, tuple[float, str]]:
    """Every check validate_statistics must report: name -> (expected value, kind).

    kind says how observed, expected and band must relate for the check to
    pass: 'two_sided' |observed - expected| <= band, 'upper' observed <=
    expected + band, 'z' worst |z| (observed) <= band with expected 0.
    """
    out = {}
    for kappa, name in ((1.0, "1"), (0.5, "1/2"), (1.0 / 16.0, "1/16")):
        out[f"trapezoid_defect_sharpness[kappa={name}]"] = (kappa * kappa / 6.0, "two_sided")
    for s, r in ((0.25, 0.5), (0.5, 0.5), (0.125, 0.875)):
        out[f"wiener_covariance[s={s},r={r},t=1.0]"] = (0.0, "z")
    for n, m in ((8, 1), (8, 2), (16, 1), (16, 2)):
        out[f"heat_defect_moment[tau=1/{n},m={m}]"] = (m / 3.0 * (1.0 / n) ** 5, "two_sided")
    tau, micro = 1.0 / 8, 8
    for j, m in ((0, 1), (0, 2), (7, 1), (7, 2)):
        times = [j * tau + ell * tau * tau for ell in range(1, micro + 1)]
        double_sum = sum(min(a, b) for a in times for b in times)
        out[f"wave_micro_sum_moment[tau=1/8,j={j},m={m}]"] = (
            m * tau**8 / 4.0 * double_sum,
            "two_sided",
        )
    for m in (1, 2):
        out[f"wave_current_defect_bound[tau=1/8,m={m}]"] = (m * tau**6, "upper")
        out[f"wave_old_defect_bound[tau=1/8,j=4,m={m}]"] = (4 * tau * m * tau**5 / 3.0, "upper")
    return out


def check_validation(report) -> list[str]:
    """all_passed, the full set of checks, and expected values recomputed here."""
    problems = []
    if not report.all_passed:
        problems.append("validate: all_passed is false")
    wanted = validation_expectations()
    seen = {check.name: check for check in report.checks}
    missing = sorted(set(wanted) - set(seen))
    extra = sorted(set(seen) - set(wanted))
    if missing or extra or len(seen) != len(report.checks):
        problems.append(f"validate: missing checks {missing}, unexpected {extra}")
    for name, (expected, kind) in wanted.items():
        check = seen.get(name)
        if check is None:
            continue
        if not abs(check.expected - expected) <= 1e-12 * abs(expected):
            problems.append(f"{name}: expected {check.expected!r}, recomputed {expected!r}")
        band_limit = 0.5 * expected if kind != "z" else 4.0
        if not (math.isfinite(check.observed) and 0.0 < check.band <= band_limit):
            problems.append(f"{name}: observed {check.observed!r}, band {check.band!r}")
            continue
        if kind == "two_sided":
            holds = abs(check.observed - expected) <= check.band
        elif kind == "upper":
            holds = check.observed <= expected + check.band
        else:
            holds = abs(check.observed) <= check.band
        if not (holds and check.passed):
            problems.append(
                f"{name}: observed {check.observed:.6e} against expected {expected:.6e} "
                f"with band {check.band:.2e} ({kind}), reported passed={check.passed}"
            )
    return problems
