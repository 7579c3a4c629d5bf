"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to watch the verdict
lines stream; the full module takes a few minutes because it runs the
complete desk-scale studies and the 1e5-sample statistical checks.

Criteria 1-3 check the desk heat studies on two counts.  (a) The fitted
Monte Carlo rate agrees, within half the criterion's band width, with
the exact rate: the log-log slope, over the study's own fit window, of
the closed-form expected RMS error (`closed_form_rms_error`, no Monte
Carlo).  (b) The paper's promise holds: the corrected scheme reaches at
least order 3/2 and Euler-Maruyama stays at most order 1.  The 3/2 is a
guaranteed order, not a sharp one: on the smooth two-mode benchmark
noise the corrected scheme is second order once tau*lambda/2 < 1 for
the driven modes (semidiscrete local slopes 1.56, 1.82, 1.95, 1.99
from N = 16), and Euler-Maruyama is still pre-asymptotic in the desk
window (local slopes 0.47 to 0.88, tending to 1), so neither rate is
pinned to a fixed band.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcnspde import (
    WAVE_NOISE,
    NoiseBlock,
    SpatialGrid,
    TimeMesh,
    WienerPath,
    benchmark_heat_problem,
    benchmark_wave_problem,
    csv_text,
    desk_heat_config,
    desk_wave_config,
    dirichlet_eigenvalue,
    mcn_wave_step,
    run_heat,
    run_study,
    run_wave,
    run_study_tables,
    sample_path,
    validate_statistics,
    wave_energy,
)

SEED = 20260814
HEAT_MCN_CONTINUOUS = desk_heat_config(base_seed=SEED)
HEAT_EM_CONTINUOUS = desk_heat_config(scheme="em", base_seed=SEED)
HEAT_MCN_SEMIDISCRETE = desk_heat_config(exact_mode="semidiscrete", base_seed=SEED)


def verdict(criterion, ok, text):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {text}"
    print(line)
    return ok, line


def scheme_kernel(scheme, lam, n_steps, t_final=1.0):
    """Update factor rho and the kernel g of one eigenmode of the heat scheme.

    For noise loading phi on a mode with grid eigenvalue lam, the scheme's
    X_N in that mode is rho^N x0 + phi * sum_c g[c] dW_c, where c runs over
    the N*M micro cells in time order.  A step injects phi dW_j through
    1/(1 + lam tau/2) (mcn) or 1/(1 + lam tau) (em); the mcn micro-sum
    correction -lam (tau^2 sum_l W(t_{j,l}) - tau (W(t_j) + W(t_{j+1}))/2)
    adds -lam (tau^2 (M - l + 1) - tau/2) on micro cell l of its step.
    """
    tau = t_final / n_steps
    micro_count = round(1.0 / tau)
    if scheme == "mcn":
        rho = (1.0 - 0.5 * lam * tau) / (1.0 + 0.5 * lam * tau)
        inject = 1.0 / (1.0 + 0.5 * lam * tau)
        ell = np.arange(1, micro_count + 1)
        micro = 1.0 - lam * (tau * tau * (micro_count - ell + 1) - 0.5 * tau)
    else:
        rho = 1.0 / (1.0 + lam * tau)
        inject = rho
        micro = np.ones(micro_count)
    per_step = inject * rho ** np.arange(n_steps - 1, -1, -1)
    return rho, np.outer(per_step, micro).ravel()


def closed_form_rms_error(config, n_steps):
    """Exact sqrt(E ||X_N - X(T)||^2) of a benchmark heat study row, no Monte Carlo.

    E||e||^2 = 1/2 sum_k [x0_k^2 (rho_k^N - e^{-mu_k T})^2
                          + phi_k^2 int (g_k(s) - e^{-mu_k (T - s)})^2 ds],
    with x0 = sin(pi x), phi = noise_scale on modes 2 and 3, and each
    micro-cell integral done in closed form.
    """
    grid, t_final, scale = SpatialGrid(config.k), 1.0, config.noise_scale
    total = 0.0
    for k, x0, phi in ((1, 1.0, 0.0), (2, 0.0, scale), (3, 0.0, scale)):
        lam = dirichlet_eigenvalue(grid, k)
        mu = (k * math.pi) ** 2 if config.exact_mode == "continuous" else lam
        rho, g = scheme_kernel(config.scheme, lam, n_steps, t_final)
        cell = t_final / g.size
        decay_right = np.exp(-mu * (t_final - cell * np.arange(1, g.size + 1)))
        int_1 = decay_right * -math.expm1(-mu * cell) / mu
        int_2 = decay_right**2 * -math.expm1(-2.0 * mu * cell) / (2.0 * mu)
        noise = float(np.sum(g * g * cell - 2.0 * g * int_1 + int_2))
        total += x0**2 * (rho**n_steps - math.exp(-mu * t_final)) ** 2 + phi**2 * noise
    return math.sqrt(0.5 * total)


def wave_scheme_kernel(lam, n_steps):
    """Step matrix A and the per-cell kernel G of one eigenmode of the wave scheme.

    The scheme's step solves x' - x = (tau/2)(y' + y) + g and
    y' - y = -(tau lam/2)(x' + x) + w - lam v, that is
    P (x', y') = Q (x, y) + (g, w - lam v), with g, w and v the step's
    gap, increment and velocity sum times phi.  So for noise loading phi
    on the mode, (x_N, y_N) = A^N (x0, y0) + phi sum_c G[c] dW_c, c
    running over the N*M micro cells in time order, G shaped (N*M, 2).
    On micro cell l = 0..M-1 of step j the increment weighs 1, the gap
    tau^2 (M - l) - tau/2 and the velocity sum
    (tau^3/2) sum_{l' > l} (1 - 2 l' tau); every cell before step j is
    also loaded by the velocity sum of step j, through its -(tau^3/2) W(t_j).
    """
    tau, micro_count = 1.0 / n_steps, n_steps
    implicit = np.array([[1.0, -0.5 * tau], [0.5 * tau * lam, 1.0]])
    explicit = np.array([[1.0, 0.5 * tau], [-0.5 * tau * lam, 1.0]])
    step = np.linalg.solve(implicit, explicit)
    gap_load, increment_load = np.linalg.inv(implicit).T
    velocity_load = -lam * increment_load
    ell = np.arange(micro_count)
    gap = tau * tau * (micro_count - ell) - 0.5 * tau
    ahead = micro_count - ell  # the micro nodes l' = l+1..M after cell l
    velocity = 0.5 * tau**3 * (ahead - tau * (micro_count * (micro_count + 1) - ell * (ell + 1)))
    powers = [np.eye(2)]
    for _ in range(n_steps - 1):
        powers.append(step @ powers[-1])
    reach = np.array(powers[::-1])  # reach[j] = A^(N-1-j), (N, 2, 2)
    local = (
        increment_load[:, None] + np.outer(gap_load, gap) + np.outer(velocity_load, velocity)
    )  # (2, M)
    kernel = np.einsum("jab,bl->jla", reach, local)
    later = reach @ velocity_load  # (N, 2): the velocity load of each step at time 1
    tail = np.cumsum(later[::-1], axis=0)[::-1] - later  # sum over the steps after j
    kernel -= 0.5 * tau**3 * tail[:, None, :]
    return np.linalg.matrix_power(step, n_steps), kernel.reshape(-1, 2)


def closed_form_wave_mean_squares(config, n_steps):
    """Exact E||e||^2 of a benchmark wave study row in both norms, no Monte Carlo.

    The oracle is the exact semidiscrete solution: with omega = sqrt(lam),
    x(1) = cos(omega) x0 + (phi/omega) int sin(omega (1 - s)) dW and
    y(1) = -omega sin(omega) x0 + phi int cos(omega (1 - s)) dW.  Per
    mode, E e_x^2 = (deterministic error)^2 + phi^2 int (G_x(s) - f(s))^2 ds
    with f(s) = sin(omega (1 - s))/omega, and likewise for y with
    f(s) = cos(omega (1 - s)).  On each micro cell, of length h, G is
    constant, so the integral is h (G - mean f)^2 plus the variance of f
    on the cell, all in closed form.  Returns {norm: E||e||^2}, with
    ||e||^2 = (1/2) sum_k lam_k e_x,k^2 (H1) and (1/2) sum_k e_y,k^2 (L2
    velocity).
    """
    grid, scale = SpatialGrid(config.k), config.noise_scale
    h1 = l2 = 0.0
    for k, x0, phi in ((1, 1.0, 0.0), (2, 0.0, scale), (3, 0.0, scale)):
        lam = dirichlet_eigenvalue(grid, k)
        omega = math.sqrt(lam)
        power, kernel = wave_scheme_kernel(lam, n_steps)
        exact = np.array([math.cos(omega), -omega * math.sin(omega)]) * x0
        deterministic = power @ np.array([x0, 0.0]) - exact
        h = 1.0 / kernel.shape[0]
        ahead = 1.0 - h * np.arange(kernel.shape[0] + 1)  # 1 - s at the cell edges
        # cell means of sin(omega (1 - s))/omega and cos(omega (1 - s)), and their integrals
        # of the square over [0, 1]
        means = (
            np.diff(np.cos(omega * ahead)) / (omega * omega * h),
            -np.diff(np.sin(omega * ahead)) / (omega * h),
        )
        twice = math.sin(2.0 * omega) / (4.0 * omega)
        squares = ((0.5 - twice) / lam, 0.5 + twice)
        noise = [
            h * float(np.sum((kernel[:, a] - means[a]) ** 2))
            + squares[a]
            - h * float(np.sum(means[a] ** 2))
            for a in range(2)
        ]
        h1 += 0.5 * lam * (deterministic[0] ** 2 + phi**2 * noise[0])
        l2 += 0.5 * (deterministic[1] ** 2 + phi**2 * noise[1])
    return {"h1_displacement": h1, "l2_velocity": l2}


def closed_form_rate(config, fit_range):
    """Log-log slope of the closed-form RMS error over fit_range."""
    log_tau = np.log2([1.0 / n for n in fit_range])
    log_err = np.log2([closed_form_rms_error(config, n) for n in fit_range])
    return float(np.polyfit(log_tau, log_err, 1)[0])


def heat_rate_verdict(criterion, config, table, half_width, edge_ok, edge_text):
    """Verdict on (a) agreement with the exact rate and (b) the paper's edge."""
    rate = table.fitted_rate
    exact = closed_form_rate(config, table.fit_range)
    agree = abs(rate - exact) <= half_width
    return verdict(
        criterion,
        agree and edge_ok,
        f"heat {config.scheme} {config.exact_mode} fitted rate {rate:.4f}, exact rate "
        f"{exact:.4f}, band [{exact - half_width:.4f}, {exact + half_width:.4f}] "
        f"{'ok' if agree else 'missed'}, paper edge {edge_text} "
        f"{'ok' if edge_ok else 'missed'} (fit range {table.fit_range})",
    )


@pytest.fixture(scope="session")
def heat_mcn_continuous():
    return run_study(HEAT_MCN_CONTINUOUS)


@pytest.fixture(scope="session")
def heat_em_continuous():
    return run_study(HEAT_EM_CONTINUOUS)


@pytest.fixture(scope="session")
def heat_mcn_semidiscrete():
    return run_study(HEAT_MCN_SEMIDISCRETE)


@pytest.fixture(scope="session")
def wave_tables():
    return run_study_tables(desk_wave_config(base_seed=SEED))


@pytest.fixture(scope="session")
def statistics_report():
    return validate_statistics(samples=100_000, seed=SEED)


def checks_named(report, prefix):
    found = [c for c in report.checks if c.name.startswith(prefix)]
    assert found, f"no validation checks named {prefix}*"
    return found


def test_closed_form_kernel_is_the_schemes_linear_map():
    """Unit increments on single micro cells reproduce g_k in modes 2 and 3: one chunk, path c
    a unit increment on cell c."""
    grid, mesh = SpatialGrid(40), TimeMesh(8)
    cells = mesh.N * mesh.M
    problem = benchmark_heat_problem(grid, mesh)
    increments = np.eye(cells)[:, :, None]
    cumulative = np.concatenate([np.zeros((cells, 1, 1)), np.cumsum(increments, axis=1)], axis=1)
    for scheme in ("mcn", "em"):
        kernels = {
            k: scheme_kernel(scheme, dirichlet_eigenvalue(grid, k), mesh.N)[1] for k in (2, 3)
        }
        x_end = run_heat(problem, WienerPath(increments, cumulative), scheme)
        for c in range(cells):
            for k, g in kernels.items():
                # run_heat gives the amplitude of sin(k pi x) directly, path c in column c
                assert abs(x_end[k - 1, c] - g[c]) <= 1e-12, (scheme, k, c)


def test_closed_form_wave_kernel_is_the_schemes_linear_map():
    """Unit increments on single micro cells reproduce the wave kernel G in modes 2 and 3, and
    a silent march the step power: one chunk, path c a unit increment on cell c."""
    grid, mesh = SpatialGrid(40), TimeMesh(8)
    cells = mesh.N * mesh.M
    problem = benchmark_wave_problem(grid, mesh)
    increments = np.eye(cells)[:, :, None]
    cumulative = np.concatenate([np.zeros((cells, 1, 1)), np.cumsum(increments, axis=1)], axis=1)
    x_end, y_end = run_wave(problem, WienerPath(increments, cumulative))
    for k in (1, 2, 3):
        power, kernel = wave_scheme_kernel(dirichlet_eigenvalue(grid, k), mesh.N)
        # run_wave gives the amplitudes of sin(k pi x) directly, path c in column c
        start = power[:, 0] if k == 1 else np.zeros(2)
        ends = np.stack([x_end[k - 1], y_end[k - 1]], axis=1) - start
        assert np.abs(ends - (0.0 if k == 1 else kernel)).max() <= 1e-12, k


def test_desk_wave_rows_sit_on_the_closed_form():
    """At 2000 realizations every desk wave row, in both norms, lies within 4 SE of the
    closed form: the window law and its exact oracle leave the rows unbiased."""
    config = desk_wave_config(base_seed=SEED, mc_count=2000)
    tables = run_study_tables(config)
    exact = {n: closed_form_wave_mean_squares(config, n) for n in config.n_list}
    for norm, table in tables.items():
        for row in table.rows:
            rms = math.sqrt(exact[row.n_steps][norm])
            assert abs(row.rms_error - rms) <= 4.0 * row.standard_error, (norm, row, rms)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(HEAT_MCN_CONTINUOUS, id="mcn-continuous"),
        pytest.param(HEAT_EM_CONTINUOUS, id="em-continuous"),
        pytest.param(HEAT_MCN_SEMIDISCRETE, id="mcn-semidiscrete"),
    ],
)
def test_desk_heat_rows_sit_on_the_closed_form(config):
    """At 2000 realizations every desk heat row lies within 4 SE of closed_form_rms_error:
    the window law and its exact oracle leave the rows unbiased."""
    table = run_study(dataclasses.replace(config, mc_count=2000))
    for row in table.rows:
        exact = closed_form_rms_error(config, row.n_steps)
        assert abs(row.rms_error - exact) <= 4.0 * row.standard_error, (row, exact)


def test_criterion_1_heat_mcn_rate(heat_mcn_continuous):
    rate = heat_mcn_continuous.fitted_rate
    ok, line = heat_rate_verdict(
        1, HEAT_MCN_CONTINUOUS, heat_mcn_continuous, 0.15, rate >= 1.35, ">= 1.35"
    )
    assert ok, line


def test_criterion_2_heat_em_rate(heat_em_continuous):
    rate = heat_em_continuous.fitted_rate
    ok, line = heat_rate_verdict(
        2, HEAT_EM_CONTINUOUS, heat_em_continuous, 0.15, rate <= 1.05, "<= 1.05"
    )
    assert ok, line


def test_criterion_3_heat_mcn_semidiscrete_rate(heat_mcn_semidiscrete):
    rate = heat_mcn_semidiscrete.fitted_rate
    ok, line = heat_rate_verdict(
        3, HEAT_MCN_SEMIDISCRETE, heat_mcn_semidiscrete, 0.10, rate >= 1.40, ">= 1.40"
    )
    assert ok, line


def test_criterion_4_wave_rates(wave_tables):
    lo, hi = 1.8, 2.2
    rates = {norm: t.fitted_rate for norm, t in wave_tables.items()}
    ok_all = all(lo <= r <= hi for r in rates.values())
    detail = ", ".join(f"{norm} {r:.4f}" for norm, r in rates.items())
    ok, line = verdict(4, ok_all, f"wave fitted rates {detail} vs [{lo}, {hi}]")
    assert ok, line


def test_criterion_5_micro_defect_moments(statistics_report):
    checks = checks_named(statistics_report, "heat_defect_moment")
    assert len(checks) == 4  # tau in {1/8, 1/16} x m in {1, 2}
    ok_all = all(c.passed for c in checks)
    detail = "; ".join(c.detail for c in checks)
    ok, line = verdict(5, ok_all, f"defect second moment vs (m/3)tau^5, 3 SE ({detail})")
    assert ok, line


def test_criterion_6_wave_defect_bounds(statistics_report):
    micro = checks_named(statistics_report, "wave_micro_sum_moment")
    current = checks_named(statistics_report, "wave_current_defect_bound")
    old = checks_named(statistics_report, "wave_old_defect_bound")
    ok_all = all(c.passed for c in micro + current + old)
    ok, line = verdict(
        6,
        ok_all,
        f"wave micro-sum moment ({len(micro)} checks, 3 SE), current-interval "
        f"bound ({len(current)}), past-interval bound ({len(old)})",
    )
    assert ok, line


def test_criterion_7_trapezoid_sharpness(statistics_report):
    checks = checks_named(statistics_report, "trapezoid_defect_sharpness")
    assert len(checks) == 3  # kappa in {1, 1/2, 1/16}
    ok_all = all(c.passed for c in checks)
    worst = max(abs(c.observed - c.expected) / c.expected for c in checks)
    ok, line = verdict(
        7, ok_all, f"trapezoid defect = kappa^2/6 = bound, worst rel dev {worst:.2e}"
    )
    assert ok, line


def test_criterion_8_deterministic_orders():
    cn = run_study(
        desk_heat_config(
            noise_scale=0.0, exact_mode="semidiscrete", mc_count=1, base_seed=SEED
        )
    )
    em = run_study(
        desk_heat_config(
            scheme="em",
            noise_scale=0.0,
            exact_mode="semidiscrete",
            mc_count=1,
            base_seed=SEED,
            n_list=(512, 1024, 2048, 4096),
        )
    )
    grid = SpatialGrid(40)
    mesh = TimeMesh(256)
    problem = benchmark_wave_problem(grid, mesh, noise_scale=0.0)
    block = NoiseBlock.empty(mesh, 1, 1, WAVE_NOISE)
    block.put(0, sample_path(SEED, mesh, m=1))
    x, y = problem.initial_displacement, problem.initial_velocity
    e0 = wave_energy(problem, x, y)
    drift = 0.0
    for j in range(mesh.N):
        x, y = mcn_wave_step(problem, x, y, block, j)
        drift = max(drift, abs(wave_energy(problem, x[:, 0], y[:, 0]) - e0) / e0)

    cn_ok = 1.9 <= cn.fitted_rate <= 2.1
    em_ok = 0.9 <= em.fitted_rate <= 1.1
    energy_ok = drift <= 1e-9
    ok, line = verdict(
        8,
        cn_ok and em_ok and energy_ok,
        f"silent-noise cn rate {cn.fitted_rate:.4f} vs [1.9, 2.1], "
        f"em rate {em.fitted_rate:.4f} vs [0.9, 1.1] (asymptotic window "
        f"{em.fit_range}), wave energy drift {drift:.2e} <= 1e-9",
    )
    assert ok, line


def test_criterion_9_byte_identical_output():
    config = desk_heat_config(n_list=(8, 16, 32), mc_count=8, base_seed=SEED)
    first = csv_text(run_study(config))
    second = csv_text(run_study(config))
    parallel = csv_text(run_study(dataclasses.replace(config, workers=2)))
    ok, line = verdict(
        9,
        first == second and first == parallel,
        f"identical configs give byte-identical CSV ({len(first.encode())} bytes), "
        "workers 1 and 2 agree",
    )
    assert ok, line


def test_criterion_10_covariance_identity(statistics_report):
    checks = checks_named(statistics_report, "wiener_covariance")
    assert len(checks) == 3
    ok_all = all(c.passed for c in checks)
    worst = max(c.observed for c in checks)
    ok, line = verdict(
        10, ok_all, f"covariance (t - max(s, r)) I within 4 SE, worst |z| {worst:.2f}"
    )
    assert ok, line
