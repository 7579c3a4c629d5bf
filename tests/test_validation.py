"""Validation kernels against brute-force per-path quadratures and closed forms."""

import math

import numpy as np
import pytest

from mcnspde import (
    CheckResult,
    TimeMesh,
    ValidationReport,
    holder_trapezoid_bound,
    sample_path,
    trapezoid_defect,
    validate_statistics,
    wave_micro_sum_moment_exact,
)
from mcnspde.validation import (
    _cumulative_block,
    _wave_micro_sum_kernel,
    heat_defect_block,
    wave_current_defect_block,
)


def path_as_block(path):
    """View one sampled path as a (1, S+1, m) cumulative block."""
    return path.cumulative[None, :, :]


def value_at(path, t):
    """W(t) by a float lookup of the master node at time t: the brute-force reference."""
    k = round(t / path.delta)
    assert abs(t - k * path.delta) <= 1e-12
    return path.cumulative[k]


def test_trapezoid_defect_quadratic_sharpness():
    for kappa in (1.0, 0.5, 1.0 / 16.0):
        defect = trapezoid_defect(lambda t: t * t, 0.0, kappa)
        assert defect == pytest.approx(kappa * kappa / 6.0, rel=1e-12)
        assert holder_trapezoid_bound(2.0, 1.0, kappa) == pytest.approx(
            kappa * kappa / 6.0, rel=1e-15
        )


def test_trapezoid_defect_exact_small_cases():
    # affine functions are integrated exactly by the trapezoid rule
    assert trapezoid_defect(lambda t: 3 * t - 1, 0.3, 0.5) == pytest.approx(0.0, abs=1e-15)
    # cubic on [0, kappa]: trap = kappa^3/2, mean = kappa^3/4, defect = kappa^3/4
    kappa = 0.25
    assert trapezoid_defect(lambda t: t**3, 0.0, kappa) == pytest.approx(
        kappa**3 / 4.0, rel=1e-13
    )
    with pytest.raises(ValueError):
        trapezoid_defect(lambda t: t, 0.0, 0.0)


def test_heat_defect_block_matches_per_path_quadrature():
    """Batched defect equals a literal left-point integral minus the micro sum."""
    mesh = TimeMesh(4)
    path = sample_path(301, mesh, m=2, master_steps=256)
    block = heat_defect_block(path_as_block(path), mesh, path.delta)
    assert block.shape == (1, mesh.N, 2)
    per_interval = 256 // mesh.N
    tau = mesh.tau
    for j in range(mesh.N):
        integral = sum(
            path.delta * path.cumulative[j * per_interval + a] for a in range(per_interval)
        )
        micro_sum = sum(
            tau * tau * value_at(path, mesh.micro_time(j, ell)) for ell in range(1, mesh.M + 1)
        )
        np.testing.assert_allclose(block[0, j], integral - micro_sum, rtol=1e-12, atol=1e-16)


def test_wave_current_defect_block_brute_force():
    """Batched kernel equals the literal weighted sum over master cells."""
    mesh = TimeMesh(2)
    path = sample_path(303, mesh, m=2, master_steps=64)
    delta = path.delta
    tau, micro = mesh.tau, mesh.M
    stride_micro = 64 // (mesh.N * micro)
    got = wave_current_defect_block(path_as_block(path), mesh, delta)
    for j in range(mesh.N):
        t_next = mesh.coarse_time(j + 1)
        expected = np.zeros(2)
        for ell in range(1, micro + 1):
            right = value_at(path, mesh.micro_time(j, ell))
            cell_start = mesh.micro_time(j, ell) - tau * tau
            for a in range(stride_micro):
                s = cell_start + a * delta
                expected += delta * (t_next - s) * (value_at(path, s) - right)
        np.testing.assert_allclose(got[0, j], expected, rtol=1e-11, atol=1e-16)


def test_wave_micro_sum_kernel_matches_path_values():
    mesh = TimeMesh(4)
    path = sample_path(305, mesh, m=2, master_steps=256)
    got = _wave_micro_sum_kernel(path_as_block(path), mesh, path.delta)
    for j in range(mesh.N):
        micro = [value_at(path, mesh.micro_time(j, ell)) for ell in range(1, mesh.M + 1)]
        expected = 0.5 * mesh.tau**4 * sum(micro)
        np.testing.assert_allclose(got[0, j], expected, rtol=1e-13)


def test_wave_micro_sum_moment_small_monte_carlo():
    mesh = TimeMesh(8)
    j, m = 7, 1
    rng = np.random.Generator(np.random.Philox(key=777))
    steps = mesh.N * mesh.M
    n_paths = 40_000
    block = _cumulative_block(rng, n_paths, steps, m, mesh.T / steps)
    vals = _wave_micro_sum_kernel(block, mesh, mesh.T / steps)[:, j, :]
    sq = (vals**2).sum(axis=1)
    se = sq.std(ddof=1) / math.sqrt(n_paths)
    assert abs(sq.mean() - wave_micro_sum_moment_exact(mesh, j, m)) <= 3 * se


def test_cumulative_block_layout():
    rng = np.random.Generator(np.random.Philox(key=11))
    block = _cumulative_block(rng, 3, 16, 2, delta=0.0625)
    assert block.shape == (3, 17, 2)
    np.testing.assert_array_equal(block[:, 0, :], 0.0)
    # cumulative sums reconstruct their own increments
    inc = np.diff(block, axis=1)
    np.testing.assert_allclose(block[:, 1:, :], np.cumsum(inc, axis=1), rtol=1e-12)


def test_check_result_line_format():
    ok = CheckResult("demo_check", True, 1.0, 1.0, 0.1)
    assert ok.line().startswith("PASS  demo_check: observed=1.00000000e+00")
    bad = CheckResult("other", False, 2.0, 1.0, 0.1, detail="z=+9.99")
    line = bad.line()
    assert line.startswith("FAIL  other:")
    assert line.endswith("[z=+9.99]")


def test_validation_report_aggregation():
    ok = CheckResult("a", True, 0.0, 0.0, 1.0)
    bad = CheckResult("b", False, 9.0, 0.0, 1.0)
    report = ValidationReport((ok, bad, ok))
    assert not report.all_passed
    assert report.failures() == (bad,)
    text = report.text()
    assert "2/3 checks passed, 1 FAILED" in text
    clean = ValidationReport((ok, ok))
    assert clean.all_passed
    assert clean.text().strip().endswith("2/2 checks passed")


def test_validate_statistics_structure_and_reproducibility():
    report = validate_statistics(samples=2000, seed=7)
    names = [c.name for c in report.checks]
    assert len(names) == 18
    prefixes = (
        "trapezoid_defect_sharpness",
        "wiener_covariance",
        "heat_defect_moment",
        "wave_micro_sum_moment",
        "wave_current_defect_bound",
        "wave_old_defect_bound",
    )
    for prefix in prefixes:
        assert any(n.startswith(prefix) for n in names), prefix
    again = validate_statistics(samples=2000, seed=7)
    assert [c.observed for c in again.checks] == [c.observed for c in report.checks]
    # different seed moves the statistical observations
    moved = validate_statistics(samples=2000, seed=8)
    stat_idx = [i for i, n in enumerate(names) if not n.startswith("trapezoid")]
    assert any(
        moved.checks[i].observed != report.checks[i].observed for i in stat_idx
    )


def test_validate_statistics_small_run_passes_at_pinned_seed():
    report = validate_statistics(samples=4000, seed=7)
    assert report.all_passed, report.text()


def test_validate_statistics_argument_validation():
    with pytest.raises(ValueError):
        validate_statistics(samples=1)
    with pytest.raises(ValueError):
        validate_statistics(samples=100, seed=-1)
