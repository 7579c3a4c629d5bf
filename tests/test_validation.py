"""Validation kernels against literal per-cell loops and closed forms."""

import math

import numpy as np
import pytest

from mcnspde import (
    CheckResult,
    TimeMesh,
    ValidationReport,
    holder_trapezoid_bound,
    trapezoid_defect,
    validate_statistics,
    wave_micro_sum_moment_exact,
)
from mcnspde import validation
from mcnspde.validation import (
    _cell_block,
    _old_defect_kernel,
    _squared_norms,
    _wave_micro_sum_kernel,
    heat_defect_block,
    wave_current_defect_block,
)


def cell_block(key, n_paths, mesh, m, intervals=None, moments=3, path=True):
    rng = np.random.Generator(np.random.Philox(key=key))
    return _cell_block(rng, n_paths, mesh, m, intervals, moments, path)


def micro_node(block, mesh, j, ell):
    """W(t_{j,l}) of every row, by its index j*M + l on the micro grid."""
    return block[:, j * mesh.M + ell]


def m_last_block(rng, n_paths, mesh, m, intervals, moments):
    """A chunk in the m-last layout, block (n, K*M+1, m) and cells (n, K, M, m), with the
    stream order and the arithmetic of _cell_block: the reference for its row layout."""
    h, start, count = mesh.tau**2, intervals.start, len(intervals)
    lead = m if start else 0
    normals = rng.standard_normal((n_paths, lead + moments * count * mesh.M * m))
    z = np.moveaxis(normals[:, lead:].reshape(n_paths, moments, count, mesh.M, m), 1, 0)
    cells = (math.sqrt(h) * z[0],)
    if moments > 1:
        cells += (h**1.5 * (z[0] / 2 + z[1] / (2 * math.sqrt(3))),)
    if moments > 2:
        cells += (h**2.5 * (z[0] / 3 + z[1] / (4 * math.sqrt(3)) + z[2] / (12 * math.sqrt(5))),)
    block = np.empty((n_paths, count * mesh.M + 1, m))
    block[:, 0] = math.sqrt(start * mesh.tau) * normals[:, :m] if start else 0.0
    block[:, 1:] = cells[0].reshape(n_paths, -1, m)
    return np.cumsum(block, axis=1, out=block), cells


def m_last_samples(key, mesh, m, samples, draw):
    """_kernel_samples by m_last_block, all paths in one block and no chunks.

    The kernel runs on one component at a time, so each of its sums over
    cells runs in the order it runs in along a row, and the squares of
    the components are added in component order.
    """
    kernel, per_path, intervals, moments, _ = draw
    rng = np.random.Generator(np.random.Philox(key=key))
    block, cells = m_last_block(rng, -(-samples // per_path), mesh, m, intervals, moments)
    squares = 0.0
    for c in range(m):
        values = kernel(block[..., c : c + 1], mesh, tuple(cell[..., c : c + 1] for cell in cells))
        squares = squares + values[..., 0] ** 2
    return squares.ravel()[:samples]


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
    """Batched defect equals a literal per-cell sum of exact cell integrals minus the micro sum."""
    mesh = TimeMesh(4)
    block, cells = cell_block(301, 3, mesh, 2)
    i1 = cells[1]
    got = heat_defect_block(block, mesh, cells)
    assert got.shape == (3 * 2, mesh.N, 1)
    h = mesh.tau**2
    for j in range(mesh.N):
        integral = micro_sum = 0.0
        for ell in range(1, mesh.M + 1):
            integral = integral + h * micro_node(block, mesh, j, ell - 1) + i1[:, j, ell - 1]
            micro_sum = micro_sum + h * micro_node(block, mesh, j, ell)
        np.testing.assert_allclose(got[:, j], integral - micro_sum, rtol=1e-12, atol=1e-16)


def test_wave_current_defect_block_brute_force():
    """Batched kernel equals the literal per-cell sum of a_l I1 - I2 - dW (a_l h - h^2/2)."""
    mesh = TimeMesh(4)
    block, cells = cell_block(303, 3, mesh, 2)
    increments, i1, i2 = cells
    got = wave_current_defect_block(block, mesh, cells)
    h = mesh.tau**2
    for j in range(mesh.N):
        expected = 0.0
        for ell in range(1, mesh.M + 1):
            a = mesh.coarse_time(j + 1) - mesh.micro_time(j, ell - 1)
            c = ell - 1
            expected = expected + (
                a * i1[:, j, c] - i2[:, j, c] - increments[:, j, c] * (a * h - h * h / 2)
            )
        np.testing.assert_allclose(got[:, j], expected, rtol=1e-12, atol=1e-18)


def test_wave_current_defect_linear_path_gauss_quadrature():
    """W(t) = t: the kernel equals Gauss quadrature of (t_{j+1} - s)(s - t_{j,l}) per cell."""
    mesh = TimeMesh(4)
    h = mesh.tau**2
    block = h * np.arange(mesh.N * mesh.M + 1.0)[None, :, None]
    cells = tuple(np.full((1, mesh.N, mesh.M, 1), h**p / p) for p in (1, 2, 3))
    got = wave_current_defect_block(block, mesh, cells)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    for j in range(mesh.N):
        expected = 0.0
        for ell in range(1, mesh.M + 1):
            left, right = mesh.micro_time(j, ell - 1), mesh.micro_time(j, ell)
            s = left + 0.5 * h * (nodes + 1.0)
            integrand = (mesh.coarse_time(j + 1) - s) * (s - right)
            expected += 0.5 * h * float(weights @ integrand)
        assert got[0, j, 0] == pytest.approx(expected, rel=1e-12)


def test_wave_micro_sum_kernel_matches_path_values():
    mesh = TimeMesh(4)
    block, _ = cell_block(305, 3, mesh, 2)
    got = _wave_micro_sum_kernel(block, mesh)
    for j in range(mesh.N):
        micro = [micro_node(block, mesh, j, ell) for ell in range(1, mesh.M + 1)]
        expected = 0.5 * mesh.tau**4 * sum(micro)
        np.testing.assert_allclose(got[:, j], expected, rtol=1e-13)


def test_wave_micro_sum_moment_small_monte_carlo():
    mesh = TimeMesh(8)
    j, m = 7, 1
    n_paths = 40_000
    block, _ = cell_block(777, n_paths, mesh, m, range(j, j + 1), 1)
    vals = _wave_micro_sum_kernel(block, mesh)[:, 0, :]
    sq = (vals**2).sum(axis=1)
    se = sq.std(ddof=1) / math.sqrt(n_paths)
    assert abs(sq.mean() - wave_micro_sum_moment_exact(mesh, j, m)) <= 3 * se


def test_cell_block_layout():
    """One row per (path, component), each array contiguous along its cells."""
    mesh = TimeMesh(4)
    block, (increments, i1, i2) = cell_block(11, 3, mesh, 2)
    assert block.shape == (3 * 2, mesh.N * mesh.M + 1, 1)
    for cell in (block, increments, i1, i2):
        assert cell.flags.c_contiguous
    for cell in (increments, i1, i2):
        assert cell.shape == (3 * 2, mesh.N, mesh.M, 1)
    np.testing.assert_array_equal(block[:, 0, :], 0.0)
    # the micro-grid values are the running sums of the cell increments
    np.testing.assert_array_equal(
        block[:, 1:, :], np.cumsum(increments.reshape(3 * 2, -1, 1), axis=1)
    )
    none, cells = cell_block(11, 3, mesh, 2, path=False)
    assert none is None
    for cell, drawn in zip(cells, (increments, i1, i2)):
        np.testing.assert_array_equal(cell, drawn)


def test_cell_block_rows_hold_the_stream_components_in_order():
    """Row i*m + c holds component c of path i: every value against the stream, read by a
    literal loop over (path, component, moment, interval, cell)."""
    mesh, m, n_paths, intervals = TimeMesh(4), 2, 3, range(1, 3)
    h, count = mesh.tau**2, len(intervals)
    block, cells = cell_block(19, n_paths, mesh, m, intervals)
    stream = np.random.Generator(np.random.Philox(key=19))
    normals = stream.standard_normal((n_paths, m + 3 * count * mesh.M * m))
    for i in range(n_paths):
        for c in range(m):
            row = i * m + c
            assert block[row, 0, 0] == math.sqrt(mesh.tau) * normals[i, c]
            for j in range(count):
                for ell in range(mesh.M):
                    z = [normals[i, m + ((k * count + j) * mesh.M + ell) * m + c] for k in range(3)]
                    assert cells[0][row, j, ell, 0] == math.sqrt(h) * z[0]
                    i1 = h**1.5 * (z[0] / 2 + z[1] / (2 * math.sqrt(3)))
                    assert cells[1][row, j, ell, 0] == i1
                    i2 = z[0] / 3 + z[1] / (4 * math.sqrt(3)) + z[2] / (12 * math.sqrt(5))
                    assert cells[2][row, j, ell, 0] == h**2.5 * i2


def test_cell_block_covariance_is_the_exact_law():
    """(dW, I1, I2) on a cell of length h: sample covariance within 4 SE of the closed form."""
    mesh = TimeMesh(4)
    h = mesh.tau**2
    exact = np.array(
        [
            [h, h**2 / 2, h**3 / 3],
            [h**2 / 2, h**3 / 3, 5 * h**4 / 24],
            [h**3 / 3, 5 * h**4 / 24, 2 * h**5 / 15],
        ]
    )
    _, cells = cell_block(13, 5_000, mesh, 1)
    draws = np.stack([c.ravel() for c in cells])  # (3, 80_000) independent cells
    for a in range(3):
        for b in range(3):
            prod = draws[a] * draws[b]
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            assert abs(prod.mean() - exact[a, b]) <= 4 * se, (a, b)


def test_old_defect_kernel_is_tau_times_the_summed_heat_defects():
    """The past-interval kernel, read from (dW, I1) alone, equals tau times the summed defects,
    and needs no block."""
    mesh = TimeMesh(4)
    block, cells = cell_block(307, 3, mesh, 2, moments=2)
    got = _old_defect_kernel(None, mesh, cells)
    assert got.shape == (3 * 2, 1, 1)
    expected = mesh.tau * heat_defect_block(block, mesh, cells).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-15)
    np.testing.assert_array_equal(got, _old_defect_kernel(block, mesh, cells))


def test_squared_norms_add_each_paths_rows():
    """Row i*m + c is component c of path i: its squares go to path i, outputs in order."""
    values = np.arange(1.0, 13.0).reshape(2 * 3, 2, 1)  # 2 paths, m = 3, 2 outputs
    squares = values[..., 0] ** 2
    expected = [squares[0:3, 0].sum(), squares[0:3, 1].sum()]
    expected += [squares[3:6, 0].sum(), squares[3:6, 1].sum()]
    np.testing.assert_array_equal(_squared_norms(values, 3), expected)


def test_partial_cell_block_has_the_exact_law():
    """A block of interval j > 0 alone: W(t_j), W(t_{j,l}) and (dW, I1) within 4 SE of the law."""
    mesh = TimeMesh(4)
    j, h, M, n_paths = 2, mesh.tau**2, mesh.M, 20_000
    block, (increments, i1) = cell_block(17, n_paths, mesh, 1, range(j, j + 1), 2)
    assert block.shape == (n_paths, M + 1, 1)
    assert increments.shape == i1.shape == (n_paths, 1, M, 1)
    steps = np.cumsum(increments.reshape(n_paths, M, 1), axis=1)
    np.testing.assert_allclose(block[:, 1:], block[:, :1] + steps, rtol=1e-12, atol=1e-15)
    # W(t_{j,a}), a = 0..M, holds cell c (dW_c and I1_c) exactly when a > c.
    times = mesh.coarse_time(j) + h * np.arange(M + 1)
    holds, eye = (np.arange(M + 1)[:, None] > np.arange(M)).astype(float), np.eye(M)
    exact = np.block(
        [
            [np.minimum.outer(times, times), h * holds, h**2 / 2 * holds],
            [h * holds.T, h * eye, h**2 / 2 * eye],
            [h**2 / 2 * holds.T, h**2 / 2 * eye, h**3 / 3 * eye],
        ]
    )
    draws = np.concatenate([block[..., 0], increments[:, 0, :, 0], i1[:, 0, :, 0]], axis=1)
    for a in range(len(exact)):
        for b in range(a + 1):
            prod = draws[:, a] * draws[:, b]
            se = prod.std(ddof=1) / math.sqrt(n_paths)
            assert abs(prod.mean() - exact[a, b]) <= 4 * se, (a, b)


def test_each_moment_check_draws_only_what_its_kernel_reads(monkeypatch):
    """Normals per sample of the twelve moment checks, in report order."""
    drawn = []
    original = validation._cell_block

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            normals = self.rng.standard_normal(size)
            drawn.append(normals.size)
            return normals

    def counting_block(rng, *args):
        return original(CountingGenerator(rng), *args)

    monkeypatch.setattr(validation, "_cell_block", counting_block)
    samples = 16  # one chunk per check, a whole number of paths in each
    names = [check.name for check in validation._moment_checks(samples, seed=7)]
    assert len(names) == len(drawn) == 12
    per_sample = dict(zip(names, (count / samples for count in drawn)))
    assert per_sample == {
        # every interval, (dW, I1): 2 N M m normals per path, N samples
        "heat_defect_moment[tau=1/8,m=1]": 16,
        "heat_defect_moment[tau=1/8,m=2]": 32,
        "heat_defect_moment[tau=1/16,m=1]": 32,
        "heat_defect_moment[tau=1/16,m=2]": 64,
        # W(t_j) when j > 0 and dW on interval j: (M + [j > 0]) m
        "wave_micro_sum_moment[tau=1/8,j=0,m=1]": 8,
        "wave_micro_sum_moment[tau=1/8,j=0,m=2]": 16,
        "wave_micro_sum_moment[tau=1/8,j=7,m=1]": 9,
        "wave_micro_sum_moment[tau=1/8,j=7,m=2]": 18,
        # every interval, (dW, I1, I2): 3 N M m per path, N samples
        "wave_current_defect_bound[tau=1/8,m=1]": 24,
        "wave_current_defect_bound[tau=1/8,m=2]": 48,
        # intervals 0..3, (dW, I1): 2 * 4 M m
        "wave_old_defect_bound[tau=1/8,j=4,m=1]": 64,
        "wave_old_defect_bound[tau=1/8,j=4,m=2]": 128,
    }


@pytest.mark.parametrize("chunk_elements", [validation._CHUNK_ELEMENTS, 1 << 12])
def test_moment_samples_match_the_m_last_reference(monkeypatch, chunk_elements):
    """Each of the twelve checks' per-sample squared norms equals, bit for bit, the m-last
    reference drawn in one block, at two chunk sizes."""
    monkeypatch.setattr(validation, "_CHUNK_ELEMENTS", chunk_elements)
    calls = []
    original = validation._kernel_samples

    def recording(key, mesh, m, samples, draw):
        got = original(key, mesh, m, samples, draw)
        calls.append((got, m_last_samples(key, mesh, m, samples, draw)))
        return got

    monkeypatch.setattr(validation, "_kernel_samples", recording)
    validation._moment_checks(3000, seed=5)
    assert len(calls) == 12
    for got, expected in calls:
        assert got.shape == expected.shape == (3000,)
        np.testing.assert_array_equal(got, expected)


def test_traced_kernels_get_blocks_of_rows_nodes_and_one(monkeypatch):
    """heat_defect_block and wave_current_defect_block, the kernels a tracer wraps and reads
    block.shape of, get a 3-D (paths * m, nodes, 1) block on every call."""
    shapes = []

    def spy(kernel):
        def call(block, mesh, cells):
            shapes.append((kernel.__name__, block.shape))
            return kernel(block, mesh, cells)

        return call

    for name in ("heat_defect_block", "wave_current_defect_block"):
        monkeypatch.setattr(validation, name, spy(getattr(validation, name)))
    validation._moment_checks(16, seed=7)  # one chunk per check
    assert shapes == [
        ("heat_defect_block", (2, 65, 1)),  # 16 samples are 2 paths of N = 8
        ("heat_defect_block", (4, 65, 1)),
        ("heat_defect_block", (1, 257, 1)),  # 1 path of N = 16
        ("heat_defect_block", (2, 257, 1)),
        ("wave_current_defect_block", (2, 65, 1)),
        ("wave_current_defect_block", (4, 65, 1)),
    ]


def test_validate_statistics_does_not_depend_on_the_chunk_size(monkeypatch):
    """Each path's normals are consecutive in its stream, so chunking moves no sample."""
    whole = validate_statistics(samples=3000, seed=5)
    monkeypatch.setattr(validation, "_CHUNK_ELEMENTS", 1 << 12)
    chunked = validate_statistics(samples=3000, seed=5)
    assert [c.observed for c in chunked.checks] == [c.observed for c in whole.checks]


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
    with pytest.raises(ValueError):
        validate_statistics(samples=100, seed=2**64)
