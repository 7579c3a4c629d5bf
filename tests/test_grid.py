"""Grid, Laplacian, and tridiagonal solver tests against dense linear algebra."""

import math

import numpy as np
import pytest

from mcnspde import (
    ConfigError,
    HeatProblem,
    NoiseCoefficient,
    SolverError,
    SpatialGrid,
    TimeMesh,
    TridiagonalSolver,
    WaveProblem,
    apply_laplacian,
    dirichlet_eigenvalue,
    h1_seminorm,
    l2_inner,
    l2_norm,
    shifted_laplacian,
    sine_mode,
)


def dense_matrix(lower, diag, upper):
    """Assemble the full K x K matrix from the three bands."""
    K = diag.size
    mat = np.zeros((K, K))
    mat[np.arange(K), np.arange(K)] = diag
    mat[np.arange(1, K), np.arange(K - 1)] = lower
    mat[np.arange(K - 1), np.arange(1, K)] = upper
    return mat


def dense_laplacian(grid):
    off = np.ones(grid.K - 1)
    return dense_matrix(off, np.full(grid.K, -2.0), off) / grid.h**2


def random_dominant_bands(K, rng):
    """Bands of a random tridiagonal matrix made strictly diagonally dominant."""
    lower = rng.standard_normal(K - 1)
    upper = rng.standard_normal(K - 1)
    diag = rng.standard_normal(K)
    slack = 1.0 + np.abs(rng.standard_normal(K))
    dom = np.zeros(K)
    dom[:-1] += np.abs(upper)
    dom[1:] += np.abs(lower)
    diag = np.sign(diag + (diag == 0)) * (dom + slack)
    return lower, diag, upper


def test_grid_geometry():
    grid = SpatialGrid(7)
    assert grid.h == pytest.approx(1.0 / 8.0, rel=1e-15)
    np.testing.assert_allclose(grid.nodes, np.arange(1, 8) / 8.0, rtol=1e-15)


def test_grid_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        SpatialGrid(1)


def test_field_shape_checked():
    """Initial data of the wrong length is rejected where it enters a problem."""
    grid = SpatialGrid(5)
    mesh = TimeMesh(4)
    phi = NoiseCoefficient.from_components(grid, [np.zeros(5)])
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, phi, np.zeros(4))
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, phi, np.zeros((1, 5)))
    with pytest.raises(ConfigError):
        WaveProblem(grid, mesh, phi, np.zeros(5), np.zeros(6))


def test_band_length_validation():
    with pytest.raises(ValueError):
        TridiagonalSolver(np.ones(5), np.full(5, 4.0), np.ones(4))


def test_apply_matches_dense():
    grid = SpatialGrid(12)
    rng = np.random.default_rng(21)
    f = rng.standard_normal(grid.K)
    expected = dense_laplacian(grid) @ f
    np.testing.assert_allclose(apply_laplacian(grid, f), expected, rtol=1e-13)
    # a (K, R) block of grid functions is differenced column by column
    block = rng.standard_normal((grid.K, 3))
    np.testing.assert_allclose(
        apply_laplacian(grid, block), dense_laplacian(grid) @ block, rtol=1e-13
    )


@pytest.mark.parametrize("seed", range(8))
def test_thomas_matches_dense_solve(seed):
    """Elimination agrees with numpy's dense solver on dominant systems."""
    rng = np.random.default_rng(100 + seed)
    K = int(rng.integers(2, 25))
    bands = random_dominant_bands(K, rng)
    rhs = rng.standard_normal(K)
    got = TridiagonalSolver(*bands).solve(rhs)
    expected = np.linalg.solve(dense_matrix(*bands), rhs)
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_block_solve_is_column_by_column(seed):
    """A (K, R) right-hand side is solved column by column, bit for bit."""
    rng = np.random.default_rng(200 + seed)
    K = int(rng.integers(2, 25))
    bands = random_dominant_bands(K, rng)
    system = TridiagonalSolver(*bands)
    rhs = rng.standard_normal((K, 5))
    got = system.solve(rhs)
    assert got.shape == (K, 5)
    for r in range(5):
        assert np.array_equal(got[:, r], system.solve(rhs[:, r]))
    expected = np.linalg.solve(dense_matrix(*bands), rhs)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        system.solve(np.zeros((K + 1, 5)))


def test_solve_then_apply_round_trip():
    grid = SpatialGrid(40)
    system = shifted_laplacian(grid, -0.01)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(grid.K)
    x = system.solve(rhs)
    np.testing.assert_allclose(x - 0.01 * apply_laplacian(grid, x), rhs, rtol=1e-12)


def test_zero_pivot_raises():
    """A vanishing pivot is caught when the system is factored, before any solve."""
    with pytest.raises(SolverError):
        TridiagonalSolver(np.zeros(3), np.zeros(4), np.zeros(3))


def test_pivot_failure_mid_sweep():
    # first pivot fine, second eliminated to zero: diag [1, 1], lower 1, upper 1
    with pytest.raises(SolverError):
        TridiagonalSolver(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]))


def test_grid_mismatch_rejected():
    system = shifted_laplacian(SpatialGrid(5), -0.1)
    with pytest.raises(ValueError):
        system.solve(np.zeros(6))
    with pytest.raises(ValueError):
        l2_inner(np.zeros(5), np.zeros(6))


def test_laplacian_eigenpairs():
    """Sine modes are exact eigenvectors of the second-difference operator."""
    grid = SpatialGrid(15)
    for k in (1, 2, 3, 7, 15):
        mode = sine_mode(grid, k)
        lam = dirichlet_eigenvalue(grid, k)
        np.testing.assert_allclose(
            apply_laplacian(grid, mode), -lam * mode, rtol=1e-10, atol=1e-10
        )


def test_eigenvalue_small_h_limit():
    # (4/h^2) sin^2(k pi h/2) -> (k pi)^2 as the grid refines
    grid = SpatialGrid(799)
    for k in (1, 2, 3):
        lam = dirichlet_eigenvalue(grid, k)
        exact = (k * math.pi) ** 2
        # second-order accurate: relative gap is (k pi h)^2/12 plus higher order
        assert abs(lam - exact) / exact <= (k * math.pi * grid.h) ** 2 / 10.0
        assert abs(lam - exact) / exact >= (k * math.pi * grid.h) ** 2 / 14.0


def test_mode_index_bounds():
    grid = SpatialGrid(5)
    with pytest.raises(ValueError):
        sine_mode(grid, 0)
    with pytest.raises(ValueError):
        dirichlet_eigenvalue(grid, 6)


def test_identity_plus_algebra():
    """The factored shifted system inverts the dense matrix I + c Lap."""
    grid = SpatialGrid(10)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.K)
    for scale in (-0.3, 0.002):
        dense = np.eye(grid.K) + scale * dense_laplacian(grid)
        np.testing.assert_allclose(
            shifted_laplacian(grid, scale).solve(dense @ f), f, rtol=1e-11, atol=1e-13
        )


def test_sine_mode_l2_norm_is_half():
    """h * sum_i sin^2(k pi x_i) = 1/2 exactly on the uniform grid."""
    grid = SpatialGrid(23)
    for k in (1, 2, 5, 23):
        assert l2_norm(sine_mode(grid, k)) == pytest.approx(math.sqrt(0.5), rel=1e-13)


def test_sine_modes_orthogonal():
    grid = SpatialGrid(16)
    assert l2_inner(sine_mode(grid, 2), sine_mode(grid, 3)) == pytest.approx(0.0, abs=1e-14)


def test_h1_seminorm_by_summation_by_parts():
    """|f|_{H1}^2 equals <-Lap f, f> for zero-boundary fields."""
    grid = SpatialGrid(17)
    rng = np.random.default_rng(7)
    for _ in range(4):
        f = rng.standard_normal(grid.K)
        quad = -l2_inner(apply_laplacian(grid, f), f)
        assert h1_seminorm(f) ** 2 == pytest.approx(quad, rel=1e-12)


def test_h1_seminorm_of_sine_mode():
    grid = SpatialGrid(31)
    for k in (1, 4):
        lam = dirichlet_eigenvalue(grid, k)
        expected = math.sqrt(lam * 0.5)
        assert h1_seminorm(sine_mode(grid, k)) == pytest.approx(expected, rel=1e-12)
