"""Grid, Laplacian, sine basis and norm tests against dense linear algebra."""

import math

import numpy as np
import pytest

from mcnspde import (
    ConfigError,
    HeatProblem,
    NoiseCoefficient,
    SpatialGrid,
    TimeMesh,
    WaveProblem,
    apply_laplacian,
    dirichlet_eigenvalue,
    em_step,
    h1_seminorm,
    l2_inner,
    l2_norm,
    mcn_heat_step,
    sample_path,
    sine_mode,
    squared_h1_seminorms,
    squared_l2_norms,
)


def dense_laplacian(grid):
    off = np.ones(grid.K - 1)
    return (np.diag(off, -1) - 2.0 * np.eye(grid.K) + np.diag(off, 1)) / grid.h**2


def modal_solve(grid, scale, rhs):
    """x with (I + scale Lap) x = rhs, by one division per sine mode."""
    symbol = (1.0 - scale * grid.eigenvalues).reshape((-1,) + (1,) * (rhs.ndim - 1))
    return grid.sine_transform(grid.sine_transform(rhs) / symbol)


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
    """The steppers' tridiagonal implicit solves agree with numpy's dense solver.

    With the noise silenced, an em step solves (I - tau Lap) x = rhs and an
    mcn step (I - tau/2 Lap) x = (I + tau/2 Lap) rhs, each by one division
    per sine mode.
    """
    rng = np.random.default_rng(100 + seed)
    K = int(rng.integers(2, 25))
    grid = SpatialGrid(K)
    mesh = TimeMesh(2 ** int(rng.integers(0, 7)))
    rhs = rng.standard_normal(K)
    silent = NoiseCoefficient.from_components(grid, [np.zeros(K)])
    problem = HeatProblem(grid, mesh, silent, np.zeros(K))
    path = sample_path(100 + seed, TimeMesh(64), m=1)
    lap = dense_laplacian(grid)
    tau = mesh.tau
    expected = np.linalg.solve(np.eye(K) - tau * lap, rhs)
    np.testing.assert_allclose(em_step(problem, rhs, path), expected, rtol=1e-11, atol=1e-13)
    expected = np.linalg.solve(np.eye(K) - 0.5 * tau * lap, rhs + 0.5 * tau * lap @ rhs)
    np.testing.assert_allclose(
        mcn_heat_step(problem, rhs, path), expected, rtol=1e-11, atol=1e-13
    )


@pytest.mark.parametrize("seed", range(4))
def test_block_solve_is_column_by_column(seed):
    """A (K, R) block is solved in the sine basis column by column, bit for bit."""
    rng = np.random.default_rng(200 + seed)
    K = int(rng.integers(2, 25))
    grid = SpatialGrid(K)
    scale = -float(rng.uniform(0.0, 0.1))
    rhs = rng.standard_normal((K, 5))
    got = modal_solve(grid, scale, rhs)
    assert got.shape == (K, 5)
    for r in range(5):
        assert np.array_equal(got[:, r], modal_solve(grid, scale, rhs[:, r]))
    expected = np.linalg.solve(np.eye(K) + scale * dense_laplacian(grid), rhs)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        grid.sine_transform(np.zeros((K + 1, 5)))


def test_solve_then_apply_round_trip():
    """Dividing by the modal symbol solves (I - c Lap) x = rhs, as the steppers do."""
    grid = SpatialGrid(40)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(grid.K)
    x = modal_solve(grid, -0.01, rhs)
    np.testing.assert_allclose(x - 0.01 * apply_laplacian(grid, x), rhs, rtol=1e-12)


def test_grid_mismatch_rejected():
    with pytest.raises(ValueError):
        SpatialGrid(5).sine_transform(np.zeros(6))
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
    """The sine basis diagonalizes I + c Lap, with 1 - c lambda_k on the diagonal."""
    grid = SpatialGrid(10)
    basis = grid.sine_basis
    for scale in (-0.3, 0.002):
        dense = np.eye(grid.K) + scale * dense_laplacian(grid)
        np.testing.assert_allclose(
            basis.T @ dense @ basis,
            np.diag(1.0 - scale * grid.eigenvalues),
            rtol=0.0,
            atol=1e-12 * np.abs(dense).max(),
        )


@pytest.mark.parametrize("K", [2, 9, 40, 1024])
def test_sine_basis_is_the_orthonormal_eigenbasis(K):
    """S is symmetric and orthogonal, column k is sine_mode k scaled to unit norm."""
    grid = SpatialGrid(K)
    basis = grid.sine_basis
    assert np.array_equal(basis, basis.T)
    np.testing.assert_allclose(basis @ basis, np.eye(K), rtol=0.0, atol=1e-13)
    for k in (1, 2, K):
        np.testing.assert_allclose(
            basis[:, k - 1], math.sqrt(2.0 * grid.h) * sine_mode(grid, k), rtol=0.0, atol=1e-12
        )
        assert grid.eigenvalues[k - 1] == dirichlet_eigenvalue(grid, k)
    rng = np.random.default_rng(K)
    f = rng.standard_normal((K, 3))
    np.testing.assert_allclose(grid.sine_transform(f), basis @ f, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(grid.sine_transform(grid.sine_transform(f)), f, atol=1e-12)


def test_column_norms_match_the_scalar_norms():
    """Column-wise squared norms agree with the scalar norms and keep their bits for any R."""
    rng = np.random.default_rng(9)
    for K in (2, 40):
        block = rng.standard_normal((K, 130))
        l2 = squared_l2_norms(block)
        h1 = squared_h1_seminorms(block)
        for r in range(block.shape[1]):
            assert l2[r] == pytest.approx(l2_norm(block[:, r]) ** 2, rel=1e-14)
            assert h1[r] == pytest.approx(h1_seminorm(block[:, r]) ** 2, rel=1e-14)
        for lo, hi in ((0, 1), (1, 13), (13, 77), (77, 130)):
            assert np.array_equal(squared_l2_norms(block[:, lo:hi]), l2[lo:hi])
            assert np.array_equal(squared_h1_seminorms(block[:, lo:hi]), h1[lo:hi])


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
