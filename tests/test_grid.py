"""Grid, sine amplitude and norm tests against dense linear algebra in node space."""

import math

import numpy as np
import pytest

from mcnspde import (
    ConfigError,
    HeatProblem,
    SpatialGrid,
    TimeMesh,
    WaveProblem,
    dirichlet_eigenvalue,
    em_step,
    h1_seminorm,
    l2_inner,
    l2_norm,
    mcn_heat_step,
    sample_path,
    sine_mode,
)


def dense_laplacian(grid):
    off = np.ones(grid.K - 1)
    return (np.diag(off, -1) - 2.0 * np.eye(grid.K) + np.diag(off, 1)) / grid.h**2


def silent_problem(grid, mesh):
    return HeatProblem(grid, mesh, np.zeros((1, grid.K)), np.zeros(grid.K))


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
    phi = np.zeros((1, 5))
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, phi, np.zeros(4))
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, phi, np.zeros((1, 5)))
    with pytest.raises(ConfigError):
        WaveProblem(grid, mesh, phi, np.zeros(5), np.zeros(6))
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, np.zeros(5), np.zeros(5))
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, np.zeros((1, 6)), np.zeros(5))


@pytest.mark.parametrize("seed", range(8))
def test_thomas_matches_dense_solve(seed):
    """The steppers' tridiagonal implicit solves agree with numpy's dense solver.

    With the noise silenced, an em step solves (I - tau Lap) x = rhs and an
    mcn step (I - tau/2 Lap) x = (I + tau/2 Lap) rhs, each by one division
    per sine mode; rhs and x are compared as node values.
    """
    rng = np.random.default_rng(100 + seed)
    K = int(rng.integers(2, 25))
    grid = SpatialGrid(K)
    mesh = TimeMesh(2 ** int(rng.integers(0, 7)))
    amplitudes = rng.standard_normal(K)
    rhs = grid.node_values(amplitudes)
    problem = silent_problem(grid, mesh)
    path = sample_path(100 + seed, TimeMesh(64), m=1)
    lap = dense_laplacian(grid)
    tau = mesh.tau
    expected = np.linalg.solve(np.eye(K) - tau * lap, rhs)
    got = grid.node_values(em_step(problem, amplitudes, path)[:, 0])
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)
    expected = np.linalg.solve(np.eye(K) - 0.5 * tau * lap, rhs + 0.5 * tau * lap @ rhs)
    got = grid.node_values(mcn_heat_step(problem, amplitudes, path)[:, 0])
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_block_solve_is_column_by_column(seed):
    """A silent em step solves a (K, R) block of amplitudes column by column, bit for bit.

    The block goes with a chunk of one path, which every column shares.
    """
    rng = np.random.default_rng(200 + seed)
    K = int(rng.integers(2, 25))
    grid = SpatialGrid(K)
    mesh = TimeMesh(2 ** int(rng.integers(4, 7)))
    problem = silent_problem(grid, mesh)
    path = sample_path(200 + seed, mesh)
    rhs = rng.standard_normal((K, 5))
    got = em_step(problem, rhs, path)
    assert got.shape == (K, 5)
    for r in range(5):
        assert np.array_equal(got[:, [r]], em_step(problem, rhs[:, r], path))
    dense = np.eye(K) - mesh.tau * dense_laplacian(grid)
    expected = np.linalg.solve(dense, grid.node_values(rhs))
    np.testing.assert_allclose(grid.node_values(got), expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        em_step(problem, np.zeros((K + 1, 5)), path)


def test_solve_then_apply_round_trip():
    """Dividing by the modal symbol solves (I - tau Lap) x = rhs, as the em step does."""
    grid = SpatialGrid(40)
    rng = np.random.default_rng(3)
    mesh = TimeMesh(128)
    rhs = rng.standard_normal(grid.K)
    x = grid.node_values(em_step(silent_problem(grid, mesh), rhs, sample_path(3, mesh))[:, 0])
    lap_x = dense_laplacian(grid) @ x
    np.testing.assert_allclose(x - mesh.tau * lap_x, grid.node_values(rhs), rtol=1e-12)


def test_grid_mismatch_rejected():
    with pytest.raises(ValueError):
        SpatialGrid(5).node_values(np.zeros(6))
    with pytest.raises(ValueError):
        l2_inner(np.zeros(5), np.zeros(6))


def test_laplacian_eigenpairs():
    """Sine modes are exact eigenvectors of the second-difference operator."""
    grid = SpatialGrid(15)
    for k in (1, 2, 3, 7, 15):
        mode = grid.node_values(sine_mode(grid, k))
        np.testing.assert_allclose(mode, np.sin(k * math.pi * grid.nodes), rtol=0.0, atol=1e-14)
        lam = dirichlet_eigenvalue(grid, k)
        np.testing.assert_allclose(
            dense_laplacian(grid) @ mode, -lam * mode, rtol=1e-10, atol=1e-10
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
    assert np.array_equal(sine_mode(grid, 2), [0.0, 1.0, 0.0, 0.0, 0.0])


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
    """S is symmetric and orthogonal, column k is sin(k pi x) scaled to unit norm.

    node_values(a) is S a / sqrt(2h), so it takes e_k to the samples of sin(k pi x).
    """
    grid = SpatialGrid(K)
    basis = grid.sine_basis
    assert np.array_equal(basis, basis.T)
    np.testing.assert_allclose(basis @ basis, np.eye(K), rtol=0.0, atol=1e-13)
    for k in (1, 2, K):
        samples = np.sin(k * math.pi * grid.nodes)
        np.testing.assert_allclose(
            basis[:, k - 1], math.sqrt(2.0 * grid.h) * samples, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            grid.node_values(sine_mode(grid, k)), samples, rtol=0.0, atol=1e-12
        )
        assert grid.eigenvalues[k - 1] == dirichlet_eigenvalue(grid, k)
    rng = np.random.default_rng(K)
    a = rng.standard_normal((K, 3))
    scale = math.sqrt(2.0 * grid.h)
    np.testing.assert_allclose(scale * grid.node_values(a), basis @ a, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(basis @ (scale * grid.node_values(a)), a, atol=1e-12)


def test_column_norms_match_the_scalar_norms():
    """Parseval: the amplitude norms of a (K, R) block are the node norms of its columns.

    l2_squared and h1_squared of random amplitudes equal l2_norm and
    h1_seminorm of their node values, squared, and every column keeps its
    bits for any split of the block, a lone column included.
    """
    rng = np.random.default_rng(9)
    for K in (2, 40, 1024):
        grid = SpatialGrid(K)
        block = rng.standard_normal((K, 130))
        l2 = grid.l2_squared(block)
        h1 = grid.h1_squared(block)
        nodes = grid.node_values(block)
        for r in range(block.shape[1]):
            assert l2[r] == pytest.approx(l2_norm(nodes[:, r]) ** 2, rel=1e-14)
            assert h1[r] == pytest.approx(h1_seminorm(nodes[:, r]) ** 2, rel=1e-14)
        for lo, hi in ((0, 1), (1, 2), (1, 13), (13, 77), (77, 130)):
            assert np.array_equal(grid.l2_squared(block[:, lo:hi]), l2[lo:hi])
            assert np.array_equal(grid.h1_squared(block[:, lo:hi]), h1[lo:hi])
        for r in (0, 77):
            assert grid.l2_squared(block[:, r]) == l2[r]
            assert grid.h1_squared(block[:, r]) == h1[r]


def test_sine_mode_l2_norm_is_half():
    """h * sum_i sin^2(k pi x_i) = 1/2 exactly on the uniform grid."""
    grid = SpatialGrid(23)
    for k in (1, 2, 5, 23):
        mode = grid.node_values(sine_mode(grid, k))
        assert l2_norm(mode) == pytest.approx(math.sqrt(0.5), rel=1e-13)
        assert grid.l2_squared(sine_mode(grid, k)) == 0.5


def test_sine_modes_orthogonal():
    grid = SpatialGrid(16)
    modes = [grid.node_values(sine_mode(grid, k)) for k in (2, 3)]
    assert l2_inner(*modes) == pytest.approx(0.0, abs=1e-14)


def test_h1_seminorm_by_summation_by_parts():
    """|f|_{H1}^2 equals <-Lap f, f> for zero-boundary fields."""
    grid = SpatialGrid(17)
    rng = np.random.default_rng(7)
    for _ in range(4):
        f = rng.standard_normal(grid.K)
        quad = -l2_inner(dense_laplacian(grid) @ f, f)
        assert h1_seminorm(f) ** 2 == pytest.approx(quad, rel=1e-12)


def test_h1_seminorm_of_sine_mode():
    grid = SpatialGrid(31)
    for k in (1, 4):
        lam = dirichlet_eigenvalue(grid, k)
        expected = math.sqrt(lam * 0.5)
        mode = grid.node_values(sine_mode(grid, k))
        assert h1_seminorm(mode) == pytest.approx(expected, rel=1e-12)
        assert grid.h1_squared(sine_mode(grid, k)) == pytest.approx(expected**2, rel=1e-15)
