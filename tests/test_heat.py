"""Heat steppers against eigenmode formulas, dense solves, and Ito isometry.

States, initial data and Phi are sine amplitudes; the dense node-space
references take their node values through SpatialGrid.node_values.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcnspde import (
    AlignmentError,
    ConfigError,
    HEAT_NOISE,
    HeatProblem,
    NoiseBlock,
    SpatialGrid,
    TimeMesh,
    WienerPath,
    benchmark_heat_problem,
    desk_heat_config,
    dirichlet_eigenvalue,
    em_step,
    exact_heat_solution,
    heat_step_map,
    l2_norm,
    mcn_heat_step,
    paper_heat_config,
    run_heat,
    sample_path,
    sine_mode,
    stochastic_convolution,
)
from mcnspde.heat import bridge_conditional_weights, oracle_rates, window_heat_solution
from mcnspde.noise import bridge_covariance, path_functionals, sample_windows


def value_at(path, t):
    """W(t) by a float lookup of the master node at time t: the brute-force reference."""
    k = round(t / path.delta)
    assert abs(t - k * path.delta) <= 1e-12
    return path.cumulative[k]


def zero_phi(grid, m=1):
    return np.zeros((m, grid.K))


def dense_laplacian(k):
    h = 1.0 / (k + 1)
    a = np.zeros((k, k))
    for i in range(k):
        a[i, i] = -2.0
        if i > 0:
            a[i, i - 1] = 1.0
        if i + 1 < k:
            a[i, i + 1] = 1.0
    return a / h**2


def test_mcn_eigenmode_decay_factor():
    """With silent noise each sine mode shrinks by (1 - tau lam/2)/(1 + tau lam/2)."""
    grid = SpatialGrid(15)
    mesh = TimeMesh(8)
    path = sample_path(3, TimeMesh(32))
    for k in (1, 3, 6):
        problem = HeatProblem(grid, mesh, zero_phi(grid), sine_mode(grid, k))
        lam = dirichlet_eigenvalue(grid, k)
        rho = (1 - 0.5 * mesh.tau * lam) / (1 + 0.5 * mesh.tau * lam)
        first = mcn_heat_step(problem, problem.initial, path, 0)
        np.testing.assert_allclose(first, rho * problem.initial, rtol=1e-12, atol=1e-14)
        final = run_heat(problem, path, scheme="mcn")
        np.testing.assert_allclose(
            final, rho**mesh.N * problem.initial, rtol=1e-11, atol=1e-13
        )


def test_em_eigenmode_decay_factor():
    grid = SpatialGrid(15)
    mesh = TimeMesh(8)
    path = sample_path(3, TimeMesh(32))
    for k in (1, 4):
        problem = HeatProblem(grid, mesh, zero_phi(grid), sine_mode(grid, k))
        lam = dirichlet_eigenvalue(grid, k)
        rho = 1.0 / (1.0 + mesh.tau * lam)
        final = run_heat(problem, path, scheme="em")
        np.testing.assert_allclose(
            final, rho**mesh.N * problem.initial, rtol=1e-11, atol=1e-13
        )


def test_mcn_step_dense_oracle():
    """One step reproduces a dense np.linalg.solve of the defining relation."""
    k, n = 9, 4
    grid = SpatialGrid(k)
    mesh = TimeMesh(n)
    rng = np.random.default_rng(61)
    phi = rng.standard_normal((2, k))
    x0 = rng.standard_normal(k)
    path = sample_path(611, TimeMesh(16), m=2)
    problem = HeatProblem(grid, mesh, phi, x0)
    phi, x0 = grid.node_values(phi.T), grid.node_values(x0)

    lap = dense_laplacian(k)
    tau = mesh.tau
    dw = value_at(path, tau) - value_at(path, 0.0)
    micro_sum = sum(
        tau * tau * value_at(path, mesh.micro_time(0, ell)) for ell in range(1, mesh.M + 1)
    )
    gap = micro_sum - 0.5 * tau * (value_at(path, 0.0) + value_at(path, tau))
    corr = lap @ (phi @ gap)
    rhs = (np.eye(k) + 0.5 * tau * lap) @ x0 + phi @ dw + corr
    expected = np.linalg.solve(np.eye(k) - 0.5 * tau * lap, rhs)

    got = grid.node_values(mcn_heat_step(problem, problem.initial, path, 0))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_em_step_dense_oracle():
    k, n = 7, 4
    grid = SpatialGrid(k)
    mesh = TimeMesh(n)
    rng = np.random.default_rng(62)
    phi = rng.standard_normal((1, k))
    x0 = rng.standard_normal(k)
    path = sample_path(612, TimeMesh(8), m=1)
    problem = HeatProblem(grid, mesh, phi, x0)

    lap = dense_laplacian(k)
    tau = mesh.tau
    dw = value_at(path, tau) - value_at(path, 0.0)
    rhs = grid.node_values(x0) + grid.node_values(phi.T) @ dw
    expected = np.linalg.solve(np.eye(k) - tau * lap, rhs)

    got = grid.node_values(em_step(problem, x0, path, 0))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def dense_heat_march(problem, path, scheme):
    """X_N's node values by np.linalg.solve of the scheme's defining relation at every step."""
    grid, mesh = problem.grid, problem.mesh
    k, phi = grid.K, grid.node_values(problem.phi.T)
    lap = dense_laplacian(k)
    tau = mesh.tau
    theta = 1.0 if scheme == "em" else 0.5
    implicit = np.eye(k) - theta * tau * lap
    explicit = np.eye(k) + (1.0 - theta) * tau * lap
    x = grid.node_values(problem.initial)
    for j in range(mesh.N):
        w_lo, w_hi = value_at(path, mesh.coarse_time(j)), value_at(path, mesh.coarse_time(j + 1))
        rhs = explicit @ x + phi @ (w_hi - w_lo)
        if scheme == "mcn":
            micro = sum(value_at(path, mesh.micro_time(j, ell)) for ell in range(1, mesh.M + 1))
            rhs += lap @ phi @ (tau * tau * micro - 0.5 * tau * (w_lo + w_hi))
        x = np.linalg.solve(implicit, rhs)
    return x


@pytest.mark.parametrize("scheme", ["mcn", "em"])
@pytest.mark.parametrize("k", [2, 9, 40])
@pytest.mark.parametrize("m", [1, 2])
def test_run_matches_dense_recursion(scheme, k, m):
    """run_heat reproduces the node-space recursion of dense solves, N = 1, 4 and 16."""
    rng = np.random.default_rng(1000 * k + m)
    grid = SpatialGrid(k)
    phi = rng.standard_normal((m, k))
    x0 = rng.standard_normal(k)
    for n in (1, 4, 16):
        problem = HeatProblem(grid, TimeMesh(n), phi, x0)
        path = sample_path(1000 * k + 10 * m + n, TimeMesh(16), m=m)
        expected = dense_heat_march(problem, path, scheme)
        got = grid.node_values(run_heat(problem, path, scheme))
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("scheme", ["mcn", "em"])
@pytest.mark.parametrize("n", [384, 1024])
def test_passes_equal_the_chain_of_single_steps(scheme, n):
    """run_heat in 3 or 8 passes of 128 steps equals n one-step calls on the same block.

    K = 40, m = 2 and a block of 3 paths with random coordinates, scaled
    by tau^(1/2) and tau^(3/2) like the increments and gaps.
    """
    rng = np.random.default_rng(n)
    grid, mesh = SpatialGrid(40), TimeMesh(n)
    phi = rng.standard_normal((2, 40))
    problem = HeatProblem(grid, mesh, phi, rng.standard_normal(40))
    powers = {"increments": 0.5, "gaps": 1.5}
    block = NoiseBlock(
        mesh, **{name: rng.standard_normal((n, 3, 2)) * mesh.tau**p for name, p in powers.items()}
    )
    step = em_step if scheme == "em" else mcn_heat_step
    x = problem.initial
    for j in range(n):
        x = step(problem, x, block, j)
    got = run_heat(problem, block, scheme)
    np.testing.assert_allclose(got, x, rtol=1e-12, atol=1e-13 * np.abs(x).max())


def sine_basis(k):
    """S_ik = sqrt(2h) sin(i k pi h), built here independently of the grid."""
    h = 1.0 / (k + 1)
    index = np.arange(1, k + 1)
    return math.sqrt(2.0 * h) * np.sin(math.pi * h * np.outer(index, index))


@pytest.mark.parametrize("scheme", ["mcn", "em"])
def test_step_map_is_the_dense_step_in_the_sine_basis(scheme):
    """S^T P S is diagonal and equals the stepped factors; the loads are the amplitudes,
    sqrt(2h) S^T, of the solved forcings.

    P and the forcing columns come from np.linalg.solve of the node-space
    implicit system on the identity, on Phi and on Lap Phi.
    """
    k, n = 40, 8
    rng = np.random.default_rng(77)
    grid = SpatialGrid(k)
    problem = HeatProblem(grid, TimeMesh(n), rng.standard_normal((2, k)), np.zeros(k))
    phi = grid.node_values(problem.phi.T)
    lap, tau, basis = dense_laplacian(k), problem.mesh.tau, sine_basis(k)
    theta = 1.0 if scheme == "em" else 0.5
    implicit = np.eye(k) - theta * tau * lap
    step = np.linalg.solve(implicit, np.eye(k) + (1.0 - theta) * tau * lap)
    matrix, loads = heat_step_map(problem, scheme)
    assert matrix.shape == (1, 1, k)
    modal = basis.T @ step @ basis
    np.testing.assert_allclose(modal, np.diag(matrix[0, 0]), rtol=0.0, atol=1e-12)
    columns = {"increments": phi, "gaps": lap @ phi}
    assert set(loads) == set(HEAT_NOISE[scheme])
    for name, load in loads.items():
        expected = math.sqrt(2.0 * grid.h) * basis.T @ np.linalg.solve(implicit, columns[name])
        np.testing.assert_allclose(load[0], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


def test_linear_path_run_matches_hand_recursion():
    """W(t) = t turns the correction into (tau^3/2) Lap Phi at every step."""
    k, n = 8, 4
    grid = SpatialGrid(k)
    mesh = TimeMesh(n)
    master_steps = 2**14  # keeps the left-point bias far below the tolerance
    delta = 1.0 / master_steps
    increments = np.full((master_steps, 1), delta)
    cumulative = np.zeros((master_steps + 1, 1))
    cumulative[1:] = np.cumsum(increments, axis=0)
    path = WienerPath(increments, cumulative)

    problem = HeatProblem(grid, mesh, sine_mode(grid, 2)[None], sine_mode(grid, 1))
    phi = np.sin(2 * np.pi * grid.nodes)

    lap = dense_laplacian(k)
    tau = mesh.tau
    assert 0.5 * tau**3 == pytest.approx(1.0 / 128.0, rel=1e-15)
    x = np.sin(np.pi * grid.nodes)
    implicit = np.eye(k) - 0.5 * tau * lap
    explicit = np.eye(k) + 0.5 * tau * lap
    corr = (1.0 / 128.0) * lap @ phi
    for _ in range(n):
        x = np.linalg.solve(implicit, explicit @ x + tau * phi + corr)

    got = grid.node_values(run_heat(problem, path, scheme="mcn"))
    np.testing.assert_allclose(got, x, rtol=1e-9, atol=1e-12)


def test_run_is_affine_in_initial_data():
    """run(u + v, W) = run(u, W) + run(v, 0) since the noise enters additively."""
    grid = SpatialGrid(11)
    mesh = TimeMesh(8)
    rng = np.random.default_rng(71)
    phi = sine_mode(grid, 3)[None]
    u = rng.standard_normal(11)
    v = rng.standard_normal(11)
    path = sample_path(711, TimeMesh(64))
    zero = WienerPath(np.zeros_like(path.increments), np.zeros_like(path.cumulative))
    for scheme in ("mcn", "em"):
        both = run_heat(HeatProblem(grid, mesh, phi, u + v), path, scheme)
        u_run = run_heat(HeatProblem(grid, mesh, phi, u), path, scheme)
        v_run = run_heat(HeatProblem(grid, mesh, phi, v), zero, scheme)
        np.testing.assert_allclose(both, u_run + v_run, rtol=1e-11, atol=1e-13)


def test_deterministic_steps_are_contractive():
    """Both schemes damp the l2 norm monotonically without noise (A-stability)."""
    grid = SpatialGrid(20)
    mesh = TimeMesh(16)
    rng = np.random.default_rng(81)
    path = sample_path(811, TimeMesh(32))
    for scheme, scheme_step in (("mcn", mcn_heat_step), ("em", em_step)):
        problem = HeatProblem(grid, mesh, zero_phi(grid), rng.standard_normal(20))
        x = problem.initial
        norms = [l2_norm(grid.node_values(x))]
        for j in range(mesh.N):
            x = scheme_step(problem, x, path, j)
            norms.append(l2_norm(grid.node_values(x)))
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))


def test_exact_solution_silent_noise():
    grid = SpatialGrid(40)
    mesh = TimeMesh(16)
    path = sample_path(5, mesh)
    silent = WienerPath(np.zeros_like(path.increments), np.zeros_like(path.cumulative))
    cont = exact_heat_solution(silent, grid, mode="continuous")
    np.testing.assert_allclose(cont, math.exp(-math.pi**2) * sine_mode(grid, 1), rtol=1e-13)
    semi = exact_heat_solution(silent, grid, mode="semidiscrete")
    lam1 = dirichlet_eigenvalue(grid, 1)
    np.testing.assert_allclose(semi, math.exp(-lam1) * sine_mode(grid, 1), rtol=1e-13)


def test_exact_solution_config_errors():
    grid = SpatialGrid(10)
    mesh = TimeMesh(16)
    two_channel = sample_path(9, mesh, m=2)
    with pytest.raises(ConfigError):
        exact_heat_solution(two_channel, grid)
    path = sample_path(9, mesh)
    with pytest.raises(ConfigError):
        exact_heat_solution(path, grid, mode="spectral")


def test_problem_rejects_mismatched_grids():
    grid = SpatialGrid(10)
    other = SpatialGrid(11)
    mesh = TimeMesh(4)
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, zero_phi(other), sine_mode(grid, 1))
    with pytest.raises(ConfigError):
        HeatProblem(grid, mesh, zero_phi(grid), sine_mode(other, 1))


def test_run_heat_rejects_unknown_scheme():
    grid = SpatialGrid(10)
    mesh = TimeMesh(4)
    problem = benchmark_heat_problem(grid, mesh)
    path = sample_path(1, TimeMesh(16))
    with pytest.raises(ConfigError):
        run_heat(problem, path, scheme="rk4")


def test_run_heat_rejects_misaligned_path():
    """A path whose master grid misses the micro nodes is refused, not interpolated."""
    grid = SpatialGrid(10)
    problem = benchmark_heat_problem(grid, TimeMesh(16))
    coarse_path = sample_path(1, TimeMesh(8))  # 64 < 16^2 micro cells
    for scheme in ("mcn", "em"):
        with pytest.raises(AlignmentError):
            run_heat(problem, coarse_path, scheme)


def noise_blocks(paths, mesh, coordinates, sizes):
    """The paths reduced into consecutive blocks of the given sizes."""
    blocks, start = [], 0
    for size in sizes:
        block = NoiseBlock.empty(mesh, size, paths[0].m, coordinates)
        for r in range(size):
            block.put(r, paths[start + r])
        blocks.append(block)
        start += size
    return blocks


@pytest.mark.parametrize("scheme", ["mcn", "em"])
def test_block_march_equals_one_path_runs(scheme):
    """Marching paths as one block, or split, gives each path's lone run bit for bit.

    At K = 12 five paths go as 5 and as 2 + 3; at the desk K = 40, 130
    paths go as blocks of 1, 12 and 130 and as 64 + 66.
    """
    shapes = ((12, 5, ((5,), (2, 3))), (40, 130, ((1,) * 12, (12,), (130,), (64, 66))))
    for k, count, splits in shapes:
        problem = benchmark_heat_problem(SpatialGrid(k), TimeMesh(16))
        paths = [sample_path((5, r), TimeMesh(32)) for r in range(count)]
        lone = np.stack([run_heat(problem, path, scheme) for path in paths], axis=1)
        for sizes in splits:
            blocks = noise_blocks(paths, problem.mesh, HEAT_NOISE[scheme], sizes)
            marched = np.concatenate([run_heat(problem, b, scheme) for b in blocks], axis=1)
            assert np.array_equal(marched, lone[:, : marched.shape[1]])


@pytest.mark.parametrize("scheme", ["mcn", "em"])
def test_run_heat_on_a_chunk_is_each_path_alone(scheme):
    """A chunk of n paths gives (K, n), column i bit for bit path i alone; a chunk of one (K, 1)."""
    problem = benchmark_heat_problem(SpatialGrid(12), TimeMesh(4))
    keys = [1, 2, 3]
    lone = [run_heat(problem, sample_path(key, TimeMesh(4)), scheme) for key in keys]
    together = run_heat(problem, sample_path(keys, TimeMesh(4)), scheme)
    np.testing.assert_array_equal(together, np.stack(lone, axis=1))
    one = run_heat(problem, sample_path([2], TimeMesh(4)), scheme)
    np.testing.assert_array_equal(one, lone[1][:, None])
    step = mcn_heat_step if scheme == "mcn" else em_step
    first = step(problem, problem.initial, sample_path(keys, TimeMesh(4)), 0)
    alone = step(problem, problem.initial, sample_path(3, TimeMesh(4)), 0)
    np.testing.assert_array_equal(first[:, 2], alone)


@pytest.mark.parametrize("step", [em_step, mcn_heat_step], ids=["em", "mcn"])
def test_a_block_of_states_on_one_path_keeps_every_column(step):
    """A (K, R) state stepped on one lone path gives (K, R), column r bit for bit that
    column alone; on a chunk of another width the step raises."""
    problem = benchmark_heat_problem(SpatialGrid(10), TimeMesh(4))
    path = sample_path(1, TimeMesh(4))
    x = np.random.default_rng(10).standard_normal((10, 3))
    got = step(problem, x, path)
    assert got.shape == (10, 3)
    for r in range(3):
        np.testing.assert_array_equal(got[:, r], step(problem, x[:, r], path))
    with pytest.raises(ValueError):
        step(problem, x, sample_path([1, 2], TimeMesh(4)))


def test_run_heat_rejects_foreign_blocks():
    """A block reduced on another mesh, or without the gaps mcn reads, is refused."""
    grid = SpatialGrid(10)
    problem = benchmark_heat_problem(grid, TimeMesh(8))
    path = sample_path(3, TimeMesh(32))
    (other_mesh,) = noise_blocks([path], TimeMesh(16), HEAT_NOISE["mcn"], (1,))
    (increments_only,) = noise_blocks([path], TimeMesh(8), HEAT_NOISE["em"], (1,))
    with pytest.raises(AlignmentError):
        run_heat(problem, other_mesh, "mcn")
    with pytest.raises(AlignmentError):
        run_heat(problem, increments_only, "mcn")
    run_heat(problem, increments_only, "em")
    misaligned = sample_path(1, TimeMesh(4))  # 16 < 8^2 micro cells
    with pytest.raises(AlignmentError):
        NoiseBlock.empty(TimeMesh(8), 1, 1, HEAT_NOISE["em"]).put(0, misaligned)


@pytest.mark.parametrize("mode", ["continuous", "semidiscrete"])
def test_exact_solution_of_a_chunk_is_each_path_alone(mode):
    """A chunk's oracle columns equal each path's oracle alone, bit for bit, for bridge paths
    and for window draws."""
    grid = SpatialGrid(12)
    config = desk_heat_config(n_list=(8, 16, 32))  # 8^2 master steps, levels q = 4 and 16
    keys = [(config.base_seed, r) for r in range(5)]
    chunk = sample_path(keys, config.path_mesh, 1, config.bridge_meshes)
    assert chunk.bridge_functionals == ((4, 0), (4, 1), (16, 0), (16, 1))
    together = exact_heat_solution(chunk, grid, mode, 0.7)
    assert together.shape == (grid.K, len(keys))
    for i, key in enumerate(keys):
        path = sample_path(key, config.path_mesh, 1, config.bridge_meshes)
        np.testing.assert_array_equal(exact_heat_solution(path, grid, mode, 0.7), together[:, i])
    law = dataclasses.replace(config, k=grid.K).window_law
    _, pieces = sample_windows(keys, law)
    together = window_heat_solution(pieces, grid, mode, 0.7)
    assert together.shape == (grid.K, len(keys))
    for i, key in enumerate(keys):
        alone = window_heat_solution(sample_windows([key], law)[1], grid, mode, 0.7)
        np.testing.assert_array_equal(alone, together[:, [i]])


def test_stochastic_convolution_zero_rate_is_endpoint():
    mesh = TimeMesh(32)
    path = sample_path(21, mesh, m=2)
    np.testing.assert_allclose(
        stochastic_convolution(path, 0.0), path.cumulative[-1], rtol=1e-13
    )


def test_stochastic_convolution_matches_the_direct_sum():
    """The factored weights give the direct left-point sum, correctly rounded, to 1e-13."""
    for steps in (2**15, 2**16, 2**20):  # 2^15: blocks and offsets of unequal length
        # drawn as sample_path draws, by hand: no mesh has 2^15 micro steps
        increments = np.random.Generator(np.random.Philox(key=steps)).standard_normal((steps, 2))
        increments *= math.sqrt(1.0 / steps)
        path = WienerPath(increments, np.vstack([np.zeros((1, 2)), increments.cumsum(axis=0)]))
        for rate in (0.0, (2 * math.pi) ** 2, (3 * math.pi) ** 2, 1e4):
            left_times = path.delta * np.arange(path.S)
            weights = np.exp(-rate * (1.0 - left_times))
            x = rate * path.delta
            step_average = math.expm1(x) / x if x != 0.0 else 1.0
            direct = [
                step_average * math.fsum(weights * path.increments[:, c]) for c in range(2)
            ]
            np.testing.assert_allclose(stochastic_convolution(path, rate), direct, rtol=1e-13)


def test_stochastic_convolution_ito_isometry():
    """Sample variance of conv(mu) meets (1 - exp(-2 mu T))/(2 mu) within 5 SE."""
    mesh = TimeMesh(32)
    mu = (2 * math.pi) ** 2
    n_paths = 10_000
    vals = np.empty(n_paths)
    for i in range(n_paths):
        path = sample_path(40_000 + i, mesh)
        vals[i] = stochastic_convolution(path, mu)[0]
    target = (1.0 - math.exp(-2.0 * mu)) / (2.0 * mu)
    sq = vals**2
    se = sq.std(ddof=1) / math.sqrt(n_paths)
    assert abs(sq.mean() - target) <= 5 * se
    # the mean itself is zero to within CLT noise
    assert abs(vals.mean()) <= 5 * vals.std(ddof=1) / math.sqrt(n_paths)


def projection_rows(functionals, cells):
    """(dW, bridge sums) of one master step as rows over its cells' increments, (1 + F, cells).

    W after i of the cells' equal increments is their partial sum, so
    B(i/q) = W(i cells/q) - (i/q) dW at node i of the level of q steps.
    """
    partial = np.tril(np.ones((cells, cells)))  # row i: W after i + 1 cells
    rows = [np.ones(cells)]
    for q, p in functionals:
        i = np.arange(1, q)
        bridge = partial[i * (cells // q) - 1] - (i / q)[:, None]
        rows.append(((i**p)[:, None] * bridge).sum(axis=0))
    return np.array(rows)


@pytest.mark.parametrize(
    "functionals",
    [
        pytest.param(((4, 0), (16, 0)), id="heat"),
        pytest.param(((16, 0), (16, 1)), id="wave"),
        pytest.param(((4, 0), (4, 1), (16, 0)), id="mixed"),
    ],
)
def test_oracle_weights_are_the_lstsq_projection(functionals):
    """bridge_conditional_weights equal the least-squares projection over 64 finer cells.

    Given the i.i.d. increments of 64 equal cells of one master step, the
    integral of exp(rate u) dW has conditional mean sum_j a_j xi_j, a_j the
    kernel's average over cell j, and (dW, sums) are linear in them, so
    their regression weights are lstsq(A^T, a).
    """
    delta, cells = 1.0 / 4096, 64
    rows = projection_rows(functionals, cells)
    for rate in ((2 * math.pi) ** 2, (3 * math.pi) ** 2, 1e3):
        edges = np.expm1(rate * delta * np.arange(cells + 1) / cells)
        averages = np.diff(edges) / (rate * delta / cells)
        brute = np.linalg.lstsq(rows.T, averages, rcond=None)[0]
        step_average, coefficients = bridge_conditional_weights(functionals, rate, delta)
        scale = np.abs(brute).max()
        got = [step_average, *coefficients]
        np.testing.assert_allclose(got, brute, rtol=1e-9, atol=1e-12 * scale)
    assert bridge_conditional_weights(functionals, 0.0, delta)[0] == 1.0


def oracle_deficit(steps, functionals, rates=((2 * math.pi) ** 2, (3 * math.pi) ** 2)):
    """E ||X(1) - E[X(1) | path]||^2 of the benchmark solution, continuous mode, unit noise.

    Per master step of the kernel's left-point weight L_k, the integral's
    variance given dW and the bridge sums is int_0^delta exp(2 rate u) du -
    delta avg^2 - c . C c; sine modes have squared grid norm 1/2.
    """
    delta, total = 1.0 / steps, 0.0
    for rate in rates:
        step_average, c = bridge_conditional_weights(functionals, rate, delta)
        explained = delta * step_average**2
        if functionals:
            explained += c @ bridge_covariance(functionals, delta) @ c
        residual = math.expm1(2.0 * rate * delta) / (2.0 * rate) - explained
        left_weights = np.exp(-2.0 * rate * (1.0 - delta * np.arange(steps)))
        total += 0.5 * residual * math.fsum(left_weights)
    return total


def test_oracle_deficit_stays_at_the_full_path_value():
    """The bridge path law of the desk and paper heat meshes (path_mesh and bridge_meshes, the
    law wave studies draw), its master grid with S0 and S1 of every bridge level, leaves the
    conditional-mean oracle's deficit within 1e-4 of what the full micro grid of N_max
    leaves; the master increments alone leave 100x more."""
    cases = ((desk_heat_config(), 6.2236e-10), (paper_heat_config(), 2.431095e-12))
    for config, full_value in cases:
        steps = config.master_steps
        functionals = path_functionals(config.path_mesh, config.bridge_meshes)
        full = oracle_deficit(config.finest_mesh.N**2, ())
        drawn = oracle_deficit(steps, functionals)
        assert full == pytest.approx(full_value, rel=1e-5)
        assert abs(drawn / full - 1.0) <= 1e-4
        assert oracle_deficit(steps, ()) >= 100 * full


def test_oracle_given_the_drawn_law_tracks_the_full_path_oracle():
    """On 32 full 2^16-step paths thinned to the bridge law of the desk heat meshes, 1024
    master steps with S0 and S1 of q = 4, 16 and 64, the conditional-mean oracle moves from
    the full path's by the deficits' gap.

    The thin path is a function of the full one, so E ||X_thin - X_full||^2
    = D_thin - D_full, 1.04e-14; an oracle that dropped the S1 sums would
    move by at least the 2.4e-10 that S0 alone leaves.  The mean of 32
    paths must lie within a factor 3 of it.
    """
    config, grid = desk_heat_config(), SpatialGrid(40)
    steps = config.master_steps
    functionals = path_functionals(config.path_mesh, config.bridge_meshes)
    squared = []
    for r in range(32):
        full = sample_path((2028, r), config.finest_mesh)
        cumulative = full.cumulative[:: full.S // steps]
        increments = np.diff(cumulative, axis=0)
        bridge = {}
        for q in sorted({q for q, _ in functionals}):
            i = np.arange(1, q)[:, None]
            finer = full.cumulative[: -1 : full.S // (steps * q)].reshape(steps, q, 1)[:, 1:]
            b = finer - cumulative[:-1, None] - (i / q) * increments[:, None]
            bridge[q] = np.stack([b.sum(axis=1), (i * b).sum(axis=1)])
        thin = WienerPath(increments, cumulative, bridge)
        assert thin.bridge_functionals == functionals
        gap = exact_heat_solution(thin, grid) - exact_heat_solution(full, grid)
        squared.append(grid.l2_squared(gap))
    expected = oracle_deficit(steps, functionals) - oracle_deficit(full.S, ())
    assert expected == pytest.approx(1.04e-14, rel=0.01)
    assert expected / 3 <= np.mean(squared) <= 3 * expected


def test_window_oracle_meets_the_ito_isometry():
    """Over 4000 desk window draws, conv(mu) of window_heat_solution has the second moments
    int_0^1 exp(-(mu + nu)(1 - s)) ds of the exact solution, within 4 SE, for the continuous
    and semidiscrete rates of modes 2 and 3 together."""
    grid, oracle_modes = SpatialGrid(40), ("continuous", "semidiscrete")
    law = desk_heat_config().window_law
    samples = []
    for lo in range(0, 4000, 500):
        _, pieces = sample_windows([(9, r) for r in range(lo, lo + 500)], law)
        modes = [window_heat_solution(pieces, grid, mode)[1:3] for mode in oracle_modes]
        samples.append(np.vstack(modes).T)
    samples = np.concatenate(samples)
    rates = np.array(oracle_rates(grid))
    sums = np.add.outer(rates, rates)
    expected = -np.expm1(-sums) / sums
    for a in range(4):
        for b in range(a, 4):
            products = samples[:, a] * samples[:, b]
            se = products.std(ddof=1) / math.sqrt(products.size)
            assert abs(products.mean() - expected[a, b]) <= 4.0 * se, (a, b)


def test_benchmark_problem_layout():
    grid = SpatialGrid(40)
    mesh = TimeMesh(8)
    problem = benchmark_heat_problem(grid, mesh, noise_scale=2.0)
    assert problem.phi.shape == (1, grid.K)
    assert np.array_equal(problem.phi[0], 2.0 * (sine_mode(grid, 2) + sine_mode(grid, 3)))
    assert np.array_equal(problem.initial, sine_mode(grid, 1))
    nodes = grid.node_values(problem.phi[0])
    expected = 2.0 * (np.sin(2 * np.pi * grid.nodes) + np.sin(3 * np.pi * grid.nodes))
    np.testing.assert_allclose(nodes, expected, rtol=1e-13, atol=1e-14)
