"""Heat steppers against eigenmode formulas, dense solves, and Ito isometry.

States, initial data and Phi are sine amplitudes; the dense node-space
references take their node values through SpatialGrid.node_values.
"""

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
    WAVE_NOISE,
    WaveProblem,
    WienerPath,
    benchmark_heat_problem,
    desk_heat_config,
    dirichlet_eigenvalue,
    em_step,
    heat_step_map,
    l2_norm,
    mcn_heat_step,
    mcn_wave_step,
    run_heat,
    run_wave,
    sample_path,
    sine_mode,
)
from mcnspde.heat import oracle_rates, spatial_error_floor, window_heat_solution
from mcnspde.noise import WindowLaw, sample_windows


def value_at(path, t):
    """W(t) of a chunk of one by a float lookup of the master node at time t: the brute-force
    reference."""
    k = round(t / path.delta)
    assert abs(t - k * path.delta) <= 1e-12
    return path.cumulative[0, k]


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
        np.testing.assert_allclose(first[:, 0], rho * problem.initial, rtol=1e-12, atol=1e-14)
        final = run_heat(problem, path, scheme="mcn")
        np.testing.assert_allclose(
            final[:, 0], rho**mesh.N * problem.initial, rtol=1e-11, atol=1e-13
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
            final[:, 0], rho**mesh.N * problem.initial, rtol=1e-11, atol=1e-13
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

    got = grid.node_values(mcn_heat_step(problem, problem.initial, path, 0)[:, 0])
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

    got = grid.node_values(em_step(problem, x0, path, 0)[:, 0])
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
        got = grid.node_values(run_heat(problem, path, scheme)[:, 0])
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("scheme", ["mcn", "em"])
@pytest.mark.parametrize("n", [384, 1024])
def test_passes_equal_the_chain_of_single_steps(scheme, n):
    """run_heat as one march of n = 384 or 1024 steps, through A^n by doubling, equals n
    one-step calls on the same block.

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


@pytest.mark.parametrize("scheme", ["mcn", "em", "wave"])
def test_a_march_of_the_live_modes_equals_the_step_loop(scheme):
    """K = 16, Phi on modes 5 and 7 and X(0) on mode 11: one march of N = 128 steps, through
    A^128, equals 128 single steps on those modes for a chunk of 3 paths, to 1e-13 of each
    mode's largest amplitude (a wave amplitude can be a difference of close terms), and every
    other mode stays exactly 0.0 both ways."""
    grid, mesh = SpatialGrid(16), TimeMesh(128)
    phi = np.zeros((1, 16))
    phi[0, [4, 6]] = 0.7, -1.3
    initial = np.zeros(16)
    initial[10] = 1.0
    block = NoiseBlock.empty(mesh, 3, 1, WAVE_NOISE)  # every coordinate either scheme reads
    block.put(0, sample_path([(16, r) for r in range(3)], mesh))
    if scheme == "wave":
        problem = WaveProblem(grid, mesh, phi, initial, np.zeros(16))
        marched = np.stack(run_wave(problem, block))
        states = [problem.initial_displacement, problem.initial_velocity]
        for j in range(mesh.N):
            states = mcn_wave_step(problem, *states, block, j)
        stepped = np.stack(states)
    else:
        problem = HeatProblem(grid, mesh, phi, initial)
        marched = run_heat(problem, block, scheme)
        step = em_step if scheme == "em" else mcn_heat_step
        stepped = problem.initial
        for j in range(mesh.N):
            stepped = step(problem, stepped, block, j)
    live = [4, 6, 10]
    assert marched.shape == stepped.shape == marched.shape[:-2] + (16, 3)
    scale = np.abs(stepped[..., live, :]).max(axis=-1, keepdims=True)
    assert (scale > 0.0).all()
    assert (np.abs(marched[..., live, :] - stepped[..., live, :]) <= 1e-13 * scale).all()
    dead = np.delete(np.arange(16), live)
    assert (marched[..., dead, :] == 0.0).all() and (stepped[..., dead, :] == 0.0).all()


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
    matrix, loads = heat_step_map([problem], scheme)
    assert matrix.shape == (1, 1, 1, k)
    modal = basis.T @ step @ basis
    np.testing.assert_allclose(modal, np.diag(matrix[0, 0, 0]), rtol=0.0, atol=1e-12)
    columns = {"increments": phi, "gaps": lap @ phi}
    assert set(loads) == set(HEAT_NOISE[scheme])
    for name, load in loads.items():
        expected = math.sqrt(2.0 * grid.h) * basis.T @ np.linalg.solve(implicit, columns[name])
        np.testing.assert_allclose(
            load[0, 0], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
        )


def test_linear_path_run_matches_hand_recursion():
    """W(t) = t turns the correction into (tau^3/2) Lap Phi at every step."""
    k, n = 8, 4
    grid = SpatialGrid(k)
    mesh = TimeMesh(n)
    master_steps = 2**14  # keeps the left-point bias far below the tolerance
    delta = 1.0 / master_steps
    increments = np.full((1, master_steps, 1), delta)
    cumulative = np.zeros((1, master_steps + 1, 1))
    cumulative[:, 1:] = np.cumsum(increments, axis=1)
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

    got = grid.node_values(run_heat(problem, path, scheme="mcn")[:, 0])
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
            norms.append(l2_norm(grid.node_values(x[:, 0])))
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))


def test_exact_solution_silent_noise():
    """Zero pieces, or drawn ones at noise scale 0, leave the decay of mode 1 alone."""
    grid = SpatialGrid(40)
    law = desk_heat_config().window_law
    _, pieces = sample_windows([5, 6], law)
    for drawn, scale in ((np.zeros_like(pieces), 1.0), (pieces, 0.0)):
        cont = window_heat_solution(drawn, grid, "continuous", scale)
        decay = math.exp(-math.pi**2) * sine_mode(grid, 1)
        np.testing.assert_allclose(cont, np.stack([decay, decay], 1), rtol=1e-13, atol=0.0)
        semi = window_heat_solution(drawn, grid, "semidiscrete", scale)
        decay = math.exp(-dirichlet_eigenvalue(grid, 1)) * sine_mode(grid, 1)
        np.testing.assert_allclose(semi, np.stack([decay, decay], 1), rtol=1e-13, atol=0.0)


def test_exact_solution_config_errors():
    grid = SpatialGrid(10)
    _, pieces = sample_windows([9], desk_heat_config(k=10).window_law)
    with pytest.raises(ConfigError):
        window_heat_solution(pieces, grid, mode="spectral")


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
    """Marching paths as one block, or split, gives each path's run as the chunk of one
    bit for bit.

    At K = 12 five paths go as 5 and as 2 + 3; at the desk K = 40, 130
    paths go as blocks of 1, 12 and 130 and as 64 + 66.
    """
    shapes = ((12, 5, ((5,), (2, 3))), (40, 130, ((1,) * 12, (12,), (130,), (64, 66))))
    for k, count, splits in shapes:
        problem = benchmark_heat_problem(SpatialGrid(k), TimeMesh(16))
        paths = [sample_path((5, r), TimeMesh(32)) for r in range(count)]
        lone = np.concatenate([run_heat(problem, path, scheme) for path in paths], axis=1)
        for sizes in splits:
            blocks = noise_blocks(paths, problem.mesh, HEAT_NOISE[scheme], sizes)
            marched = np.concatenate([run_heat(problem, b, scheme) for b in blocks], axis=1)
            assert np.array_equal(marched, lone[:, : marched.shape[1]])


@pytest.mark.parametrize("scheme", ["mcn", "em"])
def test_run_heat_on_a_chunk_is_each_path_alone(scheme):
    """A chunk of n paths gives (K, n), column i bit for bit path i drawn as the chunk of
    one, by its key or by the list of its key, which gives (K, 1); so does a step."""
    problem = benchmark_heat_problem(SpatialGrid(12), TimeMesh(4))
    keys = [1, 2, 3]
    lone = [run_heat(problem, sample_path(key, TimeMesh(4)), scheme) for key in keys]
    assert all(x.shape == (12, 1) for x in lone)
    together = run_heat(problem, sample_path(keys, TimeMesh(4)), scheme)
    assert together.shape == (12, 3)
    np.testing.assert_array_equal(together, np.concatenate(lone, axis=1))
    one = run_heat(problem, sample_path([2], TimeMesh(4)), scheme)
    np.testing.assert_array_equal(one, lone[1])
    step = mcn_heat_step if scheme == "mcn" else em_step
    first = step(problem, problem.initial, sample_path(keys, TimeMesh(4)), 0)
    alone = step(problem, problem.initial, sample_path(3, TimeMesh(4)), 0)
    assert first.shape == (12, 3) and alone.shape == (12, 1)
    np.testing.assert_array_equal(first[:, [2]], alone)


@pytest.mark.parametrize("step", [em_step, mcn_heat_step], ids=["em", "mcn"])
def test_a_block_of_states_on_one_path_keeps_every_column(step):
    """A (K, R) state stepped on a chunk of one path gives (K, R), column r bit for bit
    that column alone, a (K, 1) result; on a chunk of another width the step raises."""
    problem = benchmark_heat_problem(SpatialGrid(10), TimeMesh(4))
    path = sample_path(1, TimeMesh(4))
    x = np.random.default_rng(10).standard_normal((10, 3))
    got = step(problem, x, path)
    assert got.shape == (10, 3)
    for r in range(3):
        np.testing.assert_array_equal(got[:, [r]], step(problem, x[:, r], path))
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
    """A chunk's oracle columns equal each path's oracle alone, bit for bit."""
    grid = SpatialGrid(12)
    config = desk_heat_config(n_list=(8, 16, 32), k=grid.K)
    keys = [(config.base_seed, r) for r in range(5)]
    law = config.window_law
    _, pieces = sample_windows(keys, law)
    together = window_heat_solution(pieces, grid, mode, 0.7)
    assert together.shape == (grid.K, len(keys))
    for i, key in enumerate(keys):
        alone = window_heat_solution(sample_windows([key], law)[1], grid, mode, 0.7)
        np.testing.assert_array_equal(alone, together[:, [i]])


def test_stochastic_convolution_zero_rate_is_endpoint():
    """As mu -> 0 the oracle piece of a window is its increment, so conv(mu) is W(1): at mu =
    1e-12 the drawn pieces of a rate-free heat law's windows sum to its endpoint to 1e-9.

    The piece's row is then, to rounding, the sum of the increment rows,
    which window_factor's pivot rule must carry without a spurious
    direction of its own.
    """
    law = WindowLaw(32, (1e-12,))
    path, pieces = sample_windows([(21, r) for r in range(3)], law)
    increments = path.increments[..., 0].reshape(3, law.windows, -1).sum(axis=2)
    np.testing.assert_allclose(pieces[..., 0], increments, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(pieces.sum(axis=1)[:, 0], path.cumulative[:, -1, 0], rtol=1e-9)


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


@pytest.mark.parametrize("k, scale", [(6, 0.7), (40, 1.0)])
def test_spatial_floor_is_its_quadrature(k, scale):
    """The closed form matches a 200-point Gauss-Legendre sum of int_0^1 (e^(-mu u) -
    e^(-lambda u))^2 du per noise mode, mu = (k pi)^2 and lambda the grid eigenvalue."""
    grid = SpatialGrid(k)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    u, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    total = (math.exp(-math.pi**2) - math.exp(-dirichlet_eigenvalue(grid, 1))) ** 2
    for mode in (2, 3):
        mu, lam = (mode * math.pi) ** 2, dirichlet_eigenvalue(grid, mode)
        total += scale**2 * np.sum(weights * (np.exp(-mu * u) - np.exp(-lam * u)) ** 2)
    assert spatial_error_floor(grid, scale) == pytest.approx(math.sqrt(0.5 * total), rel=1e-9)


@pytest.mark.parametrize("k, scale", [(6, 0.7), (40, 1.0)])
def test_spatial_floor_is_the_mean_oracle_gap(k, scale):
    """Over 4000 desk window draws, the squared L2 gap between the continuous and the
    semidiscrete window_heat_solution averages the square of the closed form within 4 SE."""
    grid, oracle_modes = SpatialGrid(k), ("continuous", "semidiscrete")
    law = desk_heat_config(k=k).window_law
    gaps = []
    for lo in range(0, 4000, 500):
        _, pieces = sample_windows([(11, r) for r in range(lo, lo + 500)], law)
        cont, semi = (window_heat_solution(pieces, grid, m, scale) for m in oracle_modes)
        gaps.append(grid.l2_squared(cont - semi))
    gaps = np.concatenate(gaps)
    se = gaps.std(ddof=1) / math.sqrt(gaps.size)
    assert abs(gaps.mean() - spatial_error_floor(grid, scale) ** 2) <= 4.0 * se


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
