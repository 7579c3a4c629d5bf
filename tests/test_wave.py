"""Wave stepper checks: step residuals, conservation, dense oracles, and the transformed scheme.

The last test re-derives the stepper from its change-of-variables form,
where the noise enters only the velocity equation as accumulated micro
sums, and confirms both formulations march to the same state.  States,
initial data and Phi are sine amplitudes; the dense node-space
references take their node values through SpatialGrid.node_values.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mcnspde import (
    AlignmentError,
    ConfigError,
    NoiseBlock,
    SpatialGrid,
    TimeMesh,
    WAVE_NOISE,
    WaveProblem,
    WienerPath,
    benchmark_wave_problem,
    dirichlet_eigenvalue,
    h1_seminorm,
    l2_norm,
    mcn_wave_step,
    run_wave,
    sample_path,
    sine_mode,
    wave_energy,
    wave_step_map,
)

# Residual tolerance of a step's defining relations, relative to 1 + the
# largest state magnitude of the column.
RESIDUAL_TOLERANCE = 1e-10


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


def random_problem(k, n, m, seed):
    grid = SpatialGrid(k)
    mesh = TimeMesh(n)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((m, k))
    x0 = rng.standard_normal(k)
    y0 = rng.standard_normal(k)
    return WaveProblem(grid, mesh, phi, x0, y0)


def one_path_block(path, mesh):
    """path reduced once to a block of one on mesh, for marching it step by step."""
    block = NoiseBlock.empty(mesh, 1, path.m, WAVE_NOISE)
    block.put(0, path)
    return block


def node_forcing(problem, block, j):
    """Step j's (displacement, velocity) forcing of every path of block, each (K, R).

    Phi gap_j, and Phi dW_j + Lap Phi v_j with v_j the weighted micro sum:
    the right-hand sides of the defining relations, formed in node space.
    """
    phi, lap = problem.grid.node_values(problem.phi.T), dense_laplacian(problem.grid.K)
    displacement = phi @ block.gaps[j].T
    velocity = phi @ block.increments[j].T + lap @ phi @ block.velocity_sums[j].T
    return displacement, velocity


def test_energy_conserved_without_noise():
    """Discrete energy of the silent scheme is flat to ~1e-12 per run."""
    grid = SpatialGrid(40)
    mesh = TimeMesh(256)
    problem = WaveProblem(
        grid, mesh, zero_phi(grid), sine_mode(grid, 1), np.zeros(grid.K)
    )
    block = one_path_block(sample_path(17, mesh), mesh)
    x, y = problem.initial_displacement, problem.initial_velocity
    e0 = wave_energy(problem, x, y)
    worst = 0.0
    for j in range(mesh.N):
        x, y = mcn_wave_step(problem, x, y, block, j)
        worst = max(worst, abs(wave_energy(problem, x[:, 0], y[:, 0]) - e0))
    assert worst <= 1e-9 * e0


def step_checking_residuals(problem, x, y, block, j):
    """mcn_wave_step, asserting both defining relations for every column of the step.

    X_{j+1} - X_j = (tau/2)(Y_{j+1} + Y_j) + displacement and
    Y_{j+1} - Y_j = (tau/2) Lap (X_{j+1} + X_j) + velocity, each to within
    RESIDUAL_TOLERANCE (1 + max|state|) of the column's own state, on node values.
    """
    tau = problem.mesh.tau
    displacement, velocity = node_forcing(problem, block, j)
    x_next, y_next = mcn_wave_step(problem, x, y, block, j)
    states = [problem.grid.node_values(v) for v in (x_next, y_next, x, y)]
    x_n, y_n, x_o, y_o = states
    scale = 1.0 + np.max([np.abs(v).max(axis=0) for v in states], axis=0)
    res_x = np.abs(x_n - x_o - 0.5 * tau * (y_n + y_o) - displacement).max(axis=0)
    lap_sum = dense_laplacian(problem.grid.K) @ (x_n + x_o)
    res_y = np.abs(y_n - y_o - 0.5 * tau * lap_sum - velocity).max(axis=0)
    assert np.all(res_x <= RESIDUAL_TOLERANCE * scale), f"displacement residual {res_x}"
    assert np.all(res_y <= RESIDUAL_TOLERANCE * scale), f"velocity residual {res_y}"
    return x_next, y_next


def test_every_step_solves_both_defining_relations():
    """Each step of a noisy (K, R) block and of the silent N = 256 benchmark."""
    problem = random_problem(k=12, n=16, m=2, seed=47)
    paths = [sample_path((471, r), TimeMesh(32), m=2) for r in range(3)]
    block = NoiseBlock.empty(problem.mesh, len(paths), 2, WAVE_NOISE)
    for r, path in enumerate(paths):
        block.put(r, path)
    x = np.repeat(problem.initial_displacement[:, None], len(paths), axis=1)
    y = np.repeat(problem.initial_velocity[:, None], len(paths), axis=1)
    for j in range(problem.mesh.N):
        x, y = step_checking_residuals(problem, x, y, block, j)

    # the silent benchmark of acceptance criterion 8
    grid, mesh = SpatialGrid(40), TimeMesh(256)
    problem = benchmark_wave_problem(grid, mesh, noise_scale=0.0)
    block = one_path_block(sample_path(20260814, mesh, m=1), mesh)
    x, y = (v[:, None] for v in (problem.initial_displacement, problem.initial_velocity))
    for j in range(mesh.N):
        x, y = step_checking_residuals(problem, x, y, block, j)


def test_energy_of_pure_mode():
    """E = ||Y||^2 - <Lap X, X> gives lam_k/2 for a unit sine displacement.

    On random amplitudes it equals the node-space l2_norm(Y)^2 + h1_seminorm(X)^2.
    """
    grid = SpatialGrid(25)
    mesh = TimeMesh(4)
    for k in (1, 5):
        problem = WaveProblem(
            grid, mesh, zero_phi(grid), sine_mode(grid, k), np.zeros(grid.K)
        )
        e = wave_energy(problem, problem.initial_displacement, problem.initial_velocity)
        assert e == pytest.approx(0.5 * dirichlet_eigenvalue(grid, k), rel=1e-12)
    x, y = np.random.default_rng(25).standard_normal((2, grid.K))
    nodes = l2_norm(grid.node_values(y)) ** 2 + h1_seminorm(grid.node_values(x)) ** 2
    assert wave_energy(problem, x, y) == pytest.approx(nodes, rel=1e-12)


def test_silent_step_is_time_reversible():
    """Negating the velocity and stepping again undoes a noise-free step."""
    problem = random_problem(k=15, n=8, m=1, seed=41)
    silent = WaveProblem(
        problem.grid,
        problem.mesh,
        zero_phi(problem.grid),
        problem.initial_displacement,
        problem.initial_velocity,
    )
    path = sample_path(411, TimeMesh(32))
    x, y = mcn_wave_step(silent, silent.initial_displacement, silent.initial_velocity, path, 0)
    back_x, back_y = mcn_wave_step(silent, x, -y, path, 0)
    np.testing.assert_allclose(back_x[:, 0], silent.initial_displacement, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(back_y[:, 0], -silent.initial_velocity, rtol=1e-12, atol=1e-13)


def test_one_step_dense_block_oracle():
    """The modal step agrees with a dense 2K x 2K block solve."""
    k, n, m = 9, 4, 2
    problem = random_problem(k, n, m, seed=43)
    mesh = problem.mesh
    tau = mesh.tau
    path = sample_path(431, TimeMesh(16), m=m)

    grid = problem.grid
    lap = dense_laplacian(k)
    eye = np.eye(k)
    phi = grid.node_values(problem.phi.T)
    w_lo, w_hi = value_at(path, 0.0), value_at(path, tau)
    dw = w_hi - w_lo
    micro = [value_at(path, mesh.micro_time(0, ell)) for ell in range(1, mesh.M + 1)]
    corr_x = phi @ (tau * tau * sum(micro) - 0.5 * tau * (w_lo + w_hi))
    corr_y = sum(
        0.5 * (tau - 2.0 * ell * tau * tau) * tau * tau * (lap @ (phi @ w))
        for ell, w in enumerate(micro, start=1)
    )
    x0 = grid.node_values(problem.initial_displacement)
    y0 = grid.node_values(problem.initial_velocity)

    block = np.block([[eye, -0.5 * tau * eye], [-0.5 * tau * lap, eye]])
    rhs = np.concatenate(
        [
            x0 + 0.5 * tau * y0 + corr_x,
            y0 + 0.5 * tau * lap @ x0 + phi @ dw + corr_y,
        ]
    )
    sol = np.linalg.solve(block, rhs)

    initial = (problem.initial_displacement, problem.initial_velocity)
    x1, y1 = (grid.node_values(v[:, 0]) for v in mcn_wave_step(problem, *initial, path, 0))
    np.testing.assert_allclose(x1, sol[:k], rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(y1, sol[k:], rtol=1e-11, atol=1e-13)


def test_eigenmode_rotation_recurrence():
    """Per mode the silent scheme is the 2x2 trapezoid rotation, applied N times."""
    grid = SpatialGrid(15)
    mesh = TimeMesh(32)
    path = sample_path(19, mesh)
    tau = mesh.tau
    for k, (a0, b0) in ((2, (1.0, 0.0)), (5, (0.3, -0.7))):
        lam = dirichlet_eigenvalue(grid, k)
        problem = WaveProblem(
            grid,
            mesh,
            zero_phi(grid),
            a0 * sine_mode(grid, k),
            b0 * sine_mode(grid, k),
        )
        left = np.array([[1.0, -0.5 * tau], [0.5 * tau * lam, 1.0]])
        right = np.array([[1.0, 0.5 * tau], [-0.5 * tau * lam, 1.0]])
        step = np.linalg.solve(left, right)
        coeff = np.linalg.matrix_power(step, mesh.N) @ np.array([a0, b0])
        x_n, y_n = (v[:, 0] for v in run_wave(problem, path))
        np.testing.assert_allclose(x_n, coeff[0] * sine_mode(grid, k), rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(y_n, coeff[1] * sine_mode(grid, k), rtol=1e-11, atol=1e-12)
    # |eigenvalues| = 1: the one-step map neither damps nor amplifies a mode
    lam = dirichlet_eigenvalue(grid, 3)
    left = np.array([[1.0, -0.5 * tau], [0.5 * tau * lam, 1.0]])
    right = np.array([[1.0, 0.5 * tau], [-0.5 * tau * lam, 1.0]])
    eigs = np.linalg.eigvals(np.linalg.solve(left, right))
    np.testing.assert_allclose(np.abs(eigs), 1.0, rtol=1e-12)


def transformed_march(problem, path):
    """March the change-of-variables form of the scheme with dense solves.

    Substituting U_j = X_j - sum_{m<j} sum_ell tau^2 Phi W(t_{m,ell}) and
    V_j = Y_j - Phi W(t_j) moves all noise into the velocity equation:

      U_{j+1} - U_j = (tau/2)(V_{j+1} + V_j)
      V_{j+1} - V_j = (tau/2) Lap (U_{j+1} + U_j)
                      + tau^3 Lap Phi sum_{m<j} s_m + Lap Phi cur_j

    with s_m = sum_ell W(t_{m,ell}) and
    cur_j = sum_ell (t_{j+1} - t_{j,ell}) tau^2 W(t_{j,ell}).
    """
    grid, mesh, phi = problem.grid, problem.mesh, problem.grid.node_values(problem.phi.T)
    k, m = grid.K, phi.shape[1]
    tau = mesh.tau
    lap = dense_laplacian(k)
    eye = np.eye(k)
    implicit = eye - 0.25 * tau**2 * lap
    explicit = eye + 0.25 * tau**2 * lap

    u = grid.node_values(problem.initial_displacement)
    v = grid.node_values(problem.initial_velocity)
    micro_running = np.zeros(m)  # sum over past intervals of s_m
    for j in range(mesh.N):
        t_next = mesh.coarse_time(j + 1)
        s_j = np.zeros(m)
        cur = np.zeros(m)
        for ell in range(1, mesh.M + 1):
            w = value_at(path, mesh.micro_time(j, ell))
            s_j += w
            cur += (t_next - mesh.micro_time(j, ell)) * tau * tau * w
        noise = lap @ (phi @ (tau**3 * micro_running + cur))
        v_next = np.linalg.solve(implicit, explicit @ v + tau * lap @ u + noise)
        u = u + 0.5 * tau * (v + v_next)
        v = v_next
        micro_running += s_j

    shift_x = tau * tau * (phi @ micro_running)
    shift_y = phi @ value_at(path, 1.0)
    return u + shift_x, v + shift_y


def test_matches_transformed_formulation():
    """Original and transformed marches land on the same (X_N, Y_N)."""
    problem = random_problem(k=12, n=16, m=2, seed=47)
    path = sample_path(471, TimeMesh(32), m=2)
    x_direct, y_direct = (problem.grid.node_values(v[:, 0]) for v in run_wave(problem, path))
    x_uv, y_uv = transformed_march(problem, path)
    np.testing.assert_allclose(x_direct, x_uv, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(y_direct, y_uv, rtol=1e-9, atol=1e-11)


def test_run_wave_rejects_misaligned_path():
    """A path whose master grid misses the micro nodes is refused, not interpolated."""
    problem = benchmark_wave_problem(SpatialGrid(10), TimeMesh(16))
    with pytest.raises(AlignmentError):
        run_wave(problem, sample_path(1, TimeMesh(8)))


def test_block_march_equals_one_path_runs():
    """Marching paths as one block, or split, gives each path's run as the chunk of one
    bit for bit.

    At K = 10 five paths go as 5 and as 2 + 3; at the desk K = 40, 130
    paths go as blocks of 1, 12 and 130 and as 64 + 66.
    """
    shapes = ((10, 5, ((5,), (2, 3))), (40, 130, ((1,) * 12, (12,), (130,), (64, 66))))
    for k, count, splits in shapes:
        problem = random_problem(k=k, n=8, m=1, seed=61)
        paths = [sample_path((6, r), TimeMesh(32)) for r in range(count)]
        lone = [run_wave(problem, path) for path in paths]
        for sizes in splits:
            start = 0
            for size in sizes:
                block = NoiseBlock.empty(problem.mesh, size, 1, WAVE_NOISE)
                for r in range(size):
                    block.put(r, paths[start + r])
                x, y = run_wave(problem, block)
                for r in range(size):
                    assert np.array_equal(x[:, [r]], lone[start + r][0])
                    assert np.array_equal(y[:, [r]], lone[start + r][1])
                start += size
    # a run on the refined mesh takes a block on that mesh, and the coarse run refuses it
    fine = NoiseBlock.empty(TimeMesh(16), 1, 1, WAVE_NOISE)
    fine.put(0, paths[0])
    refined = replace(problem, mesh=TimeMesh(16))
    x_ref, y_ref = run_wave(refined, fine)
    x_one, y_one = run_wave(refined, paths[0])
    assert x_one.shape == y_one.shape == (problem.grid.K, 1)
    assert np.array_equal(x_ref, x_one) and np.array_equal(y_ref, y_one)
    with pytest.raises(AlignmentError):
        run_wave(problem, fine)


def test_chunk_march_equals_one_path_runs():
    """A chunk of n paths gives (K, n) blocks, column i bit for bit path i drawn as the chunk
    of one, which gives (K, 1) blocks; so do a step and a run on a finer mesh."""
    problem = random_problem(k=10, n=4, m=1, seed=63)
    keys = [4, 5, 6]
    x, y = run_wave(problem, sample_path(keys, TimeMesh(4)))
    assert x.shape == y.shape == (10, 3)
    step = mcn_wave_step(problem, x + 1.0, y + 1.0, sample_path(keys, TimeMesh(4)), 2)
    for i, key in enumerate(keys):
        x_one, y_one = run_wave(problem, sample_path(key, TimeMesh(4)))
        assert x_one.shape == y_one.shape == (10, 1)
        np.testing.assert_array_equal(x[:, [i]], x_one)
        np.testing.assert_array_equal(y[:, [i]], y_one)
        alone = mcn_wave_step(problem, x_one + 1.0, y_one + 1.0, sample_path(key, TimeMesh(4)), 2)
        for column, expected in zip(step, alone):
            np.testing.assert_array_equal(column[:, [i]], expected)
    refined = replace(problem, mesh=TimeMesh(8))
    x_ref, _ = run_wave(refined, sample_path([5], TimeMesh(8)))
    assert x_ref.shape == (10, 1)
    np.testing.assert_array_equal(x_ref, run_wave(refined, sample_path(5, TimeMesh(8)))[0])


def test_a_block_of_states_on_one_path_keeps_every_column():
    """(K, R) states stepped on a chunk of one path give (K, R), column r bit for bit that
    column alone, a (K, 1) result; on a chunk of another width the step raises."""
    problem = benchmark_wave_problem(SpatialGrid(10), TimeMesh(4))
    path = sample_path(1, TimeMesh(4))
    x, y = np.random.default_rng(10).standard_normal((2, 10, 3))
    got = mcn_wave_step(problem, x, y, path)
    assert [v.shape for v in got] == [(10, 3), (10, 3)]
    for r in range(3):
        alone = mcn_wave_step(problem, x[:, r], y[:, r], path)
        for column, expected in zip(got, alone):
            np.testing.assert_array_equal(column[:, [r]], expected)
    with pytest.raises(ValueError):
        mcn_wave_step(problem, x, y, sample_path([1, 2], TimeMesh(4)))


@pytest.mark.parametrize("n", [384, 1024])
def test_passes_equal_the_chain_of_single_steps(n):
    """run_wave in 3 or 8 passes of 128 steps equals n one-step calls on the same block.

    K = 40, m = 2 and a block of 3 paths with random coordinates, scaled
    by tau^(1/2, 3/2, 5/2) like the increments, gaps and velocity sums.
    """
    rng = np.random.default_rng(n)
    problem = random_problem(40, n, 2, seed=n)
    mesh = problem.mesh
    powers = {"increments": 0.5, "gaps": 1.5, "velocity_sums": 2.5}
    block = NoiseBlock(
        mesh, **{name: rng.standard_normal((n, 3, 2)) * mesh.tau**p for name, p in powers.items()}
    )
    x, y = problem.initial_displacement, problem.initial_velocity
    for j in range(n):
        x, y = mcn_wave_step(problem, x, y, block, j)
    for got, expected in zip(run_wave(problem, block), (x, y)):
        np.testing.assert_allclose(
            got, expected, rtol=1e-12, atol=1e-13 * np.abs(expected).max()
        )


def dense_wave_march(problem, path):
    """Node values of (X_N, Y_N) by np.linalg.solve of the coupled 2K x 2K defining relations
    at every step."""
    grid, mesh = problem.grid, problem.mesh
    k, phi = grid.K, grid.node_values(problem.phi.T)
    lap, eye, tau = dense_laplacian(k), np.eye(k), mesh.tau
    left = np.block([[eye, -0.5 * tau * eye], [-0.5 * tau * lap, eye]])
    right = np.block([[eye, 0.5 * tau * eye], [0.5 * tau * lap, eye]])
    initial = (problem.initial_displacement, problem.initial_velocity)
    state = np.concatenate([grid.node_values(v) for v in initial])
    for j in range(mesh.N):
        t_lo, t_hi = mesh.coarse_time(j), mesh.coarse_time(j + 1)
        w_lo, w_hi = value_at(path, t_lo), value_at(path, t_hi)
        gap = -0.5 * tau * (w_lo + w_hi)
        velocity_sum = np.zeros(phi.shape[1])
        for ell in range(1, mesh.M + 1):
            t_ell = mesh.micro_time(j, ell)
            w = value_at(path, t_ell)
            gap = gap + tau * tau * w
            velocity_sum += 0.5 * (2.0 * t_hi - tau - 2.0 * t_ell) * tau * tau * w
        forcing = np.concatenate([phi @ gap, phi @ (w_hi - w_lo) + lap @ phi @ velocity_sum])
        state = np.linalg.solve(left, right @ state + forcing)
    return state[:k], state[k:]


@pytest.mark.parametrize("k", [2, 9, 40])
@pytest.mark.parametrize("m", [1, 2])
def test_run_matches_dense_recursion(k, m):
    """run_wave reproduces the node-space recursion of dense block solves, N = 1, 4 and 16."""
    for n in (1, 4, 16):
        problem = random_problem(k, n, m, seed=1000 * k + m)
        path = sample_path(1000 * k + 10 * m + n, TimeMesh(16), m=m)
        got = [problem.grid.node_values(v[:, 0]) for v in run_wave(problem, path)]
        for got, expected in zip(got, dense_wave_march(problem, path)):
            np.testing.assert_allclose(
                got, expected, rtol=1e-11, atol=1e-13 * np.abs(expected).max()
            )


def test_step_map_is_the_dense_step_in_the_sine_basis():
    """Each block of S^T P S is diagonal, one 2x2 map per mode, equal to the stepped matrix.

    P and the three forcing columns come from np.linalg.solve of the
    node-space 2K x 2K implicit system on the identity, on (Phi, 0)
    (the gap), (0, Phi) (the increment) and (0, Lap Phi) (the velocity sum);
    the loads are their amplitudes, sqrt(2h) S^T.
    """
    k, n = 40, 8
    problem = random_problem(k, n, m=2, seed=79)
    lap, eye, tau = dense_laplacian(k), np.eye(k), problem.mesh.tau
    h = 1.0 / (k + 1)
    index = np.arange(1, k + 1)
    basis = math.sqrt(2.0 * h) * np.sin(math.pi * h * np.outer(index, index))
    left = np.block([[eye, -0.5 * tau * eye], [-0.5 * tau * lap, eye]])
    right = np.block([[eye, 0.5 * tau * eye], [0.5 * tau * lap, eye]])
    step = np.linalg.solve(left, right)
    matrix, loads = wave_step_map(problem)
    assert matrix.shape == (2, 2, k)
    for a in range(2):
        for b in range(2):
            modal = basis.T @ step[a * k : (a + 1) * k, b * k : (b + 1) * k] @ basis
            np.testing.assert_allclose(modal, np.diag(matrix[a, b]), rtol=0.0, atol=1e-12)
    phi = problem.grid.node_values(problem.phi.T)
    zero = np.zeros_like(phi)
    columns = {
        "gaps": np.vstack([phi, zero]),
        "increments": np.vstack([zero, phi]),
        "velocity_sums": np.vstack([zero, lap @ phi]),
    }
    for name, column in columns.items():
        solved = np.linalg.solve(left, column)
        for a in range(2):
            expected = math.sqrt(2.0 * h) * basis.T @ solved[a * k : (a + 1) * k]
            np.testing.assert_allclose(
                loads[name][a], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
            )


def test_run_is_affine_in_initial_data():
    problem = random_problem(k=11, n=8, m=1, seed=59)
    path = sample_path(591, TimeMesh(64))
    zero = WienerPath(np.zeros_like(path.increments), np.zeros_like(path.cumulative))
    grid = problem.grid
    u = problem.initial_displacement
    v = problem.initial_velocity
    x_full, y_full = run_wave(problem, path)
    x_noise, y_noise = run_wave(
        WaveProblem(grid, problem.mesh, problem.phi, np.zeros(grid.K), np.zeros(grid.K)),
        path,
    )
    x_det, y_det = run_wave(WaveProblem(grid, problem.mesh, problem.phi, u, v), zero)
    np.testing.assert_allclose(x_full, x_noise + x_det, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(y_full, y_noise + y_det, rtol=1e-10, atol=1e-12)


def test_benchmark_problem_layout():
    grid = SpatialGrid(40)
    mesh = TimeMesh(8)
    problem = benchmark_wave_problem(grid, mesh, noise_scale=0.5)
    assert np.array_equal(problem.phi, [0.5 * (sine_mode(grid, 2) + sine_mode(grid, 3))])
    assert np.array_equal(problem.initial_displacement, sine_mode(grid, 1))
    assert not problem.initial_velocity.any()


def test_problem_rejects_mismatched_grids():
    grid = SpatialGrid(10)
    other = SpatialGrid(11)
    mesh = TimeMesh(4)
    with pytest.raises(ConfigError):
        WaveProblem(
            grid, mesh, zero_phi(other), sine_mode(grid, 1), np.zeros(grid.K)
        )
    with pytest.raises(ConfigError):
        WaveProblem(
            grid, mesh, zero_phi(grid), sine_mode(grid, 1), np.zeros(other.K)
        )
