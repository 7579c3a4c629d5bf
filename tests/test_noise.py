"""Path sampling, alignment rules, and micro-grid quadrature oracles.

The mesh accessor and the forcings the steppers apply (recovered from one
step from rest) are cross-checked three ways: against explicit loops that
look path values up by time, against closed forms on the deterministic
path W(t) = t, and against exact second-moment formulas via small Monte
Carlo runs.
"""

import math

import numpy as np
import pytest

from mcnspde import (
    AlignmentError,
    HeatProblem,
    NoiseBlock,
    SpatialGrid,
    TimeMesh,
    WaveProblem,
    WienerPath,
    defect_moment_exact,
    em_step,
    mcn_heat_step,
    mcn_wave_step,
    mesh_values,
    sample_path,
    sine_mode,
    wave_micro_sum_moment_exact,
)
from mcnspde.heat import oracle_rates
from mcnspde.noise import (
    WindowLaw,
    bridge_covariance,
    bridge_factor,
    master_strides,
    sample_windows,
    window_factor,
)
from mcnspde.validation import _cell_block, heat_defect_block


def value_at(path, t):
    """W(t) by a float lookup of the master node at time t: the brute-force reference."""
    k = round(t / path.delta)
    assert abs(t - k * path.delta) <= 1e-12
    return path.cumulative[k]


def dense_laplacian(k):
    h = 1.0 / (k + 1)
    off = np.ones(k - 1)
    return (np.diag(off, -1) - 2.0 * np.eye(k) + np.diag(off, 1)) / h**2


def node_phi(grid, phi):
    """Node values of the amplitude rows of phi, (m, K) like phi."""
    return grid.node_values(phi.T).T


def heat_problem(grid, phi, mesh):
    return HeatProblem(grid, mesh, phi, np.zeros(grid.K))


def wave_problem(grid, phi, mesh):
    return WaveProblem(grid, mesh, phi, np.zeros(grid.K), np.zeros(grid.K))


def heat_forcing(problem, path, scheme="mcn"):
    """The node-space forcing each step of the scheme applied, shape (N, K).

    From rest, a step gives X = A^-1 F with A the scheme's implicit
    matrix, so F is A times the node values of one step of the scheme
    from zero.
    """
    grid, tau = problem.grid, problem.mesh.tau
    implicit = np.eye(grid.K) - (1.0 if scheme == "em" else 0.5) * tau * dense_laplacian(grid.K)
    step = em_step if scheme == "em" else mcn_heat_step
    rest = np.zeros(grid.K)
    steps = [grid.node_values(step(problem, rest, path, j)) for j in range(problem.mesh.N)]
    return np.stack([implicit @ x for x in steps])


def wave_forcing(problem, path):
    """The node-space (displacement, velocity) forcing each step of the wave scheme applied,
    each (N, K).

    From rest, a step gives X = (tau/2) Y + displacement and
    Y = (tau/2) Lap X + velocity.
    """
    grid, tau, rest = problem.grid, problem.mesh.tau, np.zeros(problem.grid.K)
    lap = dense_laplacian(grid.K)
    steps = [
        [grid.node_values(v) for v in mcn_wave_step(problem, rest, rest, path, j)]
        for j in range(problem.mesh.N)
    ]
    displacement = np.stack([x - 0.5 * tau * y for x, y in steps])
    velocity = np.stack([y - 0.5 * tau * lap @ x for x, y in steps])
    return displacement, velocity


def linear_path(master_steps, m=1):
    """Deterministic path W(t) = t in every component."""
    delta = 1.0 / master_steps
    increments = np.full((master_steps, m), delta)
    cumulative = np.zeros((master_steps + 1, m))
    cumulative[1:] = np.cumsum(increments, axis=0)
    return WienerPath(increments, cumulative)


def constant_path(master_steps, value, m=1):
    """Path frozen at a constant vector; only valid for quadrature tests."""
    increments = np.zeros((master_steps, m))
    cumulative = np.full((master_steps + 1, m), float(value))
    return WienerPath(increments, cumulative)


def test_mesh_micro_count():
    mesh = TimeMesh(8)
    assert mesh.tau == pytest.approx(0.125, rel=1e-15)
    assert mesh.M == 8
    assert mesh.micro_time(2, 3) == pytest.approx(0.25 + 3 / 64, rel=1e-14)
    assert mesh.micro_time(2, mesh.M) == pytest.approx(mesh.coarse_time(3), rel=1e-14)


def test_mesh_rejects_non_integer_micro_count():
    with pytest.raises(ValueError):
        TimeMesh(0)


def test_mesh_index_bounds():
    mesh = TimeMesh(4)
    with pytest.raises(ValueError):
        mesh.coarse_time(5)
    with pytest.raises(ValueError):
        mesh.micro_time(4, 0)
    with pytest.raises(ValueError):
        mesh.micro_time(0, mesh.M + 1)


def test_sample_path_reproducible():
    mesh = TimeMesh(16)
    a = sample_path(123, mesh, m=2)
    b = sample_path(123, mesh, m=2)
    c = sample_path(124, mesh, m=2)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_sample_path_draws_the_micro_grid_of_its_mesh():
    """S = N*M master steps: the seed's Philox normals scaled by sqrt(1/S), bit for bit."""
    path = sample_path((5, 3), TimeMesh(16), m=2)
    assert path.S == 256
    normals = np.random.Generator(np.random.Philox(key=(5, 3))).standard_normal((256, 2))
    np.testing.assert_array_equal(path.increments, normals * math.sqrt(1.0 / 256))
    assert sample_path(0, TimeMesh(3)).S == 9
    # bridge levels are drawn after the master grid, which they leave unchanged
    bridged = sample_path((5, 3), TimeMesh(16), m=2, fine=[TimeMesh(64)])
    assert (bridged.S, list(bridged.bridge), bridged.bridge[16].shape) == (256, [16], (2, 256, 2))
    np.testing.assert_array_equal(bridged.increments, path.increments)
    levels = sample_path((5, 3), TimeMesh(16), m=2, fine=[TimeMesh(64), TimeMesh(32)])
    assert {q: sums.shape for q, sums in levels.bridge.items()} == {
        4: (2, 256, 2),
        16: (2, 256, 2),
    }
    assert levels.bridge_functionals == ((4, 0), (4, 1), (16, 0), (16, 1))
    assert sample_path(0, TimeMesh(16), fine=[TimeMesh(16), TimeMesh(8)]).bridge == {}
    # a list of keys draws a chunk whose rows are the keys' lone paths, bit for bit
    keys = [(5, 3), 7, (5, 4)]
    for fine in ([TimeMesh(64)], [TimeMesh(32), TimeMesh(64)], []):
        chunk = sample_path(keys, TimeMesh(16), 2, fine)
        assert chunk.increments.shape == (3, 256, 2) and chunk.cumulative.shape == (3, 257, 2)
        for row, key in enumerate(keys):
            lone = sample_path(key, TimeMesh(16), 2, fine)
            np.testing.assert_array_equal(chunk.increments[row], lone.increments)
            np.testing.assert_array_equal(chunk.cumulative[row], lone.cumulative)
            assert list(chunk.bridge) == list(lone.bridge)
            for q, sums in lone.bridge.items():
                np.testing.assert_array_equal(chunk.bridge[q][row], sums)


def test_sample_path_cumulative_consistency():
    mesh = TimeMesh(32)
    path = sample_path(7, mesh, m=3)
    assert path.cumulative[0] == pytest.approx(0.0)
    np.testing.assert_allclose(
        np.diff(path.cumulative, axis=0), path.increments, rtol=0, atol=1e-15
    )
    assert path.S * path.delta == pytest.approx(1.0, rel=1e-15)


def test_sample_path_increment_scale():
    """Increment variance matches the master step within a CLT band."""
    mesh = TimeMesh(128)
    path = sample_path(99, mesh, m=1)
    var = float(np.mean(path.increments**2))
    se = math.sqrt(2.0 / path.S) * path.delta
    assert abs(var - path.delta) <= 4 * se


def test_mesh_values_require_master_nodes():
    mesh = TimeMesh(4)
    path = sample_path(1, TimeMesh(8))
    coarse, micro = mesh_values(path.cumulative, mesh)
    assert coarse.shape == (mesh.N + 1, 1)
    assert micro.shape == (mesh.N, mesh.M, 1)
    np.testing.assert_array_equal(micro[0, 2], value_at(path, 3 / 16))
    with pytest.raises(AlignmentError):
        mesh_values(path.cumulative[:41], mesh)  # 40 master steps per 16 micro steps
    with pytest.raises(AlignmentError):
        mesh_values(np.zeros((9, 1)), mesh)  # master grid coarser than the micro grid


def test_mesh_values_are_views():
    """Coarse and micro nodes are read without copying, for a path and for a block."""
    mesh = TimeMesh(8)
    path = sample_path(2, TimeMesh(32), m=2)
    block = np.stack([path.cumulative, 2.0 * path.cumulative])
    for cumulative in (path.cumulative, block):
        coarse, micro = mesh_values(cumulative, mesh)
        assert np.shares_memory(coarse, cumulative)
        assert np.shares_memory(micro, cumulative)
    coarse, micro = mesh_values(block, mesh)
    assert micro.shape == (2, mesh.N, mesh.M, 2)
    np.testing.assert_array_equal(micro[1], 2.0 * mesh_values(path.cumulative, mesh)[1])
    np.testing.assert_array_equal(coarse[:, -1], block[:, -1])


def test_master_strides_alignment():
    assert master_strides(TimeMesh(4), 256) == (64, 16)
    assert master_strides(TimeMesh(3), 18) == (6, 2)
    assert master_strides(TimeMesh(4096), 2**24) == (4096, 1)
    with pytest.raises(AlignmentError):
        master_strides(TimeMesh(4), 8)  # master grid coarser than the micro grid
    with pytest.raises(AlignmentError):
        master_strides(TimeMesh(4), 40)  # 40 master steps per 16 micro steps


def test_sample_path_argument_validation():
    mesh = TimeMesh(8)
    with pytest.raises(ValueError):
        sample_path(5, mesh, m=0)
    with pytest.raises(ValueError):
        sample_path(-1, mesh)


def micro_riemann_sums(path, mesh):
    """tau^2 sum_l W(t_{j,l}) for every interval, from the accessor; shape (N, m)."""
    return mesh.tau**2 * mesh_values(path.cumulative, mesh)[1].sum(axis=1)


def test_micro_riemann_sum_brute_force():
    """Mesh-wide micro sum equals a literal double loop over micro nodes."""
    mesh = TimeMesh(4)
    path = sample_path(42, TimeMesh(16), m=2)
    tau = mesh.tau
    sums = micro_riemann_sums(path, mesh)
    for j in range(mesh.N):
        by_hand = np.zeros(2)
        for ell in range(1, mesh.M + 1):
            by_hand += tau * tau * value_at(path, mesh.micro_time(j, ell))
        np.testing.assert_allclose(sums[j], by_hand, rtol=1e-13, atol=1e-16)


def test_micro_values_shape_and_content():
    mesh = TimeMesh(4)
    path = sample_path(8, TimeMesh(16), m=2)
    coarse, micro = mesh_values(path.cumulative, mesh)
    assert micro.shape == (mesh.N, mesh.M, 2)
    for j in range(mesh.N):
        np.testing.assert_array_equal(coarse[j], value_at(path, mesh.coarse_time(j)))
        for ell in range(1, mesh.M + 1):
            np.testing.assert_array_equal(
                micro[j, ell - 1], value_at(path, mesh.micro_time(j, ell))
            )
    np.testing.assert_array_equal(micro[1, -1], value_at(path, mesh.coarse_time(2)))


def test_micro_riemann_sum_linear_path_closed_form():
    """For W(t) = t the micro sum is tau*t_j + tau^2 (1 + tau)/2."""
    mesh = TimeMesh(4)
    path = linear_path(master_steps=256)
    tau = mesh.tau
    sums = micro_riemann_sums(path, mesh)[:, 0]
    for j in range(mesh.N):
        expected = tau * mesh.coarse_time(j) + tau * tau * (1.0 + tau) / 2.0
        assert sums[j] == pytest.approx(expected, rel=1e-12)
    # frozen spot value for j = 1
    assert sums[1] == pytest.approx(0.1015625, rel=1e-12)


def test_micro_defect_linear_path_closed_form():
    """W(t) = t gives the defect -tau^3/2 exactly."""
    mesh = TimeMesh(4)
    h = mesh.tau**2
    cells_shape = (1, mesh.N, mesh.M, 1)
    # W(t) = t on the micro grid, with its cell integrals dW = h,
    # int_0^h u du = h^2/2 and int_0^h u^2 du = h^3/3.
    block = h * np.arange(mesh.N * mesh.M + 1.0)[None, :, None]
    cells = tuple(np.full(cells_shape, h**p / p) for p in (1, 2, 3))
    defects = heat_defect_block(block, mesh, cells)
    assert defects.shape == (1, mesh.N, 1)
    for j in range(mesh.N):
        assert defects[0, j, 0] == pytest.approx(-0.5 * mesh.tau**3, rel=1e-12)


def test_defect_moment_small_monte_carlo():
    """Sample second moment of the defect meets (m/3) tau^5 within 3 SE."""
    mesh = TimeMesh(8)
    m = 2
    rng = np.random.Generator(np.random.Philox(key=9000))
    block, cells = _cell_block(rng, 400, mesh, m)
    sq = (heat_defect_block(block, mesh, cells) ** 2).sum(axis=2).ravel()
    mean = sq.mean()
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(mean - defect_moment_exact(mesh.tau, m)) <= 3 * se


def test_defect_moment_exact_values():
    assert defect_moment_exact(0.5, 1) == pytest.approx(0.5**5 / 3.0, rel=1e-15)
    assert defect_moment_exact(0.25, 3) == pytest.approx(0.25**5, rel=1e-15)
    with pytest.raises(ValueError):
        defect_moment_exact(0.5, -1)


def test_wave_micro_sum_moment_matches_double_loop():
    """Collapsed single-pass formula equals the literal min() double sum."""
    mesh = TimeMesh(4)
    for j in (0, 2):
        for m in (1, 2):
            tau, M = mesh.tau, mesh.M
            double = 0.0
            for a in range(1, M + 1):
                for b in range(1, M + 1):
                    double += min(mesh.micro_time(j, a), mesh.micro_time(j, b))
            expected = m * tau**8 / 4.0 * double
            got = wave_micro_sum_moment_exact(mesh, j, m)
            assert got == pytest.approx(expected, rel=1e-13)


def combine(phi, weights):
    """sum_i Phi_i * weights_i of the (m, K) rows of phi: weights (m,) give (K,), (R, m) (K, R)."""
    return np.einsum("ik,...i->k...", phi, weights)


def test_combine_matches_loop():
    rng = np.random.default_rng(17)
    comps = [rng.standard_normal(9) for _ in range(3)]
    phi = np.array(comps)
    w = rng.standard_normal(3)
    expected = sum(wi * ci for wi, ci in zip(w, comps))
    np.testing.assert_allclose(combine(phi, w), expected, rtol=1e-13)
    # the weight rows of R paths combine into the R columns of a (K, R) block
    stacked = combine(phi, np.stack([w, 2.0 * w]))
    np.testing.assert_allclose(stacked, np.stack([expected, 2.0 * expected], axis=1), rtol=1e-13)


def test_heat_correction_brute_force():
    """The heat step's forcing is Phi dW plus Lap Phi weighted by the quadrature gap."""
    grid = SpatialGrid(10)
    mesh = TimeMesh(4)
    rng = np.random.default_rng(23)
    amplitudes = rng.standard_normal((2, 10))
    phi = node_phi(grid, amplitudes)
    path = sample_path(55, TimeMesh(16), m=2)
    lap = dense_laplacian(10)
    tau = mesh.tau
    forcing = heat_forcing(heat_problem(grid, amplitudes, mesh), path, "mcn")
    assert forcing.shape == (mesh.N, 10)
    for j in range(mesh.N):
        w_lo = value_at(path, mesh.coarse_time(j))
        w_hi = value_at(path, mesh.coarse_time(j + 1))
        micro_sum = sum(
            tau * tau * value_at(path, mesh.micro_time(j, ell)) for ell in range(1, mesh.M + 1)
        )
        gap = micro_sum - 0.5 * tau * (w_lo + w_hi)
        by_hand = np.zeros(10)
        for i in range(len(phi)):
            by_hand += (w_hi - w_lo)[i] * phi[i] + gap[i] * (lap @ phi[i])
        np.testing.assert_allclose(forcing[j], by_hand, rtol=1e-12, atol=1e-15)
    # Euler-Maruyama takes Phi dW alone; recovered from a step, it agrees to rounding
    em = heat_forcing(heat_problem(grid, amplitudes, mesh), path, "em")
    np.testing.assert_allclose(
        em,
        combine(phi, np.diff(mesh_values(path.cumulative, mesh)[0], axis=0)).T,
        rtol=1e-12,
        atol=1e-15,
    )


def test_heat_correction_linear_path_scale():
    """On W(t) = t the quadrature gap is exactly tau^3/2 in every interval."""
    grid = SpatialGrid(8)
    mesh = TimeMesh(4)
    path = linear_path(master_steps=256)
    phi = sine_mode(grid, 2)[None]
    scale = 0.5 * mesh.tau**3  # 1/128
    assert scale == pytest.approx(1.0 / 128.0, rel=1e-15)
    np.testing.assert_allclose(reduced(path, mesh, HEAT_COORDINATES).gaps, scale, rtol=1e-10)
    problem = heat_problem(grid, phi, mesh)
    corr = heat_forcing(problem, path, "mcn") - heat_forcing(problem, path, "em")
    for j in range(mesh.N):
        lap_phi = dense_laplacian(grid.K) @ np.sin(2 * np.pi * grid.nodes)
        np.testing.assert_allclose(corr[j], scale * lap_phi, rtol=1e-10)


def test_corrections_vanish_on_constant_path():
    grid = SpatialGrid(8)
    mesh = TimeMesh(8)
    path = constant_path(master_steps=1024, value=1.7)
    phi = sine_mode(grid, 3)[None]
    # dW vanishes too, so the whole heat forcing and displacement forcing do
    forcing = heat_forcing(heat_problem(grid, phi, mesh), path)
    np.testing.assert_allclose(forcing, 0.0, atol=1e-14)
    displacement, _ = wave_forcing(wave_problem(grid, phi, mesh), path)
    np.testing.assert_allclose(displacement, 0.0, atol=1e-14)


def test_wave_velocity_correction_constant_path():
    """A frozen path leaves only the -(tau^3/2) Lap Phi term."""
    grid = SpatialGrid(8)
    mesh = TimeMesh(8)
    value = -0.8
    path = constant_path(master_steps=1024, value=value)
    phi = sine_mode(grid, 2)[None]
    lap_phi = dense_laplacian(grid.K) @ np.sin(2 * np.pi * grid.nodes)
    expected = -0.5 * mesh.tau**3 * value * lap_phi
    _, velocity = wave_forcing(wave_problem(grid, phi, mesh), path)
    for j in range(mesh.N):
        np.testing.assert_allclose(velocity[j], expected, rtol=1e-12)


def test_wave_corrections_brute_force():
    """The wave step's displacement and velocity forcings match their defining sums."""
    grid = SpatialGrid(9)
    mesh = TimeMesh(4)
    rng = np.random.default_rng(31)
    amplitudes = rng.standard_normal((2, 9))
    phi = node_phi(grid, amplitudes)
    path = sample_path(77, TimeMesh(16), m=2)
    lap = dense_laplacian(9)
    tau = mesh.tau
    displacement, velocity = wave_forcing(wave_problem(grid, amplitudes, mesh), path)
    for j in range(mesh.N):
        t_next = mesh.coarse_time(j + 1)
        disp = np.zeros(9)
        velo = np.zeros(9)
        for ell in range(1, mesh.M + 1):
            t_ell = mesh.micro_time(j, ell)
            w = value_at(path, t_ell)
            for i in range(len(phi)):
                disp += tau * tau * w[i] * phi[i]
                weight = 0.5 * (2.0 * t_next - tau - 2.0 * t_ell) * tau * tau
                velo += weight * w[i] * (lap @ phi[i])
        w_lo = value_at(path, mesh.coarse_time(j))
        w_hi = value_at(path, t_next)
        for i in range(len(phi)):
            disp -= 0.5 * tau * (w_lo + w_hi)[i] * phi[i]
            velo += (w_hi - w_lo)[i] * phi[i]
        np.testing.assert_allclose(displacement[j], disp, rtol=1e-11, atol=1e-15)
        np.testing.assert_allclose(velocity[j], velo, rtol=1e-11, atol=1e-15)


WAVE_COORDINATES = ("increments", "gaps", "velocity_sums")
HEAT_COORDINATES = ("increments", "gaps")


def path_on_bridge_levels(full, steps, levels):
    """full's master grid thinned to steps, with each level's bridge sums of full's nodes."""
    cumulative = full.cumulative[:: full.S // steps]
    increments = np.diff(cumulative, axis=0)
    bridge = {}
    for q in levels:
        i = np.arange(1, q)[:, None]
        finer = full.cumulative[: -1 : full.S // (steps * q)].reshape(steps, q, full.m)[:, 1:]
        b = finer - cumulative[:-1, None] - (i / q) * increments[:, None]
        bridge[q] = np.stack([b.sum(axis=1), (i * b).sum(axis=1)])
    return WienerPath(increments, cumulative, bridge)


def reduced(path, mesh, coordinates=WAVE_COORDINATES):
    block = NoiseBlock.empty(mesh, 1, path.m, coordinates)
    block.put(0, path)
    return block


def assert_same_coordinates(got, expected, names):
    """Increments bit for bit, the other coordinates to 1e-13 of their largest value."""
    np.testing.assert_array_equal(got.increments, expected.increments)
    for name in names:
        want = getattr(expected, name)
        assert np.abs(getattr(got, name) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize(
    "grid_n, fine_n, m",
    [
        pytest.param(128, 1024, 1, id="desk-q64"),
        pytest.param(8, 32, 2, id="small-q16"),
    ],
)
def test_bridge_sums_reproduce_the_full_path(grid_n, fine_n, m):
    """A full path's grid and bridge sums give put's coordinates on its finest mesh."""
    fine = TimeMesh(fine_n)
    full = sample_path(2026, fine, m)
    steps = grid_n * grid_n
    thin = path_on_bridge_levels(full, steps, [fine_n**2 // steps])
    assert_same_coordinates(reduced(thin, fine), reduced(full, fine), ("gaps", "velocity_sums"))


def test_heat_levels_reproduce_the_full_path():
    """A 2^16-step path thinned to P^2 steps with its bridge levels gives put's coordinates
    on every mesh of a study: by stride up to N = P, through a level above.

    Desk heat: P = 32 with the levels q = 4, 16 and 64 of N = 64, 128 and
    256, for the coordinates of mcn and of em; and P = 64 with the levels
    q = 4 and 16 of N = 128 and 256.
    Wave, N up to 64 against N_ref = 256: P = 16 with the levels q = 4, 16
    and 256 of N = 32, 64 and 256, and all three coordinates.
    Every level carries S0 and S1.
    """
    full = sample_path(2027, TimeMesh(256))
    desk = (8, 16, 32, 64, 128, 256)
    cases = [
        (32, (4, 16, 64), desk, HEAT_COORDINATES),
        (32, (4, 16, 64), desk, ("increments",)),  # em
        (64, (4, 16), desk, HEAT_COORDINATES),
        (64, (4, 16), desk, ("increments",)),
        (16, (4, 16, 256), (4, 8, 16, 32, 64, 256), WAVE_COORDINATES),
    ]
    for p, levels, n_list, coordinates in cases:
        thin = path_on_bridge_levels(full, p * p, levels)
        for n in n_list:
            mesh = TimeMesh(n)
            expected = reduced(full, mesh, coordinates)
            assert_same_coordinates(reduced(thin, mesh, coordinates), expected, coordinates[1:])


@pytest.mark.parametrize(
    "fine, coordinates",
    [
        pytest.param((32, 64), HEAT_COORDINATES, id="heat-levels"),
        pytest.param((64,), WAVE_COORDINATES, id="wave-level"),
    ],
)
def test_put_of_a_chunk_fills_each_path_column(fine, coordinates):
    """A chunk put from column 1 on gives every mesh the columns of its paths put alone."""
    keys = [(31, r) for r in range(3)]
    fine = [TimeMesh(n) for n in fine]
    chunk = sample_path(keys, TimeMesh(16), 2, fine)
    for mesh in [TimeMesh(4), TimeMesh(16), *fine]:
        together = NoiseBlock.empty(mesh, 4, 2, coordinates)
        alone = NoiseBlock.empty(mesh, 4, 2, coordinates)
        together.put(1, chunk)
        for r, key in enumerate(keys, start=1):
            alone.put(r, sample_path(key, TimeMesh(16), 2, fine))
        for name in coordinates:
            got, expected = getattr(together, name), getattr(alone, name)
            np.testing.assert_array_equal(got[:, 1:], expected[:, 1:])


def test_meshes_finer_than_the_path_need_its_bridge_level():
    """Finer micro grids than the path's fail loudly unless they are one of its bridge levels."""
    plain = sample_path(1, TimeMesh(4))
    bridged = sample_path(1, TimeMesh(4), fine=[TimeMesh(8)])  # S = 16, q = 4
    with pytest.raises(AlignmentError):
        reduced(plain, TimeMesh(8))  # no bridge level
    with pytest.raises(AlignmentError):
        reduced(bridged, TimeMesh(16))  # S q = 64 < 16^2
    with pytest.raises(AlignmentError):
        sample_path(1, TimeMesh(4), fine=[TimeMesh(32)])  # 16 master steps, 32 coarse steps
    with pytest.raises(AlignmentError):
        sample_path(1, TimeMesh(4), fine=[TimeMesh(6)])  # 36 is no multiple of 16
    with pytest.raises(AlignmentError):
        sample_path(1, TimeMesh(6), fine=[TimeMesh(12), TimeMesh(18)])  # q = 4 and 9 do not nest
    reduced(bridged, TimeMesh(8))
    reduced(bridged, TimeMesh(8), HEAT_COORDINATES)
    reduced(bridged, TimeMesh(2))  # coarser meshes still read the master grid


def double_sum_covariance(functionals, delta):
    """Cov of the bridge sums S_p = sum_i i^p B(i/q) by the double sum over nodes.

    Cov(B(u), B(v)) = delta (min(u, v) - u v) in units of the master step.
    """
    weights = []
    for q, p in functionals:
        i = np.arange(1, q)
        weights.append((i / q, i.astype(float) ** p))
    cov = np.empty((len(functionals), len(functionals)))
    for x, (u, wu) in enumerate(weights):
        for y, (v, wv) in enumerate(weights):
            kernel = np.minimum.outer(u, v) - np.outer(u, v)
            cov[x, y] = delta * np.einsum("i,ik,k->", wu, kernel, wv)
    return cov


BRIDGE_LAWS = [
    # desk heat: S0 and S1 of the levels of N_max/4, N_max/2 and N_max on 2^10 master steps
    [(4, 0), (4, 1), (16, 0), (16, 1), (64, 0), (64, 1)],
    [(4, 0), (16, 0)],  # S0 alone of two levels
    [(64, 0), (64, 1)],  # S0 and S1 of one level
    # desk wave: S0 and S1 of the levels of N_max/2, N_max and the reference
    [(4, 0), (4, 1), (16, 0), (16, 1), (1024, 0), (1024, 1)],
    [(4, 0), (4, 1), (16, 0), (16, 1), (64, 0)],
    [(3, 0), (3, 1), (9, 1)],
]


def test_bridge_variances_match_the_double_sum():
    """bridge_covariance's closed forms equal the double sum over the bridge nodes."""
    for functionals in BRIDGE_LAWS:
        want = double_sum_covariance(functionals, 1.0 / 4096)
        got = bridge_covariance(functionals, 1.0 / 4096)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # S1 - (q/2) S0 and S0^16 - 4 S0^4 are uncorrelated with S0 of the coarser level
    cov = bridge_covariance([(4, 0), (4, 1), (16, 0)], 1.0)
    assert cov[0, 1] == pytest.approx(2.0 * cov[0, 0], rel=1e-15)
    assert cov[0, 2] == pytest.approx(4.0 * cov[0, 0], rel=1e-15)
    with pytest.raises(AlignmentError):
        bridge_covariance([(4, 0), (6, 0)], 1.0)


def test_bridge_factor_keeps_its_structural_zeros():
    """S0 of a finer level against S1 of a coarser one gets exactly 0.0 in bridge_factor, and
    L L^T is the covariance to 1e-13 of sqrt(C_ii C_jj)."""
    for functionals in BRIDGE_LAWS:
        functionals = tuple(functionals)
        factor = bridge_factor(functionals, 1.0 / 1024)
        cov = bridge_covariance(functionals, 1.0 / 1024)
        for f, (_, p) in enumerate(functionals):
            for g, (_, p_g) in enumerate(functionals[:f]):
                if (p, p_g) == (0, 1):
                    assert factor[f, g] == 0.0, (functionals, f, g)
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert (np.abs(factor @ factor.T - cov) <= 1e-13 * scale).all()
    desk = bridge_factor(((4, 0), (4, 1), (16, 0), (16, 1), (64, 0), (64, 1)), 1.0 / 1024)
    assert desk[2, 1] == desk[4, 1] == desk[4, 3] == 0.0


def assert_second_moments(samples, expected, label):
    """Sample E[x y] of every pair of columns within 4 standard errors of expected."""
    for a in range(samples.shape[1]):
        for b in range(a, samples.shape[1]):
            products = samples[:, a] * samples[:, b]
            se = products.std(ddof=1) / math.sqrt(products.size)
            z = (products.mean() - expected[a, b]) / se
            assert abs(z) <= 4.0, f"{label}: moment ({a}, {b}) off by {z:.2f} SE"


def coordinate_weights(mesh, j):
    """Weights over the micro nodes of mesh of (dW_j, gap_j, velocity sum_j), shape (3, N*M+1)."""
    tau, M = mesh.tau, mesh.M
    weights = np.zeros((3, mesh.N * M + 1))
    lo, hi, ell = j * M, (j + 1) * M, np.arange(1, M + 1)
    weights[0, [lo, hi]] = -1.0, 1.0
    weights[1, lo + ell] = tau * tau
    weights[1, [lo, hi]] -= 0.5 * tau
    weights[2, lo + ell] = 0.5 * tau**3 * (1.0 - 2.0 * tau * ell)
    return weights


def test_drawn_wave_coordinates_have_their_exact_moments():
    """sample_path and put give the bridge sums and the reference coordinates their exact law.

    The grid is TimeMesh(4)'s 16 master steps, each split into q = 4
    steps of the 8^2 micro grid of the reference mesh, two master steps to
    a reference step.  Every coordinate is a weighted sum of W at micro
    nodes, so its second moments are sums of w_l w_l' min(t_l, t_l').
    """
    grid, fine, count = TimeMesh(4), TimeMesh(8), 4000
    block = NoiseBlock.empty(fine, count, 1, WAVE_COORDINATES)
    sums = []
    for r in range(count):
        path = sample_path((99, r), grid, 1, [fine])
        block.put(r, path)
        sums.append(path.bridge[4][:, :, 0].T)
    law = double_sum_covariance(path.bridge_functionals, path.delta)
    assert_second_moments(np.concatenate(sums), law, "bridge sums")
    nodes = np.arange(fine.N * fine.M + 1) / (fine.N * fine.M)
    brownian = np.minimum.outer(nodes, nodes)
    for j in (0, 3, 7):
        weights = coordinate_weights(fine, j)
        samples = np.stack(
            [block.increments[j, :, 0], block.gaps[j, :, 0], block.velocity_sums[j, :, 0]], axis=1
        )
        assert_second_moments(samples, weights @ brownian @ weights.T, f"step {j}")


@pytest.mark.parametrize(
    "p, fine",
    [
        pytest.param(8, (16, 32, 64), id="heat-q4-q16-q64"),
        pytest.param(4, (16,), id="wave-q16"),
        pytest.param(4, (8, 16), id="wave-q4-q16"),
    ],
)
def test_drawn_bridge_sums_have_their_exact_law(p, fine):
    """The drawn sums of 300 paths of P^2 master steps meet the double-sum covariance within
    4 SE.

    S0 and S1 of every level are drawn jointly: for heat the levels q = 4,
    16 and 64 of the two, four and eight times finer meshes, for wave one
    level or nested ones.
    """
    samples = []
    for r in range(300):
        path = sample_path((77, r), TimeMesh(p), 1, [TimeMesh(n) for n in fine])
        samples.append(np.stack([path.bridge[q][p, :, 0] for q, p in path.bridge_functionals], 1))
    law = double_sum_covariance(path.bridge_functionals, path.delta)
    assert_second_moments(np.concatenate(samples), law, f"levels {path.bridge_functionals}")


def cell_covariance(law):
    """One window's covariance in the row order of WindowLaw, cell by cell on the finest grid.

    Each scheme value is a weighted sum of W at nodes of the finest micro
    grid of N_max, and W at a node is the sum of the cell increments
    before it, so the value weighs cell c by the sum of its node weights
    after c; an oracle piece weighs cell c by its integral of exp(-mu (T
    - s)).  The Ito isometry then sums products over the cells.
    """
    steps, windows = law.steps, law.windows
    cells, cell, length = steps * steps // windows, 1.0 / steps**2, 1.0 / windows
    nodes = []
    for i in range(steps // windows):
        weights = np.zeros(cells + 1)
        weights[[i * steps, (i + 1) * steps]] = -1.0, 1.0
        nodes.append(weights)
    for mesh in law.meshes:
        micro = (steps // mesh.N) ** 2  # finest cells per micro step
        for j in range(mesh.N // windows):
            start, weights = j * mesh.N * micro, np.zeros(cells + 1)
            weights[start + micro * np.arange(1, mesh.N + 1)] = mesh.tau**2
            weights[[start, start + mesh.N * micro]] -= 0.5 * mesh.tau
            nodes.append(weights)
    scheme = np.cumsum(np.array(nodes)[:, ::-1], axis=1)[:, ::-1][:, 1:]
    edges = length - cell * np.arange(cells + 1)
    pieces = np.array([np.diff(np.exp(-mu * edges)) / mu for mu in law.rates])
    rows = np.vstack([scheme, pieces])
    cov = cell * rows @ rows.T
    cov[:, len(scheme) :] = rows @ pieces.T
    cov[len(scheme) :] = cov[:, len(scheme) :].T
    sums = np.add.outer(law.rates, law.rates)
    cov[len(scheme) :, len(scheme) :] = -np.expm1(-sums * length) / sums
    return cov


def heat_rates(k):
    return oracle_rates(SpatialGrid(k))


@pytest.mark.parametrize("steps", [1, 2, 8, 32, 256, 1024])
def test_window_factor_reproduces_the_cell_by_cell_covariance(steps):
    """L L^T of window_factor equals the covariance summed cell by cell on the finest micro
    grid to 1e-12 of sqrt(C_ii C_jj), and its scheme rows do not depend on the rates."""
    law = WindowLaw(steps, heat_rates(40))
    exact = cell_covariance(law)
    factor = window_factor(law)
    assert factor.shape == (law.width, law.width)
    assert (np.triu(factor, 1) == 0.0).all()
    scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
    assert (np.abs(factor @ factor.T - exact) <= 1e-12 * scale).all()
    scheme = law.width - len(law.rates)
    other = window_factor(WindowLaw(steps, heat_rates(7)))
    np.testing.assert_array_equal(other[:scheme, :scheme], factor[:scheme, :scheme])


def pooled_moments(path, meshes, count):
    """Per path, step averages of second moments put from path, (count, statistics).

    On each mesh: inc^2, gap^2 and inc gap; against the first half of the
    step on the next finer mesh: gap gap' and gap inc'.
    """
    blocks = [NoiseBlock.empty(mesh, count, 1, HEAT_COORDINATES) for mesh in meshes]
    stats = []
    for block, finer in zip(blocks, blocks[1:] + [None]):
        block.put(0, path)
        increments, gaps = block.increments[..., 0], block.gaps[..., 0]
        stats += [increments * increments, gaps * gaps, increments * gaps]
        if finer is not None:
            finer.put(0, path)
            stats += [gaps * finer.gaps[::2, :, 0], gaps * finer.increments[::2, :, 0]]
    return np.stack([products.mean(axis=0) for products in stats], axis=1)


def test_drawn_windows_match_full_paths_reduced_by_put():
    """Increments and gaps of N = 8..256 drawn by the desk law and read through put have the
    second moments of full 2^16-step paths reduced by put: every step-averaged moment of
    pooled_moments within 4 SE of the difference, 2000 drawn paths against 400 full ones."""
    meshes = [TimeMesh(n) for n in (8, 16, 32, 64, 128, 256)]
    law = WindowLaw(256, heat_rates(40))
    drawn, full = [], []
    for lo in range(0, 2000, 100):
        path, _ = sample_windows([(5, r) for r in range(lo, lo + 100)], law)
        drawn.append(pooled_moments(path, meshes, 100))
    for lo in range(0, 400, 8):
        path = sample_path([(6, r) for r in range(lo, lo + 8)], meshes[-1])
        full.append(pooled_moments(path, meshes, 8))
    drawn, full = np.concatenate(drawn), np.concatenate(full)
    se = np.hypot(drawn.std(axis=0, ddof=1) / math.sqrt(2000), full.std(axis=0, ddof=1) / 20.0)
    z = (drawn.mean(axis=0) - full.mean(axis=0)) / se
    assert (np.abs(z) <= 4.0).all(), z
