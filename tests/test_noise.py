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
    desk_heat_config,
    desk_wave_config,
    em_step,
    mcn_heat_step,
    mcn_wave_step,
    mesh_values,
    paper_heat_config,
    paper_wave_config,
    sample_path,
    sine_mode,
    wave_micro_sum_moment_exact,
)
from mcnspde.harness import chunk_size
from mcnspde.heat import oracle_rates
from mcnspde.noise import (
    WindowLaw,
    lower_factor,
    master_strides,
    sample_windows,
    standard_normals,
    window_covariance,
    window_factor,
)
from mcnspde.validation import _cell_block, _squared_norms, heat_defect_block
from mcnspde.wave import wave_oracle_rates


def value_at(path, t):
    """W(t) of a chunk of one by a float lookup of the master node at time t: the brute-force
    reference."""
    k = round(t / path.delta)
    assert abs(t - k * path.delta) <= 1e-12
    return path.cumulative[0, k]


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
    steps = [grid.node_values(step(problem, rest, path, j)[:, 0]) for j in range(problem.mesh.N)]
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
        [grid.node_values(v[:, 0]) for v in mcn_wave_step(problem, rest, rest, path, j)]
        for j in range(problem.mesh.N)
    ]
    displacement = np.stack([x - 0.5 * tau * y for x, y in steps])
    velocity = np.stack([y - 0.5 * tau * lap @ x for x, y in steps])
    return displacement, velocity


def linear_path(master_steps, m=1):
    """Deterministic path W(t) = t in every component, as a chunk of one."""
    delta = 1.0 / master_steps
    increments = np.full((1, master_steps, m), delta)
    cumulative = np.zeros((1, master_steps + 1, m))
    cumulative[:, 1:] = np.cumsum(increments, axis=1)
    return WienerPath(increments, cumulative)


def constant_path(master_steps, value, m=1):
    """Path frozen at a constant vector, as a chunk of one; only valid for quadrature tests."""
    increments = np.zeros((1, master_steps, m))
    cumulative = np.full((1, master_steps + 1, m), float(value))
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
    assert path.increments.shape == (1, 256, 2) and path.cumulative.shape == (1, 257, 2)
    normals = np.random.Generator(np.random.Philox(key=(5, 3))).standard_normal((256, 2))
    np.testing.assert_array_equal(path.increments[0], normals * math.sqrt(1.0 / 256))
    assert sample_path(0, TimeMesh(3)).S == 9
    # a list of keys draws a chunk whose rows are the keys' chunks of one, bit for bit
    keys = [(5, 3), 7, (5, 4)]
    chunk = sample_path(keys, TimeMesh(16), 2)
    assert chunk.increments.shape == (3, 256, 2) and chunk.cumulative.shape == (3, 257, 2)
    for row, key in enumerate(keys):
        lone = sample_path(key, TimeMesh(16), 2)
        np.testing.assert_array_equal(chunk.increments[[row]], lone.increments)
        np.testing.assert_array_equal(chunk.cumulative[[row]], lone.cumulative)


def test_a_path_is_always_a_chunk():
    """A WienerPath of any rank but (n, S, m) and (n, S+1, m) is refused, not read on the
    wrong axis; a chunk of one is accepted."""
    path = sample_path(4, TimeMesh(4))
    with pytest.raises(ValueError):
        WienerPath(path.increments[0], path.cumulative[0])
    with pytest.raises(ValueError):
        WienerPath(path.increments, path.cumulative[0])
    with pytest.raises(ValueError):
        WienerPath(path.increments[..., None], path.cumulative[..., None])
    assert WienerPath(path.increments, path.cumulative).S == 16


def test_standard_normals_are_each_keys_philox_stream():
    """One re-keyed generator gives each key the bits of a fresh Philox of that key, and keys
    whose words reach 2^63, which np.random.Philox rounds through a float, stay distinct."""
    keys = [0, 7, (5, 3), (20260814, 2**40), 2**64 + 3, (2**63 - 1, 1)]
    out = np.empty((len(keys), 2, 50))
    standard_normals(keys, out)
    for row, key in zip(out, keys):
        fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal((2, 50))
        np.testing.assert_array_equal(row, fresh)
    high = [(2**63, 0), (2**63 + 1, 0), (2**64 - 1, 0), (0, 0)]
    out = np.empty((len(high), 8))
    standard_normals(high, out)
    assert len({row.tobytes() for row in out}) == len(high)


@pytest.mark.parametrize(
    "key",
    [
        pytest.param(11, id="int"),
        pytest.param(np.int64(11), id="int64"),
        pytest.param(np.uint64(2**40 + 11), id="uint64"),
        pytest.param((20260814, 5), id="tuple"),
        pytest.param(np.array([20260814, 5], dtype=np.uint64), id="ndarray"),
    ],
)
def test_standard_normals_take_every_key_type(key):
    """Python and numpy integers, tuple and array pairs, alone and among other keys: each
    row is the stream of a fresh np.random.Philox of its key."""
    fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal(40)
    for keys, row in (([key], 0), ([(3, 4), key, 7], 1)):
        out = np.empty((len(keys), 40))
        standard_normals(keys, out)
        np.testing.assert_array_equal(out[row], fresh)


@pytest.mark.parametrize(
    "config",
    [desk_heat_config(), desk_wave_config(), paper_wave_config()],
    ids=["desk-heat", "desk-wave", "paper-wave"],
)
def test_window_values_of_a_path_do_not_depend_on_its_chunk(config):
    """Each path's window values, and the path and pieces formed from them, are bit for bit
    the same alone as in chunks of 1, 3 and chunk_size (one gemm shape per path)."""
    law, size = config.window_law, max(3, chunk_size(config))
    keys = [(config.base_seed, r) for r in range(size)]

    def draw(chunk):
        buffers = [np.empty((len(chunk), law.windows, law.width)) for _ in range(2)]
        path, pieces = sample_windows(chunk, law, buffers)
        arrays = [path.increments, path.cumulative, *path.gaps.values(), *path.parts.values()]
        return [buffers[1]] + [a.copy() for a in arrays] + [pieces.copy()]

    alone = [draw([key]) for key in keys]
    for chunk in (1, 3, chunk_size(config)):
        for lo in range(0, size, chunk):
            together = draw(keys[lo : lo + chunk])
            for i in range(len(keys[lo : lo + chunk])):
                for got, expected in zip(together, alone[lo + i]):
                    np.testing.assert_array_equal(got[i], expected[0])


@pytest.mark.parametrize(
    "law", [desk_heat_config().window_law, desk_wave_config().window_law], ids=["heat", "wave"]
)
def test_a_draw_into_reused_buffers_is_a_fresh_draw(law):
    """Buffers that last held a larger chunk and were then filled with NaN give a smaller
    chunk the bits of a draw into fresh arrays."""
    buffers = [np.empty((5, law.windows, law.width)) for _ in range(2)]
    sample_windows([(1, r) for r in range(5)], law, buffers)
    for buffer in buffers:
        buffer.fill(np.nan)
    keys = [(2, r) for r in range(3)]
    path, pieces = sample_windows(keys, law, buffers)
    fresh, fresh_pieces = sample_windows(keys, law)
    np.testing.assert_array_equal(pieces, fresh_pieces)
    np.testing.assert_array_equal(path.increments, fresh.increments)
    np.testing.assert_array_equal(path.cumulative, fresh.cumulative)
    for drawn, expected in ((path.gaps, fresh.gaps), (path.parts, fresh.parts)):
        assert drawn.keys() == expected.keys()
        for n in drawn:
            np.testing.assert_array_equal(drawn[n], expected[n])


def test_sample_path_cumulative_consistency():
    mesh = TimeMesh(32)
    path = sample_path(7, mesh, m=3)
    assert path.cumulative[:, 0] == pytest.approx(0.0)
    np.testing.assert_allclose(
        np.diff(path.cumulative, axis=1), path.increments, rtol=0, atol=1e-15
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
    assert coarse.shape == (1, mesh.N + 1, 1)
    assert micro.shape == (1, mesh.N, mesh.M, 1)
    np.testing.assert_array_equal(micro[0, 0, 2], value_at(path, 3 / 16))
    with pytest.raises(AlignmentError):
        mesh_values(path.cumulative[:, :41], mesh)  # 40 master steps per 16 micro steps
    with pytest.raises(AlignmentError):
        mesh_values(np.zeros((1, 9, 1)), mesh)  # master grid coarser than the micro grid


def test_mesh_values_are_views():
    """Coarse and micro nodes are read without copying, for a chunk of one and of two."""
    mesh = TimeMesh(8)
    path = sample_path(2, TimeMesh(32), m=2)
    block = np.concatenate([path.cumulative, 2.0 * path.cumulative])
    for cumulative in (path.cumulative, block):
        coarse, micro = mesh_values(cumulative, mesh)
        assert np.shares_memory(coarse, cumulative)
        assert np.shares_memory(micro, cumulative)
    coarse, micro = mesh_values(block, mesh)
    assert micro.shape == (2, mesh.N, mesh.M, 2)
    np.testing.assert_array_equal(micro[1], 2.0 * mesh_values(path.cumulative, mesh)[1][0])
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
    """tau^2 sum_l W(t_{j,l}) for every interval of a chunk of one, from the accessor; shape
    (N, m)."""
    return mesh.tau**2 * mesh_values(path.cumulative, mesh)[1][0].sum(axis=1)


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
    assert coarse.shape == (1, mesh.N + 1, 2) and micro.shape == (1, mesh.N, mesh.M, 2)
    coarse, micro = coarse[0], micro[0]
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
    block, cells = _cell_block(rng, 400, mesh, m, moments=2)
    sq = _squared_norms(heat_defect_block(block, mesh, cells), m)
    assert sq.shape == (400 * mesh.N,)
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
        combine(phi, np.diff(mesh_values(path.cumulative, mesh)[0][0], axis=0)).T,
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


def window_coordinates(full, law):
    """full, a path on the micro grid of law.steps, thinned to that mesh's grid and carrying
    the gaps and, if law.velocity, the velocity parts u_j of law.meshes, each formed by its
    defining sum over the micro nodes or cells of full."""
    cumulative = full.cumulative[:, :: full.S // law.steps]
    gaps, parts = {}, {}
    for mesh in law.meshes:
        tau, ell = mesh.tau, np.arange(mesh.M)[:, None]
        coarse, micro = mesh_values(full.cumulative, mesh)
        gaps[mesh.N] = tau * tau * micro.sum(axis=2) - 0.5 * tau * (coarse[:, :-1] + coarse[:, 1:])
        cells = np.diff(np.concatenate([coarse[:, :-1, None], micro], axis=2), axis=2)
        parts[mesh.N] = ((ell + 1) * (tau * ell - 1) * cells).sum(axis=2)
    return WienerPath(np.diff(cumulative, axis=1), cumulative, gaps, parts if law.velocity else {})


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
    "steps, velocity, n_list",
    [
        pytest.param(256, True, (4, 8, 16, 32, 64, 128, 256), id="wave-256"),
        pytest.param(256, False, (8, 16, 32, 64, 128, 256), id="heat-256"),
        pytest.param(8, True, (1, 2, 4, 8), id="wave-8"),
    ],
)
def test_window_coordinates_of_a_full_path_reproduce_put(steps, velocity, n_list):
    """The drawn coordinates of the window law, formed from one full 2^16-step (or 64-step)
    path by their defining sums, give put's coordinates of the full path on every mesh: by
    stride below the law's windows, by the drawn gaps and, for wave, by the velocity parts
    completed with W(t_j) above.  Increments bit for bit, the rest to 1e-13."""
    law = WindowLaw(steps, (), velocity)
    full = sample_path(2027, TimeMesh(steps))
    thin = window_coordinates(full, law)
    assert set(thin.gaps) == {mesh.N for mesh in law.meshes}
    coordinates = WAVE_COORDINATES if velocity else HEAT_COORDINATES
    for n in n_list:
        mesh = TimeMesh(n)
        for names in (coordinates, ("increments",)):
            expected = reduced(full, mesh, names)
            assert_same_coordinates(reduced(thin, mesh, names), expected, names[1:])


# The ids are those of the cases' bridge-level predecessors, kept so that no case is renamed.
@pytest.mark.parametrize(
    "law, coordinates",
    [
        pytest.param(WindowLaw(32, (10.0, 20.0)), HEAT_COORDINATES, id="heat-levels"),
        pytest.param(WindowLaw(64, (), True), WAVE_COORDINATES, id="wave-level"),
    ],
)
def test_put_of_a_chunk_fills_each_path_column(law, coordinates):
    """A chunk put from column 1 on gives every mesh, read by stride or by its drawn
    coordinates, the columns of its paths put alone."""
    keys = [(31, r) for r in range(3)]
    chunk, _ = sample_windows(keys, law)
    for mesh in [TimeMesh(4), TimeMesh(8), *law.meshes]:
        together = NoiseBlock.empty(mesh, 4, 1, coordinates)
        alone = NoiseBlock.empty(mesh, 4, 1, coordinates)
        together.put(1, chunk)
        for r, key in enumerate(keys, start=1):
            alone.put(r, sample_windows([key], law)[0])
        for name in coordinates:
            got, expected = getattr(together, name), getattr(alone, name)
            np.testing.assert_array_equal(got[:, 1:], expected[:, 1:])


def test_meshes_finer_than_the_path_need_drawn_coordinates():
    """Finer micro grids than the path's fail loudly unless the path carries their drawn
    coordinates, and a heat draw offers no velocity sums."""
    plain = sample_path(1, TimeMesh(4))
    heat, _ = sample_windows([1], WindowLaw(16, (10.0,)))  # drawn gaps of N = 8 and 16
    wave, _ = sample_windows([1], WindowLaw(16, (), True))
    with pytest.raises(AlignmentError):
        reduced(plain, TimeMesh(8))  # 16 master steps, 64 micro steps
    with pytest.raises(AlignmentError):
        reduced(plain, TimeMesh(8), ("increments",))
    with pytest.raises(AlignmentError):
        reduced(heat, TimeMesh(8))  # no velocity parts
    with pytest.raises(AlignmentError):
        reduced(heat, TimeMesh(32), ("increments",))  # finer than the path itself
    reduced(heat, TimeMesh(8), HEAT_COORDINATES)
    reduced(heat, TimeMesh(16), ("increments",))
    reduced(wave, TimeMesh(8))
    reduced(wave, TimeMesh(4))  # coarser meshes read the N_max grid by stride


def assert_second_moments(samples, expected, label):
    """Sample E[x y] of every pair of columns within 4 standard errors of expected."""
    for a in range(samples.shape[1]):
        for b in range(a, samples.shape[1]):
            products = samples[:, a] * samples[:, b]
            se = products.std(ddof=1) / math.sqrt(products.size)
            z = (products.mean() - expected[a, b]) / se
            assert abs(z) <= 4.0, f"{label}: moment ({a}, {b}) off by {z:.2f} SE"


def coordinate_weights(mesh, j, steps):
    """Weights over the nodes k/steps, k = 0..steps, of (dW_j, gap_j, velocity sum_j) of mesh,
    whose micro nodes must be among them: shape (3, steps + 1)."""
    tau, M = mesh.tau, mesh.M
    stride = steps // (mesh.N * M)
    weights = np.zeros((3, steps + 1))
    lo, hi, ell = j * M * stride, (j + 1) * M * stride, np.arange(1, M + 1)
    weights[0, [lo, hi]] = -1.0, 1.0
    weights[1, lo + stride * ell] = tau * tau
    weights[1, [lo, hi]] -= 0.5 * tau
    weights[2, lo + stride * ell] = 0.5 * tau**3 * (1.0 - 2.0 * tau * ell)
    return weights


def oscillation_products(a, b, length):
    """int_0^length f(a u) g(b u) du for f, g in (cos, sin): [[cos cos, cos sin], [sin cos,
    sin sin]], by the product-to-sum formulas, with no complex arithmetic."""
    cos = lambda t: length if t == 0 else math.sin(t * length) / t
    sin = lambda t: 0.0 if t == 0 else 2.0 * math.sin(0.5 * t * length) ** 2 / t
    return 0.5 * np.array(
        [[cos(a - b) + cos(a + b), sin(a + b) + sin(b - a)],
         [sin(a + b) + sin(a - b), cos(a - b) - cos(a + b)]]
    )


def test_drawn_wave_coordinates_have_their_exact_moments():
    """sample_windows and put give the wave coordinates and oracle pieces their exact joint
    law.

    The law of N_max = 8 draws 4 windows of 2 increments, the gaps and
    the velocity parts of N = 4 and 8, and the sin and cos pieces of the
    desk oracle rates; N = 2 reads its coordinates by stride.  The
    coordinates of steps 0, 3 and 7 of N = 8 and of both steps of N = 2
    are weighted sums of W at the micro nodes of N = 8, so their second
    moments, across steps and meshes too, are sums of w_l w_l'
    min(t_l, t_l').  The pieces of windows 0 and 3, int cos(omega (t_w - s)) dW
    and int sin(omega (t_w - s)) dW over window w, meet a coordinate by
    the integral of their function against its cell weights, and each
    other by oscillation_products.  4000 paths meet every moment within
    4 SE.
    """
    rates = wave_oracle_rates(SpatialGrid(40))
    law, count = WindowLaw(8, rates, True), 4000
    meshes, steps = [(TimeMesh(8), (0, 3, 7)), (TimeMesh(2), (0, 1))], 64
    blocks = [NoiseBlock.empty(mesh, count, 1, WAVE_COORDINATES) for mesh, _ in meshes]
    windows, pieces = (0, 3), np.empty((count, 2, 4))
    for lo in range(0, count, 500):
        path, drawn = sample_windows([(99, r) for r in range(lo, lo + 500)], law)
        pieces[lo : lo + 500] = drawn[:, windows]
        for block in blocks:
            block.put(lo, path)
    samples, weights = [], []
    for block, (mesh, js) in zip(blocks, meshes):
        for j in js:
            samples += [getattr(block, name)[j, :, 0] for name in WAVE_COORDINATES]
            weights.append(coordinate_weights(mesh, j, steps))
    nodes = np.arange(steps + 1) / steps
    weights = np.vstack(weights)
    scheme = len(weights)
    expected = np.zeros((scheme + 8, scheme + 8))
    expected[:scheme, :scheme] = weights @ np.minimum.outer(nodes, nodes) @ weights.T
    # A coordinate weighs cell c, (c/steps, (c+1)/steps), by its node weights after c.
    cells = np.cumsum(weights[:, :0:-1], axis=1)[:, ::-1]
    length = 1.0 / law.windows
    columns = [
        (i, w, mu.imag, int(alpha != 1)) for i, w in enumerate(windows) for mu, alpha in law.pieces
    ]
    for q, (i, w, omega, part) in enumerate(columns, scheme):
        ahead = (w + 1) * length - np.arange(steps + 1) / steps  # t_w - s at the cell edges
        inside = (ahead[1:] >= 0.0) & (ahead[:-1] <= length)
        # the integrals of cos(omega (t_w - s)) and sin(omega (t_w - s)) over each cell
        integral = -np.diff(np.sin(omega * ahead)) if part == 0 else np.diff(np.cos(omega * ahead))
        expected[:scheme, q] = expected[q, :scheme] = cells @ (integral / omega * inside)
        for r, (j, _, other, other_part) in enumerate(columns, scheme):
            if i == j:
                expected[q, r] = oscillation_products(omega, other, length)[part, other_part]
    samples = np.column_stack(samples + [pieces.reshape(count, 8)])
    assert_second_moments(samples, expected, "wave coordinates and pieces")


def cell_covariance(law, block=4096):
    """One window's covariance in the row order of WindowLaw, cell by cell on the finest grid.

    Each scheme value is a weighted sum of W at nodes of the finest micro
    grid of N_max, and W at a node is the sum of the cell increments
    before it, so the value weighs cell c by the sum of its node weights
    after c.  A velocity part u_j is (2/tau^3) times the velocity sum plus
    W(t_j), whose weight cancels the sum's on the cells before t_j.  An
    oracle piece weighs cell c by its integral of exp(-mu (T - s)); for a
    rate mu = i omega its cos piece takes the real part of that integral
    and its sin piece minus the imaginary part.  The Ito isometry then
    sums products over the cells, `block` cells at a time, so the 2^17
    cells a window of the law of N_max = 4096 take a few MB.  Two pieces
    meet by their closed form: -expm1(-(mu + nu) T)/(mu + nu) for real
    rates, oscillation_products for imaginary ones.
    """
    steps, windows = law.steps, law.windows
    cells, cell, length = steps * steps // windows, 1.0 / steps**2, 1.0 / windows
    nodes = []  # each scheme value's nonzero node weights: (nodes, weights)
    for i in range(steps // windows):
        nodes.append((np.array([i * steps, (i + 1) * steps]), np.array([-1.0, 1.0])))
    for mesh in law.meshes:
        micro = (steps // mesh.N) ** 2  # finest cells per micro step
        for j in range(mesh.N // windows):
            start = j * mesh.N * micro
            weights = np.full(mesh.N + 1, mesh.tau**2)
            weights[0] = 0.0
            weights[[0, -1]] -= 0.5 * mesh.tau
            nodes.append((start + micro * np.arange(mesh.N + 1), weights))
    for mesh in law.meshes if law.velocity else ():
        micro, ell = (steps // mesh.N) ** 2, np.arange(mesh.N + 1)
        for j in range(mesh.N // windows):
            weights = 1.0 - 2.0 * mesh.tau * ell
            weights[0] = 1.0
            nodes.append((j * mesh.N * micro + micro * ell, weights))
    # The weight of cell c is the sum of the node weights after c: a sum from the end.
    after = [np.append(np.cumsum(weights[::-1])[::-1], 0.0) for _, weights in nodes]
    edges = length - cell * np.arange(cells + 1)
    gram = np.zeros((law.width, law.width))
    for lo in range(0, cells, block):
        c = np.arange(lo, min(lo + block, cells))
        scheme = [sums[np.searchsorted(at, c, side="right")] for (at, _), sums in zip(nodes, after)]
        pieces = []
        for mu, alpha in law.pieces:
            integrals = np.diff(np.exp(-mu * edges[lo : lo + len(c) + 1])) / mu
            pieces.append(integrals.real if alpha == 1 else -integrals.imag)
        rows = np.array(scheme + pieces)
        gram += rows @ rows.T
    scheme = len(nodes)
    cov = cell * gram
    cov[:, scheme:] = gram[:, scheme:]
    cov[scheme:] = cov[:, scheme:].T
    if all(isinstance(mu, complex) for mu in law.rates):
        for z, (mu, alpha) in enumerate(law.pieces, scheme):
            for y, (nu, beta) in enumerate(law.pieces, scheme):
                products = oscillation_products(mu.imag, nu.imag, length)
                cov[z, y] = products[int(alpha != 1), int(beta != 1)]
    else:
        sums = np.add.outer(law.rates, law.rates)
        cov[scheme:, scheme:] = -np.expm1(-sums * length) / sums
    return cov


def heat_rates(k):
    return oracle_rates(SpatialGrid(k))


def wave_rates(k):
    return wave_oracle_rates(SpatialGrid(k))


@pytest.mark.parametrize(
    "steps, velocity",
    [pytest.param(n, False, id=str(n)) for n in (1, 2, 8, 32, 256, 1024)]
    + [pytest.param(n, True, id=f"wave-{n}") for n in (8, 64, 1024, 4096)],
)
def test_window_factor_reproduces_the_cell_by_cell_covariance(steps, velocity):
    """L L^T of window_factor equals the covariance summed cell by cell on the finest micro
    grid to 1e-12 of sqrt(C_ii C_jj), for heat laws and for wave laws (velocity parts, and
    the cos and sin pieces of the wave oracle rates), and its scheme rows do not depend on
    the rates."""
    rates = wave_rates if velocity else heat_rates
    law = WindowLaw(steps, rates(40), velocity)
    exact = cell_covariance(law)
    factor = window_factor(law)
    assert factor.shape == (law.width, law.width)
    assert (np.triu(factor, 1) == 0.0).all()
    scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
    assert (np.abs(factor @ factor.T - exact) <= 1e-12 * scale).all()
    scheme = law.width - len(law.pieces)
    other = window_factor(WindowLaw(steps, rates(7), velocity))
    np.testing.assert_array_equal(other[:scheme, :scheme], factor[:scheme, :scheme])


def pooled_moments(path, meshes, count, coordinates):
    """Per path, step averages of second moments put from path, (count, statistics).

    On each mesh: the products of every pair of coordinates; against the
    first half of the step on the next finer mesh: each coordinate times
    each coordinate there.
    """
    blocks = [NoiseBlock.empty(mesh, count, 1, coordinates) for mesh in meshes]
    for block in blocks:
        block.put(0, path)
    stats = []
    for block, finer in zip(blocks, blocks[1:] + [None]):
        values = [getattr(block, name)[..., 0] for name in coordinates]
        stats += [a * b for i, a in enumerate(values) for b in values[i:]]
        if finer is not None:
            stats += [a * getattr(finer, name)[::2, :, 0] for a in values for name in coordinates]
    return np.stack([products.mean(axis=0) for products in stats], axis=1)


def test_drawn_windows_match_full_paths_reduced_by_put():
    """Noise coordinates drawn by a window law and read through put have the second moments
    of full paths reduced by put: every step-averaged moment of pooled_moments within 4 SE of
    the difference, 2000 drawn paths against 400 full ones.

    Heat: increments and gaps of N = 8..256 by the desk law, against full
    2^16-step paths.  Wave: increments, gaps and velocity sums of N =
    4..64 by the law of N_max = 64, against full 2^12-step paths.
    """
    cases = [
        (WindowLaw(256, heat_rates(40)), (8, 16, 32, 64, 128, 256), HEAT_COORDINATES),
        (WindowLaw(64, (), True), (4, 8, 16, 32, 64), WAVE_COORDINATES),
    ]
    for law, n_list, coordinates in cases:
        meshes = [TimeMesh(n) for n in n_list]
        drawn, full = [], []
        for lo in range(0, 2000, 100):
            path, _ = sample_windows([(5, r) for r in range(lo, lo + 100)], law)
            drawn.append(pooled_moments(path, meshes, 100, coordinates))
        for lo in range(0, 400, 8):
            path = sample_path([(6, r) for r in range(lo, lo + 8)], meshes[-1])
            full.append(pooled_moments(path, meshes, 8, coordinates))
        drawn, full = np.concatenate(drawn), np.concatenate(full)
        se = np.hypot(drawn.std(axis=0, ddof=1) / math.sqrt(2000), full.std(axis=0, ddof=1) / 20)
        z = (drawn.mean(axis=0) - full.mean(axis=0)) / se
        assert (np.abs(z) <= 4.0).all(), (law, z)


def entry_by_entry_factor(cov):
    """The lower Cholesky factor one entry at a time, one 1-D sum each: the reference."""
    factor = np.zeros_like(cov)
    residue = len(cov) * np.finfo(float).eps
    for f in range(len(cov)):
        for g in range(f + 1):
            rest = cov[f, g] - np.sum(factor[f, :g] * factor[g, :g])
            if f == g:
                factor[f, f] = math.sqrt(rest) if rest > residue * cov[f, f] else 0.0
            elif factor[g, g] > 0.0:
                factor[f, g] = rest / factor[g, g]
    return factor


@pytest.mark.parametrize(
    "config",
    [desk_heat_config(), desk_wave_config(), paper_heat_config(), paper_wave_config()],
    ids=["desk-heat", "desk-wave", "paper-heat", "paper-wave"],
)
def test_lower_factor_by_columns_is_the_entry_by_entry_factor(config):
    """Column by column, each row of a column summed at once, gives the entry-by-entry factor
    bit for bit on the window laws of the desk and --paper studies."""
    cov = window_covariance(config.window_law)
    np.testing.assert_array_equal(lower_factor(cov), entry_by_entry_factor(cov))
