"""Study harness: rate fits, error statistics, determinism, CSV round trips."""

import concurrent.futures
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mcnspde import (
    HEAT_NOISE,
    WAVE_NOISE,
    ConfigError,
    ConvergenceTable,
    NoiseBlock,
    TableRow,
    TimeMesh,
    SpatialGrid,
    StudyConfig,
    benchmark_heat_problem,
    benchmark_wave_problem,
    csv_text,
    desk_heat_config,
    desk_wave_config,
    dirichlet_eigenvalue,
    fit_rate,
    h1_seminorm,
    l2_norm,
    paper_heat_config,
    paper_wave_config,
    read_csv,
    report_text,
    rms_and_standard_error,
    run_heat,
    run_study_tables,
    run_wave,
    sample_path,
    validate_config,
)
from mcnspde import harness
from mcnspde.harness import CHUNK_BYTES, _default_fit_range, block_size, chunk_size
from mcnspde.heat import (
    heat_step_map,
    modal_march,
    oracle_rates,
    spatial_error_floor,
    window_heat_solution,
)
from mcnspde.noise import WindowLaw, sample_windows, window_factor
from mcnspde.wave import wave_oracle_rates, wave_step_map, window_wave_solution


def table_from_errors(n_list, errors, fit_range=None, **extra):
    rows = tuple(
        TableRow(n, 1.0 / n, err, 0.0) for n, err in zip(n_list, errors)
    )
    return ConvergenceTable(
        equation="heat",
        scheme="mcn",
        error_norm="l2",
        rows=rows,
        fitted_rate=float("nan"),
        fit_range=tuple(fit_range if fit_range is not None else n_list),
        **extra,
    )


def small_config(**overrides):
    base = dict(
        n_list=(8, 16),
        k=6,
        mc_count=5,
        base_seed=4242,
    )
    base.update(overrides)
    return desk_heat_config(**base)


def test_fit_rate_recovers_exact_power_laws():
    n_list = (8, 16, 32, 64)
    for exponent in (1.5, 2.0):
        errors = [3.7 * (1.0 / n) ** exponent for n in n_list]
        table = table_from_errors(n_list, errors)
        assert fit_rate(table) == pytest.approx(exponent, abs=1e-12)


def test_fit_rate_two_point_override():
    table = table_from_errors((8, 16, 32), [1.0, 0.4, 0.1])
    two_point = fit_rate(table, fit_range=(8, 32))
    assert two_point == pytest.approx(math.log2(1.0 / 0.1) / 2.0, abs=1e-12)


def test_fit_rate_argument_validation():
    table = table_from_errors((8, 16), [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate(table, fit_range=(8,))
    with pytest.raises(ValueError, match="999"):
        fit_rate(table, fit_range=(8, 16, 999))  # a resolution with no row is not dropped
    bad = table_from_errors((8, 16), [1.0, 0.0])
    with pytest.raises(ValueError):
        fit_rate(bad)


def test_rms_and_standard_error_small_array():
    rms, se = rms_and_standard_error(np.array([1.0, 4.0]))
    assert rms == pytest.approx(math.sqrt(2.5), rel=1e-15)
    expected_se = (math.sqrt(4.5) / math.sqrt(2.0)) / (2.0 * math.sqrt(2.5))
    assert se == pytest.approx(expected_se, rel=1e-13)


def test_rms_and_standard_error_degenerate_cases():
    rms, se = rms_and_standard_error(np.array([2.25]))
    assert (rms, se) == (1.5, 0.0)
    rms, se = rms_and_standard_error(np.zeros(10))
    assert (rms, se) == (0.0, 0.0)
    # a constant sample whose mean does not round back to its value
    value = 9.813859695181972e-12
    assert np.std(np.full(3, value), ddof=1) > 0.0
    rms, se = rms_and_standard_error(np.full(3, value))
    assert se == 0.0
    assert rms == pytest.approx(math.sqrt(value), rel=1e-15)


def test_rms_standard_error_is_calibrated():
    """Delta-method SE brackets the true RMS for a known distribution."""
    rng = np.random.default_rng(2024)
    sigma = 0.7
    sq = (sigma * rng.standard_normal(10_000)) ** 2
    rms, se = rms_and_standard_error(sq)
    assert abs(rms - sigma) <= 4 * se
    # for squared normals the SE is sigma * sqrt(2)/(2 sqrt(n)) asymptotically
    assert se == pytest.approx(sigma * math.sqrt(2.0) / (2.0 * 100.0), rel=0.1)


@pytest.mark.parametrize(
    "errors",
    [
        pytest.param([3.7 * (1.0 / n) ** 1.5 for n in (8, 16, 32, 64)], id="power-law-1.5"),
        pytest.param([3.7 * (1.0 / n) ** 2.0 for n in (8, 16, 32, 64)], id="power-law-2"),
        pytest.param([0.26, 0.081, 0.021, 0.0054, 0.00135], id="wave-rows"),
        pytest.param([1.0, 0.4], id="two-rows"),
    ],
)
def test_fit_rate_is_the_slope_of_polyfit(errors):
    """The closed-form least-squares slope is np.polyfit's degree-1 coefficient to 1e-12."""
    n_list = tuple(8 * 2**i for i in range(len(errors)))
    expected = np.polyfit(np.log2([1.0 / n for n in n_list]), np.log2(errors), 1)[0]
    assert abs(fit_rate(table_from_errors(n_list, errors)) - expected) <= 1e-12


def reference_rms_and_standard_error(sq):
    """The reduction of one row as the former 1-D code made it, in Python floats."""
    rms = math.sqrt(float(sq.mean()))
    if sq.size < 2 or sq.min() == sq.max():
        return rms, 0.0
    return rms, float(sq.std(ddof=1)) / math.sqrt(sq.size) / (2.0 * rms)


@pytest.mark.parametrize("count", [1, 2, 12, 1000])
def test_one_pass_reduction_is_each_row_alone(count):
    """Rows of a C-contiguous (rows, R) or (Q, P, R) array reduce, bit for bit and with no
    warning, as each row does alone and as the former 1-D code did: a zero row and a
    constant row report SE 0."""
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((6, count)) ** 2 * np.logspace(0, -10, 6)[:, None]
    rows[1] = 0.0
    rows[4] = 9.813859695181972e-12  # a constant whose mean does not round back to it
    for block in (rows, rows.reshape(2, 3, count)):
        rms, se = rms_and_standard_error(block)
        assert rms.shape == se.shape == block.shape[:-1]
        for row, r, s in zip(rows, rms.ravel(), se.ravel()):
            assert (r, s) == reference_rms_and_standard_error(row)
            assert (r, s) == rms_and_standard_error(row)
    assert se.ravel()[1] == se.ravel()[4] == 0.0


def test_table_rows_are_each_row_reduced_alone():
    """At 200 realizations, where a strided row would be summed in another order, every row of
    both wave norms is bit for bit the former 1-D reduction of its column of squared errors."""
    config = desk_wave_config(n_list=(4, 8, 16), k=6, mc_count=200)
    errors = harness._gather_squared_errors(config)
    for q, table in enumerate(run_study_tables(config).values()):
        for p, row in enumerate(table.rows):
            column = np.ascontiguousarray(errors[q, p])
            assert (row.rms_error, row.standard_error) == reference_rms_and_standard_error(column)


def test_default_fit_range_drops_coarsest_then_floor():
    rows = tuple(
        TableRow(n, 1.0 / n, e, 0.0)
        for n, e in zip((8, 16, 32, 64, 128), (1.0, 0.5, 0.25, 6e-4, 5e-4))
    )
    kept, note = _default_fit_range(rows, spatial_floor=2e-4)
    assert kept == (16, 32)
    assert note == "dropped 2 floor-dominated rows"
    kept, note = _default_fit_range(rows, spatial_floor=None)
    assert kept == (16, 32, 64, 128)
    assert note == ""


def test_short_studies_still_produce_tables():
    """Two resolutions keep the coarsest row; one resolution skips the fit."""
    two = run_study_tables(small_config())["l2"]
    assert two.fit_range == (8, 16)
    assert two.fit_note == "kept the coarsest row: only two resolutions"
    assert math.isfinite(two.fitted_rate)
    one = run_study_tables(small_config(n_list=(16,)))["l2"]
    assert one.fit_range == ()
    assert math.isnan(one.fitted_rate)
    assert one.fit_note == "rate not fitted: needs at least two resolutions"


def test_default_fit_range_fallback_keeps_rows():
    rows = tuple(
        TableRow(n, 1.0 / n, e, 0.0) for n, e in zip((8, 16, 32), (1.0, 0.5, 0.25))
    )
    kept, note = _default_fit_range(rows, spatial_floor=10.0)
    assert kept == (16, 32)
    assert note == "floor filter skipped: too few rows would remain"


def test_run_study_is_deterministic():
    config = small_config()
    a = run_study_tables(config)["l2"]
    b = run_study_tables(config)["l2"]
    assert csv_text(a) == csv_text(b)
    assert a.fitted_rate == b.fitted_rate


def test_worker_split_matches_serial():
    config = small_config(mc_count=6)
    serial = run_study_tables(config)["l2"]
    parallel = run_study_tables(dataclasses.replace(config, workers=2))["l2"]
    assert csv_text(serial) == csv_text(parallel)


def test_rows_do_not_depend_on_sibling_resolutions():
    """The N=16 row is identical whether or not N=8 runs alongside it."""
    both = run_study_tables(small_config())["l2"]
    alone = run_study_tables(small_config(n_list=(16,)))["l2"]
    row_b = next(r for r in both.rows if r.n_steps == 16)
    row_a = alone.rows[0]
    assert (row_a.rms_error, row_a.standard_error) == (
        row_b.rms_error,
        row_b.standard_error,
    )


def test_silent_noise_reduces_to_deterministic_decay():
    """noise_scale = 0 makes every realization the pure CN decay error."""
    config = small_config(
        n_list=(8, 16, 32), mc_count=3, noise_scale=0.0, exact_mode="semidiscrete"
    )
    table = run_study_tables(config)["l2"]
    grid_lam = dirichlet_eigenvalue(SpatialGrid(config.k), 1)
    for row in table.rows:
        tau = 1.0 / row.n_steps
        rho = (1 - 0.5 * tau * grid_lam) / (1 + 0.5 * tau * grid_lam)
        expected = abs(rho**row.n_steps - math.exp(-grid_lam)) * math.sqrt(0.5)
        assert row.rms_error == pytest.approx(expected, rel=1e-12)
        assert row.standard_error == 0.0


def test_single_realization_matches_direct_run():
    config = small_config(mc_count=1, exact_mode="semidiscrete")
    table = run_study_tables(config)["l2"]
    grid = SpatialGrid(config.k)
    path, pieces = sample_windows([(config.base_seed, 0)], config.window_law)
    oracle = window_heat_solution(pieces, grid, mode="semidiscrete")[:, 0]
    for row in table.rows:
        problem = benchmark_heat_problem(grid, TimeMesh(row.n_steps))
        err = l2_norm(grid.node_values(run_heat(problem, path, "mcn")[:, 0] - oracle))
        assert row.rms_error == pytest.approx(err, rel=1e-14)
        assert row.standard_error == 0.0
    # in continuous mode the spatial floor is the closed-form RMS gap between the two oracles
    continuous = run_study_tables(dataclasses.replace(config, exact_mode="continuous"))["l2"]
    assert continuous.spatial_floor == spatial_error_floor(grid)


def test_single_wave_realization_matches_direct_run():
    """Each wave norm reads its own coordinate of the state: the h1_displacement row is the H1
    seminorm of X_N - X(1) and the l2_velocity row the L2 norm of Y_N - Y(1)."""
    config = desk_wave_config(n_list=(8, 16), k=6, mc_count=1, base_seed=4242)
    tables = run_study_tables(config)
    grid = SpatialGrid(config.k)
    path, pieces = sample_windows([(config.base_seed, 0)], config.window_law)
    x_exact, y_exact = window_wave_solution(pieces, grid)
    for p, n in enumerate(config.n_list):
        x, y = run_wave(benchmark_wave_problem(grid, TimeMesh(n)), path)
        expected = {
            "h1_displacement": h1_seminorm(grid.node_values(x[:, 0] - x_exact[:, 0])),
            "l2_velocity": l2_norm(grid.node_values(y[:, 0] - y_exact[:, 0])),
        }
        for norm, err in expected.items():
            row = tables[norm].rows[p]
            assert row.rms_error == pytest.approx(err, rel=1e-14)
            assert row.standard_error == 0.0


def test_spatial_floor_depends_on_no_draw():
    """A continuous study's floor is the closed form: equal across base seeds and realization
    counts; a semidiscrete study carries none."""
    floors = {
        run_study_tables(small_config(base_seed=seed, mc_count=mc))["l2"].spatial_floor
        for seed in (4242, 4243)
        for mc in (3, 8)
    }
    assert floors == {spatial_error_floor(SpatialGrid(6))}
    assert run_study_tables(small_config(exact_mode="semidiscrete"))["l2"].spatial_floor is None


def test_a_wave_study_needs_no_norm_setting():
    """A StudyConfig names no norm: a plain wave config validates and returns both tables."""
    config = StudyConfig(equation="wave", n_list=(8, 16), k=6, mc_count=2)
    validate_config(config)
    tables = run_study_tables(config)
    assert list(tables) == ["h1_displacement", "l2_velocity"]
    assert all(len(table.rows) == 2 for table in tables.values())


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(desk_heat_config(), id="heat-mcn"),
        pytest.param(desk_heat_config(scheme="em"), id="heat-em"),
        pytest.param(desk_wave_config(), id="wave"),
    ],
)
def test_only_the_loaded_modes_are_nonzero(config):
    """On a desk block of 4 paths every amplitude outside modes 1-3 is exactly 0.0.

    The benchmark starts on mode 1 and loads modes 2 and 3, and every
    other mode of the marches and of the heat and wave oracles stays at
    zero, with no rounding residue.
    """
    grid, heat = SpatialGrid(config.k), config.equation == "heat"
    keys = [(config.base_seed, r) for r in range(4)]
    paths, pieces = sample_windows(keys, config.window_law)
    coordinates = HEAT_NOISE[config.scheme] if heat else WAVE_NOISE
    blocks = [NoiseBlock.empty(mesh, len(keys), 1, coordinates) for mesh in config.marched_meshes]
    for block in blocks:
        block.put(0, paths)
    states = []
    for n, block in zip(config.n_list, blocks):
        if heat:
            states.append(run_heat(benchmark_heat_problem(grid, TimeMesh(n)), block, config.scheme))
        else:
            states.extend(run_wave(benchmark_wave_problem(grid, TimeMesh(n)), block))
    if heat:
        modes = ("continuous", "semidiscrete")
        states.extend(window_heat_solution(pieces, grid, mode) for mode in modes)
    else:
        states.extend(window_wave_solution(pieces, grid))
    for state in states:
        assert state.shape == (grid.K, len(keys))
        assert state[:3].all()
        assert (state[3:] == 0.0).all()


@pytest.mark.parametrize(
    "config",
    [pytest.param(desk_heat_config(), id="heat"), pytest.param(desk_wave_config(), id="wave")],
)
def test_a_study_never_forms_the_sine_basis(config, monkeypatch):
    """A desk study runs with SpatialGrid.sine_basis made to raise: it states, marches and
    scores everything in sine amplitudes, with no K x K basis and no node values."""

    def refuse(grid):
        raise AssertionError("the study formed the sine basis")

    monkeypatch.setattr(SpatialGrid, "sine_basis", property(refuse))
    with pytest.raises(AssertionError):
        SpatialGrid(config.k).node_values(np.zeros(config.k))
    tables = run_study_tables(config)
    assert all(math.isfinite(table.fitted_rate) for table in tables.values())


def test_adjacent_base_seeds_share_no_path():
    """Realization r is keyed by (base_seed, r), so seeds one apart draw disjoint paths."""
    seeds = (20260814, 20260815)
    tables = [csv_text(run_study_tables(desk_heat_config(mc_count=16, base_seed=s))["l2"]) for s in seeds]
    assert tables[0] != tables[1]
    wave = desk_wave_config(n_list=(4, 8, 32), k=6, mc_count=8)
    tables = [
        csv_text(run_study_tables(dataclasses.replace(wave, base_seed=s))["h1_displacement"]) for s in seeds
    ]
    assert tables[0] != tables[1]
    # heat: the N_max increments, the drawn gaps of N = 32..256 and the oracle pieces;
    # wave: the N_max increments, the drawn gaps and velocity parts of N = 8..32 and the
    # oracle pieces
    parts = (
        lambda draw: draw[0].increments,
        lambda draw: np.concatenate([gaps.ravel() for gaps in draw[0].gaps.values()]),
        lambda draw: np.concatenate([parts.ravel() for parts in draw[0].parts.values()]),
        lambda draw: draw[1],
    )
    for law, count in ((desk_heat_config().window_law, 16), (wave.window_law, 8)):
        paths = [[sample_windows([(s, r)], law) for r in range(count)] for s in seeds]
        for part in parts if law.velocity else parts[:2] + parts[3:]:
            drawn = [{np.asarray(part(draw)).tobytes() for draw in group} for group in paths]
            assert len(drawn[0]) == len(drawn[1]) == count
            assert not drawn[0] & drawn[1]


def test_block_size_rule():
    """A block's noise coordinates fit in one path's memory: 130 desk heat paths, 44 wave."""
    assert block_size(desk_heat_config()) == 130  # mcn: increments and gaps on N = 8..256
    assert block_size(desk_heat_config(scheme="em")) == 260  # increments only
    assert block_size(desk_wave_config()) == 44  # three coordinates on N = 8..128
    tiny = desk_wave_config(n_list=(1,))
    assert block_size(tiny) == 1  # never empty, even where one path outweighs its block


def test_chunk_size_rule():
    """A chunk holds as many paths as CHUNK_BYTES does; a path over half of it is drawn alone."""
    assert chunk_size(small_config()) == 462  # 1.4 KB: 8 windows of 9 normals, 16 increments
    assert chunk_size(desk_heat_config()) == 36  # 18 KB: 32 windows of 27 normals, 256 increments
    assert chunk_size(paper_heat_config()) == 9  # 69 KB: 64 windows of 51, 1024 increments
    assert chunk_size(desk_wave_config()) == 51  # 13 KB: 16 windows of 42, 128 increments
    assert chunk_size(paper_wave_config()) == 6  # 98 KB: 64 windows of 82, 1024 increments
    alone = desk_wave_config(n_list=(4096,))
    assert chunk_size(alone) == 1  # 397 KB: 128 windows of 162, 4096 increments


@pytest.mark.parametrize("n_list", [None, (16,)], ids=["desk", "n16"])
@pytest.mark.parametrize(
    "config",
    [desk_heat_config(), desk_heat_config(scheme="em"), desk_wave_config()],
    ids=["heat-mcn", "heat-em", "wave"],
)
def test_one_march_of_every_mesh_is_each_mesh_marched_alone(config, n_list):
    """modal_march on every mesh of a block at once gives each mesh, bit for bit, what it
    gives marched alone and what run_heat or run_wave gives, for blocks of 1, 3 and
    chunk_size paths."""
    if n_list is not None:
        config = dataclasses.replace(config, n_list=n_list)
    grid, problems = harness._build_problems(config)
    first = problems[0]
    if config.equation == "heat":
        step_map = functools.partial(heat_step_map, scheme=config.scheme)
        states = [first.initial]
        run = lambda problem, block: run_heat(problem, block, config.scheme)[None]
    else:
        step_map, states = wave_step_map, [first.initial_displacement, first.initial_velocity]
        run = lambda problem, block: np.stack(run_wave(problem, block))
    for count in (1, 3, chunk_size(config)):
        paths, _ = sample_windows([(3, r) for r in range(count)], config.window_law)
        blocks = harness._study_noise(config, count)
        for block in blocks:
            block.put(0, paths)
        steps = [range(problem.mesh.N) for problem in problems]
        marched = modal_march(problems, step_map(problems), states, blocks, steps)
        assert marched.shape == (len(problems), len(states), config.k, count)
        for problem, block, span, together in zip(problems, blocks, steps, marched):
            alone = modal_march([problem], step_map([problem]), states, [block], [span])
            np.testing.assert_array_equal(together, alone[0])
            np.testing.assert_array_equal(together, run(problem, block))


@pytest.mark.parametrize(
    "equation, workers",
    [
        pytest.param("heat", 1, id="heat"),
        pytest.param("wave", 1, id="wave"),
        pytest.param("heat", 2, id="heat-workers2"),
        pytest.param("wave", 2, id="wave-workers2"),
        pytest.param("heat", 3, id="heat-workers3"),  # spans of 3, 3 and 1
        pytest.param("wave", 3, id="wave-workers3"),
    ],
)
def test_blocks_do_not_change_the_table(equation, workers, monkeypatch):
    """One block of 7 realizations, or blocks of 3 on 1-3 workers drawn in chunks of 1, 3
    or the default size: byte-identical tables."""
    if equation == "heat":
        config = small_config(mc_count=7)
    else:
        # 8 windows of N_max = 32; the block rule counts the 32^2-step micro grid of N_max,
        # which no study draws, so one block holds all 7
        config = desk_wave_config(n_list=(4, 8, 32), k=6, mc_count=7, base_seed=7)
    assert block_size(config) >= 7
    default = chunk_size(config)
    assert default >= 7  # one chunk holds every realization of a block
    drawn = []  # the number of paths of each chunk drawn in this process
    draw = harness.sample_windows
    monkeypatch.setattr(
        "mcnspde.harness.sample_windows",
        lambda keys, *args: drawn.append(len(keys)) or draw(keys, *args),
    )
    whole = run_study_tables(config)
    assert drawn == [7]
    monkeypatch.setattr("mcnspde.harness.block_size", lambda config: 3)
    for chunk, chunks in ((1, [1] * 7), (3, [3, 3, 1]), (default, [3, 3, 1])):
        monkeypatch.setattr("mcnspde.harness.chunk_size", lambda config: chunk)
        drawn.clear()
        split = run_study_tables(dataclasses.replace(config, workers=workers))
        if workers == 1:  # worker processes draw where this list does not see it
            assert drawn == chunks
        for norm, table in whole.items():
            assert csv_text(split[norm]) == csv_text(table)
            assert split[norm].fitted_rate == table.fitted_rate


def test_pool_is_sized_by_its_spans(monkeypatch):
    """The pool asks for one process per span at most, never for idle ones."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = small_config(mc_count=8)
    serial = run_study_tables(config)["l2"]
    assert sizes == []  # one worker runs in this process
    assert csv_text(run_study_tables(dataclasses.replace(config, workers=1000))["l2"]) == csv_text(serial)
    assert sizes == [8]  # spans of one realization each
    run_study_tables(dataclasses.replace(config, workers=3))["l2"]
    assert sizes == [8, 3]  # spans of ceil(8 / 3) = 3: 3, 3 and 2
    monkeypatch.setattr("mcnspde.harness.block_size", lambda config: 2)
    run_study_tables(dataclasses.replace(config, workers=2))["l2"]
    assert sizes == [8, 3, 2]  # four blocks of 2 on two processes


def test_import_leaves_unused_modules_out():
    """A fresh interpreter's import mcnspde loads none of concurrent.futures, fractions and
    decimal: only a study on several workers needs the process pool, and no code needs the
    other two; each import would cost every run."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    modules = ("concurrent.futures", "fractions", "decimal")
    code = f"import sys, mcnspde; print([m for m in {modules} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def study_peaks(config, counts):
    """tracemalloc's peak of a study at each realization count, after a warm-up study.

    The warm-up builds what a process builds once, the cached window
    factor and numpy's lazily imported modules, so no peak counts it.
    """

    def peak(mc_count):
        tracemalloc.start()
        try:
            run_study_tables(dataclasses.replace(config, mc_count=mc_count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    window_factor(config.window_law)
    peak(1)
    return [peak(count) for count in counts]


def result_bytes(config, mc_count):
    """Bytes of a study's gathered results: squared errors per row and norm."""
    per_realization = len(config.n_list) * len(harness.STUDY_NORMS[config.equation])
    return 8 * mc_count * per_realization


def test_study_memory_does_not_grow_with_realizations():
    """Each chunk is reduced and dropped, so 64 realizations peak at most their block of
    coordinates, at most one full path, and one chunk, at most CHUNK_BYTES, above 4; and once
    the realizations fill blocks, 1024 peak above 256 by no more than their results.

    A full path is the 2^14 steps of the micro grid of N = 128, whose
    memory the block rule lets a block's coordinates take.
    """
    # blocks of 105 realizations, drawn in chunks of 73 paths of 16 windows of 27 normals
    # each: 8 increments of N = 128, the gaps of N = 16..128, 4 oracle pieces
    config = desk_heat_config(n_list=(4, 8, 16, 128), k=8)
    law = config.window_law
    assert (law.windows, law.width, chunk_size(config), block_size(config)) == (16, 27, 73, 105)
    path = sample_path(0, TimeMesh(128))
    small, large, filled, saturated = study_peaks(config, (4, 64, 256, 1024))
    assert large - small <= path.increments.nbytes + path.cumulative.nbytes + CHUNK_BYTES
    assert saturated - filled <= result_bytes(config, 1024)


def test_wave_study_memory_does_not_grow_with_realizations():
    """Each chunk of wave paths is reduced and dropped, so 64 realizations peak at most the
    growth of their noise coordinates and one chunk of drawn paths above 4; and once the
    realizations fill blocks, 1024 peak above 256 by no more than their results."""
    config = desk_wave_config(n_list=(4, 8, 256, 512), k=8)
    # blocks of at most 224, drawn in chunks of 13 paths of 32 windows of 82 normals each:
    # 16 increments of N_max = 512, the gaps and the velocity parts of N = 32..512 and 4
    # oracle pieces
    law = config.window_law
    assert (law.windows, law.width, chunk_size(config), block_size(config)) == (32, 82, 13, 224)
    per_realization = sum(block.nbytes for block in harness._study_noise(config, 1))
    chunk_bytes = chunk_size(config) * 8 * (2 * law.normals + 2 * law.steps + 1)
    small, large, filled, saturated = study_peaks(config, (4, 64, 256, 1024))
    assert large - small <= 60 * per_realization + chunk_bytes
    assert saturated - filled <= result_bytes(config, 1024)


@pytest.mark.parametrize(
    "config", [desk_heat_config(), desk_wave_config()], ids=["desk-heat", "desk-wave"]
)
def test_drawing_a_chunk_peaks_within_what_chunk_size_counts(config):
    """One sample_windows call on a chunk of chunk_size paths peaks, in tracemalloc, at or
    below the bytes chunk_size counts a path: its normals, their window values, and its
    increments and cumulative values."""
    law, size = config.window_law, chunk_size(config)
    keys = [(config.base_seed, r) for r in range(size)]
    sample_windows(keys, law)  # builds the cached factor, which no peak counts
    tracemalloc.start()
    try:
        sample_windows(keys, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= size * 8 * (2 * law.normals + 2 * law.steps + 1)


def test_wave_study_reports_both_norms():
    config = desk_wave_config(n_list=(8, 16), k=6, mc_count=2, base_seed=7)
    tables = run_study_tables(config)
    assert set(tables) == {"h1_displacement", "l2_velocity"}
    for table in tables.values():
        assert len(table.rows) == 2
        assert all(r.rms_error > 0 for r in table.rows)
        assert table.spatial_floor is None


def test_csv_round_trip_is_exact():
    rows = (
        TableRow(8, 0.125, math.pi / 17.0, math.sqrt(2) * 1e-3),
        TableRow(16, 0.0625, math.e / 100.0, 1.2345678901234567e-5),
    )
    table = table_from_errors((8, 16), [1.0, 0.5])
    table = dataclasses.replace(table, rows=rows)
    out = csv_text(table)
    assert out.splitlines()[0] == "N,tau,rms_error,standard_error"
    assert len(out.splitlines()) == 3


def test_emit_and_read_back(tmp_path):
    rows = (
        TableRow(8, 0.125, math.pi / 17.0, math.sqrt(2) * 1e-3),
        TableRow(16, 0.0625, math.e / 100.0, 1.2345678901234567e-5),
    )
    table = dataclasses.replace(table_from_errors((8, 16), [1.0, 0.5]), rows=rows)
    dest = tmp_path / "table.csv"
    dest.write_text(csv_text(table))
    back = read_csv(dest)
    assert back == rows  # float equality survives the text round trip


def test_read_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(bad)


def test_report_text_mentions_fit_details():
    table = dataclasses.replace(
        table_from_errors((8, 16, 32), [1.0, 0.5, 0.25], fit_range=(16, 32)),
        fitted_rate=1.0,
        spatial_floor=3e-4,
        fit_note="dropped 1 floor-dominated rows",
    )
    text = report_text(table, small_config())
    assert "fitted rate:         1.0000" in text
    assert "spatial error floor: 3.000000e-04" in text
    assert "fit range (N):       16, 32" in text
    assert "dropped 1 floor-dominated rows" in text
    assert "realizations:   5" in text


def test_preset_configurations():
    desk = desk_heat_config()
    assert desk.n_list == (8, 16, 32, 64, 128, 256)
    assert desk.mc_count == 500
    assert desk.window_law == WindowLaw(256, oracle_rates(SpatialGrid(40)))
    assert (desk.window_law.windows, desk.window_law.normals) == (32, 864)
    assert desk.exact_mode == paper_heat_config().exact_mode == "continuous"
    assert desk_heat_config(exact_mode="semidiscrete").window_law == desk.window_law
    assert StudyConfig().exact_mode == "semidiscrete"
    wave = desk_wave_config()
    assert wave.n_list == (8, 16, 32, 64, 128)
    assert wave.mc_count == 300
    assert wave.window_law == WindowLaw(128, wave_oracle_rates(SpatialGrid(40)), velocity=True)
    assert (wave.window_law.windows, wave.window_law.width) == (16, 42)
    paper_h = paper_heat_config()
    assert paper_h.n_list[0] == 4 and paper_h.n_list[-1] == 1024
    assert (paper_h.mc_count, paper_h.window_law.windows, paper_h.window_law.width) == (1000, 64, 51)
    paper_w = paper_wave_config()
    assert paper_w.n_list == paper_h.n_list and paper_w.mc_count == 1000
    assert (paper_w.window_law.windows, paper_w.window_law.width) == (64, 82)
    assert wave.exact_mode == paper_w.exact_mode == "semidiscrete"
    for cfg in (desk, wave, paper_h, paper_w):
        assert cfg.window_law.steps == cfg.finest_mesh.N
        validate_config(cfg)
    table = dataclasses.replace(table_from_errors((8, 16), [1.0, 0.5]), equation="wave")
    assert "exact mode:     semidiscrete\n" in report_text(table, wave)


def test_paths_are_drawn_on_the_finest_mesh():
    """Heat and wave paths are drawn by one law, window by window on the finest marched mesh
    N_max, so the path size is not a setting.

    The windows are the W steps of the coarsest power of two with W^2 >
    N_max (at most N_max), and each draws its N_max increments and the
    gaps of every mesh from W to N_max, and oracle pieces: for heat one
    per decay rate, for wave the velocity parts of the same meshes too
    and two pieces per mode rate, the cos and the sin piece.
    """
    heat = [
        ((8,), 4, (4, 8), 36),  # 4 + 2 + 2 increments, gaps and pieces per window
        ((4, 32), 8, (8, 16, 32), 120),  # 16 holds no row, but its gaps are drawn all the same
        ((8, 16, 32, 64, 128, 256), 32, (32, 64, 128, 256), 864),
        ((4, 8, 16, 32, 64, 128, 256, 512, 1024), 64, (64, 128, 256, 512, 1024), 3264),
        ((1,), 1, (), 5),  # the gap of N = 1 is read from the increment of the one step
        ((1, 2), 2, (2,), 12),
    ]
    for n_list, windows, drawn_n, normals in heat:
        config = small_config(n_list=n_list)
        law = config.window_law
        assert (law.steps, law.windows, law.normals) == (n_list[-1], windows, normals)
        assert law.meshes == tuple(TimeMesh(n) for n in drawn_n)
        assert law.rates == oracle_rates(SpatialGrid(config.k)) and not law.velocity
        assert config.finest_mesh == TimeMesh(n_list[-1])
        assert run_study_tables(dataclasses.replace(config, mc_count=2))["l2"].rows[-1].rms_error > 0
    wave = [
        # 8 + 15 + 15 + 4 increments, gaps, velocity parts and pieces per window
        (desk_wave_config(), 16, (16, 32, 64, 128), 672),
        (paper_wave_config(), 64, (64, 128, 256, 512, 1024), 5248),
        (desk_wave_config(n_list=(8, 64)), 16, (16, 32, 64), 352),  # 32 holds no row
        (desk_wave_config(n_list=(1, 2), k=4), 2, (2,), 14),  # the windows reach N_max = 2
        (desk_wave_config(n_list=(8, 16, 32)), 8, (8, 16, 32), 176),
    ]
    for config, windows, drawn_n, normals in wave:
        law = config.window_law
        assert (law.steps, law.windows, law.normals) == (config.n_list[-1], windows, normals)
        assert law.meshes == tuple(TimeMesh(n) for n in drawn_n)
        assert law.rates == wave_oracle_rates(SpatialGrid(config.k)) and law.velocity
        assert config.finest_mesh == TimeMesh(config.n_list[-1])
    beyond = desk_wave_config(n_list=(1, 2), k=4, mc_count=2)
    assert run_study_tables(beyond)["h1_displacement"].rows[-1].rms_error > 0
    assert len(dataclasses.fields(StudyConfig)) == 9
    with pytest.raises(TypeError):
        desk_heat_config(master_steps=2**16)


def test_heat_rows_do_not_depend_on_coarser_meshes():
    """A coarser sibling mesh changes no row, heat or wave: the path law reads only N_max."""
    wide = run_study_tables(small_config(n_list=(4, 8, 16)))["l2"]
    narrow = run_study_tables(small_config(n_list=(8, 16)))["l2"]
    assert wide.rows[1:] == narrow.rows
    wave = desk_wave_config(k=6, mc_count=3)
    wide = run_study_tables(dataclasses.replace(wave, n_list=(4, 8, 16)))
    narrow = run_study_tables(dataclasses.replace(wave, n_list=(8, 16)))
    for norm, table in narrow.items():
        assert wide[norm].rows[1:] == table.rows


# Each case carries a fixed id, so deleting one case renames no other.  The
# ids keep the names that positional numbering gave these cases.
@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(dict(equation="transport"), id="overrides0"),
        pytest.param(dict(n_list=()), id="overrides1"),
        pytest.param(dict(n_list=(16, 8)), id="overrides2"),
        pytest.param(dict(n_list=(8, 8, 16)), id="overrides3"),
        pytest.param(dict(n_list=(12,)), id="overrides4"),
        pytest.param(dict(k=1), id="overrides6"),
        pytest.param(dict(mc_count=0), id="overrides7"),
        pytest.param(dict(base_seed=-3), id="overrides8"),
        pytest.param(dict(workers=0), id="overrides9"),
        pytest.param(dict(noise_scale=-1.0), id="overrides10"),
        pytest.param(dict(noise_scale=float("nan")), id="noise_scale_nan"),
        pytest.param(dict(noise_scale=float("inf")), id="noise_scale_inf"),
        pytest.param(dict(scheme="rk4"), id="overrides12"),
        pytest.param(dict(exact_mode="spectral"), id="overrides13"),
        pytest.param(dict(base_seed=2**64), id="overrides15"),  # Philox key words are 64 bits
        # the benchmark noise loads sin(3 pi x), which needs 3 interior nodes
        pytest.param(dict(k=2), id="k2"),
    ],
)
def test_validate_config_rejects_bad_heat_settings(overrides):
    config = dataclasses.replace(small_config(), **overrides)
    with pytest.raises(ConfigError):
        validate_config(config)


# Ids pinned per case, as above.
@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(dict(scheme="em"), id="overrides0"),
        # wave measures against its semidiscrete oracle, and the mode must name that one
        pytest.param(dict(exact_mode="spectral"), id="exact_mode"),
        pytest.param(dict(exact_mode="continuous"), id="exact_mode_continuous"),
        pytest.param(dict(k=2), id="k2"),  # no interior node for sin(3 pi x)
    ],
)
def test_validate_config_rejects_bad_wave_settings(overrides):
    base = desk_wave_config(n_list=(8, 16), k=6, mc_count=2)
    config = dataclasses.replace(base, **overrides)
    with pytest.raises(ConfigError):
        validate_config(config)
