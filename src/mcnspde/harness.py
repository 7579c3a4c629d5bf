"""Monte Carlo strong-convergence studies and their tabulated results.

A study fixes the benchmark problem, a list of coarse resolutions, and a
realization count.  Every realization r draws one Wiener path (its
Philox stream keyed by the two words (base_seed, r), so reruns and
worker splits reproduce bit-identical tables and no two base seeds share
a path) and runs every resolution against that same path.  A path is
drawn window by window (StudyConfig.window_law), jointly from the exact
law of what the study reads: per window of the finest marched mesh
N_max, its N_max increments, the gaps of the meshes too fine to read
them from those increments and, for wave, the local parts of their
velocity sums, and the pieces of the exact solution, so the oracle is
the exact solution itself.  run_study_tables runs a study once and
returns a table for every norm it measures, as STUDY_NORMS states them
per equation: the L2 error for heat, the H1 displacement error and the
L2 velocity error for wave.  The root-mean-square final-time error per
resolution then feeds a log-log least-squares rate fit: the squared
errors are written in one (norms, resolutions, realizations) array,
every row of it is reduced in one rms_and_standard_error call, and the
rate is the closed-form slope (fit_rate).

Realizations run in blocks, and their paths are drawn in chunks of as
many as CHUNK_BYTES holds (chunk_size): 36 desk heat paths, 51 desk wave
paths.  Every chunk of a block is drawn into the same two arrays, its
normals and window values (0.5 MB for desk heat), allocated once per
block, so no chunk faults in fresh pages.  Each chunk is used at once
and dropped: it is reduced on every mesh to its noise coordinates, a
few numbers per step, stored as its paths' columns of that mesh's
NoiseBlock, and its oracle pieces are kept.  Then the oracle is formed
and every mesh is marched for the whole block in one modal_march call,
on (P, C, K, R) states.
States and oracle values are sine amplitudes, and each realization's
squared error is one sum over the modes (SpatialGrid.l2_squared,
h1_squared), so a study never forms node values or the sine basis.  A
block's coordinates may take no more memory than the increments and
cumulative values of one path on the finest marched mesh's micro grid
(block_size), a grid no study draws in full, and only one chunk, of at
most CHUNK_BYTES, is alive at a time, so memory does not grow with the
realization count.
Each path keeps its own Philox key and gets the same bits in any chunk.

Heat studies measure against the closed-form benchmark solution, either
with continuous-spectrum decay rates (total error, floored by the spatial
discretization) or semidiscrete rates (pure time-stepping error).  Wave
studies measure against the exact solution of the spatially discrete
equation (wave.window_wave_solution), so their rows too are the pure
time-stepping error.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .grid import SpatialGrid
from .heat import (
    BENCHMARK_NOISE_MODES,
    ConfigError,
    EXACT_CONTINUOUS,
    EXACT_SEMIDISCRETE,
    HEAT_NOISE,
    SCHEME_EULER,
    SCHEME_MCN,
    benchmark_heat_problem,
    heat_step_map,
    modal_march,
    oracle_rates,
    window_heat_solution,
)
from .noise import NoiseBlock, TimeMesh, WindowLaw, sample_windows
from .wave import (
    WAVE_NOISE,
    benchmark_wave_problem,
    wave_oracle_rates,
    wave_step_map,
    window_wave_solution,
)

EQUATION_HEAT = "heat"
EQUATION_WAVE = "wave"

# Every norm a study measures, per equation and in table order, the first
# the default: name -> (state coordinate, squared SpatialGrid norm).
STUDY_NORMS = {
    EQUATION_HEAT: {"l2": (0, SpatialGrid.l2_squared)},
    EQUATION_WAVE: {
        "h1_displacement": (0, SpatialGrid.h1_squared),
        "l2_velocity": (1, SpatialGrid.l2_squared),
    },
}

CSV_HEADER = "N,tau,rms_error,standard_error"

# Rows whose error sits within this factor of the measured spatial floor
# are dropped from the default rate fit: they measure the grid, not the
# time stepper.
FLOOR_EXCLUSION_FACTOR = 3.0

# Paths are drawn and reduced a chunk at a time (chunk_size), so numpy's
# per-call cost is shared among a chunk's paths.  A chunk's drawn arrays
# take at most this many bytes: 36 desk heat paths (18 KB each), 9
# --paper heat (69 KB), 51 desk wave (13 KB) or 6 --paper wave (98 KB),
# so paper memory does not grow.
CHUNK_BYTES = 640 * 1024


@dataclass(frozen=True)
class StudyConfig:
    """Complete description of one convergence study.

    Defaults give the quick desk-scale heat study; see desk_wave_config
    and the paper_* factories for the other stock configurations.
    """

    equation: str = EQUATION_HEAT
    scheme: str = SCHEME_MCN
    n_list: tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    k: int = 40
    mc_count: int = 500
    base_seed: int = 20260814
    exact_mode: str = EXACT_CONTINUOUS
    noise_scale: float = 1.0
    workers: int = 1

    @property
    def marched_meshes(self) -> tuple[TimeMesh, ...]:
        """Every mesh the study marches: n_list in order."""
        return tuple([TimeMesh(n) for n in self.n_list])  # a list: see WindowLaw.pieces

    @property
    def finest_mesh(self) -> TimeMesh:
        """The finest mesh the study marches, N_max = max(n_list)."""
        return TimeMesh(max(self.n_list))

    @property
    def window_law(self) -> WindowLaw:
        """The law of the study's paths: windows of the finest marched mesh.

        It draws every noise coordinate that a marched mesh, or one of its
        finer siblings up to the finest, reads, and the oracle pieces: for
        heat one per decay rate of oracle_rates, for wave the velocity
        parts too and two pieces per rate of wave_oracle_rates.  So it
        depends only on the equation, the finest mesh and k.
        """
        grid = SpatialGrid(self.k)
        if self.equation == EQUATION_HEAT:
            return WindowLaw(self.finest_mesh.N, oracle_rates(grid))
        return WindowLaw(self.finest_mesh.N, wave_oracle_rates(grid), velocity=True)


def desk_heat_config(**overrides) -> StudyConfig:
    """Quick heat study: N in 8..256, 500 realizations.

    Paths are drawn in 32 windows of 27 values: 8 increments of N = 256,
    the 15 gaps of N = 32..256 and 4 oracle pieces, 864 normals a path.
    """
    return dataclasses.replace(StudyConfig(), **overrides)


def desk_wave_config(**overrides) -> StudyConfig:
    """Quick wave study: N in 8..128 against the exact solution, 300 realizations.

    Paths are drawn in 16 windows of 42 values: 8 increments of N = 128,
    the 15 gaps and the 15 velocity parts of N = 16..128 and 4 oracle
    pieces, 672 normals a path.
    """
    base = StudyConfig(equation=EQUATION_WAVE, n_list=(8, 16, 32, 64, 128), mc_count=300)
    return dataclasses.replace(base, **overrides)


def paper_heat_config(**overrides) -> StudyConfig:
    """Full-scale heat study: N in 4..1024, 1000 realizations.

    Paths are drawn in 64 windows of 51 values: 16 increments of N =
    1024, the 31 gaps of N = 64..1024 and 4 oracle pieces.
    """
    base = StudyConfig(n_list=(4, 8, 16, 32, 64, 128, 256, 512, 1024), mc_count=1000)
    return dataclasses.replace(base, **overrides)


def paper_wave_config(**overrides) -> StudyConfig:
    """Full-scale wave study: N in 4..1024 against the exact solution, 1000 realizations.

    Paths are drawn in 64 windows of 82 values: 16 increments of N =
    1024, the 31 gaps and the 31 velocity parts of N = 64..1024 and 4
    oracle pieces, 5248 normals a path.
    """
    base = StudyConfig(
        equation=EQUATION_WAVE, n_list=(4, 8, 16, 32, 64, 128, 256, 512, 1024), mc_count=1000
    )
    return dataclasses.replace(base, **overrides)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def validate_config(config: StudyConfig) -> None:
    """Raise ConfigError on any inconsistent study setting."""
    if config.equation not in (EQUATION_HEAT, EQUATION_WAVE):
        raise ConfigError(f"unknown equation {config.equation!r}")
    if not config.n_list:
        raise ConfigError("n_list must not be empty")
    if list(config.n_list) != sorted(set(config.n_list)):
        raise ConfigError("n_list must be strictly increasing")
    for n in config.n_list:
        if not _is_power_of_two(n):
            raise ConfigError(f"coarse resolutions must be powers of two, got {n}")
    top = max(BENCHMARK_NOISE_MODES)
    if config.k < top:
        raise ConfigError(f"the noise loads sin({top} pi x), so need k >= {top}, got k={config.k}")
    if config.mc_count < 1:
        raise ConfigError(f"need at least one realization, got {config.mc_count}")
    if not 0 <= config.base_seed < 2**64:
        raise ConfigError(f"base_seed must be a 64-bit word in [0, 2^64), got {config.base_seed}")
    if config.workers < 1:
        raise ConfigError(f"workers must be positive, got {config.workers}")
    if not 0 <= config.noise_scale < math.inf:
        raise ConfigError(f"noise_scale must be finite and nonnegative, got {config.noise_scale}")
    if config.exact_mode not in (EXACT_CONTINUOUS, EXACT_SEMIDISCRETE):
        raise ConfigError(f"unknown exact mode {config.exact_mode!r}")
    if config.equation == EQUATION_HEAT:
        if config.scheme not in (SCHEME_EULER, SCHEME_MCN):
            raise ConfigError(f"unknown scheme {config.scheme!r}")
    elif config.scheme != SCHEME_MCN:
        raise ConfigError("wave studies run the corrected Crank-Nicolson scheme only")


@dataclass(frozen=True)
class TableRow:
    n_steps: int
    tau: float
    rms_error: float
    standard_error: float


@dataclass(frozen=True)
class ConvergenceTable:
    """RMS errors per resolution plus the fitted log-log rate."""

    equation: str
    scheme: str
    error_norm: str
    rows: tuple[TableRow, ...]
    fitted_rate: float
    fit_range: tuple[int, ...]
    spatial_floor: float | None = None
    fit_note: str = ""


def rms_and_standard_error(squared_errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RMS of per-realization squared errors and its delta-method standard error, per row.

    squared_errors is (..., R), the last axis holding the realizations,
    and the results have its leading shape, 0-d for one row.  The RMS is sqrt(mean
    of squares); its standard error follows from the standard error of the
    mean square divided by the derivative 2*RMS.  Each row of a
    C-contiguous array is reduced pairwise along its contiguous axis,
    bit for bit as the 1-D call on that row.  Degenerate rows (one
    sample, or a constant row such as identically zero error) report 0;
    np.std would leave a rounding residue of the mean there.
    """
    sq = np.asarray(squared_errors, dtype=float)
    rms = np.sqrt(sq.mean(axis=-1))
    se = np.zeros(rms.shape)
    count = sq.shape[-1]
    if count > 1:
        spread = sq.min(axis=-1) < sq.max(axis=-1)
        se_mean = sq.std(axis=-1, ddof=1) / math.sqrt(count)
        np.divide(se_mean, 2.0 * rms, out=se, where=spread)
    return rms, se


def fit_rate(table: ConvergenceTable, fit_range: Sequence[int] | None = None) -> float:
    """Least-squares slope of log2(error) against log2(tau) over fit_range.

    fit_range lists the resolutions to include; None uses the range the
    study selected.  Every resolution it names must have a row, and the
    fit requires at least two rows and strictly positive errors.  The
    slope is the closed form sum((x - mean x)(y - mean y)) / sum((x - mean x)^2).
    """
    wanted = tuple(table.fit_range if fit_range is None else fit_range)
    rows = [row for row in table.rows if row.n_steps in wanted]
    missing = sorted(set(wanted) - {row.n_steps for row in rows})
    if missing:
        raise ValueError(f"rate fit range names resolutions with no row: N = {missing}")
    if len(rows) < 2:
        raise ValueError(f"rate fit needs at least two resolutions, got {len(rows)}")
    if any(row.rms_error <= 0.0 for row in rows):
        raise ValueError("rate fit needs strictly positive errors")
    log_tau = np.log2([row.tau for row in rows])
    log_err = np.log2([row.rms_error for row in rows])
    x = log_tau - log_tau.mean()
    return float(np.sum(x * (log_err - log_err.mean())) / np.sum(x * x))


def _default_fit_range(
    rows: Sequence[TableRow], spatial_floor: float | None
) -> tuple[tuple[int, ...], str]:
    """Default fit range: drop the coarsest row, then floor-dominated rows.

    Degenerate studies stay usable: with two resolutions the coarsest row
    is kept, and a single-resolution table gets an empty range (the rate
    is then reported as nan).
    """
    candidates = [row for row in rows[1:]]
    if len(candidates) < 2:
        if len(rows) >= 2:
            return tuple(row.n_steps for row in rows), "kept the coarsest row: only two resolutions"
        return (), "rate not fitted: needs at least two resolutions"
    if spatial_floor is not None and spatial_floor > 0.0:
        kept = [
            row
            for row in candidates
            if row.rms_error > FLOOR_EXCLUSION_FACTOR * spatial_floor
        ]
        if len(kept) >= 2:
            dropped = len(candidates) - len(kept)
            note = f"dropped {dropped} floor-dominated rows" if dropped else ""
            return tuple(row.n_steps for row in kept), note
        return (
            tuple(row.n_steps for row in candidates),
            "floor filter skipped: too few rows would remain",
        )
    return tuple(row.n_steps for row in candidates), ""


def _build_problems(config: StudyConfig):
    grid = SpatialGrid(config.k)
    build = benchmark_heat_problem if config.equation == EQUATION_HEAT else benchmark_wave_problem
    return grid, [build(grid, TimeMesh(n), config.noise_scale) for n in config.n_list]


def _study_noise(config: StudyConfig, count: int) -> list[NoiseBlock]:
    """Empty noise blocks of count paths for every mesh the study marches, in order."""
    heat = config.equation == EQUATION_HEAT
    coordinates = HEAT_NOISE[config.scheme] if heat else WAVE_NOISE
    return [NoiseBlock.empty(mesh, count, 1, coordinates) for mesh in config.marched_meshes]


def block_size(config: StudyConfig) -> int:
    """Realizations per block: as many as fit in the memory of one full path.

    A block's noise coordinates may take no more bytes than the increments
    and cumulative values of one path on the micro grid of the finest mesh
    the study marches, N_max, whose micro grid is never drawn in full, so
    batching realizations costs at most the memory that sampling such a
    path would need: 130 desk heat realizations (mcn), 44 desk wave.
    """
    path_bytes = 8 * (2 * config.finest_mesh.N ** 2 + 1)
    per_realization = sum(block.nbytes for block in _study_noise(config, 1))
    return max(1, path_bytes // per_realization)


def chunk_size(config: StudyConfig) -> int:
    """Paths drawn and reduced per pass: as many as CHUNK_BYTES holds, at least one.

    A path's drawn arrays are its normals, their window values and its
    N_max increments and cumulative values: 36 desk heat paths, 51 desk
    wave and 6 --paper wave.
    """
    law = config.window_law
    path_bytes = 8 * (2 * law.normals + 2 * law.steps + 1)
    return max(1, CHUNK_BYTES // path_bytes)


def _block_squared_errors(config: StudyConfig, span: range):
    """Per-realization squared errors for the realizations of span, marched as one block.

    Returns (errors, floors) with errors shaped (norms, n_list, len(span)),
    the norms in STUDY_NORMS order, and floors the squared
    continuous-vs-semidiscrete oracle gap (heat continuous mode only,
    else None).  The paths are drawn a chunk at a
    time, each chunk reduced to its noise coordinates on every mesh and
    its oracle pieces and dropped, and then the oracle is formed and
    every mesh is marched for the whole block in one modal_march call.
    """
    grid, problems = _build_problems(config)
    count = len(span)
    blocks = _study_noise(config, count)
    law = config.window_law
    pieces = np.empty((count, law.windows, len(law.pieces)))
    size = chunk_size(config)
    # A chunk's normals and window values, which every chunk of the block is drawn into.
    buffers = [np.empty((min(size, count), law.windows, law.width)) for _ in range(2)]
    for lo in range(0, count, size):
        keys = [(config.base_seed, r) for r in span[lo : lo + size]]
        paths, pieces[lo : lo + len(keys)] = sample_windows(keys, law, buffers)
        for block in blocks:
            block.put(lo, paths)
        del paths  # only one chunk is alive at a time
    del buffers  # and none during the marches
    if config.equation == EQUATION_HEAT:
        # The oracle values of the exact mode, and in continuous mode those of
        # the semidiscrete one too, whose gap to it is the spatial floor.
        modes = {config.exact_mode, EXACT_SEMIDISCRETE}
        oracles = {
            mode: window_heat_solution(pieces, grid, mode, config.noise_scale) for mode in modes
        }
        exact = (oracles[config.exact_mode],)
        floors = None
        if config.exact_mode == EXACT_CONTINUOUS:
            floors = grid.l2_squared(exact[0] - oracles[EXACT_SEMIDISCRETE])
        step_map, states = heat_step_map(problems, config.scheme), [problems[0].initial]
    else:
        exact, floors = window_wave_solution(pieces, grid, config.noise_scale), None
        step_map = wave_step_map(problems)
        states = [problems[0].initial_displacement, problems[0].initial_velocity]
    steps = [range(problem.mesh.N) for problem in problems]
    marched = modal_march(problems, step_map, states, blocks, steps)
    norms = STUDY_NORMS[config.equation].values()
    errors = np.empty((len(norms), len(problems), count))
    for p, final in enumerate(marched):
        for q, (coordinate, norm) in enumerate(norms):
            errors[q, p] = norm(grid, final[coordinate] - exact[coordinate])
    return errors, floors


def _gather_squared_errors(config: StudyConfig):
    """Every realization's squared errors, in realization order, one block task per span.

    Spans hold min(block_size, ceil(mc / workers)) realizations, so no
    block outgrows the memory rule and every worker gets a share.  One
    span, or one worker, runs in this process; otherwise a pool of at
    most one process per span maps the task over the spans.
    """
    mc = config.mc_count
    size = min(block_size(config), -(-mc // config.workers))
    spans = [range(lo, min(lo + size, mc)) for lo in range(0, mc, size)]
    task = functools.partial(_block_squared_errors, config)
    workers = min(config.workers, len(spans))
    if workers == 1:
        parts = list(map(task, spans))
    else:
        import concurrent.futures  # only here: importing it costs every run about 2.5 ms

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, spans))
    errors, floors = zip(*parts)
    return np.concatenate(errors, axis=-1), None if floors[0] is None else np.concatenate(floors)


def run_study_tables(config: StudyConfig) -> dict[str, ConvergenceTable]:
    """Run the study once and return a table for every norm it measures."""
    validate_config(config)
    errors, floors = _gather_squared_errors(config)
    spatial_floor = math.sqrt(float(floors.mean())) if floors is not None else None
    # Every row of every norm in one pass, each a contiguous row of R: (norms, n_list).
    rms, se = rms_and_standard_error(errors)
    tables = {}
    for q, norm in enumerate(STUDY_NORMS[config.equation]):
        rows = tuple(
            TableRow(n, 1.0 / n, float(rms[q, p]), float(se[q, p]))
            for p, n in enumerate(config.n_list)
        )
        fit_range, note = _default_fit_range(rows, spatial_floor)
        table = ConvergenceTable(
            equation=config.equation,
            scheme=config.scheme,
            error_norm=norm,
            rows=rows,
            fitted_rate=float("nan"),
            fit_range=fit_range,
            spatial_floor=spatial_floor,
            fit_note=note,
        )
        if len(fit_range) >= 2:
            table = dataclasses.replace(table, fitted_rate=fit_rate(table))
        tables[norm] = table
    return tables


def _format_value(x: float) -> str:
    # Positional decimal with 17 significant digits: plenty beyond the
    # required precision and reparses to the identical double.
    return np.format_float_positional(x, precision=17, unique=False, fractional=False)


def csv_text(table: ConvergenceTable) -> str:
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(
            f"{row.n_steps},{_format_value(row.tau)},"
            f"{_format_value(row.rms_error)},{_format_value(row.standard_error)}"
        )
    return "\n".join(lines) + "\n"


def read_csv(source: str | Path) -> tuple[TableRow, ...]:
    """Parse a file holding csv_text(table) back into the table's rows."""
    lines = Path(source).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"not a convergence table: bad header in {source}")
    rows = []
    for line in lines[1:]:
        n_s, tau_s, rms_s, se_s = line.split(",")
        rows.append(TableRow(int(n_s), float(tau_s), float(rms_s), float(se_s)))
    return tuple(rows)


def report_text(table: ConvergenceTable, config: StudyConfig | None = None) -> str:
    """Human-readable study summary: configuration, table, fitted rate."""
    out = []
    out.append(f"equation:       {table.equation}")
    out.append(f"scheme:         {table.scheme}")
    out.append(f"error norm:     {table.error_norm}")
    if config is not None:
        out.append(f"interior nodes: {config.k}")
        out.append(f"realizations:   {config.mc_count}")
        out.append(f"base seed:      {config.base_seed}")
        law = config.window_law
        out.append(f"noise windows:  {law.windows}, {law.normals} normals per path")
        exact = config.exact_mode if config.equation == EQUATION_HEAT else EXACT_SEMIDISCRETE
        out.append(f"exact mode:     {exact}")
    out.append("")
    out.append(f"{'N':>6s} {'tau':>12s} {'rms_error':>14s} {'std_error':>14s}")
    for row in table.rows:
        out.append(
            f"{row.n_steps:>6d} {row.tau:>12.6g} {row.rms_error:>14.6e} "
            f"{row.standard_error:>14.6e}"
        )
    out.append("")
    if table.spatial_floor is not None:
        out.append(f"spatial error floor: {table.spatial_floor:.6e}")
    out.append(f"fit range (N):       {', '.join(str(n) for n in table.fit_range)}")
    if table.fit_note:
        out.append(f"fit note:            {table.fit_note}")
    out.append(f"fitted rate:         {table.fitted_rate:.4f}")
    return "\n".join(out) + "\n"

