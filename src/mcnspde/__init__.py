"""Strong-order time stepping for stochastic heat and wave equations.

One-dimensional heat and wave equations on (0, 1) with homogeneous
Dirichlet boundaries and additive finite-dimensional Wiener noise,
discretized by second differences in space.  The time steppers augment
the Crank-Nicolson rule with micro-grid quadrature corrections of the
noise, lifting the strong order to 3/2 (heat) and 2 (wave); an implicit
Euler-Maruyama baseline is included.  A Monte Carlo harness measures the
strong errors on shared noise samples and fits convergence rates, and a
validation suite checks the quadrature moments against closed forms.
"""

from .grid import (
    SpatialGrid,
    dirichlet_eigenvalue,
    h1_seminorm,
    l2_inner,
    l2_norm,
    sine_mode,
)
from .noise import (
    AlignmentError,
    NoiseBlock,
    TimeMesh,
    WienerPath,
    defect_moment_exact,
    mesh_values,
    sample_path,
    wave_micro_sum_moment_exact,
)
from .heat import (
    ConfigError,
    HEAT_NOISE,
    HeatProblem,
    benchmark_heat_problem,
    benchmark_phi,
    em_step,
    heat_step_map,
    mcn_heat_step,
    run_heat,
)
from .wave import (
    WAVE_NOISE,
    WaveProblem,
    benchmark_wave_problem,
    mcn_wave_step,
    run_wave,
    wave_energy,
    wave_step_map,
)
from .harness import (
    ConvergenceTable,
    StudyConfig,
    TableRow,
    csv_text,
    desk_heat_config,
    desk_wave_config,
    emit_csv,
    fit_rate,
    paper_heat_config,
    paper_wave_config,
    read_csv,
    report_text,
    rms_and_standard_error,
    run_study,
    run_study_tables,
    validate_config,
)
from .validation import (
    CheckResult,
    ValidationReport,
    holder_trapezoid_bound,
    trapezoid_defect,
    validate_statistics,
)

__version__ = "0.1.0"
