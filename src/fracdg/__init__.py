"""hp-version discontinuous Galerkin time stepping for fractional subdiffusion.

Solves u' + B A u = f with a Riemann-Liouville operator B of order alpha in
(-1, 0), by per-mode DG time stepping with graded (h-version) or geometric
(hp-version) meshes, plus a convergence-study harness.
"""

from .analysis import (
    CSV_COLUMNS,
    ConvergenceReport,
    StudyRow,
    backend_mode_problems,
    delta_sweep,
    eoc,
    error_measure,
    exp_coefficient,
    figure_curves_hp,
    figure_curves_sweep,
    fem_mode_problems,
    run_h_study,
    run_hp_study,
    write_plot_data,
)
from .config import ConfigError, RunConfig, config_hash, parse_config
from .kernel import (
    MemoryOperator,
    coercivity_constants,
    l2_form,
    memory_block,
    memory_form,
    memory_operator,
)
from .mesh import (
    TimeMesh,
    dof_count,
    fine_grid,
    geometric_mesh,
    graded_mesh,
)
from .problems import (
    ManufacturedProblem,
    ModeComponent,
    PowerSum,
    two_mode_problem,
)
from .spatial import (
    FemSpace,
    ModeSystem,
    composite_gauss,
    fem_backend,
    ritz_projection,
    spectral_backend,
)
from .stepper import (
    DgSolution,
    ModeProblem,
    StabilityReport,
    mode_problems,
    solve,
    stability_report,
)

__version__ = "0.1.0"
