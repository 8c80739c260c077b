"""Multi-strain SEIR simulation with waning immunity and optimal mitigation.

The package models any number of viral strains sharing one population and one
mitigation lever, provides equilibrium and stability analysis for the
infection-free state, and solves for time-varying mitigation schedules with a
forward-backward sweep of the necessary optimality conditions.
"""

from .analysis import (
    PLATEAU_BAND,
    StrainSummary,
    TrajectorySummary,
    numeric_jacobian,
    summarize,
)
from .config import (
    ScenarioConfig,
    StrainSpec,
    load_config,
    parse_config_text,
    preset_config,
    preset_names,
    preset_text,
    resolve_config,
    set_config_value,
    write_preset,
)
from .control import (
    ControlSchedule,
    CostateState,
    CostateTrajectory,
    CostParams,
    FbsmReport,
    backward_sweep,
    fbsm_solve,
    objective,
    optimal_u,
)
from .dynamics import (
    NEGATIVE_TOLERANCE,
    EpidemicState,
    EquilibriumPoint,
    ReproductionNumber,
    StrainParams,
    analytic_eigenvalues,
    equilibrium_residuals,
    full_system_rhs,
    jacobian,
    max_stable_dt,
    min_stabilizing_control,
    nontrivial_equilibrium,
    reproduction_number,
    strain_arrays,
)
from .errors import (
    ConfigError,
    DegenerateControlError,
    DomainError,
    IntegrationError,
    ModelError,
    SolverError,
    StateConsistencyError,
)
from .integrate import SeedEvent, TimeGrid, Trajectory, simulate
from .runner import (
    RunResult,
    read_schedule_csv,
    read_trajectory_csv,
    run_scenario,
    sweep,
    write_trajectory_csv,
)

__version__ = "0.1.0"
