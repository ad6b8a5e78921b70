"""Future-focused control barrier functions for intersection crossing.

Safe-control toolkit (bicycle dynamics, barrier functions with analytic QP
rows, a dense active-set QP, LQR-nominal CBF-QP filters) plus a Monte-Carlo
harness for the four-way unsignaled intersection benchmark.
"""

from .barriers import (
    FfParams,
    PairTerms,
    RffParams,
    constraint_row,
    h0,
    h_ff,
    h_rff,
    h_speed,
    pair_row,
    smooth_switch,
    tau_hat,
    tau_star_hat,
)
from .controllers import (
    ControllerConfig,
    NominalTarget,
    StepResult,
    centralized_step,
    decentralized_step,
    lqr_gain,
    nominal_control,
    saturate_omega,
)
from .dynamics import (
    ControlInput,
    VehicleParams,
    VehicleState,
    step,
)
from .qp import QpProblem, QpSolution, solve
from .scenario import (
    BatchSummary,
    ScenarioConfig,
    ScenarioError,
    TrialResult,
    check_assumption1,
    default_config,
    randomize_initial,
    run_batch,
    run_trial,
)

__version__ = "0.1.0"
