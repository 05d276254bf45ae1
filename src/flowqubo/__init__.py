"""Configuration models for flowsheet design, penalty QUBOs, and solvers.

The pipeline: build a binary configuration program for a design space
(:mod:`flowqubo.flowsheets`), reformulate it into an unconstrained quadratic
model (:mod:`flowqubo.reformulate`), run interchangeable discrete solvers
(:mod:`flowqubo.solvers`), then score the samples and the continuous stage
(:mod:`flowqubo.metrics`).
"""

from .errors import (
    DimensionError,
    EnergyMismatchError,
    ExhaustiveLimitError,
    FlowQuboError,
    ModelError,
    ReformulationError,
    SampleFormatError,
    SolverError,
)
from .flowsheets import (
    BlackBoxObjective,
    DsDesignSpace,
    DsNode,
    IlDesignSpace,
    build_ds_discrete,
    build_il_discrete,
    il_continuous_solve,
    load_default_ds_space,
    load_default_il_space,
    pattern_search,
    run_blackbox,
    sweep_il,
)
from .ip import BinaryProgram, Constraint, no_good_cut, normalize_constraint
from .metrics import (
    AllFeasibleTarget,
    DiversityReport,
    OptimalityTarget,
    ParetoPoint,
    SuccessEstimate,
    TttReport,
    build_ttt_report,
    diversity,
    estimate_success,
    pareto_front,
    ttt,
    write_pareto_csv,
    write_ttt_csv,
)
from .qubo import (
    IsingModel,
    QuboModel,
    ising_to_qubo,
    qubo_to_ising,
)
from .reformulate import (
    DecodedSample,
    Reformulation,
    VerificationReport,
    default_penalty,
    reformulate,
    rosenberg_penalty,
    verify,
)
from .solvers import (
    SampleRecord,
    SampleSet,
    SaParams,
    branch_and_bound,
    brute_force,
    derived_beta_schedule,
    import_samples,
    simulated_annealing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FlowQuboError",
    "DimensionError",
    "ModelError",
    "ReformulationError",
    "ExhaustiveLimitError",
    "SampleFormatError",
    "EnergyMismatchError",
    "SolverError",
    "QuboModel",
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "Constraint",
    "BinaryProgram",
    "no_good_cut",
    "normalize_constraint",
    "Reformulation",
    "DecodedSample",
    "VerificationReport",
    "default_penalty",
    "rosenberg_penalty",
    "reformulate",
    "verify",
    "SampleRecord",
    "SampleSet",
    "SaParams",
    "brute_force",
    "simulated_annealing",
    "derived_beta_schedule",
    "branch_and_bound",
    "import_samples",
    "ttt",
    "SuccessEstimate",
    "OptimalityTarget",
    "AllFeasibleTarget",
    "estimate_success",
    "DiversityReport",
    "diversity",
    "ParetoPoint",
    "pareto_front",
    "TttReport",
    "build_ttt_report",
    "write_ttt_csv",
    "write_pareto_csv",
    "IlDesignSpace",
    "DsDesignSpace",
    "DsNode",
    "load_default_il_space",
    "load_default_ds_space",
    "build_il_discrete",
    "build_ds_discrete",
    "il_continuous_solve",
    "pattern_search",
    "BlackBoxObjective",
    "run_blackbox",
    "sweep_il",
]
