"""Time-dependent multicommodity network flow for space logistics:
instance modeling, penalty-Hamiltonian compilation, and classical solvers."""

from .instance import (
    Arc,
    Commodity,
    Depot,
    HamflowError,
    Instance,
    ScheduleEntry,
    ValidationReport,
    build_case_study,
    default_case_study_costs,
    load_cost_map,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .expansion import (
    Assignment,
    FeasibilityReport,
    Model,
    evaluate_objective,
    expand_model,
    prune_model,
    reconstruct_solution,
    verify_assignment,
)
from .hamiltonian import (
    Hamiltonian,
    choose_alpha,
    compile_hamiltonian,
    decode_point,
    dynamic_range_db,
    encode_assignment,
    evaluate_energy,
    export_hamiltonian,
    parse_hamiltonian,
)
from .solvers import (
    AnnealParams,
    ExactResult,
    Sample,
    SampleSet,
    anneal_sample,
    brute_force_oracle,
    postprocess_flows,
    solve_exact,
    summarize_samples,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
