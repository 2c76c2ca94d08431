"""qcroute: cable-routing QUBO compiler, sampling-VQE solver, and oracles."""

from .instance import (
    Cable,
    Instance,
    InstanceError,
    Node,
    Segment,
    bundled_layouts,
    incident_segments,
    parse_instance,
    render_instance,
)
from .metrics import (
    RunRecord,
    SweepReport,
    build_report,
    emp_prob,
    opt_gap_stats,
    records_from_csv,
    records_to_csv,
    run_sweep,
)
from .oracle import (
    FeasibilityReport,
    OracleSolution,
    Violation,
    brute_force_min,
    check_feasibility,
    shortest_path_opt,
)
from .quantum import (
    AnsatzSpec,
    BasisWeights,
    SampleCounts,
    Statevector,
    estimate_energy,
    exact_distribution,
    prepare_state,
    sample,
)
from .qubo import (
    CableQubo,
    GlobalQubo,
    IsingModel,
    PenaltyWeights,
    VariableMap,
    assemble_global,
    build_cable_qubo,
    default_penalties,
    ising_energy,
    qubo_energy,
    scale_penalties,
    to_ising,
)
from .vqe import (
    GlobalAssignment,
    SolveResult,
    VqeConfig,
    cable_block,
    minimize,
    solve_decomposed,
    vqe_solve,
)

__version__ = "0.1.0"
