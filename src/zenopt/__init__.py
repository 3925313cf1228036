"""Statevector toolkit for constrained binary optimization with hybrid
QAOA / penalty-dephasing / quantum-Zeno circuits."""

from .builder import (
    DEPHASE_FIRST,
    NATURAL,
    ORDERINGS,
    ZENO_FIRST,
    CircuitStats,
    HybridCircuit,
    LayerParams,
    build_circuit,
    circuit_stats,
    prepare_initial_state,
    run_circuit,
)
from .annealing import AnnealResult, AnnealSchedule, VisitRecord, anneal
from .errors import (
    CapacityError,
    ContractError,
    EmptySubspaceError,
    InputError,
    LayoutError,
    ShapeError,
    ZenoptError,
)
from .functional import EvalResult, FunctionalCircuit
from .harness import (
    HistogramResult,
    SweepResult,
    enumerate_assignments,
    lagrange_sweep,
    ordering_study,
    run_assignment,
    run_family_sweep,
    sampled_metrics,
    state_visit_histogram,
    zeno_demo_rows,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    TraceRecord,
    evaluate_params,
    optimize,
)
from .problem import (
    DEPHASE,
    QAOA,
    ZENO,
    ConstrainedBinaryProblem,
    Constraint,
    IsingCoeffs,
    Multipliers,
    Qubo,
    brute_force_solve,
    cargo_instance,
    compile_qubo,
    default_multipliers,
    load_problem,
    problem_from_json,
    problem_to_json,
    qubo_to_ising,
    qubo_values,
    save_problem,
)
from .statevector import (
    Gate,
    Projection,
    Statevector,
    apply_gate,
    apply_gates,
    expectation_diagonal,
    marginal_probabilities,
    new_state,
    project_qubit,
    sample,
)
from .zeno import (
    expm_hermitian,
    survival_analytic,
    survival_empirical,
    zeno_hamiltonian,
    zeno_limit_error,
)

__version__ = "0.1.0"
