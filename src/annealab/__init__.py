"""Anneal lab: graph-coloring QUBOs, anneal schedules, spectra, statevector
and rotor-sampler dynamics, and the forward-assisted reverse-annealing
heuristic with its batch experiment protocols."""

__version__ = "0.1.0"

from .coloring_qubo import (
    IsingProblem,
    OneHotViolation,
    QuboProblem,
    Sample,
    bits_to_index,
    brute_force_solve,
    build_coloring_qubo,
    decode,
    index_to_bits,
    qubo_to_ising,
    validate,
)
from .dynamics import (
    QuantumState,
    anneal,
    basis_state,
    driver_ground,
    energy_expectation,
    evolve,
    sample,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    generate_er,
    greedy_color_largest_first,
    is_proper_coloring,
    path_graph,
)
from .heuristic import (
    CycleRecord,
    RunRecord,
    StatevectorBackend,
    SvmcBackend,
    assisted_reverse_anneal,
    select_initial,
)
from .schedules import (
    AnnealPath,
    Schedule,
    make_forward_path,
    make_reverse_path,
    resolve_schedule,
    reverse_distance_grid,
)
from .spectrum import (
    ProblemDiagonal,
    SpectrumTable,
    build_problem_diagonal,
    lowest_eigenvalues,
    min_gap,
    spectrum_sweep,
)
from .svmc import svmc_run

__all__ = [
    "AnnealPath",
    "CycleRecord",
    "Graph",
    "IsingProblem",
    "OneHotViolation",
    "ProblemDiagonal",
    "QuantumState",
    "QuboProblem",
    "RunRecord",
    "Sample",
    "Schedule",
    "SpectrumTable",
    "StatevectorBackend",
    "SvmcBackend",
    "__version__",
    "anneal",
    "assisted_reverse_anneal",
    "basis_state",
    "bits_to_index",
    "brute_force_solve",
    "build_coloring_qubo",
    "build_problem_diagonal",
    "complete_graph",
    "cycle_graph",
    "decode",
    "driver_ground",
    "energy_expectation",
    "evolve",
    "generate_er",
    "greedy_color_largest_first",
    "index_to_bits",
    "is_proper_coloring",
    "lowest_eigenvalues",
    "make_forward_path",
    "make_reverse_path",
    "min_gap",
    "path_graph",
    "qubo_to_ising",
    "resolve_schedule",
    "reverse_distance_grid",
    "sample",
    "select_initial",
    "spectrum_sweep",
    "svmc_run",
    "validate",
]
