"""Anneal lab: graph-coloring QUBOs, anneal schedules, spectra, statevector
and rotor-sampler dynamics, and the forward-assisted reverse-annealing
heuristic with its batch experiment protocols."""

import types as _types

__version__ = "0.1.0"

from .coloring_qubo import (
    IsingProblem,
    OneHotViolation,
    QuboProblem,
    Sample,
    bits_to_index,
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
    evolve,
    sample,
)
from .graphs import (
    Graph,
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

# the public names are exactly the ones imported above
__all__ = sorted(["__version__", *(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, _types.ModuleType)))])
