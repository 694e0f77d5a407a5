"""The package's public surface: the names `annealab` exports, and every name
the README's Python tour and the benchmark in perfbench/ import from it."""

import ast
import importlib
from pathlib import Path

import annealab

EXPORTS = {
    "AnnealPath", "CycleRecord", "Graph", "IsingProblem", "ProblemDiagonal", "QuantumState",
    "QuboProblem", "RunRecord", "Sample", "Schedule", "SpectrumTable", "StatevectorBackend",
    "SvmcBackend", "__version__", "anneal", "assisted_reverse_anneal", "basis_state",
    "bits_to_index", "build_coloring_qubo", "build_problem_diagonal", "driver_ground", "evolve",
    "generate_er", "greedy_color_largest_first", "index_to_bits", "lowest_eigenvalues",
    "make_forward_path", "make_reverse_path", "min_gap", "path_graph", "qubo_to_ising",
    "resolve_schedule", "reverse_distance_grid", "sample", "select_initial", "spectrum_sweep",
    "svmc_run",
}

# module -> names perfbench/ imports, calls or wraps there
BENCHMARK_NAMES = {
    "annealab": ("build_coloring_qubo", "path_graph"),
    "annealab.cli": ("cli_entry",),
    "annealab.coloring_qubo": ("build_coloring_qubo", "validate"),
    "annealab.dynamics": ("driver_apply", "evolve", "sample"),
    "annealab.experiments": ("ExperimentConfig", "baseline_run", "instance", "run_chain",
                             "sweep_reverse_distance"),
    "annealab.graphs": ("Graph", "generate_er", "path_graph"),
    "annealab.heuristic": ("StatevectorBackend", "SvmcBackend", "assisted_reverse_anneal",
                           "problem_id", "run_chain"),
    "annealab.schedules": ("Schedule", "resolve_schedule"),
    "annealab.spectrum": ("build_problem_diagonal", "driver_apply", "lowest_eigenvalues",
                          "min_gap", "spectrum_sweep"),
    "annealab.svmc": ("svmc_run",),
}


def test_exports_are_the_pinned_set():
    assert set(annealab.__all__) == EXPORTS
    namespace = {}
    exec("from annealab import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS


def test_readme_tour_imports_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.walk(ast.parse(tour)) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_benchmark_names_resolve():
    for module_name, names in BENCHMARK_NAMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
    # the tracer wraps each backend's two stages and the schedule envelopes by name
    heuristic = importlib.import_module("annealab.heuristic")
    for cls in (heuristic.StatevectorBackend, heuristic.SvmcBackend):
        assert {"forward", "reverse"} <= vars(cls).keys()
    assert {"a", "b"} <= vars(annealab.Schedule).keys()
