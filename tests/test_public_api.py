"""The package's public names, its unused imports, and the README's
library example."""

import ast
from pathlib import Path

import graphnls

# every name the pipeline uses, and the references its tests build on
PUBLIC_API = [
    "AnsatzSpec",
    "BoundStateResult",
    "CriterionResult",
    "DiscreteField",
    "Edge",
    "FunctionalReport",
    "GraphNLSError",
    "GroundStateGap",
    "KirchhoffOperator",
    "Mesh",
    "MetricGraph",
    "ReducedEnergyReport",
    "SolitonReference",
    "SolveConfig",
    "StarNeighborhood",
    "assemble",
    "assemble_ansatz",
    "build_graph",
    "change_of_variables_matrix",
    "check_disjoint_peak_balls",
    "continuation_sweep",
    "enumerate_critical_points",
    "eval_cutoff",
    "eval_soliton",
    "evaluate_functionals",
    "even_case_lines",
    "ground_state_gap",
    "insert_midpoints",
    "jacobian",
    "kernel_basis",
    "kernel_projection_diagnostics",
    "kirchhoff_flux",
    "lambda_norm",
    "load_graph",
    "newton_solve",
    "nonlinear_residual",
    "peak_template",
    "perturbed_gradient_hessian",
    "reduced_cubic_coefficient",
    "reduced_energy",
    "reduced_energy_diagonal",
    "reference_graph",
    "refined_mesh",
    "resolvent_apply",
    "run_all",
    "sample_kernel_mode",
    "sample_star_state",
    "soliton_derivative",
    "soliton_reference",
    "star_neighborhood",
    "uniform_mesh",
]


def test_public_names_are_pinned_and_resolve():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert graphnls.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(graphnls, name) is not None


def test_readme_library_example_runs(capsys):
    # the example is run as written, so it cannot drift from the API
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [lam, "True"] for lam in ("25.0", "50.0", "100.0")
    ]


# module.name of every import that the module never reads: names the
# tracer in bench/tracer.py rebinds, kept bound for it alone
TRACER_ONLY_IMPORTS = [
    "acceptance.evaluate_functionals",
    "acceptance.sample_kernel_mode",
    "acceptance.soliton_reference",
    "cli.assemble",
    "cli.evaluate_functionals",
    "functionals.assemble",
    "solve.sample_kernel_mode",
]


def test_no_module_imports_a_name_it_never_reads():
    # __init__ re-exports its imports through __all__, pinned above
    unread = []
    for path in sorted(Path(graphnls.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    assert unread == TRACER_ONLY_IMPORTS
