"""The package's public names, and the README's library example."""

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
    "KernelBasis",
    "KirchhoffOperator",
    "Mesh",
    "MetricGraph",
    "ReducedEnergyReport",
    "SolitonParams",
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
