"""The package's public names."""

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
