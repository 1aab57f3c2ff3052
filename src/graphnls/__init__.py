"""Peaked bound states of the nonlinear Schrödinger equation on metric graphs.

The package builds metric graphs, assembles Kirchhoff finite-element
operators, seeds Newton continuation with an explicit tapered star
ansatz, and verifies the quantitative structure of the resulting
states: linearization kernel, reduced-energy degree, mass and action
scaling, correction decay, and the ground-state comparison.
"""

from .acceptance import CriterionResult, reference_graph, run_all
from .discrete import (
    DiscreteField,
    KirchhoffOperator,
    Mesh,
    assemble,
    kirchhoff_flux,
    lambda_norm,
    refined_mesh,
    resolvent_apply,
    uniform_mesh,
)
from .errors import GraphNLSError
from .functionals import (
    FunctionalReport,
    GroundStateGap,
    evaluate_functionals,
    ground_state_gap,
    soliton_reference,
)
from .graphs import (
    Edge,
    MetricGraph,
    StarNeighborhood,
    build_graph,
    insert_midpoints,
    load_graph,
    star_neighborhood,
)
from .profiles import (
    AnsatzSpec,
    assemble_ansatz,
    eval_cutoff,
    eval_soliton,
    kernel_basis,
    reduced_cubic_coefficient,
    sample_kernel_mode,
    sample_star_state,
    soliton_derivative,
)
from .reduced import (
    ReducedEnergyReport,
    change_of_variables_matrix,
    enumerate_critical_points,
    even_case_lines,
    perturbed_gradient_hessian,
    reduced_energy,
)
from .solve import (
    BoundStateResult,
    SolveConfig,
    continuation_sweep,
    jacobian,
    kernel_projection_diagnostics,
    newton_solve,
    nonlinear_residual,
    peak_template,
)

__all__ = [
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
    "SolveConfig",
    "StarNeighborhood",
    "assemble",
    "assemble_ansatz",
    "build_graph",
    "change_of_variables_matrix",
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
