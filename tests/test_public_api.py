"""The package's public names, its unused imports, and the README's
library example and command lines."""

import ast
import json
import shlex
from pathlib import Path

import graphnls
import graphnls.errors
from graphnls.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_public_names_are_pinned_and_resolve():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert graphnls.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(graphnls, name) is not None


def _readme_block(heading: str, language: str) -> str:
    """The first `language` code block after README's `heading`."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    # the example is run as written, so it cannot drift from the API
    code = _readme_block("## Library example", "python")
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [lam, "True"] for lam in ("25.0", "50.0", "100.0")
    ]


def _readme_commands() -> list[list[str]]:
    """The command lines of README's command line block, as argv lists."""
    text = _readme_block("## Command line", "sh").replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.strip()]
    return [shlex.split(line) for line in lines if not line.startswith("#")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # each converges, or ends some shift short of convergence, named in
    # error.json; a removed flag would be a usage error
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands and all(argv[0] == "graphnls" for argv in commands)
    for argv in commands:
        rc = main(argv[1:])
        capsys.readouterr()
        if argv[1] != "solve" or rc == 0:
            assert rc == 0, argv
            continue
        assert rc == 2, argv
        outdir = Path(argv[argv.index("--outdir") + 1])
        manifest = json.loads((outdir / "manifest.json").read_text())
        failed = [
            f"{r['lam']:g}"
            for r in manifest["results"]
            if r["termination"] != "converged"
        ]
        error = json.loads((outdir / "error.json").read_text())
        assert error["error"] == "NotConverged", argv
        assert failed and error["message"].split(": ", 1)[1] == ", ".join(failed)


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


# exports that no module in src/ reads yet, each with the ROADMAP item
# that gives it a reader; the list only shrinks
UNREAD_EXPORTS = [
    "change_of_variables_matrix",  # item 13
    "kirchhoff_flux",  # item 6
    "reduced_cubic_coefficient",  # item 12
    "reduced_energy",  # item 12
    "sample_kernel_mode",  # item 7
]


def test_every_export_is_read_in_src():
    # a read is a loaded name or an attribute; an import alone is not one
    read = set()
    for path in Path(graphnls.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert [name for name in graphnls.__all__ if name not in read] == UNREAD_EXPORTS


# the numerical failures on valid input, in errors.py's order; invalid
# input raises ValueError, so a new class here is a deliberate edit
ERROR_CLASSES = ["SolveFailure", "NegativeForm", "NotConverged"]


def test_every_error_class_is_raised_in_src():
    # an error class that no `raise` names is dead: nothing can catch it
    raised = set()
    for path in Path(graphnls.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = [
        name
        for name, obj in vars(graphnls.errors).items()
        if isinstance(obj, type)
        and issubclass(obj, graphnls.GraphNLSError)
        and obj is not graphnls.GraphNLSError
    ]
    assert classes == ERROR_CLASSES
    assert [name for name in classes if name not in raised] == []
