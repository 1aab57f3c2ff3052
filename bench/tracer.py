"""In-memory spans around the calls between graphnls modules.

A traced worker rebinds each name in WRAPS inside the module that calls
it (for example ``graphnls.solve.assemble``), so every call from one
layer into another opens a span.  graphnls itself is not edited, and an
untraced worker never imports this file.

A span's self time is its duration minus the time covered by the spans
it opened.  Every recorded second therefore belongs to exactly one layer
metric, and ``other_s`` is the part of the pass under no span at all, so
the layer self times plus ``other_s`` add up to the traced ``run_s``.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module whose binding is replaced, bound name, span)
WRAPS = (
    ("graphnls.cli", "cmd_solve", "cli.write"),
    ("graphnls.cli", "load_graph", "graphs.build"),
    ("graphnls.cli", "continuation_sweep", "solve.sweep"),
    ("graphnls.cli", "assemble", "discrete.assemble"),
    ("graphnls.cli", "evaluate_functionals", "functionals.evaluate"),
    ("graphnls.cli", "soliton_reference", "functionals.soliton_reference"),
    ("graphnls.cli", "enumerate_critical_points", "reduced.critical_points"),
    ("graphnls.cli", "even_case_lines", "reduced.even_lines"),
    ("graphnls.solve", "newton_solve", "solve.newton"),
    ("graphnls.solve", "nonlinear_residual", "solve.residual"),
    ("graphnls.solve", "jacobian", "solve.jacobian"),
    ("graphnls.solve", "kernel_projection_diagnostics", "solve.diagnostics"),
    ("graphnls.solve", "peak_offsets", "solve.diagnostics"),
    ("graphnls.solve", "dual_residual_norm", "discrete.dual_norm"),
    ("graphnls.solve", "refined_mesh", "discrete.mesh"),
    ("graphnls.solve", "assemble", "discrete.assemble"),
    ("graphnls.solve", "assemble_ansatz", "profiles.ansatz"),
    ("graphnls.solve", "sample_kernel_mode", "profiles.kernel_mode"),
    ("graphnls.functionals", "assemble", "discrete.assemble"),
    ("graphnls.functionals", "evaluate_functionals", "functionals.evaluate"),
    ("graphnls.functionals", "soliton_reference", "functionals.soliton_reference"),
    ("graphnls.acceptance", "build_graph", "graphs.build"),
    ("graphnls.acceptance", "continuation_sweep", "solve.sweep"),
    ("graphnls.acceptance", "newton_solve", "solve.newton"),
    ("graphnls.acceptance", "nonlinear_residual", "solve.residual"),
    ("graphnls.acceptance", "jacobian", "solve.jacobian"),
    ("graphnls.acceptance", "uniform_mesh", "discrete.mesh"),
    ("graphnls.acceptance", "assemble", "discrete.assemble"),
    ("graphnls.acceptance", "sample_kernel_mode", "profiles.kernel_mode"),
    ("graphnls.acceptance", "evaluate_functionals", "functionals.evaluate"),
    ("graphnls.acceptance", "ground_state_gap", "functionals.ground_state_gap"),
    ("graphnls.acceptance", "soliton_reference", "functionals.soliton_reference"),
    ("graphnls.acceptance", "enumerate_critical_points", "reduced.critical_points"),
    ("graphnls.acceptance", "even_case_lines", "reduced.even_lines"),
) + tuple(
    ("graphnls.acceptance", f"criterion_{k}", f"acceptance.criterion_{k}")
    for k in range(1, 10)
)

# Wrapped apart from WRAPS: splu as newton_solve reaches it through
# graphnls.solve.spla, and the KirchhoffOperator.factor method.
LU_SPAN = "solve.lu"
FACTOR_SPAN = "discrete.factor"

SPANS = tuple(dict.fromkeys([s for _, _, s in WRAPS] + [LU_SPAN, FACTOR_SPAN]))
COUNTED_SPANS = (
    "solve.newton",
    "solve.residual",
    "solve.lu",
    "discrete.factor",
    "discrete.dual_norm",
    "discrete.assemble",
    "profiles.ansatz",
)

# every per-layer metric a traced pass reports, with its unit
LAYER_UNITS = {f"{s}_s": "s" for s in SPANS}
LAYER_UNITS.update({f"{s}_calls": "count" for s in COUNTED_SPANS})
LAYER_UNITS.update(
    {
        "solve.newton_iters": "count",
        "solve.newton_failures": "count",
        "solve.backtracks": "count",
        "discrete.ndof_max": "count",
        "discrete.ndof_sum": "count",
        "other_s": "s",
    }
)

# what a span keeps of its call's result, for the counts
_RESULT_INFO = {
    "solve.newton": lambda res: (res.iterations, res.converged),
    "discrete.mesh": lambda mesh: mesh.ndof,
}


class _ModuleView:
    """Stand-in for a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records one span per wrapped call: [span, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, span: str, fn):
        info = _RESULT_INFO.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [span, time.perf_counter(), None, parent, None]
            self.spans.append(record)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if info is not None:
                record[4] = info(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, name, span in WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, name, self.wrap(span, getattr(module, name)))
        solve = importlib.import_module("graphnls.solve")
        solve.spla = _ModuleView(solve.spla, splu=self.wrap(LU_SPAN, solve.spla.splu))
        discrete = importlib.import_module("graphnls.discrete")
        op_cls = discrete.KirchhoffOperator
        op_cls.factor = self.wrap(FACTOR_SPAN, op_cls.factor)

    def summary(self, run_s: float) -> dict[str, float]:
        """Per-layer self times and counts of a pass that took run_s."""
        out = {name: 0 for name in LAYER_UNITS}
        covered = [0.0] * len(self.spans)
        residuals_in = [0] * len(self.spans)
        top = 0.0
        for span, start, end, parent, _ in self.spans:
            if parent < 0:
                top += end - start
            else:
                covered[parent] += end - start
                if span == "solve.residual":
                    residuals_in[parent] += 1
        for i, (span, start, end, parent, info) in enumerate(self.spans):
            out[f"{span}_s"] += end - start - covered[i]
            if span in COUNTED_SPANS:
                out[f"{span}_calls"] += 1
            if span == "discrete.mesh":
                out["discrete.ndof_max"] = max(out["discrete.ndof_max"], info)
                out["discrete.ndof_sum"] += info
            elif span == "solve.newton":
                iterations, converged = info
                out["solve.newton_iters"] += iterations
                out["solve.newton_failures"] += not converged
                # newton_solve evaluates the residual once before the
                # loop, once at the top of each iteration and once per
                # trial step; trial steps beyond the first are backtracks
                out["solve.backtracks"] += residuals_in[i] - 1 - 2 * iterations
        out["other_s"] = run_s - top
        return out
