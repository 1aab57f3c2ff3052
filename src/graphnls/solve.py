"""Peaked bound states by damped Newton continuation from the seed state.

The discrete problem is the weak form of -u'' + lam*u = (u+)^(2*mu+1)
with Kirchhoff coupling.  Newton is seeded with the peaked ansatz at
the first shift of the schedule and with the rescaled previous solution
afterwards; the correction u - W and its split along the tapered kernel
modes are measured, not assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import functionals
from .discrete import (
    CondensedFactor,
    DiscreteField,
    EdgeBands,
    KirchhoffOperator,
    Mesh,
    assemble,
    dual_residual_norm,
    edge_bands,
    lambda_norm,
    planned_ndof,
    refined_mesh,
    refined_plans,
)
from .errors import NotConverged, SolveFailure
from .functionals import FunctionalReport, nonlinearity, nonlinearity_slope
from .graphs import MetricGraph, admissible_peak_degree, insert_midpoints

# sample_kernel_mode is unused here; bench/tracer.py wraps it by this name
from .profiles import (
    AnsatzSpec,
    _rays,
    assemble_ansatz,
    sample_kernel_mode,
    sample_kernel_modes,
)


# Largest mesh a sweep may build.  A star5 sweep to lam=1600 with
# nodes_per_width raised to 1450 (311,271 unknowns on its last mesh)
# peaked at 322 bytes of traced memory (tracemalloc) per unknown of that
# last, largest mesh, earlier shifts' results included, so this ceiling
# keeps a sweep's arrays under about 3.2 GB; far beyond it a run would
# swap or be killed instead of finishing.  The graded mesh (fine spacing
# within 15 peak widths of the peak) has 11,796 unknowns at that shift
# by default, so only a nodes_per_width far above its default comes
# near the ceiling.
MAX_NDOF = 10_000_000

# mesh refinement grows like (lam/lam0)**REFINEMENT_GROWTH so
# discretization error in the normalized diagnostics keeps shrinking
# along a sweep
REFINEMENT_GROWTH = 0.25


@dataclass(frozen=True)
class SolveConfig:
    """Newton and continuation knobs, with their defaults and range checks."""

    mu: float = 1.0
    newton_tol: float = 1e-10
    max_iters: int = 50
    lambdas: tuple[float, ...] = (25.0, 50.0, 100.0, 200.0, 400.0)
    nodes_per_width: float = 40.0
    # "previous": rescale the last converged state; "ansatz": start every
    # shift from the peaked seed state itself
    seed: str = "previous"
    SEEDS = ("previous", "ansatz")  # not a field: no annotation

    def __post_init__(self):
        if not self.lambdas:
            raise ValueError("lambda schedule is empty")
        # every scalar knob takes the type of its default, the type its
        # flag parses, so one run has one config hash: mu=2 is mu=2.0
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float:
                object.__setattr__(self, f.name, float(value))
            elif type(f.default) is int:
                if not float(value).is_integer():
                    raise ValueError(f"{f.name} must be an integer, got {value}")
                object.__setattr__(self, f.name, int(value))
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        # fewer than one node per peak width cannot resolve the peak
        if not (math.isfinite(self.nodes_per_width) and self.nodes_per_width >= 1.0):
            raise ValueError(
                "nodes_per_width must be positive and finite, at least 1 node "
                f"per peak width, got {self.nodes_per_width}"
            )
        # the tolerance bounds a relative residual: at 1 or above, the
        # unsolved seed state would already count as converged
        if not 0.0 < self.newton_tol < 1.0:
            raise ValueError(f"newton_tol must be in (0, 1), got {self.newton_tol}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed not in self.SEEDS:
            raise ValueError(f"unknown seed strategy {self.seed!r}")
        sched = tuple(float(x) for x in self.lambdas)
        if not all(math.isfinite(x) and x > 0.0 for x in sched):
            raise ValueError(
                f"lambda shifts must be positive and finite, got {self.lambdas}"
            )
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("lambda schedule must be strictly increasing")
        object.__setattr__(self, "lambdas", sched)


@dataclass
class BoundStateResult:
    """One converged (or not) state plus its measured diagnostics.

    lam and mu are the shift and exponent of the problem u solves, so
    whatever reads the state reads them here.  residual_norm is the
    natural-norm residual relative to the state's own size, the
    quantity the Newton tolerance is applied to.  termination says why
    Newton stopped: "converged", "zero_state" (u has lambda-norm 0, so
    no relative residual and a zero step), "max_iters" (the iteration
    cap), "singular" (the Jacobian failed to factor or gave a
    non-finite step) or "line_search_stall" (no trial step down to
    2**-24 decreased the residual); `converged` is read off it.
    iterations counts the Newton steps taken and backtracks the
    line-search trial steps beyond the first of each.  functionals are
    those of u under the operator and mu Newton ran with.
    correction_norm, kernel_component_norm and peak_locations are
    filled by the sweep, which knows the seed state.
    """

    u: DiscreteField
    lam: float
    mu: float
    termination: str
    iterations: int
    residual_norm: float
    residual_norm_absolute: float
    backtracks: int = 0
    correction_norm: float | None = None
    kernel_component_norm: float | None = None
    peak_locations: list[tuple[str, float]] = field(default_factory=list)
    functionals: FunctionalReport | None = None

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def nonlinear_residual(
    op: KirchhoffOperator,
    mu: float,
    u: DiscreteField,
    shifted_u: np.ndarray | None = None,
) -> DiscreteField:
    """Weak-form residual S u + lam M u - M f(u), f = (u+)^(2*mu+1).

    Zero exactly at discrete Kirchhoff solutions; the positive part in
    f means nonpositive states produce a purely linear residual.
    shifted_u, if the caller has it, is op.shifted @ u.values; the
    residual is written over it.
    """
    v = u.values
    r = op.shifted @ v if shifted_u is None else shifted_u
    r -= op.mass @ nonlinearity(mu, v)
    return DiscreteField(op.mesh, r)


def jacobian(op: KirchhoffOperator, mu: float, u: DiscreteField) -> EdgeBands:
    """Exact derivative of the discrete residual: S + lam M - M f'(u)."""
    return op.shifted.minus_scaled_columns(op.mass, nonlinearity_slope(mu, u.values))


def linearization_bands(
    op: KirchhoffOperator, mu: float, u: DiscreteField
) -> EdgeBands:
    """Galerkin form of the linearized operator -v'' + lam v - f'(u) v.

    Unlike the residual Jacobian, the potential term is assembled as a
    weighted mass matrix, so the result is symmetric and suited to
    eigenvalue diagnostics of the linearization.
    """
    W = edge_bands(op.mesh, weight=nonlinearity_slope(mu, u.values))
    return op.shifted.plus(W, -1.0)


def _residual_and_norms(op: KirchhoffOperator, mu: float, u: DiscreteField):
    """The residual of u with its relative and absolute natural norms.

    One shifted band product serves both the lambda-norm of u, which the
    relative norm divides by, and the residual, which is written over it.
    The relative norm of the zero state is inf, so it never converges.
    """
    shifted_u = op.shifted @ u.values
    size = lambda_norm(op, u, shifted_u)
    r = nonlinear_residual(op, mu, u, shifted_u).values
    absolute = dual_residual_norm(op, r)
    return r, absolute / size if size > 0.0 else math.inf, absolute


def _newton_step(op: KirchhoffOperator, mu: float, u: DiscreteField, r):
    """The Newton step -J(u)^-1 r, or None where the Jacobian fails to
    factor or the step is not finite."""
    try:
        step = CondensedFactor(jacobian(op, mu, u)).solve(-r)
    except SolveFailure:
        return None
    return step if np.all(np.isfinite(step)) else None


def newton_solve(
    op: KirchhoffOperator, u0: DiscreteField, cfg: SolveConfig
) -> BoundStateResult:
    """Damped Newton with the exact discrete Jacobian S + lam M - M f'(u).

    The problem is the one at op.lam and cfg.mu; the result records
    both.  Each step factors the Jacobian in edge-condensed form;
    pivoting in the interior factorization copes with the near-zero
    soliton derivative mode on the peak edges.  Backtracking halves the
    step until the natural-norm residual decreases (Armijo on the
    residual norm).  However Newton stops, the result's termination
    says why, and nothing is raised; a seed on another mesh than op's,
    or with a non-finite value, is refused with ValueError before any
    factorization.
    """
    if u0.mesh is not op.mesh:
        raise ValueError("the seed state is not on the operator's mesh")
    if not np.all(np.isfinite(u0.values)):
        raise ValueError("the seed state has non-finite values")
    mu = cfg.mu
    v = u0.values.copy()
    v[op.mesh.dirichlet_dofs] = 0.0
    u = DiscreteField(op.mesh, v)
    # the residual of the current state; an accepted trial hands on its own
    r, rel, absolute = _residual_and_norms(op, mu, u)
    iters = trials = 0
    termination = None
    while termination is None:
        if rel <= cfg.newton_tol:
            termination = "converged"
        elif absolute == 0.0:  # not converged, so u has lambda-norm 0
            termination = "zero_state"
        elif iters == cfg.max_iters:
            termination = "max_iters"
        elif (step := _newton_step(op, mu, u, r)) is None:
            termination = "singular"
        else:
            iters += 1
            t = 1.0
            while t >= 2.0**-24:
                trials += 1
                trial_v = t * step  # u + t * step, in one buffer
                trial_v += u.values
                trial = DiscreteField(op.mesh, trial_v)
                trial_r, trial_rel, trial_abs = _residual_and_norms(op, mu, trial)
                if trial_rel <= (1.0 - 1e-4 * t) * rel or trial_rel <= cfg.newton_tol:
                    u, r, rel, absolute = trial, trial_r, trial_rel, trial_abs
                    break
                t *= 0.5
            else:
                termination = "line_search_stall"
    return BoundStateResult(
        u=u,
        lam=op.lam,
        mu=mu,
        termination=termination,
        iterations=iters,
        backtracks=trials - iters,
        residual_norm=rel,
        residual_norm_absolute=absolute,
        functionals=functionals.evaluate_functionals(op, mu, u),
    )


def kernel_projection_diagnostics(
    op: KirchhoffOperator,
    result: BoundStateResult,
    ansatz: AnsatzSpec,
    seed: DiscreteField,
) -> float:
    """Norm of the component of u - W along the tapered kernel modes.

    seed is W, the ansatz state assembled on op's mesh at op.lam and
    result.mu; the norm is the natural one.  The modes are nearly
    orthogonal already; the small Gram system is solved exactly anyway.
    """
    if not result.converged:
        raise NotConverged("kernel diagnostics need a converged result")
    mesh = op.mesh
    phi = result.u.values - seed.values
    modes = []
    for star in ansatz.stars:
        modes += sample_kernel_modes(mesh, star, op.lam, result.mu, tapered=True)
    # one band product per mode, dropped once its Gram column is filled,
    # and one for phi; each Gram entry is the lambda inner product
    # a @ (shifted @ b)
    gram = np.empty((len(modes), len(modes)))
    for j, b in enumerate(modes):
        shifted_b = op.shifted @ b
        gram[:, j] = [float(a @ shifted_b) for a in modes]
        del shifted_b  # before the next product allocates
    shifted_phi = op.shifted @ phi
    rhs = np.array([float(a @ shifted_phi) for a in modes])
    coef = np.linalg.solve(gram, rhs)
    kernel_sq = float(coef @ gram @ coef)
    return math.sqrt(max(kernel_sq, 0.0))


def peak_offsets(u: DiscreteField, ansatz: AnsatzSpec) -> list[tuple[str, float]]:
    """Distance from each peak vertex to the argmax inside its ball."""
    out = []
    for star in ansatz.stars:
        best_t, best_val = 0.0, -math.inf
        for _, dofs, t in _rays(u.mesh, star, 2.0 * star.radius):
            vals = u.values[dofs]
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best_t = float(vals[k]), float(t[k])
        out.append((star.center, best_t))
    return out


def _resample(prev: DiscreteField, mesh: Mesh) -> np.ndarray:
    """Linear interpolation of a field onto a new mesh of the same graph."""
    out = np.zeros(mesh.ndof)
    for eid, dofs in mesh.edge_dofs.items():
        old_nodes = prev.mesh.edge_nodes[eid]
        old_vals = prev.values[prev.mesh.edge_dofs[eid]]
        out[dofs] = np.interp(mesh.edge_nodes[eid], old_nodes, old_vals)
    return out


def peak_template(
    g: MetricGraph,
    peaks: tuple[str, ...],
    *,
    coeffs: tuple[tuple[float, ...], ...] | None = None,
) -> AnsatzSpec:
    """The seed template with peaks at `peaks`, on the graph to sweep; no mesh.

    With several peaks, each edge joining two is split at its midpoint
    (a new graph, the template's); `AnsatzSpec` checks the peaks and
    takes their stars.  coeffs, one kernel-coefficient vector per peak,
    are zeros by default.
    """
    if len(peaks) > 1:
        g = insert_midpoints(g, list(peaks))
    if coeffs is None:
        coeffs = tuple((0.0,) * (len(g.incident(p)) - 1) for p in peaks)
    return AnsatzSpec(g, tuple(peaks), coeffs)


def continuation_sweep(
    template: AnsatzSpec, cfg: SolveConfig
) -> list[BoundStateResult]:
    """Solve along the schedule, reseeding from the previous solution.

    Each shift gets a fresh peak-refined mesh of template.graph and a
    seed state, the template assembled at that shift and cfg.mu;
    failures are recorded and the sweep continues.  Before any mesh,
    every shift's mesh is checked against MAX_NDOF.  Each result's
    functionals come from newton_solve; the sweep adds correction_norm,
    kernel_component_norm and peak_locations.  Peaks at even-degree
    vertices are permitted but flagged as exploratory, since the
    existence theory covers odd degree >= 3 only.  `peak_template`
    builds the template for a peak set.
    """
    for star in template.stars:
        if not admissible_peak_degree(star.degree):
            warnings.warn(
                f"peak at {star.center!r} has degree {star.degree}: outside "
                "the odd-degree hypotheses, exploratory run",
                stacklevel=2,
            )
    g, peaks = template.graph, template.peaks
    lam0 = cfg.lambdas[0]

    def nodes_per_width(lam: float) -> float:
        return cfg.nodes_per_width * (lam / lam0) ** REFINEMENT_GROWTH

    def plan(lam: float):
        try:
            npw = nodes_per_width(lam)
            plans = refined_plans(g, lam, peaks, npw) if npw < math.inf else None
        except (OverflowError, ZeroDivisionError):
            plans = None  # a density or spacing beyond float range
        return plans, math.inf if plans is None else planned_ndof(g, plans)

    # the largest mesh need not be the last: an edge within the graded
    # width of a peak at an early shift may lie beyond it at a later
    # one, and shrink to the far-field length.  Plan every shift's mesh
    # and count it, by arithmetic, before building any.
    planned = [plan(lam) for lam in cfg.lambdas]
    ndof, lam_max = max((n, lam) for (_, n), lam in zip(planned, cfg.lambdas))
    if ndof > MAX_NDOF:
        raise ValueError(
            f"the mesh at lam={lam_max:g} would have {ndof:g} unknowns, "
            f"more than the ceiling of {MAX_NDOF}"
        )
    results: list[BoundStateResult] = []
    prev: BoundStateResult | None = None
    for lam, (plans, _) in zip(cfg.lambdas, planned):
        mesh = refined_mesh(
            g, lam, peaks, nodes_per_width=nodes_per_width(lam), plans=plans
        )
        op = assemble(g, mesh, lam)
        seed = assemble_ansatz(template, mesh, lam, cfg.mu)
        if cfg.seed == "previous" and prev is not None and prev.converged:
            scale = (lam / prev.lam) ** (1.0 / (2.0 * cfg.mu))
            u0 = DiscreteField(mesh, scale * _resample(prev.u, mesh))
        else:
            u0 = seed
        res = newton_solve(op, u0, cfg)
        res.correction_norm = lambda_norm(
            op, DiscreteField(mesh, res.u.values - seed.values)
        )
        if res.converged:
            res.kernel_component_norm = kernel_projection_diagnostics(
                op, res, template, seed
            )
            prev = res
        res.peak_locations = peak_offsets(res.u, template)
        results.append(res)
    return results


def __getattr__(name: str):
    # solve.spla exists only for bench/tracer.py, which wraps spla.splu
    # here until it wraps CondensedFactor instead; scipy is imported only
    # when the tracer asks for it
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
