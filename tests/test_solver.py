"""Newton iteration, linearizations, and the continuation sweep."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from graphnls import (
    AnsatzSpec,
    SolveConfig,
    assemble,
    assemble_ansatz,
    build_graph,
    continuation_sweep,
    insert_midpoints,
    jacobian,
    kernel_projection_diagnostics,
    lambda_norm,
    newton_solve,
    nonlinear_residual,
    peak_template,
    reference_graph,
    refined_mesh,
    star_neighborhood,
    uniform_mesh,
)
import graphnls.discrete
import graphnls.solve
from graphnls.discrete import (
    DiscreteField,
    dual_residual_norm,
    planned_ndof,
    refined_plans,
)
from graphnls.errors import NotConverged, SolveFailure
from graphnls.functionals import evaluate_functionals
from graphnls.profiles import sample_kernel_mode
from graphnls.solve import (
    BoundStateResult,
    _resample,
    linearization_bands,
    peak_offsets,
)
from sparse_reference import tocsr

TRIPOD = """
vertices: [c, a1, a2, a3]
edges:
  - {id: e1, from: c, to: a1, length: 1.0}
  - {id: e2, from: c, to: a2, length: 1.0}
  - {id: e3, from: c, to: a3, length: 1.0}
"""


def _tripod_setup(lam=50.0, npw=25.0):
    g = build_graph(TRIPOD)
    spec = peak_template(g, ("c",))
    (star,) = spec.stars
    mesh = refined_mesh(g, lam, ["c"], nodes_per_width=npw)
    op = assemble(g, mesh, lam)
    return g, star, spec, mesh, op


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(newton_tol=0.0)
    # a relative residual of 1 is as large as the state: the seed would pass
    for tol in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"newton_tol must be in \(0, 1\)"):
            SolveConfig(newton_tol=tol)
    with pytest.raises(ValueError):
        SolveConfig(seed="warmstart")
    with pytest.raises(ValueError):
        SolveConfig(lambdas=(25.0, 25.0))
    for iters in (50.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolveConfig(max_iters=iters)
    # these once reached continuation_sweep and failed there, or not at all
    for knobs in (
        {"mu": 0.0},
        {"nodes_per_width": 0.0},
        {"nodes_per_width": 1e-9},
        {"nodes_per_width": 0.5},
        {"max_iters": -1},
        {"lambdas": (math.inf,)},
    ):
        with pytest.raises(ValueError):
            SolveConfig(**knobs)
    cfg = SolveConfig(lambdas=(25, 50))
    assert cfg.lambdas == (25.0, 50.0)
    assert SolveConfig(nodes_per_width=1.0).nodes_per_width == 1.0


def test_newton_converges_from_the_peaked_seed():
    g, star, spec, mesh, op = _tripod_setup()
    seed = assemble_ansatz(spec, mesh, op.lam, 1.0)
    cfg = SolveConfig(mu=1.0, newton_tol=1e-10)
    res = newton_solve(op, seed, cfg)
    assert res.converged and res.termination == "converged"
    assert res.iterations <= 8
    assert res.residual_norm <= 1e-10
    assert np.min(res.u.values) > 0.0
    # the reported residual is reproducible from the state itself
    r = nonlinear_residual(op, 1.0, res.u)
    rel = dual_residual_norm(op, r.values) / lambda_norm(op, res.u)
    assert rel == pytest.approx(res.residual_norm, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("lam", [1e-20, 1e-6])
def test_a_converged_residual_is_relative_to_a_small_state(lam):
    # a state far below lambda-norm 1 is held to its own size, not to 1
    template = peak_template(reference_graph("tripod"), ["c"])
    cfg = SolveConfig(lambdas=(lam,))
    (res,) = continuation_sweep(template, cfg)
    if res.converged:
        size = lambda_norm(assemble(template.graph, res.u.mesh, lam), res.u)
        assert size > 0.0
        assert res.residual_norm_absolute <= cfg.newton_tol * size


def _count_factors(monkeypatch):
    """The Jacobians newton_solve factors from here on, one entry each."""
    factored = []
    real = graphnls.solve.CondensedFactor

    def counted(bands):
        factored.append(bands)
        return real(bands)

    monkeypatch.setattr(graphnls.solve, "CondensedFactor", counted)
    return factored


def test_the_zero_state_never_converges(monkeypatch):
    # its relative residual is inf and its step 0: Newton ends at once,
    # where it once factored max_iters Jacobians to take zero steps
    g, star, spec, mesh, op = _tripod_setup()
    factored = _count_factors(monkeypatch)
    zero = DiscreteField(mesh, np.zeros(mesh.ndof))
    res = newton_solve(op, zero, SolveConfig(mu=1.0, max_iters=3))
    assert res.termination == "zero_state" and not res.converged
    assert res.iterations == 0 and res.backtracks == 0
    assert res.residual_norm == math.inf and res.residual_norm_absolute == 0.0
    assert factored == []


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_seed_is_refused_before_any_factorization(monkeypatch, value):
    g, star, spec, mesh, op = _tripod_setup()
    factored = _count_factors(monkeypatch)
    seed = assemble_ansatz(spec, mesh, op.lam, 1.0)
    bad = seed.values.copy()
    bad[len(bad) // 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        newton_solve(op, DiscreteField(mesh, bad), SolveConfig())
    assert factored == []
    assert newton_solve(op, seed, SolveConfig()).converged


def test_a_state_on_another_mesh_of_the_same_size_is_refused(monkeypatch):
    # the two meshes have 301 unknowns each, so nothing else would tell
    g = reference_graph("tripod")
    refined = refined_mesh(g, 25.0, ["c"], 20.0)
    uniform = uniform_mesh(g, 0.01)
    assert refined.ndof == uniform.ndof == 301
    op = assemble(g, refined, 25.0)
    template = peak_template(g, ("c",))
    seed = assemble_ansatz(template, uniform, 25.0, 1.0)
    factored = _count_factors(monkeypatch)
    with pytest.raises(ValueError, match="the seed state is not on the operator's mesh"):
        newton_solve(op, seed, SolveConfig())
    assert factored == []
    with pytest.raises(ValueError, match="the state is not on the operator's mesh"):
        evaluate_functionals(op, 1.0, seed)
    on_refined = assemble_ansatz(template, refined, 25.0, 1.0)
    assert newton_solve(op, on_refined, SolveConfig()).converged


def _failing_factor(monkeypatch, failure, at):
    """Make the factor of the Jacobian number `at` (from 1) fail: raise
    SolveFailure, or solve to a non-finite step."""
    real = graphnls.solve.CondensedFactor
    count = []

    def planted(bands):
        count.append(1)
        factor = real(bands)
        if len(count) == at:
            if failure == "raise":
                raise SolveFailure("planted zero pivot")
            factor.solve = lambda b: np.full_like(b, np.nan)
        return factor

    monkeypatch.setattr(graphnls.solve, "CondensedFactor", planted)


@pytest.mark.parametrize("failure", ["raise", "nan_step"])
@pytest.mark.parametrize("at", [1, 2])
def test_a_failed_factorization_ends_the_solve_as_singular(monkeypatch, failure, at):
    # the failed step is not taken: neither an iteration nor a backtrack
    g, star, spec, mesh, op = _tripod_setup()
    seed = assemble_ansatz(spec, mesh, op.lam, 1.0)
    first = newton_solve(op, seed, SolveConfig(max_iters=at - 1))
    _failing_factor(monkeypatch, failure, at)
    res = newton_solve(op, seed, SolveConfig())
    assert res.termination == "singular" and not res.converged
    assert res.iterations == at - 1
    assert res.backtracks == first.backtracks >= 0
    assert res.u.values.tobytes() == first.u.values.tobytes()


def test_newton_records_the_mu_of_its_config():
    g, star, spec, mesh, op = _tripod_setup()
    seed = assemble_ansatz(spec, mesh, op.lam, 2.0)
    res = newton_solve(op, seed, SolveConfig(mu=2.0))
    assert res.converged and res.mu == 2.0
    assert res.functionals == evaluate_functionals(op, 2.0, res.u)


@pytest.mark.parametrize(
    "termination",
    ["converged", "max_iters", "line_search_stall", "zero_state", "singular"],
)
def test_converged_is_read_off_the_termination(termination):
    mesh = uniform_mesh(build_graph(TRIPOD), 0.25)
    res = BoundStateResult(
        u=DiscreteField(mesh, np.zeros(mesh.ndof)),
        lam=4.0,
        mu=1.0,
        termination=termination,
        iterations=0,
        residual_norm=1.0,
        residual_norm_absolute=1.0,
    )
    assert res.converged is (termination == "converged")
    with pytest.raises(AttributeError):
        res.converged = True


def test_newton_reuses_the_accepted_trial_residual(monkeypatch):
    # one residual before the loop, then one per line-search trial: the
    # first trial of each iteration plus its backtracks
    g, star, spec, mesh, op = _tripod_setup()
    seed = assemble_ansatz(spec, mesh, op.lam, 1.0)
    calls = []
    real = graphnls.solve.nonlinear_residual

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(graphnls.solve, "nonlinear_residual", counted)
    res = newton_solve(op, seed, SolveConfig(mu=1.0, newton_tol=1e-10))
    assert res.converged and res.iterations > 0
    assert len(calls) == 1 + res.iterations + res.backtracks


@pytest.mark.parametrize(
    "graph, peak, lambdas, termination",
    [
        ("figure1", "v1", (25.0, 50.0, 100.0), "converged"),
        ("t_graph", "v", (25.0,), "line_search_stall"),
    ],
)
def test_damped_newton_reuses_the_accepted_trial_residual(
    monkeypatch, graph, peak, lambdas, termination
):
    # damped steps whose halving resumes below 1/2, converging or
    # stalling: still one residual before each solve's loop and one per
    # line-search trial
    calls, per_solve = [], []
    real_residual = graphnls.solve.nonlinear_residual
    real_newton = graphnls.solve.newton_solve

    def counted(*args):
        calls.append(1)
        return real_residual(*args)

    def newton(op, u0, cfg):
        before = len(calls)
        res = real_newton(op, u0, cfg)
        per_solve.append(len(calls) - before)
        return res

    monkeypatch.setattr(graphnls.solve, "nonlinear_residual", counted)
    monkeypatch.setattr(graphnls.solve, "newton_solve", newton)
    template = peak_template(reference_graph(graph), (peak,))
    results = list(continuation_sweep(template, SolveConfig(lambdas=lambdas)))
    assert per_solve == [1 + r.iterations + r.backtracks for r in results]
    res = results[-1]
    assert res.termination == termination
    # a stall's last iteration accepted no step
    stalled = termination == "line_search_stall"
    assert len(res.step_lengths) == res.iterations - stalled
    # the rule acted: a full step was rejected after a step so short
    # that the halving resumed below 1/2
    steps = res.step_lengths
    resume = graphnls.solve.LINE_SEARCH_RESUME
    assert any(resume * a < 0.5 and b < 1.0 for a, b in zip(steps, steps[1:]))


# (graph, peaks, shifts, whether resuming the halving saves trials)
RESUME_RUNS = [
    ("figure1", ("v1",), (25.0, 50.0, 100.0), True),
    ("t_graph", ("v",), (25.0, 50.0, 100.0), True),
    ("double_tripod", ("c1", "c2"), (25.0, 50.0, 100.0), True),
    ("tripod", ("c",), (25.0, 100.0), False),
]


@pytest.mark.parametrize("graph, peaks, lambdas, saves", RESUME_RUNS)
def test_resumed_halving_lands_on_the_states_of_plain_halving(
    monkeypatch, graph, peaks, lambdas, saves
):
    # with LINE_SEARCH_RESUME = inf every halving starts at 1/2; on these
    # runs the resumed halving skips only trials that plain halving
    # rejects, so every accepted step and state is the same
    template = peak_template(reference_graph(graph), peaks)
    cfg = SolveConfig(lambdas=lambdas)
    resumed = list(continuation_sweep(template, cfg))
    monkeypatch.setattr(graphnls.solve, "LINE_SEARCH_RESUME", math.inf)
    halved = list(continuation_sweep(template, cfg))
    for a, b in zip(resumed, halved, strict=True):
        assert a.termination == b.termination
        assert a.iterations == b.iterations
        assert a.step_lengths == b.step_lengths
        assert a.u.values.tobytes() == b.u.values.tobytes()
    trials = [sum(r.iterations + r.backtracks for r in rs) for rs in (resumed, halved)]
    if saves:
        assert trials[0] < trials[1]
    else:
        assert trials[0] <= trials[1]


def test_newton_builds_each_jacobian_through_the_module_name(monkeypatch):
    # bench/tracer.py times Newton's Jacobian by rebinding solve.jacobian
    g, star, spec, mesh, op = _tripod_setup()
    seed = assemble_ansatz(spec, mesh, op.lam, 1.0)
    calls = []
    real = graphnls.solve.jacobian

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(graphnls.solve, "jacobian", counted)
    res = newton_solve(op, seed, SolveConfig(mu=1.0, newton_tol=1e-10))
    assert res.converged and res.iterations > 0
    assert len(calls) == res.iterations


def test_newton_flags_nonconvergence_within_budget():
    g, star, spec, mesh, op = _tripod_setup()
    seed = assemble_ansatz(spec, mesh, op.lam, 1.0)
    cfg = SolveConfig(mu=1.0, newton_tol=1e-10, max_iters=1)
    res = newton_solve(op, seed, cfg)
    assert not res.converged
    assert res.iterations == 1
    assert res.termination == "max_iters"


def test_newton_names_a_line_search_stall():
    # figure1's degree-5 peak at lam=25: the steps along the near-kernel
    # overshoot, and no trial step down to 2**-24 lowers the residual
    g = reference_graph("figure1")
    template = peak_template(g, ("v1",))
    (res,) = continuation_sweep(template, SolveConfig(lambdas=(25.0,)))
    assert not res.converged
    assert res.termination == "line_search_stall"
    assert 0 < res.iterations < SolveConfig.max_iters


def test_jacobian_matches_directional_differences():
    g, star, spec, mesh, op = _tripod_setup(lam=9.0, npw=10.0)
    rng = np.random.default_rng(12)
    u = DiscreteField(mesh, 0.2 + 0.1 * rng.random(mesh.ndof))
    J = jacobian(op, 1.0, u)
    h = 1e-6
    for _ in range(4):
        d = rng.standard_normal(mesh.ndof)
        up = DiscreteField(mesh, u.values + h * d)
        um = DiscreteField(mesh, u.values - h * d)
        fd = (
            nonlinear_residual(op, 1.0, up).values
            - nonlinear_residual(op, 1.0, um).values
        ) / (2.0 * h)
        exact = J @ d
        denom = max(1.0, float(np.linalg.norm(exact)))
        assert np.linalg.norm(fd - exact) / denom < 1e-7


def test_symmetric_linearization_is_symmetric_and_consistent():
    g, star, spec, mesh, op = _tripod_setup(lam=9.0, npw=10.0)
    u = assemble_ansatz(spec, mesh, 9.0, 1.0)
    L = linearization_bands(op, 1.0, u)
    A = tocsr(L)
    assert abs(A - A.T).max() < 1e-12
    # both linearizations act identically on smooth directions up to
    # quadrature error
    d = np.ones(mesh.ndof)
    gap = np.max(np.abs(L @ d - jacobian(op, 1.0, u) @ d))
    assert gap < 1e-2


def test_residual_of_negative_state_is_linear():
    g, star, spec, mesh, op = _tripod_setup(lam=4.0, npw=10.0)
    u = DiscreteField(mesh, -np.ones(mesh.ndof))
    r = nonlinear_residual(op, 1.0, u)
    linear = op.stiffness @ u.values + op.lam * (op.mass @ u.values)
    assert np.allclose(r.values, linear)


def test_continuation_sweep_populates_diagnostics():
    g = build_graph(TRIPOD)
    template = peak_template(g, ("c",))
    cfg = SolveConfig(
        mu=1.0, lambdas=(25.0, 50.0), nodes_per_width=20.0, seed="previous"
    )
    results = list(continuation_sweep(template, cfg))
    assert [r.lam for r in results] == [25.0, 50.0]
    for res in results:
        assert res.converged
        assert res.correction_norm is not None and res.correction_norm > 0.0
        assert res.kernel_component_norm is not None
        assert res.peak_locations and res.peak_locations[0][0] == "c"
        assert res.peak_locations[0][1] == pytest.approx(0.0, abs=1e-12)
    # the kernel part of the correction is tiny for a symmetric seed
    assert results[-1].kernel_component_norm < 1e-6 * results[-1].correction_norm


def _reference_kernel_component_norm(res, template):
    """The kernel split with one lambda inner product per Gram entry."""
    mesh = res.u.mesh
    op = assemble(mesh.graph, mesh, res.lam)
    phi = res.u.values - assemble_ansatz(template, mesh, res.lam, 1.0).values
    modes = [
        sample_kernel_mode(mesh, star, j, res.lam, 1.0, tapered=True)
        for star in template.stars
        for j in range(1, star.degree)
    ]
    gram = np.array([[a @ (op.shifted @ b) for b in modes] for a in modes])
    rhs = np.array([a @ (op.shifted @ phi) for a in modes])
    coef = np.linalg.solve(gram, rhs)
    return math.sqrt(max(float(coef @ gram @ coef), 0.0))


def test_sweep_diagnostics_equal_fresh_recomputation():
    # a mode of 0.3 puts a visible kernel component into the correction
    g = build_graph(TRIPOD)
    template = peak_template(g, ("c",), coeffs=((0.3, -0.2),))
    cfg = SolveConfig(mu=1.0, lambdas=(25.0, 50.0), nodes_per_width=15.0)
    for res in continuation_sweep(template, cfg):
        assert res.converged
        mesh = res.u.mesh
        fresh = evaluate_functionals(assemble(g, mesh, res.lam), 1.0, res.u)
        assert res.functionals == fresh
        assert res.kernel_component_norm > 0.0
        assert res.kernel_component_norm == _reference_kernel_component_norm(
            res, template
        )


def test_symmetric_star5_sweep_keeps_its_symmetry():
    # identical edges are eliminated by identical arithmetic, so the
    # zero-coefficient seed's 5-fold symmetry survives Newton and the
    # kernel part of the correction stays at rounding level
    g = reference_graph("star5")
    template = peak_template(g, ("c",))
    results = continuation_sweep(template, SolveConfig(lambdas=(25, 50)))
    for res in results:
        assert res.converged
        assert res.kernel_component_norm < 1e-10 * res.correction_norm
        # bit for bit, not just to rounding: the state-file writer formats
        # one text for all five edges only when their bytes agree
        mesh = res.u.mesh
        states = {
            (mesh.edge_nodes[eid].tobytes(), res.u.values[dofs].tobytes())
            for eid, dofs in mesh.edge_dofs.items()
        }
        assert len(mesh.edge_dofs) == 5 and len(states) == 1


def test_seed_strategies_agree_on_easy_sweeps():
    g = build_graph(TRIPOD)
    template = peak_template(g, ("c",))
    sched = (25.0, 50.0)
    res_prev = continuation_sweep(
        template, SolveConfig(lambdas=sched, nodes_per_width=15.0)
    )
    res_ansatz = continuation_sweep(
        template,
        SolveConfig(lambdas=sched, nodes_per_width=15.0, seed="ansatz"),
    )
    for a, b in zip(res_prev, res_ansatz):
        assert a.converged and b.converged
        assert np.max(np.abs(a.u.values - b.u.values)) < 1e-8


FOUR_STAR = """
vertices: [c, a1, a2, a3, a4]
edges:
  - {id: e1, from: c, to: a1, length: 1.0}
  - {id: e2, from: c, to: a2, length: 1.0}
  - {id: e3, from: c, to: a3, length: 1.0}
  - {id: e4, from: c, to: a4, length: 1.0}
"""


def test_sweep_warns_outside_odd_degree_hypotheses():
    template = peak_template(build_graph(FOUR_STAR), ("c",))
    cfg = SolveConfig(lambdas=(25.0,), nodes_per_width=15.0)
    with pytest.warns(UserWarning, match="outside the odd-degree hypotheses"):
        results = list(continuation_sweep(template, cfg))
    assert results[0].converged


def test_sweep_refuses_and_warns_at_the_call_before_any_shift(monkeypatch):
    # the shifts are solved as the sweep is drawn; the ceiling and the
    # degree are checked when it is called, before any mesh is built
    built = []
    monkeypatch.setattr(
        graphnls.discrete, "build_mesh", lambda *a, **k: built.append(a)
    )
    tripod = peak_template(build_graph(TRIPOD), ("c",))
    with pytest.raises(ValueError, match="more than the ceiling"):
        continuation_sweep(tripod, SolveConfig(lambdas=(25.0,), nodes_per_width=1e12))
    four_star = peak_template(build_graph(FOUR_STAR), ("c",))
    with pytest.warns(UserWarning, match="outside the odd-degree hypotheses"):
        continuation_sweep(four_star, SolveConfig(lambdas=(25.0, 50.0)))
    assert built == []


def test_peak_templates_equal_the_hand_built_ones():
    # the templates verify's sweeps built by hand before peak_template;
    # the mu=1 and mu=2 tripod sweeps share one, since mu is the solver's
    g = reference_graph("tripod")
    tripod = AnsatzSpec(g, ("c",), ((0.0, 0.0),))
    assert peak_template(g, ("c",)) == tripod
    assert tripod.stars == (star_neighborhood(g, "c", mode="single"),)

    g0 = reference_graph("double_tripod")
    split = insert_midpoints(g0, ["c1", "c2"])
    double = AnsatzSpec(split, ("c1", "c2"), ((0.0, 0.0), (0.0, 0.0)))
    got = peak_template(g0, ("c1", "c2"))
    assert got == double and hash(got) == hash(double)
    stars = tuple(star_neighborhood(split, v, mode="multi") for v in ("c1", "c2"))
    assert got.stars == stars
    assert "bridge__mid" in got.graph.vertices


def test_a_template_holds_no_solver_knob():
    # mu has one definition, SolveConfig's: a template field of the same
    # name would be a second one for the sweep to keep equal
    solver = {f.name for f in fields(SolveConfig)}
    assert [f.name for f in fields(AnsatzSpec)] == ["graph", "peaks", "coeffs"]
    assert not solver & {f.name for f in fields(AnsatzSpec)}


@pytest.mark.parametrize(
    "graph, peaks, coeffs, message",
    [
        ("tripod", ("nope",), None, r"peak vertices not in graph: \['nope'\]"),
        ("double_tripod", ("c1", "c1"), None, "duplicate peak vertices"),
        ("double_tripod", ("c1", "c2"), ((0.0, 0.0),), "got 1 coefficient vectors"),
        # a degree-1 peak has no kernel modes: refused before any mesh
        ("tripod", ("a1",), None, "peak 'a1' has degree 1"),
        ("double_tripod", ("s1",), None, "peak 's1' has degree 1"),
    ],
)
def test_peak_template_refuses_an_invalid_peak_set(graph, peaks, coeffs, message):
    g = reference_graph(graph)
    with pytest.raises(ValueError, match=message):
        peak_template(g, peaks, coeffs=coeffs)


def _record_meshes(monkeypatch):
    built = []
    monkeypatch.setattr(
        graphnls.solve, "refined_mesh", lambda *a, **k: built.append(a)
    )
    return built


def test_an_empty_peak_set_is_refused_before_any_mesh(monkeypatch):
    # it once swept u = 0 and reported every shift converged
    built = _record_meshes(monkeypatch)
    with pytest.raises(ValueError, match="at least one peak vertex is required"):
        peak_template(reference_graph("tripod"), ())
    with pytest.raises(ValueError, match="at least one peak vertex is required"):
        AnsatzSpec(reference_graph("tripod"), (), ())
    assert built == []


def test_a_template_moved_to_another_graph_is_rechecked_there(monkeypatch):
    # a template holds no star: replace() takes the stars of the new
    # graph and checks the coefficients against them.  Holding stars, the
    # pairs below once swept 50 iterations to max_iters, or raised a raw
    # KeyError after building a mesh
    built = _record_meshes(monkeypatch)
    # the tripod's coefficients at c on star5's graph, whose c has five ends
    tripod = peak_template(reference_graph("tripod"), ("c",))
    with pytest.raises(ValueError, match="peak 'c': expected 4 coefficients, got 2"):
        replace(tripod, graph=reference_graph("star5"))
    # peak_template's split template on the unsplit double tripod: its
    # stars are that graph's own, and the seed assembles on its mesh
    g = reference_graph("double_tripod")
    unsplit = replace(peak_template(g, ("c1", "c2")), graph=g)
    for star in unsplit.stars:
        ends = tuple((e.id, away) for e, away in g.incident(star.center))
        assert star.incident_edges == ends
    seed = assemble_ansatz(unsplit, uniform_mesh(g, 0.25), 50.0, 1.0)
    assert np.all(np.isfinite(seed.values)) and seed.values.max() > 0.0
    assert built == []


@pytest.mark.parametrize(
    "graph, peaks, weight",
    [
        ("tripod", ("c",), 1.5),
        ("double_tripod", ("c1", "c2"), 3.0),
        ("figure1", ("v1",), 2.5),
    ],
)
def test_a_template_weight_is_half_its_peak_degrees(graph, peaks, weight):
    assert peak_template(reference_graph(graph), peaks).weight == weight


def test_sweep_rejects_empty_schedule():
    # the schedule's config refuses it, so no sweep can be handed one
    with pytest.raises(ValueError, match="lambda schedule is empty"):
        SolveConfig(lambdas=())


@pytest.mark.parametrize(
    "knobs",
    [
        {"nodes_per_width": 1e12},
        # the spacing underflows to zero, and planning divides by it
        {"nodes_per_width": 1e308},
    ],
)
def test_sweep_refuses_a_mesh_above_the_ceiling_before_building_any(
    monkeypatch, knobs
):
    g = build_graph(TRIPOD)
    template = peak_template(g, ("c",))
    built = []
    monkeypatch.setattr(
        graphnls.discrete, "build_mesh", lambda *a, **k: built.append(a)
    )
    cfg = SolveConfig(lambdas=(25.0, 50.0), **knobs)
    with pytest.raises(ValueError, match="more than the ceiling"):
        continuation_sweep(template, cfg)
    assert built == []


def test_sweep_refuses_a_density_beyond_float_range_as_above_the_ceiling():
    # 1e308 nodes per width grows past float range by lam=400: a mesh
    # above the ceiling, not a density refinement planning refuses
    template = peak_template(build_graph(TRIPOD), ("c",))
    cfg = SolveConfig(lambdas=(25.0, 400.0), nodes_per_width=1e308)
    with pytest.raises(ValueError, match="at lam=400 would have inf unknowns"):
        continuation_sweep(template, cfg)


def _check_graded_matches_fine(g, peak, lam, npw, shrink):
    """Newton from the ansatz at one peak, on the graded mesh and on the
    all-fine one: the graded mesh has under 1/shrink of the unknowns, and
    mass and action agree to 1e-9 relative."""
    spec = peak_template(g, (peak,))
    graded = refined_mesh(g, lam, [peak], nodes_per_width=npw)
    uniform = uniform_mesh(g, 1.0 / (npw * math.sqrt(lam)))
    assert not uniform.graded and graded.ndof < uniform.ndof / shrink
    found = []
    for mesh in (graded, uniform):
        op = assemble(g, mesh, lam)
        res = newton_solve(op, assemble_ansatz(spec, mesh, lam, 1.0), SolveConfig())
        assert res.converged
        report = evaluate_functionals(op, 1.0, res.u)
        found.append((report.mass, report.action))
    (mass, action), (mass_u, action_u) = found
    assert mass == pytest.approx(mass_u, rel=1e-9)
    assert action == pytest.approx(action_u, rel=1e-9)


def test_graded_and_uniform_star5_solves_agree():
    # the graded mesh drops the unknowns that resolve the decayed tail
    _check_graded_matches_fine(reference_graph("star5"), "c", 400.0, 40.0, 4)


def test_graded_and_uniform_figure1_solves_agree():
    # at lam=200, 15 peak widths reach 1.06 from v3: v2 and v7 lie 1 from
    # it, every other vertex lies beyond.  Neither the near ends, graded
    # by their distance, nor the far edges at the far-field length lose
    # anything the all-fine mesh resolves (4,232 unknowns against 50,350)
    _check_graded_matches_fine(reference_graph("figure1"), "v3", 200.0, 40.0, 8)


def test_sweep_accepts_a_last_mesh_at_the_ceiling(monkeypatch):
    # on the tripod the last shift's mesh is the largest
    g = build_graph(TRIPOD)
    template = peak_template(g, ("c",))
    cfg = SolveConfig(lambdas=(25.0, 50.0), nodes_per_width=15.0)
    ndof = [
        planned_ndof(g, refined_plans(g, lam, ["c"], 15.0 * (lam / 25.0) ** 0.25))
        for lam in (25.0, 50.0)
    ]
    assert ndof[0] < ndof[1]
    monkeypatch.setattr(graphnls.solve, "MAX_NDOF", ndof[1] - 1)
    with pytest.raises(ValueError, match="more than the ceiling"):
        continuation_sweep(template, cfg)
    monkeypatch.setattr(graphnls.solve, "MAX_NDOF", ndof[1])
    results = continuation_sweep(template, cfg)
    assert [r.u.mesh.ndof for r in results] == ndof


def test_sweep_checks_an_earlier_mesh_larger_than_the_last(monkeypatch):
    # a lies 2 from the peak: within 15 peak widths at lam=25, so its 100
    # pendant edges are fine there, and beyond them at lam=400, where
    # they shrink to the far-field length
    pendants = "".join(
        f"  - {{id: p{i}, from: a, to: t{i}, length: 1.0}}\n" for i in range(100)
    )
    g = build_graph(
        "vertices: [c, l1, l2, a, "
        + ", ".join(f"t{i}" for i in range(100))
        + "]\nedges:\n"
        + "  - {id: l1, from: c, to: l1, length: 1.0}\n"
        + "  - {id: l2, from: c, to: l2, length: 1.0}\n"
        + "  - {id: ca, from: c, to: a, length: 2.0}\n"
        + pendants
    )
    template = peak_template(g, ("c",))
    cfg = SolveConfig(lambdas=(25.0, 400.0), nodes_per_width=100.0)
    ndof = [
        planned_ndof(g, refined_plans(g, lam, ["c"], 100.0 * (lam / 25.0) ** 0.25))
        for lam in (25.0, 400.0)
    ]
    assert ndof[0] > ndof[1]
    built = []
    monkeypatch.setattr(
        graphnls.discrete, "build_mesh", lambda *a, **k: built.append(a)
    )
    monkeypatch.setattr(graphnls.solve, "MAX_NDOF", ndof[0] - 1)
    with pytest.raises(ValueError, match="at lam=25 would have"):
        continuation_sweep(template, cfg)
    assert built == []


def test_kernel_diagnostics_require_convergence():
    g, star, spec, mesh, op = _tripod_setup(lam=4.0, npw=10.0)
    fake = BoundStateResult(
        u=DiscreteField(mesh, np.zeros(mesh.ndof)),
        lam=4.0,
        mu=1.0,
        termination="max_iters",
        iterations=0,
        residual_norm=1.0,
        residual_norm_absolute=1.0,
    )
    with pytest.raises(NotConverged):
        seed = assemble_ansatz(spec, mesh, 4.0, 1.0)
        kernel_projection_diagnostics(op, fake, spec, seed)


def test_peak_offsets_catch_displaced_maxima():
    g, star, spec, mesh, op = _tripod_setup(lam=25.0, npw=20.0)
    centered = assemble_ansatz(spec, mesh, 25.0, 1.0)
    assert peak_offsets(centered, spec)[0][1] == pytest.approx(0.0)
    shifted = DiscreteField(mesh, centered.values.copy())
    nodes = mesh.edge_nodes["e1"]
    bump = np.exp(-80.0 * (nodes - 0.3) ** 2)
    shifted.values[mesh.edge_dofs["e1"]] += 2.0 * centered.values.max() * bump
    off = peak_offsets(shifted, spec)[0][1]
    assert off == pytest.approx(0.3, abs=2.0 * mesh.edge_spacing("e1"))


def test_resample_is_exact_on_shared_nodes():
    g = build_graph(TRIPOD)
    coarse = uniform_mesh(g, 0.1)
    rng = np.random.default_rng(8)
    field = DiscreteField(coarse, rng.standard_normal(coarse.ndof))
    same = _resample(field, coarse)
    assert np.allclose(same, field.values)
    fine = uniform_mesh(g, 0.05)
    lifted = _resample(field, fine)
    for eid in ("e1", "e2", "e3"):
        shared = fine.edge_nodes[eid][::2]
        assert np.allclose(shared, coarse.edge_nodes[eid])
        assert np.allclose(
            lifted[fine.edge_dofs[eid][::2]], field.values[coarse.edge_dofs[eid]]
        )
