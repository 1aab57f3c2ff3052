"""Mesh layout, assembled forms, resolvent, and flux diagnostics."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from graphnls import (
    assemble,
    build_graph,
    insert_midpoints,
    lambda_norm,
    reference_graph,
    refined_mesh,
    resolvent_apply,
    uniform_mesh,
)
from graphnls.discrete import (
    GRADED_WIDTHS,
    GRADING_RATIO,
    DiscreteField,
    KirchhoffOperator,
    dual_residual_norm,
    edge_bands,
    edge_elements,
    kirchhoff_flux,
    one_sided_derivative,
    planned_ndof,
    positive_power,
    refined_plans,
)
from graphnls.errors import NegativeForm
from graphnls.graphs import vertex_distances
from sparse_reference import tocsr

TRIPOD = """
vertices: [c, a1, a2, a3]
edges:
  - {id: e1, from: c, to: a1, length: 1.0}
  - {id: e2, from: c, to: a2, length: 1.0}
  - {id: e3, from: c, to: a3, length: 1.0}
"""

SINGLE_EDGE = """
vertices: [v, w]
edges:
  - {id: e, from: v, to: w, length: 1.0}
"""

TRUNCATED_EDGE = """
vertices: [v, t]
edges:
  - {id: h, from: v, to: t, length: inf}
truncation: 1.0
"""


def test_mesh_shares_vertex_dofs():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.1)
    for eid in ("e1", "e2", "e3"):
        dofs = mesh.edge_dofs[eid]
        assert dofs[0] == mesh.vertex_dofs["c"]
        assert dofs[-1] == mesh.vertex_dofs[{e.id: e for e in g.edges}[eid].dst]
    interior = sum(len(mesh.edge_dofs[e.id]) - 2 for e in g.edges)
    assert mesh.ndof == len(g.vertices) + interior
    assert mesh.dirichlet_dofs.size == 0
    assert mesh.free_dofs.size == mesh.ndof


def test_mesh_self_loop_ends_share_one_dof():
    g = build_graph(
        """
vertices: [v, w]
edges:
  - {id: loop, from: v, to: v, length: 2.0}
  - {id: e, from: v, to: w, length: 1.0}
"""
    )
    mesh = uniform_mesh(g, 0.25)
    dofs = mesh.edge_dofs["loop"]
    assert dofs[0] == dofs[-1] == mesh.vertex_dofs["v"]


def test_mesh_enforces_minimum_resolution():
    g = build_graph(SINGLE_EDGE)
    mesh = uniform_mesh(g, 10.0)
    assert len(mesh.edge_nodes["e"]) == 5
    assert mesh.edge_spacing("e") == pytest.approx(0.25)


def test_assembled_forms_basic_identities():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.05)
    op = assemble(g, mesh, 2.0)
    ones = np.ones(mesh.ndof)
    # constants lie in the kernel of the stiffness form
    assert np.max(np.abs(op.stiffness @ ones)) < 1e-12
    # the mass form integrates 1*1 to the total length
    assert ones @ (op.mass @ ones) == pytest.approx(3.0, rel=1e-13)
    for form in (op.stiffness, op.mass):
        A = tocsr(form)
        assert (A - A.T).nnz == 0
    with pytest.raises(ValueError):
        assemble(build_graph(TRIPOD), mesh, 2.0)


def test_lambda_norm_and_inner_consistency():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.05)
    op = assemble(g, mesh, 2.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(mesh.ndof)
        v = rng.standard_normal(mesh.ndof)
        manual = u @ (op.stiffness @ u) + op.lam * (u @ (op.mass @ u))
        assert lambda_norm(op, DiscreteField(mesh, u)) == pytest.approx(
            math.sqrt(manual)
        )
        assert u @ (op.shifted @ v) == pytest.approx(v @ (op.shifted @ u))
        assert u @ (op.shifted @ u) == pytest.approx(manual)


def test_dual_residual_norm_inverts_the_shifted_form():
    # r = A u implies r^T A^{-1} r = u^T A u exactly
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.05)
    op = assemble(g, mesh, 3.0)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(mesh.ndof)
    r = op.stiffness @ u + op.lam * (op.mass @ u)
    assert dual_residual_norm(op, r) == pytest.approx(
        lambda_norm(op, DiscreteField(mesh, u)), rel=1e-11
    )


def test_resolvent_matches_manufactured_solution():
    # -v'' + lam v = cos(pi x) on a unit Neumann edge
    g = build_graph(SINGLE_EDGE)
    mesh = uniform_mesh(g, 0.01)
    lam = 3.0
    op = assemble(g, mesh, lam)
    x = mesh.edge_nodes["e"]
    rhs = np.zeros(mesh.ndof)
    rhs[mesh.edge_dofs["e"]] = np.cos(math.pi * x)
    sol = resolvent_apply(op, DiscreteField(mesh, rhs))
    expect = np.cos(math.pi * x) / (lam + math.pi**2)
    err = np.max(np.abs(sol.values[mesh.edge_dofs["e"]] - expect))
    assert err < 2e-4


def test_resolvent_pins_truncation_endpoints():
    g = build_graph(TRUNCATED_EDGE)
    mesh = uniform_mesh(g, 0.02)
    op = assemble(g, mesh, 1.0)
    sol = resolvent_apply(op, DiscreteField(mesh, np.ones(mesh.ndof)))
    assert sol.values[mesh.vertex_dofs["t"]] == 0.0
    assert np.all(sol.values[mesh.free_dofs] > 0.0)


def test_resolvent_is_self_adjoint_in_the_mass_pairing():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.04)
    op = assemble(g, mesh, 2.5)
    rng = np.random.default_rng(9)
    for _ in range(4):
        f = DiscreteField(mesh, rng.standard_normal(mesh.ndof))
        h = DiscreteField(mesh, rng.standard_normal(mesh.ndof))
        lhs = resolvent_apply(op, f).values @ (op.mass @ h.values)
        rhs = f.values @ (op.mass @ resolvent_apply(op, h).values)
        assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("lam", [0.0, -0.5, math.nan, math.inf])
def test_assemble_rejects_a_shift_that_is_not_positive_and_finite(lam):
    g = build_graph(TRUNCATED_EDGE)
    mesh = uniform_mesh(g, 0.05)
    with pytest.raises(ValueError, match="shift must be positive and finite"):
        assemble(g, mesh, lam)


def test_lambda_norm_rejects_a_negative_form():
    # negative stiffness bands make the shifted form indefinite at lam = 1
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.05)
    op = KirchhoffOperator(
        mesh, 1.0, edge_bands(mesh, stiffness=-1.0), edge_bands(mesh, weight=1.0)
    )
    wiggle = np.cos(math.pi * np.arange(mesh.ndof))
    with pytest.raises(NegativeForm):
        lambda_norm(op, DiscreteField(mesh, wiggle))


def test_weighted_mass_with_constant_weight_is_scaled_mass():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.1)
    op = assemble(g, mesh, 1.0)
    W = tocsr(edge_bands(mesh, weight=np.full(mesh.ndof, 2.5)))
    assert np.allclose(W.toarray(), 2.5 * tocsr(op.mass).toarray(), atol=1e-14)


def test_weighted_mass_integrates_linear_weights_exactly():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.1)
    op = assemble(g, mesh, 1.0)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(mesh.ndof)
    ones = np.ones(mesh.ndof)
    # integral of w*1*1 must agree with the plain mass pairing of w and 1
    assert ones @ (edge_bands(mesh, weight=w) @ ones) == pytest.approx(
        w @ (op.mass @ ones), rel=1e-12
    )


def test_difference_stencils_are_exact_on_quadratics():
    h = 0.1
    x = np.arange(0.0, 1.0 + h / 2, h)
    u = 3.0 * x**2 + 2.0 * x + 1.0
    assert one_sided_derivative(u, h, at_start=True) == pytest.approx(2.0)
    assert one_sided_derivative(u, h, at_start=False) == pytest.approx(-8.0)


def test_difference_stencils_are_exact_on_unequal_quadratics():
    x = np.array([0.0, 0.1, 0.25, 0.5, 0.8, 1.0])
    u = 3.0 * x**2 + 2.0 * x + 1.0
    start = one_sided_derivative(u, 0.1, at_start=True, h_next=0.15)
    end = one_sided_derivative(u, 0.2, at_start=False, h_next=0.3)
    assert start == pytest.approx(2.0, rel=1e-12)
    assert end == pytest.approx(-8.0, rel=1e-12)
    # read with the first element's length at both ends, the end is wrong
    assert one_sided_derivative(u, 0.1, at_start=False) != pytest.approx(-8.0)


def test_kirchhoff_flux_balances_for_resolvent_solutions():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.005)
    op = assemble(g, mesh, 2.0)
    rhs = np.zeros(mesh.ndof)
    for eid in ("e1", "e2", "e3"):
        x = mesh.edge_nodes[eid]
        rhs[mesh.edge_dofs[eid]] = np.exp(-x) * (1.0 + 0.3 * x)
    sol = resolvent_apply(op, DiscreteField(mesh, rhs))
    assert abs(kirchhoff_flux(mesh, sol)["c"]) < 5e-4


def test_refined_mesh_focuses_on_peak_edges():
    g = build_graph(
        """
vertices: [c, a1, a2, far]
edges:
  - {id: e1, from: c, to: a1, length: 1.0}
  - {id: e2, from: c, to: a2, length: 1.0}
  - {id: e3, from: a1, to: far, length: 1.0}
"""
    )
    lam, npw = 25.0, 20.0
    mesh = refined_mesh(g, lam, ["c"], nodes_per_width=npw)
    fine = 1.0 / (npw * math.sqrt(lam))
    assert mesh.edge_spacing("e1") <= fine + 1e-12
    assert mesh.edge_spacing("e3") > 4.0 * mesh.edge_spacing("e1")


# every built-in graph with its peaks, split as `solve` splits it, and
# the double tripod unsplit, whose bridge has peaks at both ends; the
# figure1 peak pairs grade ends by their distance to the nearer peak
MESHED_PEAKS = {
    "tripod": ("tripod", ["c"]),
    "t_graph": ("t_graph", ["v"]),
    "star5": ("star5", ["c"]),
    "figure1": ("figure1", ["v1"]),
    "figure1_v1_v9": ("figure1", ["v1", "v9"]),
    "figure1_v3_v4": ("figure1", ["v3", "v4"]),
    "double_tripod": ("double_tripod", ["c1", "c2"]),
    "double_tripod_unsplit": ("double_tripod", ["c1", "c2"]),
}


def _meshed_graph(name):
    graph, peaks = MESHED_PEAKS[name]
    g = reference_graph(graph)
    if not name.endswith("_unsplit"):
        g = insert_midpoints(g, peaks)
    return g, peaks


@pytest.mark.parametrize("name", sorted(MESHED_PEAKS))
def test_refined_ndof_matches_the_built_mesh(name):
    g, peaks = _meshed_graph(name)
    graded = set()
    for lam, npw in ((25.0, 10.0), (400.0, 40.0), (1600.0, 56.6), (3600.0, 1.0)):
        mesh = refined_mesh(g, lam, peaks, nodes_per_width=npw)
        assert planned_ndof(g, refined_plans(g, lam, peaks, npw)) == mesh.ndof
        assert mesh.ndof == len(g.vertices) + sum(
            len(nodes) - 2 for nodes in mesh.edge_nodes.values()
        )
        graded |= mesh.graded
    assert graded
    if name == "double_tripod_unsplit":
        assert "bridge" in graded


def test_refined_ndof_builds_no_nodes():
    g = reference_graph("star5")
    npw = 40.0 * 64.0**0.25  # the default growth at the star5 sweep's last shift
    tracemalloc.start()
    try:
        ndof = planned_ndof(g, refined_plans(g, 1600.0, ["c"], npw))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one peak edge's nodes alone would take 32 kB
    assert peak < 8_000
    # the uniform mesh had 339,416 unknowns here
    assert ndof <= 25_000


def test_refined_mesh_refuses_an_empty_peak_list():
    # the grading table has no peak to measure from; this once raised
    # "min() arg is an empty sequence"
    g = reference_graph("tripod")
    for plan in (refined_plans, refined_mesh):
        with pytest.raises(ValueError, match="at least one peak vertex is required"):
            plan(g, 25.0, [], 10.0)


def test_refined_mesh_refuses_a_peak_that_is_not_a_vertex():
    # an unknown source is at distance 0 from itself and inf from every
    # vertex, so this once built an ungraded far-field mesh
    g = reference_graph("tripod")
    for plan in (refined_plans, refined_mesh):
        with pytest.raises(ValueError, match=r"peak vertices not in graph: \['zz'\]"):
            plan(g, 25.0, ["c", "zz"], 10.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["lam", "nodes_per_width"])
def test_refined_mesh_refuses_a_shift_or_density_not_positive_and_finite(name, bad):
    # a negative one once built a mesh, 0 or an infinite shift divided by
    # zero, and nan failed to convert to an element count
    g = reference_graph("tripod")
    knobs = {"lam": 25.0, "nodes_per_width": 10.0, name: bad}
    for plan in (refined_plans, refined_mesh):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            plan(g, knobs["lam"], ["c"], knobs["nodes_per_width"])


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_uniform_mesh_refuses_a_spacing_not_positive_and_finite(h):
    # -1 and inf once built a 13-dof mesh of the tripod, 0 divided by zero
    with pytest.raises(ValueError, match=f"h must be positive and finite, got {h}"):
        uniform_mesh(reference_graph("tripod"), h)


def _check_grading(g, peaks, lam, npw):
    """Check refined_mesh's grading edge by edge against the graph distance
    d to the nearest peak; returns the mesh and the kinds of edge seen:
    "far", "uniform", or the kinds ("peak", "near", None) of a graded
    edge's two ends."""
    mesh = refined_mesh(g, lam, peaks, nodes_per_width=npw)
    h_fine = 1.0 / (npw * math.sqrt(lam))
    h_far = max(1.0 / math.sqrt(lam), 5.0 * h_fine)
    width = GRADED_WIDTHS / math.sqrt(lam)
    tables = [vertex_distances(g, p) for p in peaks]
    seen = set()
    for e in g.edges:
        nodes = mesh.edge_nodes[e.id]
        d = [min(t[v] for t in tables) for v in (e.src, e.dst)]
        if min(d) >= width:  # both ends far: linspace at the far-field length
            far = np.linspace(0.0, e.length, edge_elements(e.length, h_far) + 1)
            assert e.id not in mesh.graded
            assert nodes.tobytes() == far.tobytes()
            seen.add("far")
            continue
        target = h_fine if 0.0 in d else 5.0 * h_fine
        uniform = np.linspace(0.0, e.length, edge_elements(e.length, target) + 1)
        # each end within the width keeps the uniform nodes up to the
        # first one at or past width - d; an end whose zone covers the
        # edge keeps them all
        n = len(uniform) - 1
        fine = [0, 0]
        if d[0] < width:
            fine[0] = int(np.argmax(np.append(uniform, np.inf) >= width - d[0]))
        if d[1] < width:
            back = np.append(e.length - uniform[::-1], np.inf)
            fine[1] = int(np.argmax(back >= width - d[1]))
        if e.id not in mesh.graded:  # no longer than its fine zones
            assert sum(fine) >= n
            assert nodes.tobytes() == uniform.tobytes()
            seen.add("uniform")
            continue
        assert sum(fine) < n and len(nodes) < len(uniform)
        if fine[0]:
            k = fine[0]
            assert nodes[: k + 1].tobytes() == uniform[: k + 1].tobytes()
        if fine[1]:
            k = fine[1]
            assert nodes[-k - 1 :].tobytes() == uniform[-k - 1 :].tobytes()
        h = np.diff(nodes)
        assert np.all(h > 0.0) and nodes[0] == 0.0 and nodes[-1] == e.length
        assert h.max() <= 1.5 * h_far
        # outward from each graded end to the far end (or the cut),
        # elements grow by at most GRADING_RATIO up to the far-field
        # length; only the last one may shrink, or grow by up to 1.5
        run, rest = divmod(len(h) - sum(fine), sum(k > 0 for k in fine))
        assert rest == 0
        runs = []
        for k, outward in zip(fine, (h, h[::-1])):
            if k:
                ratio = outward[1 : k + run] / outward[: k + run - 1]
                assert np.all(ratio[:-1] <= GRADING_RATIO * (1.0 + 1e-9))
                assert 0.5 <= ratio[-1] <= 1.5
                runs.append(outward[k : k + run])
        if len(runs) == 2:  # both sides of the cut share one run
            assert np.allclose(runs[0], runs[1], rtol=1e-9, atol=0.0)
        kinds = [None if x >= width else "near" if x else "peak" for x in d]
        seen.add(tuple(kinds))
    return mesh, seen


def test_graded_edges_keep_the_uniform_fine_zone_bit_for_bit():
    # side edges graded at their source, bridge__b at its target, the
    # unsplit bridge at both ends
    lam, npw = 1600.0, 40.0
    h_fine = 1.0 / (npw * math.sqrt(lam))
    seen = set()
    for name in ("double_tripod", "double_tripod_unsplit"):
        g, peaks = _meshed_graph(name)
        mesh, kinds = _check_grading(g, peaks, lam, npw)
        seen |= kinds
        # every edge with a peak end is graded, to under half the nodes
        for e in g.edges:
            if e.src in peaks or e.dst in peaks:
                assert e.id in mesh.graded
                uniform = edge_elements(e.length, h_fine) + 1
                assert len(mesh.edge_nodes[e.id]) < uniform / 2
    assert {("peak", None), (None, "peak"), ("peak", "peak")} <= seen


def test_figure1_grades_every_edge_by_its_distance_from_the_peak():
    # the default growth of the figure1 sweep: at lam=200, v2, v5 and v6
    # lie 1 from v1, within the 1.06 of 15 peak widths
    g = reference_graph("figure1")
    lam = 200.0
    mesh, seen = _check_grading(g, ["v1"], lam, 40.0 * (lam / 25.0) ** 0.25)
    assert {"far", "uniform", ("peak", None), ("near", None), (None, "near")} <= seen
    # at the last shift only the peak ends are near: 44,860 unknowns when
    # only they were graded, 16,732 with the fine spacing to 30 widths
    lam = 800.0
    mesh, seen = _check_grading(g, ["v1"], lam, 40.0 * (lam / 25.0) ** 0.25)
    assert seen == {"far", ("peak", None)}
    assert mesh.ndof <= 10_000


@pytest.mark.parametrize("peaks", [["v1", "v9"], ["v3", "v4"]])
def test_figure1_peak_pairs_grade_by_the_nearer_peak(peaks):
    g = reference_graph("figure1")
    seen = set()
    for lam in (25.0, 100.0, 400.0, 1600.0):
        seen |= _check_grading(g, peaks, lam, 40.0 * (lam / 25.0) ** 0.25)[1]
    assert {"far", ("peak", None), ("near", None)} <= seen


def test_an_edge_near_a_peak_at_both_ends_is_cut_between_unequal_zones():
    # a and b lie 0.3 and 0.5 from the peak: at lam=225, 15 peak widths
    # reach 0.7 and 0.5 into ab from its two ends
    g = build_graph(
        """
vertices: [c, a, b, t]
edges:
  - {id: ca, from: c, to: a, length: 0.3}
  - {id: cb, from: c, to: b, length: 0.5}
  - {id: ab, from: a, to: b, length: 3.0}
  - {id: ct, from: c, to: t, length: 4.0}
"""
    )
    mesh, seen = _check_grading(g, ["c"], 225.0, 20.0)
    assert ("near", "near") in seen
    assert planned_ndof(g, refined_plans(g, 225.0, ["c"], 20.0)) == mesh.ndof


def test_spacing_and_flux_read_their_own_end():
    # e1 runs into the peak and e2 out of it: each peak end is fine and
    # each far end a stretched last element
    g = build_graph(
        """
vertices: [a, c, b]
edges:
  - {id: e1, from: a, to: c, length: 2.0}
  - {id: e2, from: c, to: b, length: 2.0}
"""
    )
    mesh = refined_mesh(g, 3600.0, ["c"], nodes_per_width=1.0)
    assert mesh.graded == {"e1", "e2"}
    fine = mesh.edge_spacing("e1", at_start=False)
    assert mesh.edge_spacing("e2") == pytest.approx(fine, rel=1e-12)
    assert mesh.edge_spacing("e1") > 3.0 * fine
    assert mesh.edge_spacing("e2", at_start=False) > 3.0 * fine
    # quadratics on each edge, continuous at c: the stencils are exact
    x1, x2 = mesh.edge_nodes["e1"], mesh.edge_nodes["e2"]
    u = np.zeros(mesh.ndof)
    u[mesh.edge_dofs["e1"]] = x1**2
    u[mesh.edge_dofs["e2"]] = 4.0 + 3.0 * x2 + x2**2
    flux = kirchhoff_flux(mesh, DiscreteField(mesh, u))
    assert flux["a"] == pytest.approx(0.0, abs=1e-9)
    assert flux["c"] == pytest.approx(-4.0 + 3.0, rel=1e-9)
    assert flux["b"] == pytest.approx(-7.0, rel=1e-9)


def test_layout_holds_no_per_element_arrays():
    # a result keeps its mesh, and the mesh its layout, for the rest of
    # a run: nothing in it may grow with the number of elements
    g = reference_graph("star5")
    mesh = refined_mesh(g, 400.0, ["c"], nodes_per_width=40.0)
    bound = max(len(g.edges), len(g.vertices))
    assert mesh.ndof > 100 * bound
    lay = mesh.layout
    for f in fields(lay):
        value = getattr(lay, f.name)
        assert np.size(value) <= bound, f.name


def test_symmetric_operators_share_one_off_diagonal():
    g = reference_graph("star5")
    mesh = refined_mesh(g, 400.0, ["c"], nodes_per_width=40.0)
    op = assemble(g, mesh, 400.0)
    for bands in (op.stiffness, op.mass, op.shifted):
        assert bands.upper is bands.lower
    expect = op.stiffness.upper + 400.0 * op.mass.upper
    assert op.shifted.upper.tobytes() == expect.tobytes()
    # a sum with an unsymmetric operand keeps two off-diagonals
    lopsided = replace(op.mass, lower=op.mass.lower.copy())
    total = op.stiffness.plus(lopsided)
    assert total.upper is not total.lower
    assert total.upper.tobytes() == total.lower.tobytes()


def test_discrete_field_helpers():
    g = build_graph(SINGLE_EDGE)
    mesh = uniform_mesh(g, 0.1)
    with pytest.raises(ValueError):
        DiscreteField(mesh, np.zeros(3))


@pytest.mark.parametrize("p", [1.0001, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0])
def test_positive_power_is_bitwise_the_plain_expression(p):
    # magnitudes from the smallest subnormal up to 1e3, both signs, with
    # +-0, NaN, +-inf and the values around the replacement bound
    rng = np.random.default_rng(11)
    v = 10.0 ** rng.uniform(-323.7, 3.0, 400_000) * rng.choice([-1.0, 1.0], 400_000)
    bound = 10.0 ** (-330.0 / p)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    special += [2.2250738585072014e-308, bound, -bound, 2.0 ** (-1075.0 / p)]
    special += [bound * (1.0 + 1e-15), bound * (1.0 - 1e-15), 1.0, -1.0]
    v[: len(special)] = special
    v[len(special) :: 7] = 0.0  # runs of zeros and signed zeros as well
    v[len(special) + 1 :: 7] = -0.0
    expect = np.maximum(v, 0.0) ** p
    got = positive_power(v, p)
    assert got.tobytes() == expect.tobytes()
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert not np.shares_memory(got, v)


def test_positive_power_on_a_decaying_state():
    # a sharp peak whose tail underflows and flips sign by rounding, as
    # a bound state's does far from its peak
    t = np.linspace(0.0, 30.0, 200_001)
    v = 40.0 * np.exp(-40.0 * t) + 1e-300 * np.sin(1e3 * t)
    assert np.mean(v < 0.0) > 0.1 and np.mean(np.abs(v) < 1e-110) > 0.3
    for p in (2.0, 3.0):
        assert positive_power(v, p).tobytes() == (np.maximum(v, 0.0) ** p).tobytes()
