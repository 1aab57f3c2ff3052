"""Mesh layout, assembled forms, resolvent, and flux diagnostics."""

import math

import numpy as np
import pytest

from graphnls import (
    assemble,
    build_graph,
    build_mesh,
    lambda_norm,
    refined_mesh,
    resolvent_apply,
    uniform_mesh,
)
from graphnls.discrete import (
    DiscreteField,
    KirchhoffOperator,
    dual_residual_norm,
    edge_bands,
    kirchhoff_flux,
    lambda_inner,
    one_sided_derivative,
    positive_power,
)
from graphnls.errors import IndefiniteOperator, NegativeForm

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
        assert dofs[-1] == mesh.vertex_dofs[g.edge(eid).dst]
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
    mesh = build_mesh(g, 10.0)
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
        A = form.tocsr()
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
        assert lambda_inner(op, u, v) == pytest.approx(lambda_inner(op, v, u))
        assert lambda_inner(op, u, u) == pytest.approx(manual)


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
    with pytest.raises(IndefiniteOperator, match="positive and finite"):
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
    W = edge_bands(mesh, weight=np.full(mesh.ndof, 2.5)).tocsr()
    assert np.allclose(W.toarray(), 2.5 * op.mass.tocsr().toarray(), atol=1e-14)


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
