"""Line soliton, star profiles, kernel modes, taper, and the peaked seed."""

import math

import numpy as np
import pytest

from graphnls import (
    AnsatzSpec,
    assemble_ansatz,
    build_graph,
    eval_cutoff,
    eval_soliton,
    kernel_basis,
    reduced_cubic_coefficient,
    reference_graph,
    refined_mesh,
    sample_kernel_mode,
    sample_star_state,
    soliton_derivative,
    star_neighborhood,
    uniform_mesh,
)
from graphnls.discrete import DiscreteField, kirchhoff_flux
from graphnls.errors import DimensionMismatch, IndexOutOfRange
from graphnls.profiles import sample_kernel_modes

MU_GRID = (0.5, 1.0, 2.0, 3.3)


def test_soliton_params_validation():
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError, match="exponent must be positive"):
            eval_soliton(mu, 1.0)
        with pytest.raises(ValueError, match="exponent must be positive"):
            soliton_derivative(mu, 1.0)


def test_cubic_soliton_closed_form():
    # mu = 1: sqrt(2) * sech(x)
    xs = np.linspace(-4.0, 4.0, 41)
    expect = math.sqrt(2.0) / np.cosh(xs)
    assert np.allclose(eval_soliton(1.0, xs), expect, rtol=0, atol=1e-14)
    assert eval_soliton(1.0, 0.0) == pytest.approx(math.sqrt(2.0))


def test_quintic_soliton_closed_form():
    # mu = 2: 3^(1/4) * sech(2x)^(1/2)
    xs = np.linspace(-2.0, 2.0, 21)
    expect = 3.0**0.25 / np.cosh(2.0 * xs) ** 0.5
    assert np.allclose(eval_soliton(2.0, xs), expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("mu", MU_GRID)
def test_soliton_shape_properties(mu):
    xs = np.linspace(0.0, 8.0, 200)
    vals = eval_soliton(mu, xs)
    assert eval_soliton(mu, 0.0) == pytest.approx((mu + 1.0) ** (1.0 / (2.0 * mu)))
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert np.allclose(vals, eval_soliton(mu, -xs))
    # exponential tail: phi ~ amp * 2^(1/mu) * exp(-x), with a relative
    # correction of order exp(-2 mu x) / mu
    tail = (mu + 1.0) ** (1.0 / (2.0 * mu)) * 2.0 ** (1.0 / mu) * math.exp(-8.0)
    assert vals[-1] == pytest.approx(tail, rel=2.0 * math.exp(-16.0 * mu) / mu)


@pytest.mark.parametrize("mu", MU_GRID)
def test_soliton_derivative_matches_finite_differences(mu):
    rng = np.random.default_rng(5)
    h = 1e-5
    for x in rng.uniform(-3.0, 3.0, size=20):
        fd = (eval_soliton(mu, x + h) - eval_soliton(mu, x - h)) / (2.0 * h)
        assert soliton_derivative(mu, x) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("mu", MU_GRID)
def test_soliton_satisfies_stationary_equation(mu):
    # -phi'' + phi = phi^(2 mu + 1), checked with an O(h^2) stencil
    h = 2e-3
    xs = np.arange(-3.0, 3.0 + h / 2, h)
    vals = eval_soliton(mu, xs)
    second = (vals[:-2] - 2.0 * vals[1:-1] + vals[2:]) / (h * h)
    mid = vals[1:-1]
    resid = -second + mid - mid ** (2.0 * mu + 1.0)
    assert np.max(np.abs(resid)) < 1e-4


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_kernel_basis_properties(N):
    basis = kernel_basis(N)
    assert basis.shape == (N - 1, N) and basis.dtype.kind == "i"
    for j, v in enumerate(basis, start=1):
        assert v.sum() == 0
        assert v[j] == -j
        assert np.all(v[:j] == 1) and np.all(v[j + 1 :] == 0)
    for i in range(N - 1):
        for j in range(i + 1, N - 1):
            assert basis[i] @ basis[j] == 0
    with pytest.raises(ValueError):
        kernel_basis(1)


def test_cutoff_pinned_values():
    ell = 0.8
    assert eval_cutoff(ell, 0.0) == 1.0
    assert eval_cutoff(ell, 0.5 * ell) == 1.0
    assert eval_cutoff(ell, ell) == 1.0
    assert eval_cutoff(ell, 1.5 * ell) == pytest.approx(0.5)
    assert eval_cutoff(ell, 2.0 * ell) == 0.0
    assert eval_cutoff(ell, 3.0 * ell) == 0.0


def test_cutoff_is_monotone_and_c1():
    ell = 1.2
    xs = np.linspace(0.0, 3.0 * ell, 400)
    vals = eval_cutoff(ell, xs)
    assert np.all(np.diff(vals) <= 1e-15)
    h = 1e-6
    for joint in (ell, 2.0 * ell):
        slope = (
            eval_cutoff(ell, joint + h) - eval_cutoff(ell, joint - h)
        ) / (2.0 * h)
        assert abs(slope) < 1e-5
    with pytest.raises(ValueError):
        eval_cutoff(0.0, 0.0)


def _tripod_star(edge_lengths=(1.0, 1.0, 1.0)):
    lines = ["vertices: [c, a1, a2, a3]", "edges:"]
    for i, ell in enumerate(edge_lengths, start=1):
        lines.append(f"  - {{id: e{i}, from: c, to: a{i}, length: {ell!r}}}")
    g = build_graph("\n".join(lines))
    return g, star_neighborhood(g, "c", mode="single")


def test_ansatz_spec_validation():
    g, star = _tripod_star()
    with pytest.raises(DimensionMismatch):
        AnsatzSpec(g, ((star, (0.1,)),))
    spec = AnsatzSpec(g, ((star, (0.1, 0.2)),))
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam must be positive"):
            spec.damping(lam)
    # the damping is lam**0.25, positive and finite at any valid shift
    assert spec.damping(1.0) == 1.0 and spec.damping(16.0) == 2.0
    assert 0.0 < spec.damping(5e-324) and spec.damping(1.7e308) < math.inf
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="peak 'c': kernel coefficients"):
            AnsatzSpec(g, ((star, (bad, 0.0)),))


def test_ansatz_peak_value():
    g, star = _tripod_star()
    mesh = uniform_mesh(g, 0.02)
    lam = 9.0
    spec = AnsatzSpec(g, ((star, (0.1, -0.2)),))
    w = assemble_ansatz(spec, mesh, lam, 1.0)
    # kernel modes vanish at the vertex, taper equals one there
    expect = lam**0.5 * math.sqrt(2.0)
    assert w.values[mesh.vertex_dofs["c"]] == pytest.approx(expect, rel=1e-14)


def test_ansatz_refuses_a_mesh_of_another_graph():
    g, star = _tripod_star()
    spec = AnsatzSpec(g, ((star, (0.1, -0.2)),))
    mesh = uniform_mesh(reference_graph("star5"), 0.5)
    with pytest.raises(ValueError, match="the mesh is not of the template's graph"):
        assemble_ansatz(spec, mesh, 9.0, 1.0)


def test_ansatz_supported_in_taper_ball():
    g, star = _tripod_star((1.0, 4.0, 4.0))
    assert star.radius == pytest.approx(0.5)
    mesh = uniform_mesh(g, 0.05)
    spec = AnsatzSpec(g, ((star, (0.3, 0.2)),))
    w = assemble_ansatz(spec, mesh, 16.0, 1.0)
    for eid in ("e2", "e3"):
        nodes = mesh.edge_nodes[eid]
        vals = w.values[mesh.edge_dofs[eid]]
        outside = nodes > 2.0 * star.radius + 1e-12
        assert np.all(vals[outside] == 0.0)
        inside = nodes < 2.0 * star.radius - 1e-12
        assert np.any(vals[inside] != 0.0)


def test_ansatz_flux_balances_at_peak():
    # sign weights sum to zero over the rays, so the O(h^2) stencil errors
    # cancel at the peak vertex and the imbalance shrinks like h^3
    g, star = _tripod_star()
    imbalances = []
    for h in (0.004, 0.002):
        mesh = uniform_mesh(g, h)
        spec = AnsatzSpec(g, ((star, (0.4, -0.3)),))
        w = assemble_ansatz(spec, mesh, 9.0, 1.0)
        imbalances.append(abs(kirchhoff_flux(mesh, w)["c"]))
    assert imbalances[1] < 5e-5
    assert imbalances[0] / imbalances[1] > 6.0


def test_sampled_star_state_matches_closed_form():
    g, star = _tripod_star()
    mesh = uniform_mesh(g, 0.02)
    lam = 4.0
    out = sample_star_state(mesh, star, lam, 1.0)
    for eid in ("e1", "e2", "e3"):
        nodes = mesh.edge_nodes[eid]
        expect = 2.0 * math.sqrt(2.0) / np.cosh(2.0 * nodes)
        assert np.allclose(out[mesh.edge_dofs[eid]], expect, atol=1e-13)


def test_sampled_kernel_mode_signs_and_taper():
    g, star = _tripod_star()
    mesh = uniform_mesh(g, 0.02)
    lam = 4.0
    raw = sample_kernel_mode(mesh, star, 1, lam, 1.0)
    nodes = mesh.edge_nodes["e1"]
    scale = lam**0.5
    expect = scale * soliton_derivative(1.0, scale * nodes)
    assert np.allclose(raw[mesh.edge_dofs["e1"]], expect, atol=1e-13)
    assert np.allclose(raw[mesh.edge_dofs["e2"]], -expect, atol=1e-13)
    assert np.all(raw[mesh.edge_dofs["e3"]][1:] == 0.0)
    tapered = sample_kernel_mode(mesh, star, 1, lam, 1.0, tapered=True)
    sel = nodes <= star.radius
    assert np.allclose(tapered[mesh.edge_dofs["e1"]][sel], expect[sel], atol=1e-13)
    assert tapered[mesh.edge_dofs["e1"]][-1] == 0.0
    with pytest.raises(IndexOutOfRange):
        sample_kernel_mode(mesh, star, 3, lam, 1.0)


def _one_kernel_mode(mesh, star, j, lam, mu, tapered):
    """Mode j evaluated on its own, ray by ray, in the library's order."""
    signs = kernel_basis(star.degree)[j - 1]
    scale = lam ** (1.0 / (2.0 * mu))
    root = math.sqrt(lam)
    reach = 2.0 * star.radius if tapered else math.inf
    out = np.zeros(mesh.ndof)
    for i, (eid, away) in enumerate(star.incident_edges):
        nodes = mesh.edge_nodes[eid]
        t = nodes if away else nodes[-1] - nodes
        sel = t <= reach
        if not np.any(sel):
            continue
        t = t[sel]
        slope = soliton_derivative(mu, root * t)
        body = scale * float(signs[i]) * np.asarray(slope)
        if tapered:
            body = body * eval_cutoff(star.radius, t)
        out[mesh.edge_dofs[eid][sel]] = body
    return out


@pytest.mark.parametrize("name, peak", [("star5", "c"), ("figure1", "v1")])
# the ids name the taper: none, or the cos^2 ramp
@pytest.mark.parametrize("tapered", [False, True], ids=["None", "cos2"])
def test_shared_profile_modes_equal_one_mode_at_a_time(name, peak, tapered):
    # bitwise, including the sign of the zero each ray writes at the center
    g = reference_graph(name)
    star = star_neighborhood(g, peak, mode="single")
    lam = 100.0
    mesh = refined_mesh(g, lam, [peak], nodes_per_width=10.0)
    modes = sample_kernel_modes(mesh, star, lam, 1.0, tapered)
    assert len(modes) == star.degree - 1
    for j, mode in enumerate(modes, start=1):
        one = _one_kernel_mode(mesh, star, j, lam, 1.0, tapered)
        assert mode.tobytes() == one.tobytes(), j
        picked = sample_kernel_mode(mesh, star, j, lam, 1.0, tapered)
        assert picked.tobytes() == one.tobytes(), j


def test_reduced_cubic_coefficient_frozen_values():
    # exact values: -1/3 at mu = 1 and -3/32 at mu = 1/2
    assert reduced_cubic_coefficient(1.0) == pytest.approx(-1.0 / 3.0, rel=1e-10)
    assert reduced_cubic_coefficient(0.5) == pytest.approx(-3.0 / 32.0, rel=1e-10)
    for mu in MU_GRID:
        assert reduced_cubic_coefficient(mu) < 0.0
    with pytest.raises(ValueError):
        reduced_cubic_coefficient(0.4)


@pytest.mark.parametrize("mu", [0.25 * k for k in range(2, 15)])
def test_reduced_cubic_coefficient_matches_quadrature(mu):
    from scipy.integrate import quad  # kept out of the package's imports


    def integrand(x):
        return eval_soliton(mu, x) ** (2.0 * mu - 1.0) * soliton_derivative(mu, x) ** 3

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    expect = mu * (2.0 * mu + 1.0) / 3.0 * val
    assert reduced_cubic_coefficient(mu) == pytest.approx(expect, rel=1e-14, abs=0.0)
