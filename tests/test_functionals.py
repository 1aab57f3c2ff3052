"""Mass, action, energy, Nehari identities, and ground-state comparisons."""

import math

import numpy as np
import pytest

from graphnls import (
    AnsatzSpec,
    SolveConfig,
    assemble,
    assemble_ansatz,
    build_graph,
    eval_soliton,
    evaluate_functionals,
    ground_state_gap,
    lambda_norm,
    newton_solve,
    refined_mesh,
    soliton_derivative,
    soliton_reference,
    star_neighborhood,
    uniform_mesh,
)
from graphnls.acceptance import _mu2_sweep, _tripod_sweep
from graphnls.discrete import DiscreteField
from graphnls.errors import NotConverged
from graphnls.solve import BoundStateResult

TRIPOD = """
vertices: [c, a1, a2, a3]
edges:
  - {id: e1, from: c, to: a1, length: 1.0}
  - {id: e2, from: c, to: a2, length: 1.0}
  - {id: e3, from: c, to: a3, length: 1.0}
"""

TWO_STAR = """
vertices: [v, t1, t2]
edges:
  - {id: h1, from: v, to: t1, length: inf}
  - {id: h2, from: v, to: t2, length: inf}
truncation: 20.0
"""


def _solve_tripod(lam=25.0, mu=1.0, npw=20.0):
    g = build_graph(TRIPOD)
    star = star_neighborhood(g, "c", mode="single")
    spec = AnsatzSpec(g, ((star, (0.0, 0.0)),))
    mesh = refined_mesh(g, lam, ["c"], nodes_per_width=npw)
    op = assemble(g, mesh, lam)
    seed = assemble_ansatz(spec, mesh, lam, mu)
    res = newton_solve(op, seed, SolveConfig(mu=mu))
    assert res.converged
    return op, res


def test_zero_state_has_zero_functionals():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.1)
    op = assemble(g, mesh, 2.0)
    rep = evaluate_functionals(op, 1.0, DiscreteField(mesh, np.zeros(mesh.ndof)))
    assert rep.mass == rep.kinetic == rep.potential == 0.0
    assert rep.action == rep.energy == rep.nehari_residual == 0.0
    assert rep.lam == 2.0


def test_nonpositive_state_sees_no_potential():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.1)
    op = assemble(g, mesh, 2.0)
    rng = np.random.default_rng(3)
    u = DiscreteField(mesh, -rng.random(mesh.ndof))
    rep = evaluate_functionals(op, 1.0, u)
    assert rep.potential == 0.0
    assert rep.energy == pytest.approx(0.5 * rep.kinetic)


def test_action_identity_holds_exactly():
    g = build_graph(TRIPOD)
    mesh = uniform_mesh(g, 0.07)
    rng = np.random.default_rng(14)
    for lam in (0.5, 2.0, 7.0):
        op = assemble(g, mesh, lam)
        for _ in range(4):
            u = DiscreteField(mesh, rng.standard_normal(mesh.ndof))
            rep = evaluate_functionals(op, 1.5, u)
            assert rep.action == rep.energy + 0.5 * lam * rep.mass
            assert rep.nehari_residual == pytest.approx(
                rep.kinetic + lam * rep.mass - rep.potential, rel=1e-13
            )


def test_line_surrogate_matches_soliton_integrals():
    # two truncated half lines form a line; the lam = 1 state carries the
    # full-line soliton levels up to O(h^2) and exponentially small tails
    g = build_graph(TWO_STAR)
    star = star_neighborhood(g, "v", mode="single")
    mesh = uniform_mesh(g, 0.01)
    op = assemble(g, mesh, 1.0)
    spec = AnsatzSpec(g, ((star, (0.0,)),))
    res = newton_solve(op, assemble_ansatz(spec, mesh, 1.0, 1.0), SolveConfig())
    assert res.converged
    rep = evaluate_functionals(op, 1.0, res.u)
    assert rep.mass == pytest.approx(4.0, rel=2e-4)
    assert rep.kinetic == pytest.approx(4.0 / 3.0, rel=2e-3)
    assert rep.potential == pytest.approx(16.0 / 3.0, rel=2e-3)
    assert rep.action == pytest.approx(4.0 / 3.0, rel=2e-3)
    assert rep.energy == pytest.approx(-2.0 / 3.0, rel=2e-3)


def test_discrete_solution_sits_on_the_nehari_manifold():
    op, res = _solve_tripod()
    rep = evaluate_functionals(op, 1.0, res.u)
    scale = lambda_norm(op, res.u) ** 2
    assert abs(rep.nehari_residual) < 1e-8 * max(1.0, scale)


def test_soliton_reference_frozen_values():
    ref = soliton_reference(1.0)
    assert ref.mass == pytest.approx(4.0, rel=1e-11)
    assert ref.kinetic == pytest.approx(4.0 / 3.0, rel=1e-11)
    assert ref.potential == pytest.approx(16.0 / 3.0, rel=1e-11)
    assert ref.action == pytest.approx(4.0 / 3.0, rel=1e-11)
    assert ref.energy == pytest.approx(-2.0 / 3.0, rel=1e-11)
    quintic = soliton_reference(2.0)
    assert quintic.mass == pytest.approx(math.sqrt(3.0) * math.pi / 2.0, rel=1e-11)
    assert abs(quintic.energy) < 1e-10
    assert soliton_reference(1.0) is ref


@pytest.mark.parametrize("mu", [0.25 * k for k in range(2, 15)])
def test_soliton_reference_matches_quadrature(mu):
    from scipy.integrate import quad  # kept out of the package's imports

    def line_integral(f):
        val, _ = quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        return 2.0 * val

    ref = soliton_reference(mu)
    expect = {
        "mass": line_integral(lambda x: eval_soliton(mu, x) ** 2),
        "kinetic": line_integral(lambda x: soliton_derivative(mu, x) ** 2),
        "potential": line_integral(lambda x: eval_soliton(mu, x) ** (2.0 * mu + 2.0)),
    }
    for name, value in expect.items():
        assert getattr(ref, name) == pytest.approx(value, rel=1e-14, abs=0.0), name


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.7, 2.0, 3.0, 10.0, 30.0, 100.0])
def test_soliton_reference_internal_identities(mu):
    # each constant has its own Beta-function formula, and these
    # relations between them come from the Pohozaev and Nehari
    # identities instead, so they are a real consistency check:
    #   kinetic = m mu/(mu+2), potential = 2 m (mu+1)/(mu+2),
    #   energy = m (mu-2)/(2 (mu+2)), and the line Nehari residual is zero
    ref = soliton_reference(mu)
    m = ref.mass
    assert ref.kinetic == pytest.approx(m * mu / (mu + 2.0), rel=1e-9)
    assert ref.potential == pytest.approx(2.0 * m * (mu + 1.0) / (mu + 2.0), rel=1e-9)
    assert ref.energy == pytest.approx(
        m * (mu - 2.0) / (2.0 * (mu + 2.0)), rel=1e-9, abs=1e-10
    )
    assert ref.kinetic + m - ref.potential == pytest.approx(0.0, abs=1e-9)
    assert ref.action > 0.0
    if mu < 2.0:
        assert ref.energy < 0.0
    elif mu > 2.0:
        assert ref.energy > 0.0


def test_soliton_reference_rejects_small_mu():
    with pytest.raises(ValueError):
        soliton_reference(0.4)


def test_tripod_mass_slope_matches_the_scaling_law():
    # mass grows like lam^(1/mu - 1/2) = sqrt(lam) for mu = 1
    _, results = _tripod_sweep()
    reps = []
    for res in results[-2:]:
        op = assemble(res.u.mesh.graph, res.u.mesh, res.lam)
        reps.append(evaluate_functionals(op, 1.0, res.u))
    slope = math.log(reps[1].mass / reps[0].mass) / math.log(
        results[-1].lam / results[-2].lam
    )
    assert slope == pytest.approx(0.5, abs=0.02)


def test_ground_state_gap_flags_the_tripod_state():
    _, res = _solve_tripod(lam=25.0)
    gap = ground_state_gap(res, weight=1.5)
    assert gap.normalized_action == pytest.approx(2.0, rel=5e-3)
    assert gap.action_reference == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert gap.action_exceeds
    assert gap.normalized_energy == pytest.approx(-1.0, rel=1e-2)
    assert gap.energy_exceeds
    assert gap.not_ground_state


def test_ground_state_gap_reads_mu_off_the_state():
    # verify's mu=1 and mu=2 tripod states at lam=400: normalized at
    # mu=2.0, the mu=1 state's action would read 39.9997
    gap = ground_state_gap(_tripod_sweep()[1][-1], weight=1.5)
    assert gap.mu == 1.0
    assert gap.normalized_action == pytest.approx(2.0, rel=1e-3)
    assert ground_state_gap(_mu2_sweep()[1][-1], weight=1.5).mu == 2.0


def test_ground_state_gap_quintic_uses_mass_only():
    _, res = _solve_tripod(lam=25.0, mu=2.0)
    gap = ground_state_gap(res, weight=1.5)
    assert gap.normalized_energy is None and gap.energy_reference is None
    assert gap.mass == pytest.approx(1.5 * gap.mass_reference, rel=5e-3)
    assert gap.mass_exceeds
    assert gap.not_ground_state


def test_ground_state_gap_supercritical_is_unconditional():
    _, res = _solve_tripod(lam=25.0, mu=3.0)
    gap = ground_state_gap(res, weight=0.5)
    assert gap.not_ground_state


def test_ground_state_gap_input_guards():
    op, res = _solve_tripod(lam=25.0)
    with pytest.raises(ValueError):
        ground_state_gap(res, weight=0.4)
    fake = BoundStateResult(
        u=res.u,
        lam=res.lam,
        mu=1.0,
        termination="max_iters",
        iterations=0,
        residual_norm=1.0,
        residual_norm_absolute=1.0,
    )
    with pytest.raises(NotConverged):
        ground_state_gap(fake, weight=1.5)
