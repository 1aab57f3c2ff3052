"""Edge-condensed operators, solves and eigensolves against sparse direct references."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphnls import (
    AnsatzSpec,
    SolveConfig,
    acceptance,
    assemble,
    assemble_ansatz,
    build_graph,
    insert_midpoints,
    jacobian,
    newton_solve,
    reference_graph,
    refined_mesh,
    sample_star_state,
    star_neighborhood,
    uniform_mesh,
)
from graphnls import discrete
from graphnls.discrete import (
    CondensedFactor,
    DiscreteField,
    edge_bands,
    shift_invert_eigsh,
)
from graphnls.errors import SingularJacobian, SolveFailure
from graphnls.solve import linearization_bands

# every built-in graph with its peak sites: figure1 has the self-loop
# loop3 and degree-5 vertices, and all but the tripod have truncated
# Dirichlet ends
PEAKS = {
    "tripod": ["c"],
    "t_graph": ["v"],
    "star5": ["c"],
    "double_tripod": ["c1", "c2"],
    "figure1": ["v1"],
}


def _seeded_operator(name, lam=25.0):
    peaks = PEAKS[name]
    g = reference_graph(name)
    mode = "multi" if len(peaks) > 1 else "single"
    if mode == "multi":
        g = insert_midpoints(g, peaks)
    stars = [star_neighborhood(g, p, mode=mode) for p in peaks]
    coeffs = tuple((s, (0.0,) * (s.degree - 1)) for s in stars)
    spec = AnsatzSpec(coeffs, mu=1.0, lam=lam, alpha=0.25)
    mesh = refined_mesh(g, lam, peaks, nodes_per_width=10.0)
    op = assemble(g, mesh, lam)
    return op, assemble_ansatz(g, spec, mesh)


def _element_loop_reference(mesh, weight):
    """Stiffness, mass and weighted mass summed element by element."""
    entries = {"S": [], "M": [], "W": []}
    for eid, dofs in mesh.edge_dofs.items():
        h = mesh.edge_spacing(eid)
        for a, b in zip(dofs[:-1], dofs[1:]):
            wa, wb = weight[a], weight[b]
            for r, c, s, m, w in (
                (a, a, 1.0 / h, h / 3.0, h * (3.0 * wa + wb) / 12.0),
                (b, b, 1.0 / h, h / 3.0, h * (wa + 3.0 * wb) / 12.0),
                (a, b, -1.0 / h, h / 6.0, h * (wa + wb) / 12.0),
                (b, a, -1.0 / h, h / 6.0, h * (wa + wb) / 12.0),
            ):
                for key, val in (("S", s), ("M", m), ("W", w)):
                    entries[key].append((r, c, val))
    out = {}
    for key, triples in entries.items():
        rows, cols, vals = zip(*triples)
        out[key] = sp.coo_matrix(
            (vals, (rows, cols)), shape=(mesh.ndof, mesh.ndof)
        ).toarray()
    return out


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_bands_match_an_element_loop(name):
    g = reference_graph(name)
    mesh = refined_mesh(g, 1.0, PEAKS[name][:1], nodes_per_width=1.0)
    op = assemble(g, mesh, 1.0)
    weight = np.random.default_rng(5).standard_normal(mesh.ndof)
    ref = _element_loop_reference(mesh, weight)
    for key, got in (
        ("S", op.stiffness),
        ("M", op.mass),
        ("W", edge_bands(mesh, weight=weight)),
    ):
        scale = np.abs(ref[key]).max()
        assert np.allclose(
            got.tocsr().toarray(), ref[key], rtol=0.0, atol=1e-14 * scale
        )


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_shifted_solve_matches_sparse_direct_reference(name):
    op, _ = _seeded_operator(name)
    mesh = op.mesh
    free = mesh.free_dofs
    b = np.random.default_rng(1).standard_normal(mesh.ndof)
    A = (op.stiffness.tocsr() + op.lam * op.mass.tocsr())[free][:, free].tocsc()
    reference = spla.spsolve(A, b[free])
    b_before = b.copy()
    x = op.factor().solve(b)
    # the interior solve runs in place on the result, not on b
    assert np.array_equal(b, b_before)
    assert np.all(x[mesh.dirichlet_dofs] == 0.0)
    err = np.linalg.norm(x[free] - reference) / np.linalg.norm(reference)
    assert err <= 1e-12


def test_solve_does_not_rely_on_dgttrs_writing_in_place(monkeypatch):
    # were overwrite_b ever to hand back a copy, the solve must not change
    op, _ = _seeded_operator("figure1")
    factor = op.factor()
    b = np.random.default_rng(2).standard_normal(op.mesh.ndof)
    expect = factor.solve(b)
    dgttrs = discrete.lapack.dgttrs

    def copying_dgttrs(*args, overwrite_b=False):
        return dgttrs(*args[:-1], args[-1].copy(), overwrite_b=overwrite_b)

    lapack = SimpleNamespace(dgttrs=copying_dgttrs, dgetrs=discrete.lapack.dgetrs)
    monkeypatch.setattr(discrete, "lapack", lapack)
    assert factor.solve(b).tobytes() == expect.tobytes()


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_jacobian_solve_at_the_seed_is_as_accurate_as_the_reference(name):
    op, seed = _seeded_operator(name)
    mesh = op.mesh
    free = mesh.free_dofs
    b = np.random.default_rng(1).standard_normal(mesh.ndof)[free]
    bands = jacobian(op, 1.0, seed)
    J = bands.tocsr()[free][:, free].tocsc()
    rhs = np.zeros(mesh.ndof)
    rhs[free] = b
    x = CondensedFactor(bands).solve(rhs)[free]
    reference = spla.spsolve(J, b)
    ours = np.linalg.norm(J @ x - b) / np.linalg.norm(b)
    theirs = np.linalg.norm(J @ reference - b) / np.linalg.norm(b)
    assert ours <= 10.0 * theirs


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_jacobian_bands_equal_shifted_plus_negated_scaled_mass(name):
    # bit for bit the two-step form S + lam M + (-1) * (M diag(s))
    op, seed = _seeded_operator(name)
    lay = op.mesh.layout
    s = 3.0 * np.maximum(seed.values, 0.0) ** 2.0
    sv, si = s[: lay.nv], s[lay.nv :]
    columns = {
        "vertex_diag": sv,
        "diag": si,
        "upper": si[1:],
        "lower": si[:-1],
        "head_row": si[lay.first],
        "head_col": sv[lay.src],
        "tail_row": si[lay.last],
        "tail_col": sv[lay.dst],
    }
    bands = jacobian(op, 1.0, seed)
    for key, scale in columns.items():
        mine, theirs = getattr(op.shifted, key), getattr(op.mass, key)
        expect = mine + -1.0 * (theirs * scale)
        assert getattr(bands, key).tobytes() == expect.tobytes(), key


@pytest.mark.parametrize("name", ["figure1", "star5"])
def test_band_products_match_their_sparse_matrices(name):
    op, seed = _seeded_operator(name)
    d = np.random.default_rng(3).standard_normal(op.mesh.ndof)
    bands = jacobian(op, 1.0, seed)
    J = bands.tocsr()
    assert np.allclose(bands @ d, J @ d, rtol=0.0, atol=1e-12 * abs(J).max())


def test_zero_pivot_raises_solve_failure():
    op, _ = _seeded_operator("tripod")
    with pytest.raises(SolveFailure, match="zero pivot"):
        CondensedFactor(edge_bands(op.mesh))


def test_non_finite_jacobian_raises_singular_jacobian():
    op, seed = _seeded_operator("tripod")
    bad = DiscreteField(op.mesh, np.full(op.mesh.ndof, np.nan))
    with pytest.raises(SingularJacobian):
        newton_solve(op, 1.0, bad, SolveConfig())
    assert newton_solve(op, 1.0, seed, SolveConfig()).converged


def _coarse_star_linearization(N):
    """Linearization at the N-star state, on a coarse truncated star."""
    g = build_graph(acceptance._star_yaml(N, 10.0))
    mesh = uniform_mesh(g, 1.0 / 50.0)
    op = assemble(g, mesh, 1.0)
    psi = sample_star_state(mesh, star_neighborhood(g, "c"), 1.0, 1.0)
    return linearization_bands(op, 1.0, DiscreteField(mesh, psi)), op.mass


def _kernel_eigsh(L, M, N):
    """The eigensolve as criterion 1 runs it."""
    return shift_invert_eigsh(
        L, M, N, 0.0, tol=acceptance._KERNEL_TOL, ncv=acceptance._KERNEL_NCV
    )


@pytest.mark.parametrize("N", [3, 4, 5])
def test_kernel_eigensolve_finds_every_kernel_mode(N):
    # the kernel has multiplicity N-1; a start vector invariant under
    # edge permutations finds only part of it
    L, M = _coarse_star_linearization(N)
    vals, vecs = _kernel_eigsh(L, M, N)
    assert int(np.sum(np.abs(vals) < 1e-3)) == N - 1
    assert abs(vals[N - 1]) > 1e-2
    assert np.all(vecs[L.mesh.dirichlet_dofs] == 0.0)
    gram = vecs.T @ np.stack([M @ v for v in vecs.T], axis=1)
    assert np.allclose(gram, np.eye(N), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("N", [3, 5])
def test_kernel_eigenvalues_match_a_sparse_direct_reference(N):
    L, M = _coarse_star_linearization(N)
    free = L.mesh.free_dofs
    v0 = np.random.default_rng(11).standard_normal(len(free))
    ref = spla.eigsh(
        L.tocsr()[free][:, free].tocsc(),
        k=N,
        M=M.tocsr()[free][:, free].tocsc(),
        sigma=0.0,
        which="LM",
        v0=v0,
        return_eigenvectors=False,
    )
    ref = ref[np.argsort(np.abs(ref))]
    assert int(np.sum(np.abs(ref) < 1e-3)) == N - 1
    vals, _ = _kernel_eigsh(L, M, N)
    assert np.allclose(vals[: N - 1], ref[: N - 1], rtol=0.0, atol=1e-9)
    assert vals[N - 1] == pytest.approx(ref[N - 1], rel=1e-9, abs=0.0)


def test_eigenvalue_checks_invert_with_the_condensed_factor(monkeypatch):
    opinvs = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        opinvs.append(kwargs.get("OPinv"))
        return eigsh(*args, **kwargs)

    def no_splu(*args, **kwargs):
        raise AssertionError("SuperLU factorization requested")

    monkeypatch.setattr(spla, "eigsh", spy)
    monkeypatch.setattr(spla, "splu", no_splu)
    assert acceptance.criterion_1().passed
    assert len(opinvs) == 4
    assert all(isinstance(op, spla.LinearOperator) for op in opinvs)
