"""Edge-condensed operators, solves and eigenvalue checks against sparse direct references."""

import importlib.util
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphnls import (
    acceptance,
    assemble,
    assemble_ansatz,
    build_graph,
    jacobian,
    peak_template,
    reference_graph,
    refined_mesh,
    uniform_mesh,
)
from graphnls import discrete
from graphnls.discrete import (
    CondensedFactor,
    count_below,
    edge_bands,
)
from graphnls.errors import SolveFailure
from graphnls.solve import linearization_bands
from sparse_reference import free_block, tocsr

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


def _seeded_operator(name, lam=25.0, nodes_per_width=10.0):
    peaks = PEAKS[name]
    spec = peak_template(reference_graph(name), peaks)
    mesh = refined_mesh(spec.graph, lam, peaks, nodes_per_width)
    op = assemble(spec.graph, mesh, lam)
    return op, assemble_ansatz(spec, mesh, lam, 1.0)


def _element_loop_reference(mesh, weight):
    """Stiffness, mass and weighted mass summed element by element."""
    entries = {"S": [], "M": [], "W": []}
    for eid, dofs in mesh.edge_dofs.items():
        lengths = np.diff(mesh.edge_nodes[eid])
        for a, b, h in zip(dofs[:-1], dofs[1:], lengths):
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


def _check_bands_against_element_loop(g, mesh):
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
            tocsr(got).toarray(), ref[key], rtol=0.0, atol=1e-14 * scale
        )


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_bands_match_an_element_loop(name):
    # at lam=0.25, 15 peak widths reach 30 from the peak and cover every
    # edge (t_graph's half-lines end at 20), so each stays a uniform grid
    # at spacing 1
    g = reference_graph(name)
    mesh = refined_mesh(g, 0.25, PEAKS[name][:1], nodes_per_width=2.0)
    assert not mesh.graded
    _check_bands_against_element_loop(g, mesh)


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_graded_bands_match_an_element_loop(name):
    # at lam=3600 every peak edge is longer than its fine zone; the
    # unsplit double tripod's bridge is graded from both ends
    g = reference_graph(name)
    mesh = refined_mesh(g, 3600.0, PEAKS[name], nodes_per_width=1.0)
    assert mesh.graded
    _check_bands_against_element_loop(g, mesh)


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_shifted_solve_matches_sparse_direct_reference(name):
    op, _ = _seeded_operator(name)
    mesh = op.mesh
    free = mesh.free_dofs
    b = np.random.default_rng(1).standard_normal(mesh.ndof)
    A = (tocsr(op.stiffness) + op.lam * tocsr(op.mass))[free][:, free].tocsc()
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
    J = free_block(bands)
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
    J = tocsr(bands)
    assert np.allclose(bands @ d, J @ d, rtol=0.0, atol=1e-12 * abs(J).max())


def _band_bytes(bands):
    return [getattr(bands, f.name).tobytes() for f in fields(bands) if f.name != "mesh"]


@pytest.mark.parametrize("form", ["shifted", "jacobian"])
def test_factor_and_solve_leave_bands_and_right_hand_side_as_they_were(form):
    op, seed = _seeded_operator("figure1")
    # the shifted form holds one off-diagonal as both upper and lower
    bands = op.shifted if form == "shifted" else jacobian(op, 1.0, seed)
    assert (bands.upper is bands.lower) == (form == "shifted")
    before = _band_bytes(bands)
    b = np.random.default_rng(4).standard_normal(op.mesh.ndof)
    b_before = b.tobytes()
    x = CondensedFactor(bands).solve(b)
    assert _band_bytes(bands) == before
    assert b.tobytes() == b_before
    if form == "shifted":
        # a factor of the aliased bands solves as the operator's own does
        assert x.tobytes() == op.factor().solve(b).tobytes()


def test_zero_pivot_raises_solve_failure():
    op, _ = _seeded_operator("tripod")
    with pytest.raises(SolveFailure, match="zero pivot"):
        CondensedFactor(edge_bands(op.mesh))


def _coarse_star_linearization(N):
    """Linearization at the N-star state, on a coarse truncated star."""
    g = build_graph(acceptance._star_description(N, 10.0))
    return acceptance._star_linearization(uniform_mesh(g, 1.0 / 50.0))


def _coarse_graded_star_linearization(N):
    """The same on a coarse graded star: truncated at 25, every edge
    outlasts its fine zone and grows beyond it."""
    g = build_graph(acceptance._star_description(N, 25.0))
    return acceptance._star_linearization(refined_mesh(g, 1.0, ["c"], 50.0))


def _sparse_direct_eigsh(L, M, k):
    """The k eigenvalues of the pencil nearest zero on the free dofs, by
    ARPACK shift-invert with SuperLU, sorted by distance from zero."""
    v0 = np.random.default_rng(11).standard_normal(len(L.mesh.free_dofs))
    vals = spla.eigsh(
        free_block(L),
        k=k,
        M=free_block(M),
        sigma=0.0,
        which="LM",
        v0=v0,
        return_eigenvectors=False,
    )
    return vals[np.argsort(np.abs(vals))]


def _kernel_counts(L, M):
    return [count_below(L, M, sigma) for sigma in acceptance._KERNEL_SHIFTS]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_kernel_eigensolve_finds_every_kernel_mode(N):
    # the kernel has multiplicity N-1; a start block invariant under
    # edge permutations finds only part of it
    L, M = _coarse_star_linearization(N)
    vals, vecs = acceptance._kernel_ritz(L, M, N - 1)
    assert vals.shape == (N - 1,)
    assert np.all(np.abs(vals) < 1e-3)
    assert _kernel_counts(L, M) == [1, 1, N, N]
    assert np.all(vecs[L.mesh.dirichlet_dofs] == 0.0)
    gram = vecs.T @ np.stack([M @ v for v in vecs.T], axis=1)
    assert np.allclose(gram, np.eye(N - 1), rtol=0.0, atol=1e-10)


def _check_kernel_eigenvalues_against_sparse_direct(L, M, N):
    ref = _sparse_direct_eigsh(L, M, N)
    assert int(np.sum(np.abs(ref) < 1e-3)) == N - 1
    # the reference holds every eigenvalue nearer zero than ref[N - 1], so
    # it fixes the counts at the shifts inside that distance
    assert abs(ref[N - 1]) > 1e-2
    far_neg, near_neg, near_pos, far_pos = _kernel_counts(L, M)
    assert near_pos - near_neg == N - 1
    assert far_pos == near_pos and near_neg == far_neg
    vals, _ = acceptance._kernel_ritz(L, M, N - 1)
    assert np.allclose(vals, np.sort(ref[: N - 1]), rtol=0.0, atol=1e-9)
    # the next eigenvalue, bracketed by counts to the reference's 1e-9
    below, above = (
        count_below(L, M, ref[N - 1] * (1.0 + s * 1e-9)) for s in (-1.0, 1.0)
    )
    assert above > below


@pytest.mark.parametrize("N", [3, 5])
def test_kernel_eigenvalues_match_a_sparse_direct_reference(N):
    L, M = _coarse_star_linearization(N)
    assert not L.mesh.graded
    _check_kernel_eigenvalues_against_sparse_direct(L, M, N)


@pytest.mark.parametrize("N", [3, 5])
def test_graded_kernel_eigenvalues_match_a_sparse_direct_reference(N):
    L, M = _coarse_graded_star_linearization(N)
    assert L.mesh.graded
    _check_kernel_eigenvalues_against_sparse_direct(L, M, N)


def test_criterion_1_mesh_keeps_the_fine_spacing_at_the_centre_only():
    mesh = acceptance._kernel_mesh(5)
    # the uniform h = 1/200 grid it replaced has 25,001 unknowns
    assert mesh.ndof <= 16_000
    assert mesh.graded == frozenset(mesh.edge_nodes)
    steps = np.concatenate([np.diff(nodes) for nodes in mesh.edge_nodes.values()])
    assert steps.min() == pytest.approx(1.0 / 200.0, rel=1e-12)
    for edge in mesh.graph.edges:
        assert edge.src == "c"
        assert mesh.end_elements(edge.id)[0] == pytest.approx(1.0 / 200.0, rel=1e-12)


def test_criterion_1_graded_mesh_keeps_the_uniform_mesh_eigenvalues():
    N = 3
    graded = acceptance._kernel_mesh(N)
    uniform = uniform_mesh(graded.graph, 1.0 / 200.0)
    pencils = [acceptance._star_linearization(m) for m in (graded, uniform)]
    (vals, _), (ref, _) = (acceptance._kernel_ritz(L, M, N - 1) for L, M in pencils)
    assert np.allclose(vals, ref, rtol=0.0, atol=1e-12)
    nxt, ref_nxt = (_sparse_direct_eigsh(L, M, N)[N - 1] for L, M in pencils)
    assert nxt == pytest.approx(ref_nxt, rel=2e-8, abs=0.0)
    assert _kernel_counts(*pencils[0]) == _kernel_counts(*pencils[1]) == [1, 1, N, N]


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_criterion_1_meshes_count_one_negative_and_n_minus_1_kernel_eigenvalues(N):
    L, M = acceptance._star_linearization(acceptance._kernel_mesh(N))
    assert _kernel_counts(L, M) == [1, 1, N, N]


def _weyl_shapes():
    """The (n, k) of every `_weyl_vectors` call in criteria 1 and 9."""
    shapes = [(acceptance._kernel_mesh(N).ndof, N - 1) for N in (2, 3, 4, 5)]
    star3 = build_graph(acceptance._star_description(3, 10.0))
    return shapes + [(uniform_mesh(star3, 1.0 / 100.0).ndof, 4)]


def test_weyl_vectors_keep_the_bits_of_the_remainder_form():
    for n, k in _weyl_shapes():
        x = np.arange(1, k + 1)[:, None] * np.arange(n) * acceptance._PHI
        want = x % 1.0 - 0.5
        got = acceptance._weyl_vectors(n, k)
        assert got.shape == (k, n)
        assert got.tobytes() == want.tobytes(), (n, k)


def test_criterion_1_counts_and_iterates_with_the_condensed_factor(monkeypatch):
    factors = []
    solves = []
    factor_init = CondensedFactor.__init__
    factor_solve = CondensedFactor.solve

    def counted_init(self, bands, *args, **kwargs):
        factors.append(bands.mesh.ndof)
        factor_init(self, bands, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        solves.append(None)
        return factor_solve(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK or SuperLU requested")

    monkeypatch.setattr(spla, "eigsh", refuse)
    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(CondensedFactor, "__init__", counted_init)
    monkeypatch.setattr(CondensedFactor, "solve", counted_solve)
    assert acceptance.criterion_1().passed
    # per N: one factor, for the iteration, whose steps each solve once
    # per kernel vector; the counts take their Schur blocks from their
    # own LDL^T factors
    sizes = [acceptance._kernel_mesh(N).ndof for N in (2, 3, 4, 5)]
    assert factors == sizes
    assert len(solves) == acceptance._KERNEL_STEPS * sum(N - 1 for N in (2, 3, 4, 5))


SMALL_LAM = 400.0


def _sturm_count_reference(bands, mass, sigma):
    """count_below with the interior's Sturm recurrence as a Python loop,
    d_i = a_i - u_i l_i / d_i-1, counting its negative pivots."""
    shifted = bands.plus(mass, -sigma)
    couplings = [0.0] + (shifted.upper * shifted.lower).tolist()
    negative, pivot = 0, 1.0
    for a, coupling in zip(shifted.diag.tolist(), couplings):
        pivot = a - coupling / pivot
        negative += pivot < 0.0
    schur = CondensedFactor(shifted).schur
    return negative + int(np.count_nonzero(np.linalg.eigvalsh(schur) < 0.0))


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_count_below_matches_a_dense_eigensolve(monkeypatch, name):
    # the linearization at the seed on a small graded mesh
    op, seed = _seeded_operator(name, SMALL_LAM, nodes_per_width=2.0)
    L, M = linearization_bands(op, 1.0, seed), op.mass
    assert L.mesh.graded and L.mesh.ndof <= 1000
    dense = scipy.linalg.eigh(
        free_block(L).toarray(), free_block(M).toarray(), eigvals_only=True
    )
    pttrf, calls = discrete.lapack.dpttrf, []

    def counted(d, e, **kwargs):
        calls.append(d.size)
        return pttrf(d, e, **kwargs)

    monkeypatch.setattr(discrete.lapack, "dpttrf", counted)
    # below everything, between the one negative eigenvalue per peak
    # (about -2.85 lam) and the near-kernel ones (about 0.05 lam on this
    # coarse mesh), above those, and twice in the continuum above lam
    shifts = SMALL_LAM * np.array([-3.0, -1.0, -0.01, 0.01, 0.1, 0.5, 1.7])
    counts = []
    for sigma in shifts:
        del calls[:]
        counts.append(count_below(L, M, sigma))
        assert counts[-1] == _sturm_count_reference(L, M, sigma), sigma
    for sigma, count in zip(shifts, counts):
        assert np.min(np.abs(dense - sigma)) > 1e-3 * SMALL_LAM
        assert count == int(np.sum(dense < sigma)), sigma
    assert counts[0] == 0 and 0 < counts[1] < counts[4] < counts[-1] < len(dense)
    # in the continuum pttrf stops at each of many negative pivots and
    # resumes after it, each call on what is left of the interior
    assert len(calls) > 10
    assert calls == sorted(calls, reverse=True)


def test_count_below_is_exact_next_to_an_interior_eigenvalue():
    # sigma 1e-9 from an eigenvalue of the edge interiors' block leaves
    # a pivot near zero, and the Schur block taken from the same LDL^T
    # factor nearly singular; the count must still be the dense one
    op, seed = _seeded_operator("figure1", SMALL_LAM, nodes_per_width=2.0)
    L, M = linearization_bands(op, 1.0, seed), op.mass
    Lf, Mf = free_block(L).toarray(), free_block(M).toarray()
    dense = scipy.linalg.eigh(Lf, Mf, eigvals_only=True)
    nfv = len(L.mesh.layout.free_vertices)
    interior = scipy.linalg.eigh(Lf[nfv:, nfv:], Mf[nfv:, nfv:], eigvals_only=True)
    ev = interior[len(interior) // 2]
    for sigma in (ev * (1.0 - 1e-9), ev * (1.0 + 1e-9)):
        assert count_below(L, M, sigma) == int(np.sum(dense < sigma)), sigma


def test_count_below_counts_a_one_pivot_tail():
    # a negative last-but-one pivot leaves pttrf a single pivot to resume
    # on, which its f2py wrapper refuses; count_below tests its sign
    op, _ = _seeded_operator("tripod")
    counts = []
    for last in (-1e3, 1e3):
        bands = replace(op.shifted, diag=op.shifted.diag.copy())
        bands.diag[-2:] = (-1e3, last)
        counts.append(count_below(bands, op.mass, 0.0))
        assert counts[-1] == _sturm_count_reference(bands, op.mass, 0.0)
    assert counts[0] == counts[1] + 1


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_criterion_1_counts_match_the_python_sturm_recurrence(N):
    L, M = acceptance._star_linearization(acceptance._kernel_mesh(N))
    for sigma in acceptance._KERNEL_SHIFTS:
        assert count_below(L, M, sigma) == _sturm_count_reference(L, M, sigma)


def test_count_below_refuses_nonsymmetric_bands():
    op, seed = _seeded_operator("tripod")
    J = jacobian(op, 1.0, seed)
    assert not np.array_equal(J.upper, J.lower)
    with pytest.raises(ValueError, match="symmetric"):
        count_below(J, op.mass, 0.0)
    # the same bands made symmetric count
    sym = replace(J, lower=J.upper, head_col=J.head_row, tail_col=J.tail_row)
    assert count_below(sym, op.mass, 0.0) == _sturm_count_reference(sym, op.mass, 0.0)


def test_count_below_names_the_shift_at_a_zero_pivot():
    op, _ = _seeded_operator("tripod")
    # every leading block of mass - 1.0 * mass is zero
    with pytest.raises(SolveFailure, match="sigma=1.0"):
        count_below(op.mass, op.mass, 1.0)
    # a zero last pivot, from pttrf's own update d_i+1 -= (e_i / d_i) e_i:
    # at sigma = 0 the shifted bands are the bands
    bands = replace(op.shifted, diag=op.shifted.diag.copy())
    diag, upper = bands.diag.tolist(), bands.upper.tolist()
    pivot = diag[0]
    for a, e in zip(diag[1:-1], upper[:-1]):
        pivot = a - (e / pivot) * e
    bands.diag[-1] = (upper[-1] / pivot) * upper[-1]
    with pytest.raises(SolveFailure, match="sigma=0.0"):
        count_below(bands, op.mass, 0.0)


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_lapack_fallback_gives_bitwise_equal_factors_and_solves(monkeypatch, name):
    direct = discrete._load_lapack()
    if direct.__name__ == "scipy.linalg.lapack":
        pytest.skip("scipy's _flapack extension does not load by file path here")

    def refuse(*args, **kwargs):
        raise ImportError("direct load refused")

    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "spec_from_file_location", refuse)
        fallback = discrete._load_lapack()
    assert fallback.__name__ == "scipy.linalg.lapack"
    op, seed = _seeded_operator(name)
    bands = jacobian(op, 1.0, seed)
    b = np.random.default_rng(6).standard_normal(op.mesh.ndof)
    outputs = []
    for module in (direct, fallback):
        monkeypatch.setattr(discrete, "lapack", module)
        factor = CondensedFactor(bands)
        arrays = (*factor._tri, *factor._schur, factor.solve(b))
        outputs.append([a.tobytes() for a in arrays])
    assert outputs[0] == outputs[1]
