"""Meshes and edge-condensed operators for the Kirchhoff Laplacian on a metric graph.

Discretization is piecewise-linear finite elements per edge with one
shared unknown per vertex, so continuity is built in and the Kirchhoff
flux balance is the natural condition of the weak form.  Truncated
half-line endpoints carry a homogeneous Dirichlet condition, applied by
restriction to the free degrees of freedom.

Every operator built here (stiffness, mass, weighted mass, and the
Newton Jacobian made from them) is tridiagonal on each edge's interior
nodes and couples edges only through the vertex unknowns.  `EdgeBands`
stores exactly that, and is the only form an operator takes: from one
element routine (`edge_bands`), the vertex diagonal, the three interior
bands with the edges concatenated, and four vertex couplings per edge.
`CondensedFactor` solves with it in O(ndof): one pivoted LAPACK
tridiagonal factorization (`?gttrf`) of all edge interiors at once,
then a dense Schur complement on the free vertex unknowns.  The
eigenvalue checks shift-invert through the same factor
(`shift_invert_eigsh`).  Bands become a sparse matrix only on request,
for comparison against sparse-direct references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import IndefiniteOperator, NegativeForm, SolveFailure
from .graphs import MetricGraph


@dataclass(frozen=True)
class EdgeLayout:
    """Index arrays placing a mesh's elements in the condensed bands.

    Vertex unknowns come first; interior unknowns follow edge after
    edge, so the edges' interiors concatenate into one tridiagonal
    system whose off-diagonals vanish between edges.  Element arrays
    list the edges' elements in the same order.  Every edge has at
    least three interior nodes, so its first element joins its source
    vertex to its first interior node (the head) and its last element
    joins its last interior node to its target vertex (the tail).
    """

    nv: int  # number of vertex unknowns
    left: np.ndarray  # global dof at the start of each element
    right: np.ndarray  # global dof at the end of each element
    h: np.ndarray  # length of each element
    head: np.ndarray  # index of each edge's first element
    tail: np.ndarray  # index of each edge's last element
    src: np.ndarray  # source vertex of each edge
    dst: np.ndarray  # target vertex of each edge
    first: np.ndarray  # interior position of each edge's first interior node
    last: np.ndarray  # interior position of each edge's last interior node
    sizes: np.ndarray  # interior nodes per edge
    inner: np.ndarray  # elements with both ends interior
    inner_pos: np.ndarray  # their position in the interior off-diagonals
    free_vertices: np.ndarray  # vertex unknowns without a Dirichlet condition


@dataclass(frozen=True)
class Mesh:
    """Per-edge uniform grids with shared vertex unknowns.

    `edge_nodes[eid]` holds the node coordinates on edge eid including
    both endpoints; `edge_dofs[eid]` the matching global indices.  The
    two endpoint entries are the vertex dofs, so a self-loop's ends map
    to the same unknown.
    """

    graph: MetricGraph
    edge_nodes: dict[str, np.ndarray]
    edge_dofs: dict[str, np.ndarray]
    vertex_dofs: dict[str, int]
    ndof: int

    @property
    def dirichlet_dofs(self) -> np.ndarray:
        return np.array(
            sorted(self.vertex_dofs[v] for v in self.graph.dirichlet_vertices),
            dtype=int,
        )

    @property
    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.ndof, dtype=bool)
        mask[self.dirichlet_dofs] = False
        return np.nonzero(mask)[0]

    def edge_spacing(self, eid: str) -> float:
        nodes = self.edge_nodes[eid]
        return float(nodes[1] - nodes[0])

    @cached_property
    def layout(self) -> EdgeLayout:
        nv = len(self.vertex_dofs)
        dofs = list(self.edge_dofs.values())
        interior = np.concatenate([d[1:-1] for d in dofs])
        if not np.array_equal(interior, np.arange(nv, self.ndof)):
            raise ValueError("interior dofs must follow the vertices edge by edge")
        n_elem = np.array([len(d) - 1 for d in dofs])
        tail = np.cumsum(n_elem) - 1
        head = tail - n_elem + 1
        left = np.concatenate([d[:-1] for d in dofs])
        right = np.concatenate([d[1:] for d in dofs])
        h = np.repeat([self.edge_spacing(eid) for eid in self.edge_dofs], n_elem)
        inner = np.nonzero((left >= nv) & (right >= nv))[0]
        sizes = n_elem - 1
        last = np.cumsum(sizes) - 1
        free_vertices = self.free_dofs[self.free_dofs < nv]
        return EdgeLayout(
            nv=nv,
            left=left,
            right=right,
            h=h,
            head=head,
            tail=tail,
            src=left[head],
            dst=right[tail],
            first=last - sizes + 1,
            last=last,
            sizes=sizes,
            inner=inner,
            inner_pos=left[inner] - nv,
            free_vertices=free_vertices,
        )


def build_mesh(g: MetricGraph, edge_h: dict[str, float] | float) -> Mesh:
    """Mesh with target spacing per edge (>= 3 interior nodes each)."""
    vertex_dofs = {v: i for i, v in enumerate(g.vertices)}
    next_dof = len(g.vertices)
    edge_nodes: dict[str, np.ndarray] = {}
    edge_dofs: dict[str, np.ndarray] = {}
    for e in g.edges:
        h = edge_h[e.id] if isinstance(edge_h, dict) else edge_h
        n = max(4, int(math.ceil(e.length / h)))
        nodes = np.linspace(0.0, e.length, n + 1)
        dofs = np.empty(n + 1, dtype=int)
        dofs[0] = vertex_dofs[e.src]
        dofs[-1] = vertex_dofs[e.dst]
        dofs[1:-1] = np.arange(next_dof, next_dof + n - 1)
        next_dof += n - 1
        edge_nodes[e.id] = nodes
        edge_dofs[e.id] = dofs
    return Mesh(g, edge_nodes, edge_dofs, vertex_dofs, next_dof)


def uniform_mesh(g: MetricGraph, h: float) -> Mesh:
    return build_mesh(g, h)


def refined_mesh(
    g: MetricGraph,
    lam: float,
    peaks: list[str],
    nodes_per_width: float,
) -> Mesh:
    """Mesh resolving the peak scale: spacing 1/(nodes_per_width*sqrt(lam))
    on edges incident to a peak, five times coarser elsewhere."""
    h_fine = 1.0 / (nodes_per_width * math.sqrt(lam))
    peak_set = set(peaks)
    edge_h = {}
    for e in g.edges:
        touches = e.src in peak_set or e.dst in peak_set
        edge_h[e.id] = h_fine if touches else 5.0 * h_fine
    return build_mesh(g, edge_h)


@dataclass
class DiscreteField:
    """Nodal samples of a function on the graph (one value per dof)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.ndof,):
            raise ValueError(
                f"expected {self.mesh.ndof} values, got {self.values.shape}"
            )

    def copy(self) -> "DiscreteField":
        return DiscreteField(self.mesh, self.values.copy())


def positive_power(v: np.ndarray, p: float) -> np.ndarray:
    """np.maximum(v, 0.0) ** p for p > 0, bit for bit, avoiding slow pow calls.

    A bound state decays like exp(-sqrt(lam) * t) away from its peaks,
    so most nodal values of a sharp state are tiny or rounding-negative:
    at lam = 1600 on star5, 60% lie below 1e-100 of the peak.  pow
    computes an underflowing power, and a power of zero, on a slow
    special-case path: on that lam = 1600 state, numpy's AVX-512 pow
    took 19 ms for the plain expression and 4.5 ms here.  Every entry whose
    power is known to be +0.0 therefore takes the power of 1.0 instead,
    and is set to +0.0 afterwards:

    - v < 0: the positive part is +0.0, and pow(+0.0, p) = +0.0;
    - 0 < v <= 10**(-330/p): v**p <= 1e-330 up to the rounding of the
      bound, far below 2**-1075 (about 2.5e-324), half the smallest
      subnormal, so the rounded power is +0.0.

    Every other entry (NaN, +-0.0, +inf and the rest) is raised to p by
    the same `**` at the same position as before, so its bits are
    pow's.  For p near 1 the bound underflows to 0.0, and only the
    negative entries are replaced.
    """
    m = np.maximum(v, 0.0)
    zero = (v <= 10.0 ** (-330.0 / p)) & (v != 0.0)
    m[zero] = 1.0
    m **= p
    m[zero] = 0.0
    return m


@dataclass(frozen=True)
class EdgeBands:
    """An operator that is tridiagonal on each edge's interior.

    Interior arrays follow the mesh layout: `diag[i]` is A[i, i],
    `upper[i]` is A[i, i+1] and `lower[i]` is A[i+1, i] in interior
    numbering, zero where i and i+1 lie on different edges.  Per edge,
    `head_row`/`head_col` are A[src, first] and A[first, src], and
    `tail_row`/`tail_col` are A[dst, last] and A[last, dst].
    """

    mesh: Mesh
    vertex_diag: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    head_row: np.ndarray
    head_col: np.ndarray
    tail_row: np.ndarray
    tail_col: np.ndarray

    def _arrays(self):
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}

    def plus(self, other: "EdgeBands", scale: float = 1.0) -> "EdgeBands":
        """self + scale * other."""
        theirs = other._arrays()
        return replace(
            self, **{k: a + scale * theirs[k] for k, a in self._arrays().items()}
        )

    def minus_scaled_columns(self, other: "EdgeBands", s: np.ndarray) -> "EdgeBands":
        """self - other @ diag(s) for a nodal vector s, one product per band.

        Bit for bit self.plus(other @ diag(s), -1.0): negation is exact,
        and adding a negated product is subtracting it.
        """
        lay = self.mesh.layout
        sv, si = s[: lay.nv], s[lay.nv :]

        def minus(mine, theirs, scale):
            out = np.multiply(theirs, scale)
            return np.subtract(mine, out, out=out)

        return replace(
            self,
            vertex_diag=minus(self.vertex_diag, other.vertex_diag, sv),
            diag=minus(self.diag, other.diag, si),
            upper=minus(self.upper, other.upper, si[1:]),
            lower=minus(self.lower, other.lower, si[:-1]),
            head_row=minus(self.head_row, other.head_row, si[lay.first]),
            head_col=minus(self.head_col, other.head_col, sv[lay.src]),
            tail_row=minus(self.tail_row, other.tail_row, si[lay.last]),
            tail_col=minus(self.tail_col, other.tail_col, sv[lay.dst]),
        )

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        lay = self.mesh.layout
        xv, xi = x[: lay.nv], x[lay.nv :]
        y = np.empty(self.mesh.ndof)
        yv, yi = y[: lay.nv], y[lay.nv :]
        np.multiply(self.diag, xi, out=yi)
        coupled = np.multiply(self.upper, xi[1:])
        yi[:-1] += coupled
        yi[1:] += np.multiply(self.lower, xi[:-1], out=coupled)
        yi[lay.first] += self.head_col * xv[lay.src]
        yi[lay.last] += self.tail_col * xv[lay.dst]
        np.multiply(self.vertex_diag, xv, out=yv)
        yv += np.bincount(lay.src, self.head_row * xi[lay.first], minlength=lay.nv)
        yv += np.bincount(lay.dst, self.tail_row * xi[lay.last], minlength=lay.nv)
        return y

    def tocsr(self) -> sp.csr_matrix:
        """The operator as a sparse matrix, for sparse-direct references."""
        lay = self.mesh.layout
        nv, n = lay.nv, self.mesh.ndof
        diag = np.arange(n)
        up = lay.inner_pos + nv
        first, last = lay.first + nv, lay.last + nv
        rows = (diag, up, up + 1, lay.src, first, lay.dst, last)
        cols = (diag, up + 1, up, first, lay.src, last, lay.dst)
        vals = (
            np.concatenate([self.vertex_diag, self.diag]),
            self.upper[lay.inner_pos],
            self.lower[lay.inner_pos],
            self.head_row,
            self.head_col,
            self.tail_row,
            self.tail_col,
        )
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )


def edge_bands(
    mesh: Mesh, stiffness: float = 0.0, weight: float | np.ndarray = 0.0
) -> EdgeBands:
    """Bands of the form stiffness * (u', v') + (w u, v), element by element.

    The weight w is a constant or a nodal array interpolated linearly;
    the element integrals are exact for piecewise linear w, u and v.
    """
    lay = mesh.layout
    h = lay.h
    if np.ndim(weight) == 0:
        # element matrices (1/h)[[1,-1],[-1,1]] and (h/6)[[2,1],[1,2]]
        start = end = stiffness / h + weight * h / 3.0
        off = -stiffness / h + weight * h / 6.0
    else:
        # element integrals of w*phi_i*phi_j with w linear on the element
        wl, wr = weight[lay.left], weight[lay.right]
        start = stiffness / h + h * (3.0 * wl + wr) / 12.0
        end = stiffness / h + h * (wl + 3.0 * wr) / 12.0
        off = -stiffness / h + h * (wl + wr) / 12.0
    nv = lay.nv
    band = np.zeros(mesh.ndof - nv - 1)
    band[lay.inner_pos] = off[lay.inner]
    return EdgeBands(
        mesh=mesh,
        vertex_diag=np.bincount(lay.src, start[lay.head], minlength=nv)
        + np.bincount(lay.dst, end[lay.tail], minlength=nv),
        diag=end[lay.right >= nv] + start[lay.left >= nv],
        upper=band,
        lower=band,
        head_row=off[lay.head],
        head_col=off[lay.head],
        tail_row=off[lay.tail],
        tail_col=off[lay.tail],
    )


class CondensedFactor:
    """Solver for an `EdgeBands` operator on the free dofs.

    The edge interiors go first: one pivoted tridiagonal LU of all of
    them at once (LAPACK gttrf), solved for the unit columns at every
    edge's first and last interior node.  That leaves the dense Schur
    complement on the free vertex unknowns, factored with getrf.  A
    solve costs O(ndof) and returns zero at the Dirichlet dofs.  Raises
    SolveFailure on a zero pivot or a singular vertex block.

    With overwrite_interior, gttrf factors bands.lower, .diag and .upper
    in place instead of copying them first; they must be three distinct
    arrays that nothing reads afterwards, as with a fresh Jacobian.
    """

    def __init__(self, bands: EdgeBands, overwrite_interior: bool = False):
        lay = bands.mesh.layout
        self._bands = bands
        dl, d, du, du2, ipiv, info = lapack.dgttrf(
            bands.lower,
            bands.diag,
            bands.upper,
            overwrite_dl=overwrite_interior,
            overwrite_d=overwrite_interior,
            overwrite_du=overwrite_interior,
        )
        if info != 0:
            raise SolveFailure(f"zero pivot at interior dof {lay.nv + info - 1}")
        self._tri = (dl, d, du, du2, ipiv)
        units = np.zeros((d.size, 2), order="F")
        units[lay.first, 0] = 1.0
        units[lay.last, 1] = 1.0
        z, _ = lapack.dgttrs(*self._tri, units, overwrite_b=True)
        self._from_head, self._from_tail = z[:, 0], z[:, 1]
        schur = np.diag(bands.vertex_diag)
        src, dst, first, last = lay.src, lay.dst, lay.first, lay.last
        zh, zt = self._from_head, self._from_tail
        for rows, cols, coupling in (
            (src, src, bands.head_row * zh[first] * bands.head_col),
            (src, dst, bands.head_row * zt[first] * bands.tail_col),
            (dst, src, bands.tail_row * zh[last] * bands.head_col),
            (dst, dst, bands.tail_row * zt[last] * bands.tail_col),
        ):
            np.add.at(schur, (rows, cols), -coupling)
        free = lay.free_vertices
        lu, piv, info = lapack.dgetrf(schur[np.ix_(free, free)])
        if info != 0 or not np.all(np.isfinite(lu)):
            raise SolveFailure("singular vertex Schur complement")
        self._schur = (lu, piv)

    def solve(self, b: np.ndarray) -> np.ndarray:
        bands = self._bands
        lay = bands.mesh.layout
        nv = lay.nv
        x = np.array(b, dtype=float)
        # the interior solve runs in place on x's interior slice; y must be
        # that slice, since the corrections below go into y and x returns
        y, _ = lapack.dgttrs(*self._tri, x[nv:], overwrite_b=True)
        if not np.shares_memory(y, x):  # f2py copied b after all
            x[nv:] = y
            y = x[nv:]
        rhs = (
            b[:nv]
            - np.bincount(lay.src, bands.head_row * y[lay.first], minlength=nv)
            - np.bincount(lay.dst, bands.tail_row * y[lay.last], minlength=nv)
        )
        xv = x[:nv]
        xv[:] = 0.0
        xv[lay.free_vertices] = lapack.dgetrs(*self._schur, rhs[lay.free_vertices])[0]
        correction = np.repeat(bands.head_col * xv[lay.src], lay.sizes)
        y -= np.multiply(self._from_head, correction, out=correction)
        correction = np.repeat(bands.tail_col * xv[lay.dst], lay.sizes)
        y -= np.multiply(self._from_tail, correction, out=correction)
        return x


@dataclass
class KirchhoffOperator:
    """The weak forms of the shifted operator -u'' + lam*u on a mesh.

    Holds the stiffness, mass and shifted (stiffness + lam*mass) forms
    as edge bands; the factorization of the shifted form on the free
    dofs is cached on first use.
    """

    mesh: Mesh
    lam: float
    stiffness: EdgeBands = field(repr=False)
    mass: EdgeBands = field(repr=False)
    shifted: EdgeBands = field(init=False, repr=False)
    _factor: CondensedFactor | None = field(default=None, repr=False)

    def __post_init__(self):
        self.shifted = self.stiffness.plus(self.mass, self.lam)

    def factor(self) -> CondensedFactor:
        if self._factor is None:
            self._factor = CondensedFactor(self.shifted)
        return self._factor


def assemble(g: MetricGraph, mesh: Mesh, lam: float) -> KirchhoffOperator:
    """Assemble the stiffness/mass pair on the mesh at the given shift.

    The shift must be positive and finite: then the shifted form is
    positive definite on every graph, compact or truncated.
    """
    if mesh.graph is not g:
        raise ValueError("mesh was built for a different graph")
    if not (math.isfinite(lam) and lam > 0.0):
        raise IndefiniteOperator(f"shift must be positive and finite, got {lam}")
    return KirchhoffOperator(
        mesh,
        float(lam),
        edge_bands(mesh, stiffness=1.0),
        edge_bands(mesh, weight=1.0),
    )


def resolvent_apply(op: KirchhoffOperator, g_rhs: DiscreteField) -> DiscreteField:
    """Solve the weak problem -v'' + lam*v = g with Kirchhoff coupling.

    The right-hand side enters through the mass matrix; Dirichlet dofs
    (truncation endpoints) stay pinned at zero.
    """
    pinned = op.mesh.dirichlet_dofs
    rhs = op.mass @ g_rhs.values
    rhs[pinned] = 0.0
    x = op.factor().solve(rhs)
    resid = op.shifted @ x - rhs
    resid[pinned] = 0.0
    denom = max(float(np.linalg.norm(rhs)), 1e-300)
    if float(np.linalg.norm(resid)) / denom > 1e-10:
        raise SolveFailure("resolvent residual above 1e-10 relative")
    return DiscreteField(op.mesh, x)


def lambda_norm(
    op: KirchhoffOperator, u: DiscreteField, shifted_u: np.ndarray | None = None
) -> float:
    """sqrt(u' . u' + lam * u . u) in the assembled quadrature.

    shifted_u, if the caller has it, is op.shifted @ u.values.
    """
    v = u.values
    if shifted_u is None:
        shifted_u = op.shifted @ v
    q = float(v @ shifted_u)
    if q < 0.0 and q < -1e-12 * max(1.0, float(v @ (op.mass @ v))):
        raise NegativeForm(f"shifted form returned {q}")
    return math.sqrt(max(q, 0.0))


def dual_residual_norm(op: KirchhoffOperator, r: np.ndarray) -> float:
    """Norm of a weak-form residual measured through the shifted inverse.

    This is the natural norm of the Riesz representative of r: with
    A = S + lam*M on the free dofs, returns sqrt(r^T A^{-1} r).  The
    solve is zero at the Dirichlet dofs, so their entries of r drop out.
    """
    y = op.factor().solve(r)
    return math.sqrt(max(float(r @ y), 0.0))


def lambda_inner(op: KirchhoffOperator, u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ (op.shifted @ v))


def shift_invert_eigsh(
    bands: EdgeBands,
    mass: EdgeBands,
    k: int,
    sigma: float,
    tol: float,
    ncv: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of (bands, mass) nearest sigma, on the free dofs.

    ARPACK shift-invert with a `CondensedFactor` of bands - sigma*mass as
    the inverse and the mass bands as the inner product, so each step
    costs O(ndof).  The start vector is pseudo-random: a single-vector
    Krylov method sees one direction of a repeated eigenvalue, and the
    others reach it only through rounding.  Identical edges are
    eliminated by identical arithmetic, so a start vector invariant
    under edge permutations would keep every Krylov vector invariant
    and never find the modes that sum to zero across the edges.

    Returns eigenvalues sorted by distance from sigma and M-normalized
    full-length eigenvectors, zero at the Dirichlet dofs.  tol and ncv
    are ARPACK's.
    """
    mesh = bands.mesh
    n = mesh.ndof
    factor = CondensedFactor(bands.plus(mass, -sigma))
    v0 = np.random.default_rng(0).standard_normal(n)
    v0[mesh.dirichlet_dofs] = 0.0
    vals, vecs = spla.eigsh(
        spla.LinearOperator((n, n), matvec=bands.__matmul__, dtype=float),
        k=k,
        M=spla.LinearOperator((n, n), matvec=mass.__matmul__, dtype=float),
        sigma=sigma,
        OPinv=spla.LinearOperator((n, n), matvec=factor.solve, dtype=float),
        which="LM",
        v0=v0,
        tol=tol,
        ncv=ncv,
    )
    order = np.argsort(np.abs(vals - sigma))
    return vals[order], vecs[:, order]


def one_sided_derivative(values: np.ndarray, h: float, at_start: bool) -> float:
    """Outgoing first derivative at an edge end, O(h^2) stencil."""
    v = np.asarray(values, dtype=float)
    if at_start:
        return float((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h))
    return float((-3.0 * v[-1] + 4.0 * v[-2] - v[-3]) / (2.0 * h))


def kirchhoff_flux(mesh: Mesh, u: DiscreteField) -> dict[str, float]:
    """Sum of outgoing derivatives at each vertex (discrete flux balance)."""
    out: dict[str, float] = {}
    for v in mesh.graph.vertices:
        total = 0.0
        for e, away in mesh.graph.incident(v):
            vals = u.values[mesh.edge_dofs[e.id]]
            h = mesh.edge_spacing(e.id)
            total += one_sided_derivative(vals, h, at_start=away)
        out[v] = total
    return out
