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
eigenvalue checks count eigenvalues by inertia over the same split
(`count_below`: the interior's Sturm pivots from LAPACK's symmetric
tridiagonal factorization `?pttrf`, resumed past each negative pivot,
plus the eigenvalues of the Schur complement that the same unpivoted
factor gives) and invert through the pivoted factor.

LAPACK is called through one narrow seam, `lapack`: `gttrf(lower, diag,
upper)` and `getrf(a)` copy their inputs into a factor that owns them,
`(arrays, handle)`, and return it with LAPACK's info; `gttrs(factor, b)`,
`getrs(factor, b)`, `pttrf(d, e)` and `pttrs(d, e, b)` work in place on
arrays the caller owns and return info.  `_NumpyLapack` implements it in
the OpenBLAS that numpy itself links, through ctypes, so that one BLAS
library and one thread pool serve the process and scipy is never
imported.  Where numpy carries no such library, `_F2pyLapack` implements
it with scipy's compiled f2py wrappers (`_load_flapack`).
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NegativeForm, SolveFailure
from .graphs import MetricGraph, vertex_distances


_CHARS = ctypes.c_char * 0
_NO_TRANSPOSE = ctypes.byref(ctypes.c_char(b"N"))
_LENGTH_1 = ctypes.c_size_t(1)  # TRANS's hidden length


def _int(n: int):
    """An integer argument: an int64, by reference."""
    return ctypes.byref(ctypes.c_int64(n))


_ONE = _int(1)


def _pointer(a: np.ndarray) -> ctypes.c_void_p:
    """An array argument: the data address of a writable Fortran-ordered
    array, read through a zero-length ctypes view of a.T, which is
    C-ordered, in 0.6 us against 1.8 us for a.ctypes.data."""
    return ctypes.c_void_p(ctypes.addressof(_CHARS.from_buffer(a.T)))


def _address(name: str, a: np.ndarray, rows: int) -> ctypes.c_void_p:
    """The address of an array the caller owns, refused unless a is a
    writable Fortran-ordered float64 array of 1 or 2 dimensions and rows
    rows: LAPACK reads and writes through it unchecked."""
    flags = a.flags
    if not (a.dtype == np.float64 and flags.f_contiguous and flags.writeable) or (
        a.ndim not in (1, 2) or a.shape[0] != rows
    ):
        raise ValueError(
            f"{name}: needs a writable Fortran-ordered float64 array of {rows} "
            f"rows, got {a.dtype} of shape {a.shape}"
        )
    return _pointer(a)


def _columns(b: np.ndarray):
    """A right-hand side's column count (NRHS), by reference."""
    return _ONE if b.ndim == 1 else _int(b.shape[1])


class _NumpyLapack:
    """The seam in the ILP64 OpenBLAS that numpy itself calls, through ctypes.

    Every integer argument and every pivot is int64, passed by reference
    as Fortran takes it, and the solves pass TRANS with Fortran's hidden
    length.  The pivots are LAPACK's own, 1-based from dgetrf too.  A
    factor's handle is n, n by reference and the addresses of its arrays,
    read once, so a solve reads only its right-hand side's address: 3.3
    us a dgttrs call at n = 50, against 1.5 us for f2py.  For the same
    reason the routines declare no argtypes, whose per-argument
    conversion cost about 1 us of each 12-argument call: every argument
    is passed as a ctypes object of its C type instead, a c_int64 or
    c_char by reference (`_int`), a c_void_p (`_pointer`) or a c_size_t.
    """

    def __init__(self, lib: ctypes.CDLL, symbol: str):
        def routine(name):
            f = getattr(lib, symbol.format(name))
            f.restype = None
            return f

        self._gttrf = routine("dgttrf")
        self._gttrs = routine("dgttrs")
        self._getrf = routine("dgetrf")
        self._getrs = routine("dgetrs")
        self._pttrf = routine("dpttrf")
        self._pttrs = routine("dpttrs")

    @staticmethod
    def _factor(arrays, n: int):
        """A factor of n rows owning arrays, the last of them its pivots."""
        return arrays, (n, _int(n), [_pointer(a) for a in arrays])

    def gttrf(self, lower, diag, upper):
        dl, d, du = (np.array(a, dtype=np.float64) for a in (lower, diag, upper))
        n = d.size
        if d.ndim != 1 or not dl.shape == du.shape == (n - 1,):
            raise ValueError(f"gttrf: band shapes {dl.shape}, {d.shape}, {du.shape}")
        pivots = np.empty(n, dtype=np.int64)
        factor = self._factor((dl, d, du, np.empty(max(n - 2, 0)), pivots), n)
        _, (_, n_ref, addresses) = factor
        info = ctypes.c_int64()
        self._gttrf(n_ref, *addresses, ctypes.byref(info))
        return factor, info.value

    def gttrs(self, factor, b) -> int:
        _, (n, n_ref, addresses) = factor
        b_at = _address("gttrs", b, n)
        info = ctypes.c_int64()
        self._gttrs(
            _NO_TRANSPOSE, n_ref, _columns(b), *addresses, b_at, n_ref,
            ctypes.byref(info), _LENGTH_1,
        )
        return info.value

    def getrf(self, a):
        lu = np.array(a, dtype=np.float64, order="F")
        if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
            raise ValueError(f"getrf: expected a square matrix, got shape {lu.shape}")
        n = lu.shape[0]
        factor = self._factor((lu, np.empty(n, dtype=np.int64)), n)
        _, (_, n_ref, (lu_at, piv_at)) = factor
        info = ctypes.c_int64()
        self._getrf(n_ref, n_ref, lu_at, n_ref, piv_at, ctypes.byref(info))
        return factor, info.value

    def getrs(self, factor, b) -> int:
        _, (n, n_ref, (lu_at, piv_at)) = factor
        b_at = _address("getrs", b, n)
        info = ctypes.c_int64()
        self._getrs(
            _NO_TRANSPOSE, n_ref, _columns(b), lu_at, n_ref, piv_at, b_at, n_ref,
            ctypes.byref(info), _LENGTH_1,
        )
        return info.value

    def pttrf(self, d, e) -> int:
        n = d.size
        d_at, e_at = _address("pttrf", d, n), _address("pttrf", e, n - 1)
        info = ctypes.c_int64()
        self._pttrf(_int(n), d_at, e_at, ctypes.byref(info))
        return info.value

    def pttrs(self, d, e, b) -> int:
        n = d.size
        d_at, e_at = _address("pttrs", d, n), _address("pttrs", e, n - 1)
        b_at, n_ref = _address("pttrs", b, n), _int(n)
        info = ctypes.c_int64()
        self._pttrs(n_ref, _columns(b), d_at, e_at, b_at, n_ref, ctypes.byref(info))
        return info.value


def _in_place(a: np.ndarray, x: np.ndarray, info: int) -> int:
    """info, once x, f2py's result for a, is in a: written into it where
    f2py returned x in a copy."""
    if x is not a:
        a[...] = x
    return info


class _F2pyLapack:
    """The seam over a module of scipy's f2py LAPACK wrappers.

    f2py's factorizations copy their inputs, and its own pivots (0-based
    from dgetrf) go back to its solves; a factor's handle is None.  Under
    its overwrite flags it works in place, but returns a copy for an
    array that is not a writable Fortran-ordered float64 one, so such a
    result is written back (`_in_place`).  Its dpttrf refuses an empty
    e, so the one pivot at n = 1 is tested here, as LAPACK tests it.
    """

    def __init__(self, module):
        self.module = module

    def gttrf(self, lower, diag, upper):
        *arrays, info = self.module.dgttrf(lower, diag, upper)
        return (tuple(arrays), None), info

    def gttrs(self, factor, b) -> int:
        return _in_place(b, *self.module.dgttrs(*factor[0], b, overwrite_b=True))

    def getrf(self, a):
        lu, piv, info = self.module.dgetrf(a)
        return ((lu, piv), None), info

    def getrs(self, factor, b) -> int:
        return _in_place(b, *self.module.dgetrs(*factor[0], b, overwrite_b=True))

    def pttrf(self, d, e) -> int:
        if d.size == 1:
            return int(d[0] <= 0.0)
        pd, pe, info = self.module.dpttrf(d, e, overwrite_d=True, overwrite_e=True)
        _in_place(e, pe, info)
        return _in_place(d, pd, info)

    def pttrs(self, d, e, b) -> int:
        return _in_place(b, *self.module.dpttrs(d, e, b, overwrite_b=True))


def _numpy_lapack() -> _NumpyLapack | None:
    """The seam in the OpenBLAS that numpy's own linear algebra calls, or
    None where numpy carries no ILP64 OpenBLAS.

    numpy's wheels link np.linalg against a bundled ILP64 OpenBLAS that
    exports LAPACK as scipy_<name>_64_ (numpy 2) or <name>_64_ (numpy
    1.22 to 1.26); `import numpy` has mapped it already.  Opening
    np.linalg's extension again with ctypes maps nothing new, and a
    symbol lookup on it reaches the libraries it was linked against.
    Where it does not (Windows), or numpy links another LAPACK, the
    routines are not found here.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for symbol in ("scipy_{}_64_", "{}_64_"):
        try:
            return _NumpyLapack(lib, symbol)
        except AttributeError:
            pass
    return None


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without the scipy package.

    Importing scipy.linalg costs about 0.3 s of Python start-up, for six
    routines (dgttrf, dgttrs, dgetrf, dgetrs, dpttrf, dpttrs).  find_spec
    locates scipy without importing it, and its _flapack extension is
    loaded by file path: the same binary and the same f2py signatures as
    scipy.linalg.lapack.  Another layout, or an extension that cannot be
    loaded on its own (a Windows DLL path), falls back to that import.
    """
    try:
        scipy = importlib.util.find_spec("scipy")
        linalg = Path(scipy.origin).parent / "linalg"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = linalg / f"_flapack{suffix}"
            if path.is_file():
                spec = importlib.util.spec_from_file_location("_flapack", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    except (ImportError, AttributeError, TypeError, OSError):
        pass
    from scipy.linalg import lapack

    return lapack


def _load_lapack() -> _NumpyLapack | _F2pyLapack:
    """The seam this module calls: numpy's own OpenBLAS
    (`_numpy_lapack`), so that one BLAS library and one thread pool serve
    the process, and scipy's f2py wrappers (`_load_flapack`) only where
    numpy carries no such library.  The second OpenBLAS that scipy's
    extension maps cost 2.6 MB of peak RSS on a star5 sweep (41.2
    against 38.7 MB) and about 2 ms of import.
    """
    return _numpy_lapack() or _F2pyLapack(_load_flapack())


lapack = _load_lapack()


@dataclass(frozen=True)
class EdgeLayout:
    """Per-edge and per-vertex indices placing a mesh in the condensed bands.

    Vertex unknowns come first; interior unknowns follow edge after
    edge, so the edges' interiors concatenate into one tridiagonal
    system whose off-diagonals vanish between edges.  Elements are
    numbered in the same order.  Every edge has at least three interior
    nodes, so its first element joins its source vertex to its first
    interior node (the head) and its last element joins its last
    interior node to its target vertex (the tail).

    Nothing here has one entry per element or per dof: a mesh keeps its
    layout for as long as a result holds the mesh, so the per-element
    arrays are built only while bands are assembled (`_element_arrays`).
    """

    nv: int  # number of vertex unknowns
    head: np.ndarray  # index of each edge's first element
    tail: np.ndarray  # index of each edge's last element
    src: np.ndarray  # source vertex of each edge
    dst: np.ndarray  # target vertex of each edge
    first: np.ndarray  # interior position of each edge's first interior node
    last: np.ndarray  # interior position of each edge's last interior node
    sizes: np.ndarray  # interior nodes per edge
    free_vertices: np.ndarray  # vertex unknowns without a Dirichlet condition


@dataclass(frozen=True)
class _ElementArrays:
    """Per-element indices of a mesh, built afresh for each assembly."""

    left: np.ndarray  # global dof at the start of each element
    right: np.ndarray  # global dof at the end of each element
    h: np.ndarray  # length of each element
    inner: np.ndarray  # elements with both ends interior
    inner_pos: np.ndarray  # their position in the interior off-diagonals


@dataclass(frozen=True)
class Mesh:
    """Per-edge grids with shared vertex unknowns.

    `edge_nodes[eid]` holds the node coordinates on edge eid including
    both endpoints; `edge_dofs[eid]` the matching global indices.  The
    two endpoint entries are the vertex dofs, so a self-loop's ends map
    to the same unknown.  An edge in `graded` has an end near a peak and
    element lengths that vary along it (see `refined_mesh`); every other
    edge, near a peak or far from every one, is a uniform `np.linspace`
    grid, whose element length is taken as nodes[1] - nodes[0]
    throughout.  The cached `layout` holds per-edge indices only;
    per-element arrays are transient (`_element_arrays`).
    """

    graph: MetricGraph
    edge_nodes: dict[str, np.ndarray]
    edge_dofs: dict[str, np.ndarray]
    vertex_dofs: dict[str, int]
    ndof: int
    graded: frozenset[str] = frozenset()

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

    def end_elements(self, eid: str, at_start: bool = True) -> tuple[float, float]:
        """Lengths of the element at one end of edge eid and of the next one in."""
        nodes = self.edge_nodes[eid]
        a, b, c = nodes[:3] if at_start else nodes[-1:-4:-1]
        return float(abs(b - a)), float(abs(c - b))

    def edge_spacing(self, eid: str, at_start: bool = True) -> float:
        """Length of the element at the start (or the end) of edge eid."""
        return self.end_elements(eid, at_start)[0]

    @cached_property
    def layout(self) -> EdgeLayout:
        nv = len(self.vertex_dofs)
        dofs = list(self.edge_dofs.values())
        interior = np.concatenate([d[1:-1] for d in dofs])
        if not np.array_equal(interior, np.arange(nv, self.ndof)):
            raise ValueError("interior dofs must follow the vertices edge by edge")
        n_elem = np.array([len(d) - 1 for d in dofs])
        tail = np.cumsum(n_elem) - 1
        sizes = n_elem - 1
        last = np.cumsum(sizes) - 1
        # a mask, not np.setdiff1d, whose np.unique imports numpy.ma
        free = np.ones(nv, dtype=bool)
        free[self.dirichlet_dofs] = False
        return EdgeLayout(
            nv=nv,
            head=tail - n_elem + 1,
            tail=tail,
            src=np.array([d[0] for d in dofs], dtype=int),
            dst=np.array([d[-1] for d in dofs], dtype=int),
            first=last - sizes + 1,
            last=last,
            sizes=sizes,
            free_vertices=np.flatnonzero(free),
        )


def _element_arrays(mesh: Mesh) -> _ElementArrays:
    """The per-element indices and lengths of a mesh, edge after edge."""
    lay = mesh.layout
    dofs = list(mesh.edge_dofs.values())
    left = np.concatenate([d[:-1] for d in dofs])
    right = np.concatenate([d[1:] for d in dofs])
    # an ungraded edge keeps its one spacing: np.diff of its nodes moves
    # the last bits, which breaks the reduced-energy identity to 1e-12
    h = np.concatenate(
        [
            np.diff(mesh.edge_nodes[eid])
            if eid in mesh.graded
            else np.full(size + 1, mesh.edge_spacing(eid))
            for eid, size in zip(mesh.edge_dofs, lay.sizes)
        ]
    )
    inner = np.nonzero((left >= lay.nv) & (right >= lay.nv))[0]
    return _ElementArrays(left, right, h, inner, left[inner] - lay.nv)


def edge_elements(length: float, h: float) -> int:
    """Elements on an edge of the given length at target spacing h.

    At least four, so that every edge has three interior nodes.
    """
    return max(4, int(math.ceil(length / h)))


# A peak's bound state decays like exp(-s) in s = sqrt(lam) * t, the
# graph distance t from the peak in peak widths 1/sqrt(lam).  A graded
# edge end keeps its fine step, h = 1/nodes_per_width widths, up to
# s = W = GRADED_WIDTHS from the nearest peak; beyond it element lengths
# grow by GRADING_RATIO per element, to about h + 0.05 * (s - W) widths
# at s.  The P1 interpolation error (length**2 / 8 times exp(-s)) of
# that tail peaks within two widths past W, at about 1.7e-4 * exp(-W) of
# the peak value: 5e-11 at W = 15 (6e-11 to 8e-11 measured on the star5
# meshes at lam=1600 and lam=25).  The peak's own error h**2 / 8 is
# about 1e-5 or more at the default nodes_per_width through lam=1600,
# so the tail adds under 1e-5 of it.  Widths near 10 would still be
# accurate enough; they are ruled out by figure1's seed at c = 0, whose
# stalls move with the mesh (W = 10 turns the figure1 v1 sweep's two
# stalled shifts into four).
GRADED_WIDTHS = 15.0
GRADING_RATIO = 1.05


class _EdgePlan(NamedTuple):
    """The elements of one edge, counted before any node exists.

    The uniform grid is np.linspace's: n elements of step h = length / n.
    A graded edge keeps the first `fine[0]` of those steps from its
    source and the last `fine[1]` from its target; a count of 0 leaves
    that end ungraded.  A run then covers the rest of the edge, or, when
    both ends are graded, each side of the cut
    0.5 * (length + (fine[0] - fine[1]) * h), which leaves the two sides
    the same span: `growing` elements of h * GRADING_RATIO**k for
    k = 1, 2, ..., `coarse` elements of h_coarse, one more of the
    previous length if `pause`, and a last element, 0.5 to 1.5 times its
    predecessor, that ends exactly at the far end (or at the cut).
    """

    n: int
    h: float
    fine: tuple[int, int] = (0, 0)
    growing: int = 0
    coarse: int = 0
    pause: bool = False
    h_coarse: float = 0.0

    @property
    def graded(self) -> bool:
        return any(self.fine)

    @property
    def elements(self) -> int:
        if not self.graded:
            return self.n
        run = self.growing + self.coarse + self.pause + 1
        return sum(self.fine) + run * sum(k > 0 for k in self.fine)

    def run_lengths(self) -> np.ndarray:
        """The run's element lengths outward, all but the last one."""
        grow = [self.h * GRADING_RATIO**k for k in range(1, self.growing + 1)]
        prev = grow[-1] if grow else self.h
        return np.array(grow + [self.h_coarse] * self.coarse + [prev] * self.pause)


def _run(span: float, h: float, h_coarse: float) -> tuple[int, int, bool]:
    """(growing, coarse, pause) of the run that covers span beyond steps of h.

    Element lengths grow from h by GRADING_RATIO up to h_coarse.  Each
    element is taken only if at least half its length would be left
    after it, so the last element is at least half its predecessor.
    What is left is below 1.5 times the next length, which can reach
    1.5 * GRADING_RATIO times the predecessor's; above 1.5 times it, one
    more element repeats the predecessor's length (the pause), and
    between 0.5 and 0.575 of it is left.
    """
    covered, prev, growing = 0.0, h, 0
    while True:
        step = min(h * GRADING_RATIO ** (growing + 1), h_coarse)
        if covered + 1.5 * step > span:
            return growing, 0, span - covered > 1.5 * prev
        if step == h_coarse:
            return growing, max(1, math.floor((span - covered) / h_coarse - 0.5)), False
        covered, prev, growing = covered + step, step, growing + 1


def _edge_plan(
    length: float,
    h_target: float,
    reach: tuple[float, float],
    h_far: float,
) -> _EdgePlan:
    """The plan of an edge whose fine zones reach reach[0] into it from
    its source and reach[1] from its target.  A reach of 0 or less leaves
    that end ungraded; with both ends ungraded the edge is a uniform
    grid at the far-field length h_far."""
    if max(reach) <= 0.0:
        n = edge_elements(length, h_far)
        return _EdgePlan(n, length / n)
    n = edge_elements(length, h_target)
    h = length / n
    fine = [0, 0]
    for i, r in enumerate(reach):
        if r > 0.0:
            k = math.ceil(r / h)
            fine[i] = k + (k * h < r)  # the first node at or past the reach
    if n <= sum(fine):  # no longer than its fine zones
        return _EdgePlan(n, h)
    span = (length - sum(fine) * h) / sum(k > 0 for k in fine)
    return _EdgePlan(n, h, tuple(fine), *_run(span, h, h_far), h_far)


def _edge_plans(
    g: MetricGraph, h: float, peaks: Collection[str], lam: float
) -> Iterator[_EdgePlan]:
    """The plan of every edge of g, graded toward the peaks at the shift
    lam with spacing h, as `refined_mesh` states."""
    peaks = set(peaks)
    width = GRADED_WIDTHS / math.sqrt(lam)
    h_far = max(1.0 / math.sqrt(lam), 5.0 * h)
    tables = [vertex_distances(g, p) for p in peaks]
    reach = {v: width - min(t[v] for t in tables) for v in g.vertices}
    for e in g.edges:
        h_edge = h if e.src in peaks or e.dst in peaks else 5.0 * h
        yield _edge_plan(e.length, h_edge, (reach[e.src], reach[e.dst]), h_far)


def _plan_nodes(length: float, plan: _EdgePlan) -> np.ndarray:
    """The nodes of one edge, as planned.

    The fine zones are np.linspace's nodes bit for bit: it computes
    node k as k * (length / n) and sets the last one to length.
    """
    if not plan.graded:
        return np.linspace(0.0, length, plan.n + 1)
    n, h = plan.n, plan.h
    at_src, at_dst = plan.fine
    run = np.cumsum(plan.run_lengths())
    if at_src:
        parts = [np.arange(at_src + 1) * h, at_src * h + run]
    else:
        parts = [np.zeros(1)]
    if at_src and at_dst:
        parts.append(np.full(1, 0.5 * (length + (at_src - at_dst) * h)))
    if at_dst:
        fine = np.arange(n - at_dst, n + 1) * h
        fine[-1] = length
        parts += [(n - at_dst) * h - run[::-1], fine]
    else:
        parts.append(np.full(1, length))
    return np.concatenate(parts)


def build_mesh(g: MetricGraph, plans: Iterable[_EdgePlan]) -> Mesh:
    """The mesh of g whose edges, in g.edges' order, follow plans."""
    vertex_dofs = {v: i for i, v in enumerate(g.vertices)}
    next_dof = len(g.vertices)
    edge_nodes: dict[str, np.ndarray] = {}
    edge_dofs: dict[str, np.ndarray] = {}
    graded = set()
    for e, plan in zip(g.edges, plans):
        nodes = _plan_nodes(e.length, plan)
        n = len(nodes) - 1
        dofs = np.empty(n + 1, dtype=int)
        dofs[0] = vertex_dofs[e.src]
        dofs[-1] = vertex_dofs[e.dst]
        dofs[1:-1] = np.arange(next_dof, next_dof + n - 1)
        next_dof += n - 1
        edge_nodes[e.id] = nodes
        edge_dofs[e.id] = dofs
        if plan.graded:
            graded.add(e.id)
    return Mesh(g, edge_nodes, edge_dofs, vertex_dofs, next_dof, frozenset(graded))


def uniform_mesh(g: MetricGraph, h: float) -> Mesh:
    """np.linspace's grid on every edge, at the largest step not above h
    (and at least four elements): `_edge_plan`'s ungraded case, with no
    fine zone at either end.  h must be positive and finite."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h}")
    return build_mesh(g, (_edge_plan(e.length, h, (0.0, 0.0), h) for e in g.edges))


def refined_plans(
    g: MetricGraph, lam: float, peaks: list[str], nodes_per_width: float
) -> tuple[_EdgePlan, ...]:
    """The edge plans of refined_mesh(g, lam, peaks, nodes_per_width),
    in g.edges' order: its ndof by arithmetic alone (`planned_ndof`),
    and no node array.  Refused: an empty peak list, a peak not in g,
    and a lam or nodes_per_width that is not positive and finite."""
    for name, x in (("lam", lam), ("nodes_per_width", nodes_per_width)):
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {x}")
    if not peaks:
        raise ValueError("at least one peak vertex is required")
    missing = [p for p in peaks if p not in g.vertices]
    if missing:
        raise ValueError(f"peak vertices not in graph: {missing}")
    h = 1.0 / (nodes_per_width * math.sqrt(lam))
    return tuple(_edge_plans(g, h, peaks, lam))


def planned_ndof(g: MetricGraph, plans: Iterable[_EdgePlan]) -> int:
    """The ndof of build_mesh(g, plans), without building it."""
    return len(g.vertices) + sum(plan.elements - 1 for plan in plans)


def refined_mesh(
    g: MetricGraph,
    lam: float,
    peaks: list[str],
    nodes_per_width: float,
    plans: tuple[_EdgePlan, ...] | None = None,
) -> Mesh:
    """Mesh resolving the peak scale, graded by graph distance from the peaks.

    The peak spacing is h = 1/(nodes_per_width*sqrt(lam)): an edge that
    touches a peak targets h, every other edge 5h.  With d(v) the graph
    distance from vertex v to its nearest peak, the width
    W = GRADED_WIDTHS/sqrt(lam) and the far-field length
    max(1/sqrt(lam), 5h) (`_EdgePlan` counts the elements):

    - an edge end with d < W keeps np.linspace's grid at its edge's
      target for W - d into the edge, and beyond that the elements grow
      by GRADING_RATIO up to the far-field length; a peak end is the
      case d = 0;
    - an edge graded from both ends is cut where the two runs have equal
      spans, the midpoint when both keep the same number of fine steps;
    - an edge no longer than its fine zones stays uniform at its target;
    - an edge with both ends at d >= W is a uniform grid at the
      far-field length.

    plans, if the caller has them, are `refined_plans` of the same
    arguments, and are not planned again.
    """
    if plans is None:
        plans = refined_plans(g, lam, peaks, nodes_per_width)
    return build_mesh(g, plans)


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


def positive_power(v: np.ndarray, p: float) -> np.ndarray:
    """np.maximum(v, 0.0) ** p for p > 0, bit for bit, avoiding slow pow calls.

    A bound state decays like exp(-sqrt(lam) * t) away from its peaks,
    so many nodal values of a sharp state are tiny or rounding-negative:
    on star5's 11,796-unknown mesh at lam = 1600, 16% lie below 1e-100 of
    the peak.  pow computes an underflowing power, and a power of zero, on
    a slow special-case path: on that state at p = 3, numpy 2.4's pow took
    291 us for the plain expression and 82 us here (best of 7x200 calls on
    one core of a 2-vCPU x86-64 host).  Every entry whose
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

    At p = 2 numpy squares instead of calling pow, so there is no slow
    path to avoid and the masking passes are pure cost: on that state
    they took 45 us against 10 us for the square in place (best of
    7x200 calls), which is taken instead.
    """
    m = np.maximum(v, 0.0)
    if p == 2.0:
        return np.square(m, out=m)
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
        """self + scale * other.

        When both operands are symmetric, holding one array as `upper`
        and `lower`, so does the sum: the two sums would be equal bit
        for bit, so one is computed and shared.
        """
        theirs = other._arrays()
        sums = {}
        for k, a in self._arrays().items():
            if k == "lower" and self.upper is a and other.upper is theirs[k]:
                sums[k] = sums["upper"]
            else:
                sums[k] = a + scale * theirs[k]
        return replace(self, **sums)

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


def edge_bands(
    mesh: Mesh,
    stiffness: float = 0.0,
    weight: float | np.ndarray = 0.0,
) -> EdgeBands:
    """Bands of the form stiffness * (u', v') + (w u, v), element by element.

    The weight w is a nodal array interpolated linearly, or a constant,
    broadcast to every node.  One formula serves both: the element
    integrals of w * phi_i * phi_j with w linear on the element, exact
    for piecewise linear w, u and v.  At w = 1 it gives the mass matrix
    (h/6)[[2,1],[1,2]] bit for bit, since 4h and 2h are exact.
    """
    lay = mesh.layout
    elem = _element_arrays(mesh)
    h = elem.h
    weight = np.broadcast_to(np.asarray(weight, dtype=float), (mesh.ndof,))
    wl, wr = weight[elem.left], weight[elem.right]
    k = stiffness / h
    start = k + h * (3.0 * wl + wr) / 12.0
    end = k + h * (wl + 3.0 * wr) / 12.0
    off = -k + h * (wl + wr) / 12.0
    nv = lay.nv
    band = np.zeros(mesh.ndof - nv - 1)
    band[elem.inner_pos] = off[elem.inner]
    return EdgeBands(
        mesh=mesh,
        vertex_diag=np.bincount(lay.src, start[lay.head], minlength=nv)
        + np.bincount(lay.dst, end[lay.tail], minlength=nv),
        diag=end[elem.right >= nv] + start[elem.left >= nv],
        upper=band,
        lower=band,
        head_row=off[lay.head],
        head_col=off[lay.head],
        tail_row=off[lay.tail],
        tail_col=off[lay.tail],
    )


def _end_units(lay: EdgeLayout) -> np.ndarray:
    """The interior unit columns at every edge's first interior node
    (column 0) and last one (column 1), for a LAPACK solve in place."""
    units = np.zeros((lay.last[-1] + 1, 2), order="F")
    units[lay.first, 0] = 1.0
    units[lay.last, 1] = 1.0
    return units


def _vertex_schur(bands: EdgeBands, z: np.ndarray) -> np.ndarray:
    """The Schur complement of bands' interior block on the free vertex
    unknowns, given z, the interior block's inverse applied to
    `_end_units`."""
    lay = bands.mesh.layout
    schur = np.diag(bands.vertex_diag)
    src, dst, first, last = lay.src, lay.dst, lay.first, lay.last
    zh, zt = z[:, 0], z[:, 1]
    for rows, cols, coupling in (
        (src, src, bands.head_row * zh[first] * bands.head_col),
        (src, dst, bands.head_row * zt[first] * bands.tail_col),
        (dst, src, bands.tail_row * zh[last] * bands.head_col),
        (dst, dst, bands.tail_row * zt[last] * bands.tail_col),
    ):
        np.add.at(schur, (rows, cols), -coupling)
    free = lay.free_vertices
    return schur[np.ix_(free, free)]


class CondensedFactor:
    """Solver for an `EdgeBands` operator on the free dofs.

    The edge interiors go first: one pivoted tridiagonal LU of all of
    them at once (LAPACK gttrf), solved for the unit columns at every
    edge's first and last interior node.  That leaves the dense Schur
    complement on the free vertex unknowns, kept as `schur` and factored
    with getrf.  A solve costs O(ndof) and returns zero at the Dirichlet
    dofs.  Raises SolveFailure on a zero pivot or a singular vertex block.
    Neither the factorization nor a solve writes into the bands or the
    right-hand side.  A factor keeps the bands' vertex couplings but not
    their interior arrays, which it has copied.
    """

    def __init__(self, bands: EdgeBands):
        lay = bands.mesh.layout
        self._layout = lay
        self._couplings = (
            bands.head_row,
            bands.tail_row,
            bands.head_col,
            bands.tail_col,
        )
        self._tri, info = lapack.gttrf(bands.lower, bands.diag, bands.upper)
        if info != 0:
            raise SolveFailure(f"zero pivot at interior dof {lay.nv + info - 1}")
        z = _end_units(lay)
        lapack.gttrs(self._tri, z)
        self._from_head, self._from_tail = z[:, 0], z[:, 1]
        self.schur = _vertex_schur(bands, z)
        self._schur, info = lapack.getrf(self.schur)
        (lu, _), _ = self._schur
        if info != 0 or not np.all(np.isfinite(lu)):
            raise SolveFailure("singular vertex Schur complement")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution of bands @ x = b on the free dofs."""
        lay = self._layout
        head_row, tail_row, head_col, tail_col = self._couplings
        nv = lay.nv
        x = np.array(b, dtype=float)
        y = x[nv:]
        lapack.gttrs(self._tri, y)
        rhs = (
            b[:nv]
            - np.bincount(lay.src, head_row * y[lay.first], minlength=nv)
            - np.bincount(lay.dst, tail_row * y[lay.last], minlength=nv)
        )
        xv = x[:nv]
        xv[:] = 0.0
        rhs = rhs[lay.free_vertices]
        lapack.getrs(self._schur, rhs)
        xv[lay.free_vertices] = rhs
        correction = np.repeat(head_col * xv[lay.src], lay.sizes)
        y -= np.multiply(self._from_head, correction, out=correction)
        del correction  # before the second one allocates
        correction = np.repeat(tail_col * xv[lay.dst], lay.sizes)
        y -= np.multiply(self._from_tail, correction, out=correction)
        return x


@dataclass
class KirchhoffOperator:
    """The weak forms of the shifted operator -u'' + lam*u on a mesh.

    Holds the stiffness, mass and shifted (stiffness + lam*mass) forms
    as edge bands, each symmetric with one array as both off-diagonals;
    the factorization of the shifted form on the free dofs is cached on
    first use.
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

    The shift must be positive and finite (`ValueError` otherwise): then
    the shifted form is positive definite on every graph, compact or
    truncated.
    """
    if mesh.graph is not g:
        raise ValueError("mesh was built for a different graph")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"shift must be positive and finite, got {lam}")
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


def count_below(bands: EdgeBands, mass: EdgeBands, sigma: float) -> int:
    """The number of eigenvalues of the pencil (bands, mass) below sigma,
    on the free dofs.  bands and mass must be symmetric; nonsymmetric
    bands raise ValueError.

    Sylvester's law of inertia: that number is the count of negative
    eigenvalues of A = bands - sigma*mass, and by Haynsworth's inertia
    additivity it is the count of A's interior block plus that of the
    free vertex Schur complement.  The interior block is tridiagonal,
    edge after edge, and its count is the number of negative pivots of
    its unpivoted LDL^T (Sturm) recurrence, which LAPACK's pttrf runs
    until a pivot is not positive.  That pivot is counted here, its
    multiplier stored, the next one updated with pttrf's own formula, and
    pttrf resumes after it, so the whole count is one pass over the
    interior however many pivots are negative.  The pass leaves the whole
    LDL^T factor, and pttrs on it gives the Schur complement, a few
    vertices square and assembled as `CondensedFactor`'s, whose
    eigenvalues numpy computes.  Raises
    SolveFailure on a zero pivot: sigma is then an eigenvalue of a
    leading interior block.
    """
    shifted = bands.plus(mass, -sigma)
    pairs = (
        (shifted.upper, shifted.lower),
        (shifted.head_row, shifted.head_col),
        (shifted.tail_row, shifted.tail_col),
    )
    if not all(a is b or np.array_equal(a, b) for a, b in pairs):
        raise ValueError("count_below needs symmetric bands")
    # shifted's interior bands are its own, so they are factored in
    # place: d and e become the whole LDL^T factor, D's diagonal and L's
    # subdiagonal, and the multiplier at each negative pivot is stored here
    d, e = shifted.diag, shifted.upper
    negative, start = 0, 0
    while start < d.size:
        info = lapack.pttrf(d[start:], e[start:])
        if info == 0:
            break
        k = start + info - 1
        pivot = d[k]
        if pivot == 0.0:
            raise SolveFailure(
                f"zero pivot: sigma={sigma!r} is an eigenvalue of a leading "
                "block of the edge interiors"
            )
        negative += 1
        if k + 1 < d.size:
            ek = e[k]
            e[k] = ek / pivot
            d[k + 1] -= e[k] * ek
        start = k + 1
    z = _end_units(shifted.mesh.layout)
    lapack.pttrs(d, e, z)
    schur = _vertex_schur(shifted, z)
    return negative + int(np.count_nonzero(np.linalg.eigvalsh(schur) < 0.0))


def one_sided_derivative(
    values: np.ndarray, h: float, at_start: bool, h_next: float | None = None
) -> float:
    """Outgoing first derivative at an edge end, O(h^2) stencil.

    h is the length of the end's element and h_next that of the next
    one in (h by default); the three-node stencil is exact on quadratics
    for any two lengths.
    """
    v = np.asarray(values, dtype=float)
    v0, v1, v2 = (v[0], v[1], v[2]) if at_start else (v[-1], v[-2], v[-3])
    h_next = h if h_next is None else h_next
    s = h + h_next
    return float(
        -(h + s) / (h * s) * v0 + s / (h * h_next) * v1 - h / (h_next * s) * v2
    )


def kirchhoff_flux(mesh: Mesh, u: DiscreteField) -> dict[str, float]:
    """Sum of outgoing derivatives at each vertex (discrete flux balance)."""
    out: dict[str, float] = {}
    for v in mesh.graph.vertices:
        total = 0.0
        for e, away in mesh.graph.incident(v):
            vals = u.values[mesh.edge_dofs[e.id]]
            h, h_next = mesh.end_elements(e.id, at_start=away)
            total += one_sided_derivative(vals, h, at_start=away, h_next=h_next)
        out[v] = total
    return out
