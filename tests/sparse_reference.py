"""Sparse-matrix forms of edge bands, for sparse-direct reference checks.

graphnls itself never builds a sparse matrix; the tests compare its
condensed solves and eigenvalue counts against scipy's.
"""

import numpy as np
import scipy.sparse as sp

from graphnls.discrete import EdgeBands, _element_arrays


def tocsr(bands: EdgeBands) -> sp.csr_matrix:
    """The operator held by bands as a sparse matrix."""
    mesh = bands.mesh
    lay = mesh.layout
    inner_pos = _element_arrays(mesh).inner_pos
    nv, n = lay.nv, mesh.ndof
    diag = np.arange(n)
    up = inner_pos + nv
    first, last = lay.first + nv, lay.last + nv
    rows = (diag, up, up + 1, lay.src, first, lay.dst, last)
    cols = (diag, up + 1, up, first, lay.src, last, lay.dst)
    vals = (
        np.concatenate([bands.vertex_diag, bands.diag]),
        bands.upper[inner_pos],
        bands.lower[inner_pos],
        bands.head_row,
        bands.head_col,
        bands.tail_row,
        bands.tail_col,
    )
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def free_block(bands: EdgeBands) -> sp.csc_matrix:
    """The operator restricted to the free dofs."""
    free = bands.mesh.free_dofs
    return tocsr(bands)[free][:, free].tocsc()
