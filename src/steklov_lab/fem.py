"""P1 finite-element matrices for the perforated and homogenized forms.

Assembled matrices realize three quadratic forms: the Dirichlet energy, the
mass of the hole boundaries (1D mass matrices summed over edge lists), and
weighted bulk mass.  Assembly sums the upper triangle of the element blocks
once, then mirrors it, so every matrix is exactly symmetric at the
floating-point level, and Dirichlet conditions are imposed by true
row/column elimination to keep spectra unpolluted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshgen import Mesh, OUTER


class FemError(ValueError):
    pass


def _tri_geometry(mesh: Mesh):
    p = mesh.nodes[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    if np.any(area <= 0):
        bad = int(np.argmin(area))
        raise FemError(f"degenerate or inverted triangle {bad} "
                       f"(signed area {area[bad]:.3g})")
    return x, y, area


def _symmetric(up: sp.csr_matrix) -> sp.csr_matrix:
    """The exactly symmetric matrix whose upper triangle is up, a CSR in
    canonical form with no entry below the diagonal.  Each off-diagonal
    entry is copied to its mirror by index arithmetic, so no value is summed
    again and sums that cancelled to 0 stay stored."""
    n = up.shape[0]
    low = up.tocsc()                 # column r: the entries (c, r), c <= r
    # row r is low's column r (diagonal last), then up's row r (diagonal
    # first); a diagonal entry goes twice to one slot, so skip counts the
    # diagonal entries of the rows above
    rows = np.flatnonzero(np.diff(up.indptr))
    skip = np.zeros(n + 1, dtype=np.int64)
    skip[rows + 1] = up.indices[up.indptr[rows]] == rows
    del rows
    np.cumsum(skip, out=skip)
    indptr = up.indptr + (low.indptr - skip)
    idx = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    indices, data = np.empty(indptr[-1], dtype=idx), np.empty(indptr[-1])
    up_shift = (low.indptr[1:] - skip[1:]).astype(idx)
    _place(indices, data, low, (up.indptr[:-1] - skip[:-1]).astype(idx))
    del low
    _place(indices, data, up, up_shift)
    return sp.csr_matrix((data, indices, indptr.astype(idx)), shape=(n, n))


def _place(indices, data, part, shift):
    """Copy row r of the compressed matrix part to slots shift[r] on."""
    at = np.repeat(shift, np.diff(part.indptr))
    at += np.arange(len(at), dtype=at.dtype)
    indices[at], data[at] = part.indices, part.data


def _scatter(conn, local, n: int) -> sp.csr_matrix:
    """Sum symmetric element blocks into an n x n matrix: local(i, j) holds
    entry (i, j) of every element's block, conn its global node ids.  Each
    element side gives one upper-triangle triplet; the diagonal is summed
    per node over the nodes the elements touch.  The triplets are summed
    once (scipy's COO to CSR) and mirrored (_symmetric) over the touched
    nodes only, numbered in order, so beyond the final indptr the work
    follows the element count, not n.  local is let go once every entry is
    read, so element data that only it holds is freed before the sum."""
    ne, k = conn.shape
    sides = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rank = np.zeros(n, dtype=np.int32)
    rank[conn] = 1
    nodes = np.flatnonzero(rank)
    np.cumsum(rank, out=rank)
    rank -= 1
    at = rank[conn]                  # each corner's rank among the nodes
    del rank
    end = len(sides) * ne
    vals = np.empty(end + len(nodes))
    for s, (i, j) in enumerate(sides):
        vals[s * ne:(s + 1) * ne] = local(i, j)
    vals[end:] = sum(np.bincount(at[:, i], local(i, i), len(nodes))
                     for i in range(k))
    del local
    rows = np.empty(len(vals), dtype=np.int32)
    cols = np.empty(len(vals), dtype=np.int32)
    for s, (i, j) in enumerate(sides):
        np.minimum(at[:, i], at[:, j], out=rows[s * ne:(s + 1) * ne])
        np.maximum(at[:, i], at[:, j], out=cols[s * ne:(s + 1) * ne])
    rows[end:] = cols[end:] = np.arange(len(nodes))
    del at
    # a compact copy: the sum leaves its arrays as long as the triplets
    up = sp.csr_matrix((vals, (rows, cols)),
                       shape=(len(nodes), len(nodes))).copy()
    del rows, cols, vals
    full = _symmetric(up)
    if len(nodes) == n:              # every node touched: ranks are ids
        return full
    indptr = np.zeros(n + 1, dtype=full.indptr.dtype)
    indptr[nodes + 1] = np.diff(full.indptr)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((full.data, nodes.astype(indptr.dtype)[full.indices],
                          indptr), shape=(n, n))


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Standard P1 stiffness; row sums vanish before elimination."""
    return _scatter(mesh.triangles, _stiffness_local(mesh), mesh.num_nodes)


def _stiffness_local(mesh: Mesh):
    # the element geometry lives only in the returned closure
    x, y, area = _tri_geometry(mesh)
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1)
    return lambda i, j: (bx[:, i] * bx[:, j]
                         + by[:, i] * by[:, j]) / (4.0 * area)


_MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
_EDGE_LOCAL = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0


def assemble_weighted_mass(mesh: Mesh, weight=1.0) -> sp.csr_matrix:
    """P1 mass with a weight constant on each triangle: a scalar, or one
    value per triangle (a cellwise field is weight[mesh.tri_cell])."""
    return _scatter(mesh.triangles,
                    _times(_weighted_area(mesh, weight), _MASS_LOCAL),
                    mesh.num_nodes)


def _weighted_area(mesh: Mesh, weight) -> np.ndarray:
    """Triangle areas times a scalar weight or one weight per triangle."""
    area = _tri_geometry(mesh)[2]
    if np.ndim(weight) == 0:
        area *= float(weight)
    else:
        w = np.asarray(weight, dtype=float)
        if w.shape != area.shape:
            raise FemError(f"weight has shape {w.shape}; a scalar or one "
                           f"value per triangle ({len(area)}) is needed")
        area *= w
    return area


def _times(size, block):
    """local(i, j) = size * block[i, j] for per-element sizes."""
    return lambda i, j: size * block[i, j]


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    return assemble_weighted_mass(mesh, 1.0)


def assemble_hole_mass(mesh: Mesh) -> sp.csr_matrix:
    """1D P1 mass over the hole boundaries: every edge not tagged OUTER."""
    return _edge_mass(mesh, mesh.boundary_edges[mesh.edge_tags != OUTER])


def edge_mass(mesh: Mesh, edges) -> sp.csr_matrix:
    """1D P1 mass over an explicit edge list (e.g. an interior interface)."""
    return _edge_mass(mesh, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _edge_mass(mesh: Mesh, edges) -> sp.csr_matrix:
    # not edge_mass: perfbench's trace counts one assembly span per call
    pa, pb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    del pa, pb
    return _scatter(edges, _times(length, _EDGE_LOCAL), mesh.num_nodes)


# ---------------------------------------------------------------------------
# Dirichlet elimination

@dataclass
class DofMap:
    free: np.ndarray                 # free node ids, ascending
    n: int                           # node count of the mesh

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(self.n)
        full[self.free] = reduced
        return full


def build_dofmap(mesh: Mesh, fixed=None) -> DofMap:
    """Eliminate the node ids in fixed; None fixes the OUTER-tagged nodes."""
    if fixed is None:
        fixed = mesh.boundary_nodes(OUTER)
    mask = np.ones(mesh.num_nodes, dtype=bool)
    mask[np.asarray(fixed, dtype=np.int64)] = False
    free = np.nonzero(mask)[0]
    if len(free) == 0:
        raise FemError("every node is constrained; empty system")
    return DofMap(free=free, n=mesh.num_nodes)


def apply_dirichlet(matrix: sp.spmatrix, dofmap: DofMap) -> sp.csr_matrix:
    """Delete constrained rows and columns (true elimination, not penalty)."""
    if matrix.shape[0] != dofmap.n:
        raise FemError(
            f"matrix dimension {matrix.shape[0]} does not match the "
            f"{dofmap.n}-node mesh")
    # one pass over the entries in place of a row slice and a column slice
    matrix = matrix.tocsr()
    slot = np.full(dofmap.n, -1, dtype=matrix.indices.dtype)
    slot[dofmap.free] = np.arange(len(dofmap.free))
    keep = slot[matrix.indices] >= 0
    keep &= np.repeat(slot >= 0, np.diff(matrix.indptr))
    kept = np.zeros(len(keep) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    indptr = np.zeros(len(dofmap.free) + 1, dtype=kept.dtype)
    np.cumsum(np.diff(kept[matrix.indptr])[dofmap.free], out=indptr[1:])
    del kept
    return sp.csr_matrix((matrix.data[keep], slot[matrix.indices[keep]],
                          indptr), shape=(len(dofmap.free),) * 2)


# ---------------------------------------------------------------------------
# inter-mesh interpolation (restriction of fine homogenized solutions)

def interpolate(source_mesh: Mesh, values, points) -> np.ndarray:
    """P1 evaluation of structured-mesh nodal values at points.  Exact for
    functions linear on source triangles.

    Each point is located in closed form on the source lattice; a point on a
    cell side belongs to whichever neighbouring cell is present.
    """
    if source_mesh.lattice is None:
        raise FemError("interpolation needs a structured source mesh")
    nd, origin, first_tri = source_mesh.lattice
    values = np.asarray(values, dtype=float)
    points = np.asarray(points)
    g = points * nd - np.asarray(origin)
    tri = np.full(len(points), -1, dtype=np.int64)
    cell = np.zeros_like(g)
    for shift in ((0, 0), (1, 0), (0, 1), (1, 1)):
        c = np.floor(g) - shift
        ok = (tri < 0) & np.all((g - c <= 1.0) & (c >= 0)
                                & (c < first_tri.shape[::-1]), axis=1)
        found = first_tri[tuple(c[ok, ::-1].astype(np.int64).T)]
        hit = np.flatnonzero(ok)[found >= 0]
        tri[hit], cell[hit] = found[found >= 0], c[hit]
    if np.any(tri < 0):
        bad = np.nonzero(tri < 0)[0]
        raise FemError(
            f"{len(bad)} target nodes outside the source mesh, first at "
            f"{points[bad[0]]}")
    s, t = (g - cell).T
    upper = t > s                     # the (sw, ne, nw) half of the cell
    l1, l2 = np.where(upper, s, s - t), np.where(upper, t - s, t)
    v = values[source_mesh.triangles[tri + upper]]
    return v[:, 0] * (1.0 - l1 - l2) + v[:, 1] * l1 + v[:, 2] * l2


def h_eps_norm(mesh: Mesh, values) -> float:
    """Energy norm of the perforated form: sqrt(u' (K + B) u)."""
    u = np.asarray(values, dtype=float)
    K, B = assemble_stiffness(mesh), assemble_hole_mass(mesh)
    form = float(u @ (K @ u) + u @ (B @ u))
    if not math.isfinite(form):
        raise FemError(f"energy form is {form!r}")
    return math.sqrt(max(0.0, form))

