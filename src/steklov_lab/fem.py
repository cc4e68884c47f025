"""P1 finite-element matrices for the perforated and homogenized forms.

Assembled matrices realize three quadratic forms: the Dirichlet energy, the
mass of the hole boundaries (1D mass matrices summed over tagged edges), and
weighted bulk mass.  Assembly is element-symmetric, so every matrix is
exactly symmetric at the floating-point level, and Dirichlet conditions are
imposed by true row/column elimination to keep spectra unpolluted.
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


def _scatter(conn, local, n: int) -> sp.csr_matrix:
    """Sum element blocks into an n x n matrix: local(i, j) holds entry
    (i, j) of every element's block, conn its global node ids."""
    pairs = [divmod(q, conn.shape[1]) for q in range(conn.shape[1] ** 2)]
    # held until the matrix is built: freeing them first raised peak RSS
    vals = [local(i, j) for i, j in pairs]
    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate([conn[:, i] for i, _ in pairs]),
          np.concatenate([conn[:, j] for _, j in pairs]))),
        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Standard P1 stiffness; row sums vanish before elimination."""
    x, y, area = _tri_geometry(mesh)
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1)
    return _scatter(mesh.triangles, lambda i, j: (
        bx[:, i] * bx[:, j] + by[:, i] * by[:, j]) / (4.0 * area),
        mesh.num_nodes)


_MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
_EDGE_LOCAL = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0


def assemble_weighted_mass(mesh: Mesh, weight=1.0) -> sp.csr_matrix:
    """P1 mass with per-triangle weight.

    weight may be a constant, an array indexed by the triangle's cell id
    (exact for cellwise-constant fields, since template triangles never
    straddle cells), or a callable evaluated at triangle midpoints.
    """
    x, y, area = _tri_geometry(mesh)
    if callable(weight):
        cx = x.mean(axis=1)
        cy = y.mean(axis=1)
        w = np.array([weight(a, b) for a, b in zip(cx, cy)])
    elif np.ndim(weight) == 0:
        w = float(weight) * np.ones(len(area))
    else:
        weight = np.asarray(weight, dtype=float)
        if np.any(mesh.tri_cell < 0):
            raise FemError("cellwise weight needs cell ids on every triangle")
        w = weight[mesh.tri_cell]
    return _scatter(mesh.triangles, lambda i, j: w * area * _MASS_LOCAL[i, j],
                    mesh.num_nodes)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    return assemble_weighted_mass(mesh, 1.0)


def assemble_boundary_mass(mesh: Mesh, which="holes") -> sp.csr_matrix:
    """1D P1 mass summed over tagged boundary edges.

    which: "holes" (every hole tag), "outer", "all", or an explicit tag.
    """
    if which == "holes":
        sel = mesh.edge_tags != OUTER
    elif which == "outer":
        sel = mesh.edge_tags == OUTER
    elif which == "all":
        sel = np.ones(len(mesh.edge_tags), dtype=bool)
    else:
        sel = mesh.edge_tags == int(which)
    return _edge_mass(mesh, mesh.boundary_edges[sel])


def assemble_hole_mass(mesh: Mesh) -> sp.csr_matrix:
    return assemble_boundary_mass(mesh, "holes")


def edge_mass(mesh: Mesh, edges) -> sp.csr_matrix:
    """1D P1 mass over an explicit edge list (e.g. an interior interface)."""
    return _edge_mass(mesh, np.asarray(edges, dtype=np.int64))


def _edge_mass(mesh: Mesh, edges) -> sp.csr_matrix:
    # not edge_mass: perfbench's trace counts one assembly span per call
    n = mesh.num_nodes
    if len(edges) == 0:
        return sp.csr_matrix((n, n))
    pa, pb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    return _scatter(edges, lambda i, j: length * _EDGE_LOCAL[i, j], n)


# ---------------------------------------------------------------------------
# Dirichlet elimination

@dataclass
class DofMap:
    free: np.ndarray                 # free node ids, ascending
    index_of: np.ndarray             # node id -> reduced index, -1 constrained

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(len(self.index_of))
        full[self.free] = reduced
        return full


def build_dofmap(mesh: Mesh, constrained="outer") -> DofMap:
    """constrained: "outer" (Outer-tagged nodes), "boundary" (all tagged
    boundary nodes), or an explicit iterable of node ids."""
    if isinstance(constrained, str):
        if constrained == "outer":
            fixed = mesh.boundary_nodes(OUTER)
        elif constrained == "boundary":
            fixed = mesh.boundary_nodes(None)
        else:
            raise FemError(f"unknown constraint spec {constrained!r}")
    else:
        fixed = np.asarray(list(constrained), dtype=np.int64)
    mask = np.ones(mesh.num_nodes, dtype=bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    if len(free) == 0:
        raise FemError("every node is constrained; empty system")
    index_of = -np.ones(mesh.num_nodes, dtype=np.int64)
    index_of[free] = np.arange(len(free))
    return DofMap(free=free, index_of=index_of)


def apply_dirichlet(matrix: sp.spmatrix, dofmap: DofMap) -> sp.csr_matrix:
    """Delete constrained rows and columns (true elimination, not penalty)."""
    if matrix.shape[0] != len(dofmap.index_of):
        raise FemError(
            f"matrix dimension {matrix.shape[0]} does not match the "
            f"{len(dofmap.index_of)}-node mesh")
    return matrix.tocsr()[dofmap.free][:, dofmap.free]


# ---------------------------------------------------------------------------
# inter-mesh interpolation (restriction of fine homogenized solutions)

def interpolate(source_mesh: Mesh, values, target) -> np.ndarray:
    """P1 evaluation of structured-mesh nodal values at target points (or
    the nodes of a target mesh).  Exact for functions linear on source
    triangles.

    Each point is located in closed form on the source lattice; a point on a
    cell side belongs to whichever neighbouring cell is present.
    """
    if source_mesh.lattice is None:
        raise FemError("interpolation needs a structured source mesh")
    nd, origin, first_tri = source_mesh.lattice
    values = np.asarray(values, dtype=float)
    points = target.nodes if isinstance(target, Mesh) else np.asarray(target)
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
    return math.sqrt(max(0.0, float(u @ (K @ u) + u @ (B @ u))))

