"""Conforming P1 triangulations of perforated and plain rectilinear domains.

Each grid cell is meshed from a fixed template: geometrically graded circular
rings climb out of the tiny hole to the secure ball, then transfinite rows
connect that ring straight to the cell boundary, graded per connector so the
band heights track the local spacing.  Cell boundary nodes sit on the global
1/(m*s) lattice and are generated from integer formulas, so neighbouring
cells produce bit-identical shared nodes and stitching is exact coordinate
matching, no tolerances involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import C_SEC, MAX_HOLE_OFFSET, Hole, _grid_squares

OUTER = -1


class MeshError(ValueError):
    pass


def _check_h(h) -> None:
    """MeshError unless the mesh size h is finite and positive."""
    if not 0 < h < math.inf:
        raise MeshError(f"mesh size h must be finite and positive, got {h!r}")


@dataclass
class Mesh:
    nodes: np.ndarray                # (n, 2) float
    triangles: np.ndarray            # (m, 3) int, positively oriented
    boundary_edges: np.ndarray       # (e, 2) int
    edge_tags: np.ndarray            # (e,) int: OUTER or hole id >= 0
    tri_cell: np.ndarray = None      # (m,) int, -1 when not cell-based
    circles: dict = field(default_factory=dict)  # tag -> (cx, cy, radius)
    lattice: tuple | None = None      # (nd, origin, first_tri), structured

    def __post_init__(self):
        if self.tri_cell is None:
            self.tri_cell = np.full(len(self.triangles), -1, dtype=np.int64)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def area(self) -> float:
        return float(np.sum(self.signed_areas()))

    def min_angle(self) -> float:
        """Smallest triangle angle in degrees."""
        p = self.nodes[self.triangles]
        worst = math.inf
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosv = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            worst = min(worst, float(np.min(np.degrees(np.arccos(
                np.clip(cosv, -1.0, 1.0))))))
        return worst

    @property
    def h_max(self) -> float:
        """Longest edge; 0.0 for a mesh without triangles."""
        if not len(self.triangles):
            return 0.0
        return float(np.max(self.edge_lengths()))

    def edge_lengths(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        out = []
        for i in range(3):
            out.append(np.hypot(*(p[:, (i + 1) % 3] - p[:, i]).T))
        return np.concatenate(out)

    def boundary_nodes(self, tag=None) -> np.ndarray:
        if tag is None:
            sel = np.ones(len(self.edge_tags), dtype=bool)
        else:
            sel = self.edge_tags == tag
        return np.unique(self.boundary_edges[sel])


@dataclass(frozen=True)
class CellMeshTemplate:
    ring_count: int = 8
    grading: float = 2.0
    boundary_nodes_per_side: int = 8
    hole_boundary_segments: int = 32

    def validate(self, hole_k: int | None = None):
        n, s = self.hole_boundary_segments, self.boundary_nodes_per_side
        if not 1.0 < self.grading < math.inf:
            raise MeshError("grading factor must be finite and exceed 1, "
                            f"got {self.grading!r}")
        if self.ring_count < 1:
            raise MeshError("ring_count must be >= 1")
        if n < 8 or n % 8 != 0:
            raise MeshError(
                "hole_boundary_segments must be a positive multiple of 8")
        if s % 2 != 0:
            raise MeshError("boundary_nodes_per_side must be even")
        quot = 4 * s / n
        if quot < 1 or abs(math.log2(quot) - round(math.log2(quot))) > 1e-12:
            raise MeshError(
                "4 * boundary_nodes_per_side must equal "
                "hole_boundary_segments * 2^p for integer p >= 0")
        if hole_k is not None and n % hole_k != 0:
            raise MeshError(
                f"hole_boundary_segments must be a multiple of k={hole_k}")

    def rings_needed(self, d: float, rho_out: float) -> int:
        """Rings that grade a hole of radius d out to the secure ball of
        radius rho_out; raises when ring_count cannot afford them."""
        ratio = rho_out / d
        if ratio < 2.0:
            raise MeshError(
                "hole too large for the secure ball (2d > c_sec*r)")
        need = math.ceil(math.log(ratio) / math.log(self.grading) - 1e-12)
        if self.ring_count < need:
            raise MeshError(
                f"ring_count={self.ring_count} cannot grade from d={d:.3g} "
                f"to {rho_out:.3g} at grading {self.grading}; "
                f"use ring_count >= {need}")
        return need

    @property
    def doublings(self) -> int:
        return round(math.log2(4 * self.boundary_nodes_per_side
                               / self.hole_boundary_segments))


def _cell_boundary_walk(ix, iy, s):
    """Lattice coordinates (units of 1/(m*s)) of the 4s cell boundary nodes,
    counterclockwise starting at the mid-right node."""
    x0, y0 = ix * s, iy * s
    walk = []
    walk += [(x0 + k, y0) for k in range(s)]            # bottom, left->right
    walk += [(x0 + s, y0 + k) for k in range(s)]        # right, up
    walk += [(x0 + s - k, y0 + s) for k in range(s)]    # top, right->left
    walk += [(x0, y0 + s - k) for k in range(s)]        # left, down
    start = s + s // 2                                  # mid-right
    return walk[start:] + walk[:start]


def _graded_fractions(length, first_band, count):
    """Cumulative fractions of a geometric subdivision of [0, length] into
    count bands whose first band is close to first_band."""
    if length <= first_band * count or count == 1:
        return [q / count for q in range(1, count + 1)]

    def total(ratio):
        if abs(ratio - 1.0) < 1e-12:
            return first_band * count
        return first_band * (ratio ** count - 1.0) / (ratio - 1.0)

    lo, hi = 1.0, 2.0
    while total(hi) < length:
        hi *= 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if total(mid) < length:
            lo = mid
        else:
            hi = mid
    g = 0.5 * (lo + hi)
    acc, out = 0.0, []
    band = first_band
    for _ in range(count):
        acc += band
        out.append(acc)
        band *= g
    return [v / acc for v in out]


def _quad_band(inner, outer):
    """The quads (v0, v1, v2, v3) = (inner[j], outer[j], outer[j+1],
    inner[j+1]) of the band between two equal-count rings (lists of node
    ids), as an (n, 4) array; _triangulate_bands picks each diagonal."""
    return np.array([inner, outer, outer[1:] + outer[:1],
                     inner[1:] + inner[:1]]).T


def _doubling_band(inner, outer):
    """The (3n, 3) triangles of the band between a ring of n nodes and one
    of 2n: (a, c0, c1), (a, c1, b), (b, c1, c2) for each inner side a-b."""
    a, b = inner, inner[1:] + inner[:1]
    c0, c1, c2 = outer[0::2], outer[1::2], outer[2::2] + outer[:1]
    return np.array([a, c0, c1, a, c1, b, b, c1, c2]).T.reshape(-1, 3)


def _map(fn, *arrays):
    """fn of Python floats over same-shape float arrays, elementwise."""
    out = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.array(list(out)).reshape(arrays[0].shape)


# Sides p_j - p_i of a quad (v0, v1, v2, v3), for (i, j) in _SIDES; the last
# two reverse the diagonals.  _TRIS lists, for the triangles (v0, v1, v2),
# (v0, v2, v3) of split A and (v0, v1, v3), (v1, v2, v3) of split B, their
# sides a = p1 - p0, b = p2 - p1, c = p0 - p2 as rows of _SIDES.
_SIDES = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (2, 0),
                   (3, 1)]).T
_TRIS = np.array([(0, 1, 6), (4, 2, 3), (0, 5, 3), (1, 2, 7)]).T
_SPLIT_A = [0, 1, 2, 0, 2, 3]
_SPLIT_B = [0, 1, 3, 1, 2, 3]


def _min_angle(x, y, length):
    """Smallest angle of each triangle from its sides a, b, c (axis 0 of
    the x, y and length arrays); -1.0 where it is not positively oriented.
    The same float expressions as a scalar evaluation of one triangle."""
    (ax, bx, cx), (ay, by, cy), (la, lb, lc) = x, y, length
    ok = ax * by - ay * bx > 0
    dot = np.stack([ax * -cx + ay * -cy, bx * -ax + by * -ay,
                    cx * -bx + cy * -by])
    nrm = np.stack([la * lc, lb * la, lc * lb])
    cos = np.divide(dot, nrm, out=np.zeros(dot.shape), where=ok)
    angle = _map(math.acos, np.maximum(-1.0, np.minimum(1.0, cos)))
    return np.where(ok, np.minimum(math.pi, angle.min(axis=0)), -1.0)


def _triangulate_bands(bands, points):
    """The triangles of a cell's bands, in order: an (n, 3) band is taken as
    it is, and each quad of an (n, 4) band is split along whichever diagonal
    maximizes the min angle of its two triangles, v0-v2 on a tie.

    On the plain rings every quad is an isosceles trapezoid, so both splits
    tie in exact arithmetic and the last ulp of acos/hypot picks the
    diagonal.  The scores must thus be, bit for bit, the floats of a scalar
    per-triangle evaluation: numpy does only the correctly rounded + - * /,
    min/max and comparisons, and hypot and acos stay in ``math``, mapped
    over Python floats, because numpy's SIMD hypot and arccos differ from
    libm in the last ulp for some inputs and so can flip ties.  Each side
    length is computed once per quad, as x - y == -(y - x) and
    hypot(-x, -y) == hypot(x, y) exactly.
    """
    q = np.concatenate([b for b in bands if b.shape[1] == 4])
    p = np.array(points)[q].T                   # (x or y, vertex, quad)
    x, y = p[:, _SIDES[1]] - p[:, _SIDES[0]]
    length = _map(math.hypot, x[:6], y[:6])[[0, 1, 2, 3, 4, 5, 4, 5]]
    score = _min_angle(x[_TRIS], y[_TRIS], length[_TRIS])
    split_b = np.minimum(score[0], score[1]) < np.minimum(score[2], score[3])
    pairs = np.where(split_b[:, None], q[:, _SPLIT_B], q[:, _SPLIT_A])
    out, at = [], 0
    for band in bands:
        if band.shape[1] == 4:
            band, at = pairs[at:at + len(band)].reshape(-1, 3), at + len(band)
        out.append(band)
    return np.concatenate(out)


def _build_cell(cell, hole: Hole, template: CellMeshTemplate):
    """Nodes, triangles, hole edges, and boundary walk for one cell mesh.

    Returns (points, walk, triangles, hole_edges) where triangles is an
    (nt, 3) int64 array and walk lists the lattice keys of the 4s cell
    boundary nodes, which are the last 4s points.  Triangles come band by
    band, from the hole outwards; the quads of all quad bands are split in
    one array pass over the cell's points at the end (_triangulate_bands).
    """
    template.validate(hole.k)
    ix, iy, m = cell.grid
    s = template.boundary_nodes_per_side
    n = template.hole_boundary_segments
    r = cell.r_in
    hx, hy = hole.center
    d = hole.d

    rho_out = C_SEC * r
    ratio = rho_out / d
    rings_needed = template.rings_needed(d, rho_out)
    # ring_count is a budget: spend only as many rings as keeps the radial
    # step near the tangential spacing (ratio 1 + 2*pi/n per ring)
    balanced = round(math.log(ratio) / math.log(1.0 + 2.0 * math.pi / n))
    rings = min(template.ring_count, max(1, rings_needed, balanced))
    ccx, ccy = cell.center
    off_inf = max(abs(hx - ccx), abs(hy - ccy))
    if off_inf > (MAX_HOLE_OFFSET + 1e-12) * r:
        raise MeshError(
            f"hole offset in cell {cell.index} leaves no room for the "
            "transition layer to the cell boundary")

    points: list = []

    def add(pts):
        """Append a ring of points; returns their node ids."""
        start = len(points)
        points.extend(pts)
        return list(range(start, len(points)))

    bands: list = []
    p = template.doublings
    rings = max(rings, p + 1)
    plain = rings - p
    t = ratio ** (1.0 / rings)

    # ring 0: the polygonalized hole boundary
    ring = add([hole.boundary_point(2.0 * math.pi * j / n) for j in range(n)])
    hole_edges = [(ring[j], ring[(j + 1) % n]) for j in range(n)]

    count = n
    circle_pts = None
    for j in range(1, rings + 1):
        rho = rho_out if j == rings else d * t ** j
        double = j > plain
        nxt_count = count * 2 if double else count
        pts = [(hx + rho * math.cos(2.0 * math.pi * q / nxt_count),
                hy + rho * math.sin(2.0 * math.pi * q / nxt_count))
               for q in range(nxt_count)]
        nxt = add(pts)
        band = _doubling_band if double else _quad_band
        bands.append(band(ring, nxt))
        ring, count = nxt, nxt_count
        circle_pts = pts

    # transition layer: transfinite rows from the secure-ball ring straight
    # to the lattice boundary walk.  Uniform circle angles pair with the
    # arc-uniform walk (corners align at the 45-degree nodes); every
    # connector is graded geometrically so its first band matches the circle
    # spacing, whatever its length.
    den = m * s
    walk = _cell_boundary_walk(ix, iy, s)
    walk_pts = [(gx / den, gy / den) for gx, gy in walk]
    t0 = 2.0 * math.pi * rho_out / (4 * s)
    lengths = [math.hypot(wp[0] - cp[0], wp[1] - cp[1])
               for wp, cp in zip(walk_pts, circle_pts)]
    grow = 2.0
    row_count = max(2, math.ceil(
        math.log(1.0 + max(lengths) * (grow - 1.0) / t0) / math.log(grow)))
    weights = [_graded_fractions(length, t0, row_count) for length in lengths]
    for q in range(1, row_count + 1):
        if q == row_count:
            nxt = add(walk_pts)
        else:
            nxt = add([((1.0 - wq[q - 1]) * cpt[0] + wq[q - 1] * wpt[0],
                        (1.0 - wq[q - 1]) * cpt[1] + wq[q - 1] * wpt[1])
                       for cpt, wpt, wq in zip(circle_pts, walk_pts, weights)])
        bands.append(_quad_band(ring, nxt))
        ring = nxt

    return points, walk, _triangulate_bands(bands, points), hole_edges


def mesh_perforated(geometry, template: CellMeshTemplate) -> Mesh:
    """Stitched conforming mesh of the perforated domain.

    A cell point's label is a fresh negative id, or on the cell boundary
    walk the rank of its lattice key, which adjacent cells share; nodes are
    numbered by the first appearance of their label in cell order.
    """
    points, walks, on_walk, tris, hole_edges = [], [], [], [], []
    for cell, hole in zip(geometry.cells, geometry.holes):
        pts, walk, t, edges = _build_cell(cell, hole, template)
        tris.append(t + len(points))
        hole_edges.append(np.add(edges, len(points)))
        points += pts
        walks += walk
        on_walk.append(np.arange(len(pts)) >= len(pts) - len(walk))
    labels = -1 - np.arange(len(points))
    labels[np.concatenate(on_walk)] = np.unique(
        walks, axis=0, return_inverse=True)[1].ravel()
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    node_of = np.argsort(np.argsort(first))[inverse]
    keep = np.sort(first)
    nodes = np.array(points)[keep]
    triangles = node_of[np.concatenate(tris)]
    index = [cell.index for cell in geometry.cells]
    tags = np.repeat(index, [len(e) for e in hole_edges])
    hole_edges = node_of[np.concatenate(hole_edges)]
    outer = _outer_edges(nodes, triangles, hole_edges, labels[keep] >= 0)
    mesh = Mesh(nodes, triangles, np.concatenate([hole_edges, outer]),
                np.concatenate([tags, np.full(len(outer), OUTER)]),
                tri_cell=np.repeat(index, [len(t) for t in tris]),
                circles={h.cell_index: (*h.center, h.d)
                         for h in geometry.holes if h.k is None})
    areas = mesh.signed_areas()
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"non-positive triangle {bad} (area {areas[bad]:.3g})")
    return mesh


def _outer_edges(nodes, triangles, hole_edges, lattice):
    """The directed edges of exactly one triangle that are not hole edges.
    MeshError on an edge of three triangles or more, and on an outer edge
    off the cell boundary nodes marked in lattice (a stitching defect)."""
    uniq, inverse, counts = _edge_table(triangles)
    if np.any(counts > 2):
        bad = uniq[counts > 2][0]
        raise MeshError(
            f"edge ({bad[0]}, {bad[1]}) shared by more than two triangles at "
            f"{nodes[bad[0]]}, {nodes[bad[1]]}")
    once = _sides(triangles)[counts[inverse] == 1]
    base = len(nodes)
    outer = once[~np.isin(
        once.min(axis=1) * base + once.max(axis=1),
        hole_edges.min(axis=1) * base + hole_edges.max(axis=1))]
    stray = outer[~lattice[outer].all(axis=1)]
    if len(stray):
        raise MeshError(f"outer edge {stray[0].tolist()} at "
                        f"{nodes[stray[0]].tolist()} is off the cell boundary")
    return outer


def mesh_unperforated(domain, h: float) -> Mesh:
    """Structured right-triangle mesh of a domain, size <= h.

    Cell (ix, iy) is the square [ix/nd, (ix+1)/nd] x [iy/nd, (iy+1)/nd],
    split into triangles (sw, se, ne) and (sw, ne, nw); nodes are numbered by
    first appearance in the row-major (iy, ix) scan of the inside cells.
    mesh.lattice is (nd, (ix0, iy0), first_tri), where first_tri[iy - iy0,
    ix - ix0] is the (sw, se, ne) triangle of the cell, or -1 outside.
    """
    _check_h(h)
    den = 1
    for x, y in domain.vertices:
        den = math.lcm(den, x.denominator, y.denominator)
    nd = den * max(1, math.ceil(1.0 / (h * den) - 1e-12))
    (ix0, iy0), inside = _grid_squares(domain, nd)
    jy, jx = np.nonzero(inside)
    if len(jy) == 0:
        raise MeshError("empty structured mesh")

    width = inside.shape[1] + 1
    sw = jy * width + jx
    corners = np.stack([sw, sw + 1, sw + width + 1, sw + width], axis=1)
    keys, first = np.unique(corners, return_index=True)
    grid = keys[np.argsort(first)]             # corner keys in node order
    node_of = np.empty(keys[-1] + 1, dtype=np.int64)
    node_of[grid] = np.arange(len(grid))
    c = node_of[corners]
    triangles = np.stack([c[:, [0, 1, 2]], c[:, [0, 2, 3]]],
                         axis=1).reshape(-1, 3)
    nodes = np.stack([(ix0 + grid % width) / nd, (iy0 + grid // width) / nd],
                     axis=1)

    first_tri = np.full(inside.shape, -1, dtype=np.int64)
    first_tri[jy, jx] = 2 * np.arange(len(jy))
    edges_once = _boundary_edges_oriented(triangles)
    return Mesh(nodes, triangles,
                edges_once, np.full(len(edges_once), OUTER, dtype=np.int64),
                lattice=(nd, (ix0, iy0), first_tri))


def _sides(triangles):
    """The 3T directed edges: sides 01 of all triangles, then 12, then 20."""
    t = triangles
    return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])


def _edge_table(triangles):
    """Undirected edges of a triangle list, identified by one int64 key each.

    Returns (edges, inverse, counts): the unique edges as (lo, hi) rows in
    lexicographic order, the row of each directed edge of _sides, and the
    number of triangles sharing each edge.
    """
    sides = _sides(triangles)
    base = int(triangles.max()) + 1
    keys, inverse, counts = np.unique(
        sides.min(axis=1) * base + sides.max(axis=1),
        return_inverse=True, return_counts=True)
    return np.stack([keys // base, keys % base], axis=1), inverse, counts


def _boundary_edges_oriented(triangles):
    """Directed edges that occur exactly once over all triangles."""
    _, inverse, counts = _edge_table(triangles)
    return _sides(triangles)[counts[inverse] == 1]


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement; the midpoint of a boundary edge whose tag is
    in mesh.circles is projected onto that circle, so the polygonal
    approximation tightens with the mesh."""
    t = mesh.triangles
    uniq, inverse, _ = _edge_table(t)
    mids = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    mid_ids = len(mesh.nodes) + np.arange(len(uniq))

    # row of each boundary edge in uniq: keys with any base above the node
    # ids sort like the (lo, hi) rows
    n, be = len(mesh.nodes), mesh.boundary_edges
    keys = uniq[:, 0] * n + uniq[:, 1]
    be_keys = be.min(axis=1) * n + be.max(axis=1)
    at = np.searchsorted(keys, be_keys)
    if np.any(keys.take(at, mode="clip") != be_keys):
        raise MeshError("boundary edge is not a side of any triangle")

    for idx, tag in zip(at, mesh.edge_tags.tolist()):
        if tag in mesh.circles:
            cx, cy, rad = mesh.circles[tag]
            vx, vy = mids[idx, 0] - cx, mids[idx, 1] - cy
            nrm = math.hypot(vx, vy)
            mids[idx] = (cx + rad * vx / nrm, cy + rad * vy / nrm)

    nodes = np.vstack([mesh.nodes, mids])
    nt = len(t)
    e01 = mid_ids[inverse[0 * nt:1 * nt]]
    e12 = mid_ids[inverse[1 * nt:2 * nt]]
    e20 = mid_ids[inverse[2 * nt:3 * nt]]
    children = np.concatenate([
        np.stack([t[:, 0], e01, e20], axis=1),
        np.stack([t[:, 1], e12, e01], axis=1),
        np.stack([t[:, 2], e20, e12], axis=1),
        np.stack([e01, e12, e20], axis=1),
    ])
    child_cells = np.concatenate([mesh.tri_cell] * 4)
    halves = np.stack([be[:, 0], mid_ids[at], mid_ids[at], be[:, 1]], axis=1)

    return Mesh(nodes, children, halves.reshape(-1, 2),
                np.repeat(mesh.edge_tags, 2), tri_cell=child_cells,
                circles=dict(mesh.circles))


# ---------------------------------------------------------------------------
# plain-text export (round-trips bit-exactly through repr floats)

def export_mesh(mesh: Mesh) -> str:
    lines = [f"{mesh.num_nodes} nodes {mesh.num_triangles} triangles "
             f"{len(mesh.boundary_edges)} boundary_edges"]
    for x, y in mesh.nodes:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    for (a, b), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        name = "outer" if tag == OUTER else f"hole:{tag}"
        lines.append(f"{a} {b} {name}")
    return "\n".join(lines) + "\n"


def load_mesh(text: str) -> Mesh:
    rows = text.strip().split("\n")
    head = rows[0].split()
    n, m, e = int(head[0]), int(head[2]), int(head[4])
    nodes = np.array([[float(v) for v in rows[1 + i].split()]
                      for i in range(n)])
    tris = np.array([[int(v) for v in rows[1 + n + i].split()]
                     for i in range(m)], dtype=np.int64)
    edges, tags = [], []
    for i in range(e):
        a, b, name = rows[1 + n + m + i].split()
        edges.append((int(a), int(b)))
        tags.append(OUTER if name == "outer" else int(name.split(":")[1]))
    return Mesh(nodes, tris, np.array(edges, dtype=np.int64),
                np.array(tags, dtype=np.int64))
