"""Meshes of single shapes: disks, gon holes, collars, and interface balls.

These feed the one-cell eigenvalue studies.  Rings are star-shaped around a
common center and consecutive rings are triangulated with an angular zipper,
which tolerates arbitrary node counts per ring; refinement then goes through
the standard red refinement, so two-mesh extrapolation always has a clean
h -> h/2 pair.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Cell, Hole, chebyshev_center, hole_order
from .meshgen import (CellMeshTemplate, Mesh, MeshError, OUTER,
                      _boundary_edges_oriented, _build_cell, _check_h,
                      _edge_table, refine)

TWO_PI = 2.0 * math.pi


def _zip_band(inner_ids, inner_ang, outer_ids, outer_ang) -> np.ndarray:
    """Triangles of the band between two closed CCW rings of nodes, given
    with their ascending angles.  A merge of the angles (outer first on
    ties) steps along one ring at a time, and each step closes one
    triangle: (inner, outer, next outer) or (inner, outer, next inner)."""
    ni, no = len(inner_ids), len(outer_ids)
    ii, oi = np.append(inner_ids, inner_ids[0]), np.append(outer_ids,
                                                           outer_ids[0])
    step = np.argsort(np.concatenate([outer_ang[1:], [outer_ang[0] + TWO_PI],
                                      inner_ang[1:], [inner_ang[0] + TWO_PI]]),
                      kind="stable")
    outer = step < no
    o = np.cumsum(outer) - outer         # outer steps before each step
    i = np.arange(ni + no) - o           # inner steps before it
    return np.column_stack([ii[i], oi[o], np.where(
        outer, oi[np.minimum(o + 1, no)], ii[np.minimum(i + 1, ni)])])


def _pow2_segments(target: float, mult: int) -> int:
    """mult * 2^j closest above target (at least mult, at least 8-ish)."""
    base = max(target / mult, 1.0)
    return mult * 2 ** max(0, math.ceil(math.log2(base) - 1e-12))


def _fill_star_interior(first: int, center, boundary_pt, ids, angles):
    """Nodes and triangles that fill the inside of a star-shaped ring (node
    ids at ascending angles) by halving rings down to a fan; the new nodes
    are numbered from first."""
    cx, cy = center
    scale = 1.0
    pts, tris = [], []
    while len(ids) > 8:
        sub = angles[::2]
        scale *= 0.5
        bx, by = np.array([boundary_pt(t) for t in sub]).T
        pts.append(np.column_stack([cx + scale * (bx - cx),
                                    cy + scale * (by - cy)]))
        new_ids = np.arange(first, first + len(sub))
        tris.append(_zip_band(new_ids, sub, ids, angles))
        first += len(sub)
        ids, angles = new_ids, sub
    pts.append([(cx, cy)])
    tris.append(np.column_stack([np.full(len(ids), first), ids,
                                 np.roll(ids, -1)]))
    return np.concatenate(pts), np.concatenate(tris)


def _shape_hole(spec, radius: float, center=(0.0, 0.0)) -> Hole:
    return Hole(cell_index=0, k=hole_order(spec), center=center, d=radius)


def _angles(n: int) -> np.ndarray:
    """n equally spaced angles from 0, as TWO_PI * j / n."""
    return TWO_PI * np.arange(n) / n


def _unit_circle(angles) -> np.ndarray:
    """(cos, sin) of each angle by math.cos and math.sin; rho times it is
    the circle of radius rho, bit for bit as rho * math.cos(t)."""
    return np.array([(math.cos(t), math.sin(t)) for t in angles])


def _cycle(ids) -> np.ndarray:
    """The closed edge cycle through a ring of node ids."""
    return np.column_stack([ids, np.roll(ids, -1)]).astype(np.int64)


def _star_rings(hole: Hole, n: int, fill: bool, radii):
    """Rings around the origin, from the hole boundary out.

    Lays the hole's n-node boundary ring, star-fills its inside when fill
    (region 0), then one circle per radius (region 1), each at the hole
    ring's n angles.  Returns (nodes, triangles, regions, hole ring ids,
    outermost ring ids).
    """
    angles = _angles(n)
    nodes = [np.array([hole.boundary_point(t) for t in angles])]
    tris = []
    hole_ids = ids = np.arange(n)
    if fill:
        pts, fan = _fill_star_interior(n, hole.center, hole.boundary_point,
                                       hole_ids, angles)
        nodes.append(pts)
        tris.append(fan)
    hole_tris = sum(map(len, tris))
    unit = _unit_circle(angles)
    count = sum(map(len, nodes))
    for rho in radii:
        nodes.append(rho * unit)
        new_ids = np.arange(count, count + n)
        tris.append(_zip_band(ids, angles, new_ids, angles))
        count += n
        ids = new_ids
    region = np.zeros(sum(map(len, tris)), dtype=np.int64)
    region[hole_tris:] = 1
    return (np.concatenate(nodes), np.concatenate(tris).astype(np.int64),
            region, hole_ids, ids)


def _unit_hole(spec, h: float):
    """The upscaled hole (smallest enclosing ball = unit ball) and the node
    count of its boundary ring at mesh size h."""
    _check_h(h)
    hole = _shape_hole(spec, 1.0)
    return hole, _pow2_segments(TWO_PI / h, hole.k or 8)


def _collar_radii(h: float) -> list:
    """Circles from the unit circle out to radius 2, about h apart."""
    nr = max(2, math.ceil(1.0 / h))
    return [1.0 + j / nr for j in range(1, nr + 1)]


def mesh_hole_shape(spec, h: float) -> Mesh:
    """Mesh of the upscaled hole (smallest enclosing ball = unit ball)."""
    hole, n = _unit_hole(spec, h)
    nodes, tris, _, ring, _ = _star_rings(hole, n, True, [])
    circles = {OUTER: (0.0, 0.0, 1.0)} if hole.k is None else {}
    return Mesh(nodes, tris, _cycle(ring), np.full(n, OUTER, dtype=np.int64),
                circles=circles)


def mesh_disk(radius: float, h: float, center=(0.0, 0.0)) -> Mesh:
    mesh = mesh_hole_shape("circle", h / radius)
    mesh.nodes = mesh.nodes * radius + np.asarray(center)
    mesh.circles = {OUTER: (center[0], center[1], radius)}
    return mesh


def mesh_collar(spec, h: float) -> Mesh:
    """Mesh of the collar: ball of radius 2 minus the closed upscaled hole.
    The hole boundary is tagged 0, the outer circle OUTER."""
    hole, n = _unit_hole(spec, h)
    nodes, tris, _, ring, outer = _star_rings(hole, n, False,
                                              _collar_radii(h))
    tags = np.array([0] * n + [OUTER] * len(outer), dtype=np.int64)
    circles = {OUTER: (0.0, 0.0, 2.0)}
    if hole.k is None:
        circles[0] = (0.0, 0.0, 1.0)
    return Mesh(nodes, tris, np.vstack([_cycle(ring), _cycle(outer)]), tags,
                circles=circles)


def mesh_ball_with_interface(spec, h: float) -> Mesh:
    """Ball of radius 2 with the upscaled hole's boundary as an interior ring.

    Triangles carry a region marker in tri_cell: 0 inside the hole, 1 in the
    collar.  The interface ring is recoverable as the nodes shared by both
    regions.
    """
    hole, n = _unit_hole(spec, h)
    nodes, tris, region, _, outer = _star_rings(hole, n, True,
                                                _collar_radii(h))
    return Mesh(nodes, tris, _cycle(outer),
                np.full(len(outer), OUTER, dtype=np.int64), tri_cell=region,
                circles={OUTER: (0.0, 0.0, 2.0)})


def mesh_secure_ball(d: float, ball_radius: float) -> Mesh:
    """Ball around a tiny circular hole, geometrically graded in radius.

    Regions in tri_cell: 0 = hole interior (the ball of radius d), 1 = the
    annulus out to the secure radius.  Built for scale-separated sweeps where
    ball_radius / d spans orders of magnitude: every ring keeps the hole's
    32 nodes, and consecutive radii grow by a factor of at most 1.7.
    """
    ratio = ball_radius / d
    if ratio < 2:
        raise MeshError("ball_radius must be at least 2 d")
    nr = math.ceil(math.log(ratio) / math.log(1.7) - 1e-12)
    t = ratio ** (1.0 / nr)
    radii = [d * t ** j for j in range(1, nr)] + [ball_radius]
    nodes, tris, region, _, outer = _star_rings(
        _shape_hole("circle", d), 32, True, radii)
    return Mesh(nodes, tris, _cycle(outer),
                np.full(len(outer), OUTER, dtype=np.int64), tri_cell=region,
                circles={OUTER: (0.0, 0.0, float(ball_radius))})


def mesh_slit_collar(beta: float, h: float) -> Mesh:
    """Collar of the slit-annulus hole inside the ball of radius 2.

    The hole is the annulus 1/2 < |x| < 1 with an angular channel of
    half-width beta removed, so the collar consists of the inner disk and the
    outer annulus joined through the narrow channel.
    """
    if not 0 < beta <= math.pi / 2:
        raise MeshError("beta must lie in (0, pi/2]")
    _check_h(h)
    radii = []
    for lo, hi in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0)):
        steps = max(2, math.ceil((hi - lo) / h))
        radii += [lo + (hi - lo) * j / steps for j in range(1, steps + 1)]
    na = max(32, math.ceil(TWO_PI / h))
    base = [-math.pi + TWO_PI * j / na for j in range(na)]
    extras = [-beta, -beta / 2, 0.0, beta / 2, beta]
    angles = sorted(set(base) | set(extras))
    merged = [angles[0]]
    for a in angles[1:]:
        if a - merged[-1] > 1e-9:
            merged.append(a)
    angles = np.array(merged)
    na = len(angles)
    unit = _unit_circle(angles)
    ring_ids = 1 + na * np.arange(len(radii))[:, None] + np.arange(na)
    tris = [np.column_stack([np.zeros(na, dtype=np.int64), ring_ids[0],
                             np.roll(ring_ids[0], -1)])]
    tris += [_zip_band(ring_ids[q], angles, ring_ids[q + 1], angles)
             for q in range(len(radii) - 1)]
    pts = np.concatenate([[(0.0, 0.0)]] + [rho * unit for rho in radii])
    tri_arr = np.concatenate(tris)
    cen = pts[tri_arr].mean(axis=1)
    rc = np.hypot(cen[:, 0], cen[:, 1])
    tc = np.arctan2(cen[:, 1], cen[:, 0])
    inside_hole = (rc > 0.5) & (rc < 1.0) & (np.abs(tc) > beta)
    keep = tri_arr[~inside_hole]

    used = np.unique(keep)
    remap = -np.ones(len(pts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    tri_new = remap[keep]
    edges = _boundary_edges_oriented(tri_new)
    return Mesh(pts[used], tri_new, edges,
                np.full(len(edges), OUTER, dtype=np.int64))


def mesh_convex_polygon(verts, h: float) -> Mesh:
    """Fan triangulation from the Chebyshev center plus red refinement."""
    _check_h(h)
    verts = [tuple(map(float, v)) for v in verts]
    center, _ = chebyshev_center(verts)
    nodes = [center] + verts
    n = len(verts)
    tris = [(0, 1 + j, 1 + (j + 1) % n) for j in range(n)]
    edges = np.array([(1 + j, 1 + (j + 1) % n) for j in range(n)],
                     dtype=np.int64)
    mesh = Mesh(np.array(nodes), np.array(tris, dtype=np.int64), edges,
                np.full(n, OUTER, dtype=np.int64))
    while mesh.h_max > h:
        mesh = refine(mesh)
    return mesh


def mesh_cell_with_hole(d: float, segments: int = 32, sides: int = 8) -> Mesh:
    """Unit cell [0,1]^2 with a centered circular hole of radius d meshed
    through: the graded cell template outside, a star fill inside, with the
    hole boundary kept as an interior interface (regions 0/1 in tri_cell)."""
    cell = Cell(0, (0, 0, 1))
    hole = _shape_hole("circle", d, center=cell.center)
    template = CellMeshTemplate(ring_count=40, grading=1.9,
                                boundary_nodes_per_side=sides,
                                hole_boundary_segments=segments)
    nodes, _, collar, _ = _build_cell(cell, hole, template)
    pts, fill = _fill_star_interior(len(nodes), hole.center,
                                    hole.boundary_point, np.arange(segments),
                                    _angles(segments))
    region = np.ones(len(collar) + len(fill), dtype=np.int64)
    region[len(collar):] = 0
    tri_arr = np.concatenate([collar, fill])
    edges = _boundary_edges_oriented(tri_arr)
    return Mesh(np.concatenate([nodes, pts]), tri_arr, edges,
                np.full(len(edges), OUTER, dtype=np.int64), tri_cell=region)


def interface_edges(mesh: Mesh):
    """Undirected edges shared by a region-0 and a region-1 triangle, as
    (lo, hi) rows in lexicographic order (regions in tri_cell)."""
    edges, inverse, counts = _edge_table(mesh.triangles)
    region = np.tile(mesh.tri_cell, 3)         # region of each directed side
    once = [np.bincount(inverse[region == r], minlength=len(edges)) == 1
            for r in (0, 1)]
    return edges[(counts == 2) & once[0] & once[1]]
