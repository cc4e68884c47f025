import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg
from steklov_lab import shapes


TPL = mg.CellMeshTemplate()


def polygonal_hole_area(hole, segments):
    return 0.5 * segments * hole.d ** 2 * math.sin(2 * math.pi / segments)


def test_template_validation():
    with pytest.raises(mg.MeshError):
        mg.CellMeshTemplate(grading=0.9).validate()
    with pytest.raises(mg.MeshError):
        mg.CellMeshTemplate(hole_boundary_segments=20).validate()
    with pytest.raises(mg.MeshError):
        mg.CellMeshTemplate(boundary_nodes_per_side=5).validate()
    with pytest.raises(mg.MeshError):
        # 4*sides / segments not a power of two
        mg.CellMeshTemplate(boundary_nodes_per_side=6,
                            hole_boundary_segments=32).validate()
    mg.CellMeshTemplate(8, 2.0, 8, 16).validate()


def _one_cell(geom, i=0):
    """Cell i of geom alone, as a perforated geometry of its own."""
    return geo.PerforatedGeometry(domain=geom.domain, m=geom.m,
                                  cells=geom.cells[i:i + 1],
                                  holes=geom.holes[i:i + 1])


def test_one_cell_quality_and_hole_polygon():
    # quarter cell with d = 1/64: two decades of scale separation
    geom = geo.build_perforated_geometry(geo.unit_square(), 4, 1.0)
    tpl = mg.CellMeshTemplate(8, 2.0, 8, 16)
    mesh = mg.mesh_perforated(_one_cell(geom), tpl)
    assert mesh.min_angle() >= 20.0
    d = geom.holes[0].d
    hx, hy = geom.holes[0].center
    on_hole = mesh.edge_tags != mg.OUTER
    assert set(mesh.edge_tags[on_hole].tolist()) == {geom.cells[0].index}
    for nid in mesh.boundary_edges[on_hole].ravel():
        assert abs(math.hypot(*(mesh.nodes[nid] - (hx, hy))) - d) < 1e-12


def test_ring_zero_conforms_to_hole_polygon():
    geom = geo.build_perforated_geometry(geo.unit_square(), 4, 1.0)
    mesh = mg.mesh_perforated(_one_cell(geom), TPL)
    hole_nodes = mesh.boundary_nodes(geom.cells[0].index)
    assert len(hole_nodes) == TPL.hole_boundary_segments


def test_adjacent_cells_share_identical_boundary_nodes():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    meshes = [mg.mesh_perforated(_one_cell(geom, i), TPL) for i in (0, 1)]
    # shared edge between cell 0 (left-bottom) and cell 1 (right-bottom)
    right = {tuple(p) for p in meshes[0].nodes if p[0] == 0.5}
    left = {tuple(p) for p in meshes[1].nodes if p[0] == 0.5}
    s = TPL.boundary_nodes_per_side
    assert len(right) == s + 1
    assert right == left


def test_stitched_node_count_matches_dedup_oracle():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    meshes = [mg.mesh_perforated(_one_cell(geom, i), TPL)
              for i in range(len(geom.cells))]
    seen = set()
    for m in meshes:
        for p in m.nodes:
            seen.add((round(p[0], 13), round(p[1], 13)))
    stitched = mg.mesh_perforated(geom, TPL)
    assert stitched.num_nodes == len(seen)


def test_perforated_tags_and_euler():
    geom = geo.build_perforated_geometry(geo.unit_square(), 8, 1.0)
    mesh = mg.mesh_perforated(geom, TPL)
    # every hole tag present exactly once per cell
    tags = set(int(t) for t in mesh.edge_tags if t != mg.OUTER)
    assert tags == set(range(64))
    # every outer node on the domain boundary
    for nid in mesh.boundary_nodes(mg.OUTER):
        x, y = mesh.nodes[nid]
        assert min(x, y, 1 - x, 1 - y) < 1e-12
    uniq, _, counts = mg._edge_table(mesh.triangles)
    assert set(counts) <= {1, 2}
    euler = mesh.num_nodes - len(uniq) + mesh.num_triangles
    assert euler == 1 - len(geom.holes)
    boundary_once = (counts == 1).sum()
    assert boundary_once == len(mesh.boundary_edges)


def _outer_by_side_walk(geom, mesh, s):
    """Reference: the outer edges as the lattice sides of every cell side
    with no occupied neighbour, walked counterclockwise around the cell."""
    occupied = {cell.grid[:2] for cell in geom.cells}
    den = geom.m * s
    ids = {tuple(p): i for i, p in enumerate(mesh.nodes.tolist())}
    edges = []
    for cell in geom.cells:
        ix, iy, _ = cell.grid
        x0, y0 = ix * s, iy * s
        sides = {
            (ix, iy - 1): [(x0 + k, y0) for k in range(s + 1)],
            (ix + 1, iy): [(x0 + s, y0 + k) for k in range(s + 1)],
            (ix, iy + 1): [(x0 + s - k, y0 + s) for k in range(s + 1)],
            (ix - 1, iy): [(x0, y0 + s - k) for k in range(s + 1)],
        }
        for nbr, walk in sides.items():
            if nbr not in occupied:
                at = [ids[(gx / den, gy / den)] for gx, gy in walk]
                edges += zip(at[:-1], at[1:])
    return edges


@pytest.mark.parametrize("domain,m,jitter,one_cell", [
    (geo.unit_square(), 1, None, False), (geo.unit_square(), 2, None, False),
    (geo.unit_square(), 4, None, False), (geo.l_shape(1), 2, None, False),
    (geo.l_shape(1), 4, None, False), (geo.rectangle(2, 1), 2, None, False),
    (geo.rectangle(1, 2), 2, None, False),
    (geo.unit_square(), 4, ("random", 0.6), False),
    (geo.l_shape(1), 2, None, True),
])
def test_outer_edges_match_the_side_walk_reference(domain, m, jitter,
                                                   one_cell):
    geom = geo.build_perforated_geometry(domain, m, 0.5, jitter=jitter,
                                         rng=np.random.default_rng(3))
    if one_cell:
        geom = _one_cell(geom, len(geom.cells) - 1)
    s = _BENCH_TPL.boundary_nodes_per_side
    mesh = mg.mesh_perforated(geom, _BENCH_TPL)
    outer = mesh.boundary_edges[mesh.edge_tags == mg.OUTER]
    ref = _outer_by_side_walk(geom, mesh, s)
    assert len(outer) == len(ref)
    assert set(map(tuple, outer.tolist())) == set(ref)
    # every outer edge joins two nodes of the 1/(m*s) lattice
    p = mesh.nodes[outer] * (m * s)
    assert np.array_equal(np.round(p) / (m * s), mesh.nodes[outer])


@pytest.mark.parametrize("defect,message", [
    (lambda tris: tris[:-1], "is off the cell boundary"),
    (lambda tris: np.vstack([tris, tris[-1:]]), "shared by more than two"),
])
def test_stitching_defects_raise_instead_of_becoming_boundary(
        monkeypatch, defect, message):
    build = mg._build_cell

    def broken(*args):
        points, walk, tris, hole_edges = build(*args)
        return points, walk, defect(tris), hole_edges

    monkeypatch.setattr(mg, "_build_cell", broken)
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    with pytest.raises(mg.MeshError, match=message):
        mg.mesh_perforated(geom, TPL)


def test_mesh_area_identity():
    geom = geo.build_perforated_geometry(geo.unit_square(), 4, 1.0)
    mesh = mg.mesh_perforated(geom, TPL)
    holes_area = sum(polygonal_hole_area(h, TPL.hole_boundary_segments)
                     for h in geom.holes)
    assert abs(mesh.area() - (1.0 - holes_area)) < 1e-12


@pytest.mark.parametrize("m,beta", [(2, 0.5), (4, 1.0), (8, 2.0), (16, 1.0)])
def test_min_angle_floor_across_grid(m, beta):
    geom = geo.build_perforated_geometry(geo.unit_square(), m, beta)
    mesh = mg.mesh_perforated(geom, TPL)
    assert mesh.min_angle() >= 20.0


def test_single_cell_mesh_is_the_cell_template_plus_outer():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    single = mg.mesh_perforated(_one_cell(geom), TPL)
    points, walk, tris, hole_edges = mg._build_cell(
        geom.cells[0], geom.holes[0], TPL)
    assert np.array_equal(single.nodes, np.array(points))
    assert np.array_equal(single.triangles, tris)
    outer = single.edge_tags == mg.OUTER
    assert outer.sum() == len(walk) == 4 * TPL.boundary_nodes_per_side
    assert np.array_equal(single.boundary_edges[~outer], hole_edges)


def test_degenerate_grading_rejected_with_suggestion():
    geom = geo.build_perforated_geometry(geo.unit_square(), 16, 1.0)
    tight = mg.CellMeshTemplate(ring_count=1, grading=1.2,
                                boundary_nodes_per_side=8,
                                hole_boundary_segments=32)
    with pytest.raises(mg.MeshError, match="ring_count >="):
        mg.mesh_perforated(_one_cell(geom), tight)


def test_structured_mesh_counts():
    um = mg.mesh_unperforated(geo.unit_square(), 0.5)
    assert (um.num_nodes, um.num_triangles) == (9, 8)
    assert mg.mesh_unperforated(geo.unit_square(), 1.0).num_triangles == 2
    # enumeration oracle: the L keeps 3 of the 4 half-grid squares
    lm = mg.mesh_unperforated(geo.l_shape(1), 0.5)
    assert lm.num_triangles == 6
    # structured mesh of a thin strip
    sm = mg.mesh_unperforated(geo.rectangle(1, "1/20"), 0.05)
    assert abs(sm.area() - 0.05) < 1e-14


def test_refine_counts_and_projection():
    um = mg.mesh_unperforated(geo.unit_square(), 1.0)
    assert mg.refine(um).num_triangles == 8
    assert mg.refine(mg.refine(um)).num_triangles == 32

    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    mesh = mg.mesh_perforated(geom, TPL)
    fine = mg.refine(mesh)
    assert fine.num_triangles == 4 * mesh.num_triangles
    # hole-adjacent midpoints live on the true circle
    for (a, b), tag in zip(fine.boundary_edges, fine.edge_tags):
        if tag == mg.OUTER:
            continue
        h = geom.holes[int(tag)]
        for nid in (a, b):
            rr = math.hypot(*(fine.nodes[nid] - np.asarray(h.center)))
            assert abs(rr - h.d) < 1e-12


def _perforated(shape):
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 0.5, shape)
    return mg.mesh_perforated(geom, mg.CellMeshTemplate(6, 2.0, 4, 16))


@pytest.mark.parametrize("build,want", [
    (lambda: _perforated("circle"),
     {0: (0.25, 0.25, 0.03125), 1: (0.75, 0.25, 0.03125),
      2: (0.25, 0.75, 0.03125), 3: (0.75, 0.75, 0.03125)}),
    (lambda: _perforated(("kgon", 4)), {}),
    (lambda: shapes.mesh_collar("circle", 0.3),
     {0: (0.0, 0.0, 1.0), mg.OUTER: (0.0, 0.0, 2.0)}),
    (lambda: shapes.mesh_collar(("kgon", 3), 0.3), {mg.OUTER: (0.0, 0.0, 2.0)}),
    (lambda: shapes.mesh_disk(0.3, 0.05, center=(0.7, 0.2)),
     {mg.OUTER: (0.7, 0.2, 0.3)}),
    (lambda: shapes.mesh_secure_ball(0.01, 0.25),
     {mg.OUTER: (0.0, 0.0, 0.25)}),
], ids=["perforated-circle", "perforated-kgon", "collar-circle",
        "collar-kgon", "disk-off-centre", "secure-ball"])
def test_refine_projects_exactly_the_recorded_circles(build, want):
    mesh = build()
    assert mesh.circles == want
    fine = mg.refine(mesh)
    assert fine.circles == want
    projected = 0
    for i, ((a, b), tag) in enumerate(zip(mesh.boundary_edges,
                                          mesh.edge_tags.tolist())):
        mid = fine.boundary_edges[2 * i, 1]
        assert fine.boundary_edges[2 * i + 1, 0] == mid
        if tag in want:
            cx, cy, rad = want[tag]
            dist = math.hypot(fine.nodes[mid, 0] - cx, fine.nodes[mid, 1] - cy)
            assert abs(dist - rad) <= 1e-14 * rad
            projected += 1
        else:
            plain = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            assert np.array_equal(fine.nodes[mid], plain)
    assert projected == np.isin(mesh.edge_tags, list(want)).sum()
    assert projected > 0 or not want


def test_refined_hole_perimeter_converges_quadratically():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    mesh = mg.mesh_perforated(geom, TPL)
    per = []
    for _ in range(3):
        length = 0.0
        for (a, b), tag in zip(mesh.boundary_edges, mesh.edge_tags):
            if tag == 0:
                length += math.hypot(*(mesh.nodes[b] - mesh.nodes[a]))
        per.append(length)
        mesh = mg.refine(mesh)
    true = 2 * math.pi * geom.holes[0].d
    errs = [true - p for p in per]
    assert errs[0] > 0
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_export_roundtrip_bit_exact():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    mesh = mg.mesh_perforated(geom, TPL)
    text = mg.export_mesh(mesh)
    back = mg.load_mesh(text)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(back.edge_tags, mesh.edge_tags)
    assert mg.export_mesh(back) == text


def test_h_max_is_the_longest_edge_of_the_current_nodes():
    disk = shapes.mesh_disk(0.3, 0.05, center=(0.7, 0.2))
    assert disk.h_max == float(np.max(disk.edge_lengths()))
    assert mg.refine(disk).h_max < disk.h_max
    empty = mg.load_mesh("0 nodes 0 triangles 0 boundary_edges\n")
    assert empty.h_max == 0.0


def _contains(domain, x, y):
    """Crossing test of the point (x, y); exact for Fractions off the
    boundary."""
    inside = False
    v = domain.vertices
    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        if (y0 > y) != (y1 > y) and x < x0 + (y - y0) * (x1 - x0) / (y1 - y0):
            inside = not inside
    return inside


def _grid_cells_by_scan(domain, n):
    """Reference: the (ix, iy) squares of the 1/n grid whose centre passes
    the exact crossing test, in row-major (iy, ix) order."""
    x0, y0, x1, y1 = domain.bbox()
    return [(ix, iy) for iy in range(int(y0 * n), math.ceil(y1 * n))
            for ix in range(int(x0 * n), math.ceil(x1 * n))
            if _contains(domain, Fraction(2 * ix + 1, 2 * n),
                         Fraction(2 * iy + 1, 2 * n))]


@pytest.mark.parametrize("domain,ms", [
    (geo.unit_square(), [1, 2, 3, 7]), (geo.l_shape(1), [2, 4, 6, 10]),
    (geo.rectangle(2, 1), [1, 2, 5]), (geo.rectangle(1, "1/20"), [20, 40]),
])
def test_tessellation_matches_cell_scan(domain, ms):
    for m in ms:
        cells = geo.build_square_tessellation(domain, m)
        assert [c.index for c in cells] == list(range(len(cells)))
        assert [c.grid for c in cells] == [
            (ix, iy, m) for ix, iy in _grid_cells_by_scan(domain, m)]
        assert all(type(v) is int for c in cells for v in c.grid)


def _structured_by_scan(domain, h):
    """Reference: one exact crossing test per grid cell, nodes numbered by
    first appearance."""
    den = 1
    for x, y in domain.vertices:
        den = math.lcm(den, x.denominator, y.denominator)
    nd = den * max(1, math.ceil(1.0 / (h * den) - 1e-12))
    ids, nodes, tris = {}, [], []

    def nid(gx, gy):
        if (gx, gy) not in ids:
            ids[(gx, gy)] = len(nodes)
            nodes.append((gx / nd, gy / nd))
        return ids[(gx, gy)]

    for ix, iy in _grid_cells_by_scan(domain, nd):
        sw, se = nid(ix, iy), nid(ix + 1, iy)
        ne, nw = nid(ix + 1, iy + 1), nid(ix, iy + 1)
        tris += [(sw, se, ne), (sw, ne, nw)]
    directed = [(t[i], t[(i + 1) % 3]) for i in range(3) for t in tris]
    uses = Counter(tuple(sorted(e)) for e in directed)
    edges = [e for e in directed if uses[tuple(sorted(e))] == 1]
    return np.array(nodes), np.array(tris), np.array(edges)


@pytest.mark.parametrize("domain,h", [
    (geo.unit_square(), 1.0), (geo.unit_square(), 0.3),
    (geo.unit_square(), 1 / 32), (geo.l_shape(1), 0.5),
    (geo.l_shape(1), 1 / 10), (geo.l_shape(1), 1 / 33),
    (geo.rectangle(1, "1/20"), 0.05), (geo.rectangle(1, "1/20"), 1 / 64),
])
def test_structured_mesh_matches_cell_scan(domain, h):
    mesh = mg.mesh_unperforated(domain, h)
    nodes, triangles, edges = _structured_by_scan(domain, h)
    assert np.array_equal(mesh.nodes, nodes)
    assert np.array_equal(mesh.triangles, triangles)
    assert np.array_equal(mesh.boundary_edges, edges)


# Scalar reference for the quad splits: the per-triangle Python-float scoring
# that the array pass in _triangulate_bands must reproduce bit for bit.

def _tri_min_angle(pa, pb, pc):
    ax, ay = pb[0] - pa[0], pb[1] - pa[1]
    bx, by = pc[0] - pb[0], pc[1] - pb[1]
    cx, cy = pa[0] - pc[0], pa[1] - pc[1]
    area2 = ax * by - ay * bx
    if area2 <= 0:
        return -1.0
    worst = math.pi
    for (ux, uy), (vx, vy) in (((ax, ay), (-cx, -cy)),
                               ((bx, by), (-ax, -ay)),
                               ((cx, cy), (-bx, -by))):
        dot = ux * vx + uy * vy
        nrm = math.hypot(ux, uy) * math.hypot(vx, vy)
        worst = min(worst, math.acos(max(-1.0, min(1.0, dot / nrm))))
    return worst


def _scalar_quad_band(tris, inner, outer, pts):
    n = len(inner)
    for j in range(n):
        v0, v3 = inner[j], inner[(j + 1) % n]
        v1, v2 = outer[j], outer[(j + 1) % n]
        split_a = ((v0, v1, v2), (v0, v2, v3))
        split_b = ((v0, v1, v3), (v1, v2, v3))
        score_a = min(_tri_min_angle(*(pts[i] for i in t)) for t in split_a)
        score_b = min(_tri_min_angle(*(pts[i] for i in t)) for t in split_b)
        tris.extend(split_a if score_a >= score_b else split_b)


def _scalar_doubling_band(tris, inner, outer):
    n = len(inner)
    for j in range(n):
        a, b = inner[j], inner[(j + 1) % n]
        c0, c1 = outer[2 * j], outer[2 * j + 1]
        c2 = outer[(2 * j + 2) % (2 * n)]
        tris.append((a, c0, c1))
        tris.append((a, c1, b))
        tris.append((b, c1, c2))


def _scalar_build(monkeypatch, build):
    """build() with every band triangulated in order by the scalar
    reference loops."""
    def fill(bands, points):
        tris = []
        for band, inner, outer in bands:
            if band is _scalar_quad_band:
                band(tris, inner, outer, points)
            else:
                band(tris, inner, outer)
        return np.array(tris, dtype=np.int64)

    with monkeypatch.context() as mp:
        mp.setattr(mg, "_quad_band", lambda inner, outer: (
            _scalar_quad_band, inner, outer))
        mp.setattr(mg, "_doubling_band", lambda inner, outer: (
            _scalar_doubling_band, inner, outer))
        mp.setattr(mg, "_triangulate_bands", fill)
        return build()


_BENCH_TPL = mg.CellMeshTemplate(6, 2.0, 4, 16)
_DOUBLING_TPL = mg.CellMeshTemplate(8, 2.0, 8, 16)   # one doubling band


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4),
       tpl=st.sampled_from([_BENCH_TPL, TPL, _DOUBLING_TPL]),
       shape=st.sampled_from(["circle", ("kgon", 4), ("kgon", 8)]),
       beta=st.sampled_from([0.25, 0.5]),
       jitter=st.one_of(
           st.none(),
           st.tuples(st.just("random"), st.floats(0.0, 0.9)),
           st.tuples(st.just("fixed"), st.floats(-0.45, 0.45),
                     st.floats(-0.45, 0.45))),
       seed=st.integers(0, 2 ** 16),
       d=st.floats(0.005, 0.12))
def test_array_quad_splits_match_the_scalar_reference(m, tpl, shape, beta,
                                                      jitter, seed, d):
    geom = geo.build_perforated_geometry(
        geo.unit_square(), m, beta, shape_spec=shape, jitter=jitter,
        rng=np.random.default_rng(seed))
    segments, sides = tpl.hole_boundary_segments, tpl.boundary_nodes_per_side
    with pytest.MonkeyPatch.context() as monkeypatch, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        for cell, hole in zip(geom.cells, geom.holes):
            pts, walk, tris, edges = mg._build_cell(cell, hole, tpl)
            ref = _scalar_build(monkeypatch, lambda: mg._build_cell(
                cell, hole, tpl))
            assert (pts, walk, edges) == (ref[0], ref[1], ref[3])
            assert pts[len(pts) - len(walk):] == [
                (gx / (m * sides), gy / (m * sides)) for gx, gy in walk]
            assert tris.dtype == np.int64
            assert np.array_equal(tris, ref[2])
        mesh = shapes.mesh_cell_with_hole(d, segments=segments, sides=sides)
        ref = _scalar_build(monkeypatch, lambda: shapes.mesh_cell_with_hole(
            d, segments=segments, sides=sides))
    assert np.array_equal(mesh.nodes, ref.nodes)
    assert np.array_equal(mesh.triangles, ref.triangles)


@pytest.mark.parametrize("kind,k", [("circle", None), ("kgon", 3),
                                    ("kgon", 6)])
@pytest.mark.parametrize("h", [0.3, 0.15, 0.1, 0.06])
def test_ball_is_the_hole_mesh_plus_the_collar_mesh(kind, k, h):
    # the single-shape builders share one ring rule, so the ball's hole
    # region is the hole mesh and its collar region the collar mesh
    def coords(mesh, tris):
        c = mesh.nodes[tris].reshape(-1, 6)
        return c[np.lexsort(c.T[::-1])]

    spec = "circle" if k is None else (kind, k)
    ball = shapes.mesh_ball_with_interface(spec, h)
    for region, part in ((0, shapes.mesh_hole_shape(spec, h)),
                         (1, shapes.mesh_collar(spec, h))):
        got = coords(ball, ball.triangles[ball.tri_cell == region])
        assert np.array_equal(got, coords(part, part.triangles))


@pytest.mark.parametrize("spec", ["circle", ("kgon", 3), ("kgon", 6)],
                         ids=repr)
def test_every_collar_ring_has_the_hole_rings_node_count(spec):
    # the circles out to radius 2 reuse the hole ring's angles; its node
    # count of at least 2 pi / h keeps their arc spacing within 2 h
    def collar_ring(mesh):                         # tagged 0
        return np.unique(mesh.boundary_edges[mesh.edge_tags == 0])

    def ball_ring(mesh):                           # shared by both regions
        return np.intersect1d(*(mesh.triangles[mesh.tri_cell == r]
                                for r in (0, 1)))

    for h in (0.004, 0.013, 0.04, 0.12, 0.35, 1.0, 3.0, 20.0):
        for build, hole_ring in ((shapes.mesh_collar, collar_ring),
                                 (shapes.mesh_ball_with_interface, ball_ring)):
            mesh = build(spec, h)
            n = len(hole_ring(mesh))
            r = np.round(np.hypot(*mesh.nodes.T), 12)
            radii, counts = np.unique(r[r > 1.0], return_counts=True)
            assert len(radii) == max(2, math.ceil(1.0 / h)), h
            assert set(counts.tolist()) == {n}, h
            assert 2 * math.pi * radii[-1] / n <= 2 * h
            del mesh                   # one mesh of 10^5-10^6 nodes at a time


def _zip_band_loop(inner_ids, inner_ang, outer_ids, outer_ang):
    """Scalar reference: the angular zipper, one comparison per step."""
    ii, oi = list(inner_ids) + [inner_ids[0]], list(outer_ids) + [outer_ids[0]]
    ia = list(inner_ang) + [inner_ang[0] + shapes.TWO_PI]
    oa = list(outer_ang) + [outer_ang[0] + shapes.TWO_PI]
    ni, no, i, o, tris = len(ii) - 1, len(oi) - 1, 0, 0, []
    while i < ni or o < no:
        if o < no and (i >= ni or oa[o + 1] <= ia[i + 1]):
            tris.append((ii[i], oi[o], oi[o + 1]))
            o += 1
        else:
            tris.append((ii[i], oi[o], ii[i + 1]))
            i += 1
    return np.array(tris)


@settings(max_examples=50, deadline=None)
@given(n_in=st.integers(1, 40), n_out=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
def test_zip_band_matches_the_scalar_zipper(n_in, n_out, seed):
    # equal angles (circles), every other angle (star fill), and random
    # ascending angles with ties
    rng = np.random.default_rng(seed)
    grid = shapes._angles(n_out)
    cases = [(grid, grid), (grid[::2], grid)]
    pool = np.sort(rng.uniform(0.0, shapes.TWO_PI, n_in + n_out))
    cases.append((np.sort(rng.choice(pool, n_in)), np.sort(pool[:n_out])))
    for inner_ang, outer_ang in cases:
        ids_in = np.arange(len(inner_ang))
        ids_out = 100 + np.arange(len(outer_ang))
        assert np.array_equal(
            shapes._zip_band(ids_in, inner_ang, ids_out, outer_ang),
            _zip_band_loop(ids_in, inner_ang, ids_out, outer_ang))


_COORD = st.one_of(st.integers(-3, 3).map(lambda v: v / 3),
                   st.floats(-1.0, 1.0).map(lambda v: round(v, 12)))


@settings(max_examples=25, deadline=None)
@given(rings=st.integers(2, 12).flatmap(lambda n: st.lists(
    st.tuples(_COORD, _COORD), min_size=2 * n, max_size=2 * n)))
def test_split_scores_match_the_scalar_reference_bit_for_bit(rings):
    # coarse grid points give collinear, coincident and inverted triangles,
    # which must score -1.0 without a warning; generic floats show a last-
    # ulp difference of acos or hypot in the scores themselves
    pts = list(rings)
    n = len(pts) // 2
    inner, outer = list(range(n)), list(range(n, 2 * n))
    ref = []
    _scalar_quad_band(ref, inner, outer, pts)
    quads = mg._quad_band(inner, outer)
    every = np.concatenate([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]],
                            quads[:, [0, 1, 3]], quads[:, [1, 2, 3]]])
    p = np.array(pts)
    d = np.stack([p[every[:, j]] - p[every[:, i]]
                  for i, j in ((0, 1), (1, 2), (2, 0))])
    length = np.array([[math.hypot(x, y) for x, y in side.tolist()]
                       for side in d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mg._triangulate_bands([quads], pts)
        scores = mg._min_angle(d[..., 0], d[..., 1], length)
    assert got.tolist() == [list(t) for t in ref]
    assert scores.tolist() == [_tri_min_angle(*(pts[i] for i in t))
                               for t in every.tolist()]
