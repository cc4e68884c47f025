"""Property tests: the integer-keyed edge table against brute-force loops.

The references below identify edges with node-pair tuples in Python dicts,
one triangle side at a time.  Every mesh array the package derives from its
edge table must equal theirs exactly, after one and two red refinements.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_lab import fem, shapes
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg

MESH_FIELDS = ("nodes", "triangles", "boundary_edges", "edge_tags",
               "tri_cell")
TEMPLATES = [mg.CellMeshTemplate(8, 2.0, 4, 16),
             mg.CellMeshTemplate(8, 2.0, 8, 16),
             mg.CellMeshTemplate(8, 2.0, 8, 32)]


def sides(t):
    rows = t.tolist()
    return [(r[i], r[(i + 1) % 3]) for i in range(3) for r in rows]


def ref_edge_counts(triangles):
    counts: dict = {}
    for a, b in sides(triangles):
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    edges = sorted(counts)
    return (np.array(edges, dtype=np.int64).reshape(-1, 2),
            np.array([counts[e] for e in edges]))


def ref_boundary_oriented(triangles):
    edges, counts = ref_edge_counts(triangles)
    once = {tuple(e) for e, c in zip(edges.tolist(), counts) if c == 1}
    return np.array([(a, b) for a, b in sides(triangles)
                     if (min(a, b), max(a, b)) in once],
                    dtype=np.int64).reshape(-1, 2)


def ref_interface_edges(mesh):
    owner: dict = {}
    out = []
    for tri, reg in zip(mesh.triangles.tolist(), mesh.tri_cell.tolist()):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            key = (min(a, b), max(a, b))
            prev = owner.get(key)
            if prev is None:
                owner[key] = reg
            elif {prev, reg} == {0, 1}:
                out.append(key)
    return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)


def ref_refine(mesh):
    t = mesh.triangles
    all_edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    all_edges.sort(axis=1)
    uniq, inverse = np.unique(all_edges, axis=0, return_inverse=True)
    mids = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    mid_ids = len(mesh.nodes) + np.arange(len(uniq))

    edge_key = {}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        edge_key[(min(a, b), max(a, b))] = tag
    for idx, (a, b) in enumerate(map(tuple, uniq)):
        tag = edge_key.get((a, b))
        if tag is None or int(tag) not in mesh.circles:
            continue
        cx, cy, rad = mesh.circles[int(tag)]
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
    lookup = {tuple(e): mid for e, mid in zip(map(tuple, uniq), mid_ids)}
    new_edges, new_tags = [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        mid = lookup[(min(a, b), max(a, b))]
        new_edges += [(a, mid), (mid, b)]
        new_tags += [tag, tag]
    return mg.Mesh(nodes, children, np.array(new_edges, dtype=np.int64),
                   np.array(new_tags, dtype=np.int64),
                   tri_cell=np.concatenate([mesh.tri_cell] * 4),
                   circles=dict(mesh.circles))


def assert_same_mesh(got, want):
    for name in MESH_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.h_max == want.h_max


def check_edges(mesh):
    t = mesh.triangles
    edges, inverse, counts = mg._edge_table(t)
    want_edges, want_counts = ref_edge_counts(t)
    assert np.array_equal(edges, want_edges)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(edges[inverse], np.sort(mg._sides(t), axis=1))
    assert np.array_equal(mg._boundary_edges_oriented(t),
                          ref_boundary_oriented(t))


def check_interface(mesh):
    got = shapes.interface_edges(mesh)
    want = ref_interface_edges(mesh)
    assert np.array_equal(got, want)
    assert (fem.edge_mass(mesh, got) != fem.edge_mass(mesh, want)).nnz == 0


def check_refinements(mesh, regions=False):
    """Edge table on the mesh and on its red refinement; two refinements,
    each equal to the reference's."""
    for _ in range(2):
        check_edges(mesh)
        if regions:
            check_interface(mesh)
        fine = mg.refine(mesh)
        assert_same_mesh(fine, ref_refine(mesh))
        mesh = fine


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 4),
       l_shape=st.booleans(),
       hole=st.sampled_from(["circle", ("kgon", 4), ("kgon", 8)]),
       jitter=st.sampled_from([None, ("fixed", 0.1, -0.05),
                               ("random", 0.5)]),
       seed=st.integers(0, 2 ** 16),
       template=st.sampled_from(TEMPLATES))
def test_perforated_meshes_match_reference(m, l_shape, hole, jitter, seed,
                                           template):
    domain = geo.l_shape() if l_shape else geo.unit_square()
    m = 2 * math.ceil(m / 2) if l_shape else m
    geom = geo.build_perforated_geometry(
        domain, m, 0.5, shape_spec=hole, jitter=jitter,
        rng=np.random.default_rng(seed))
    mesh = mg.mesh_perforated(geom, template)
    check_refinements(mesh)


@settings(max_examples=10, deadline=None)
@given(l_shape=st.booleans(), cells=st.integers(2, 12))
def test_structured_meshes_match_reference(l_shape, cells):
    domain = geo.l_shape() if l_shape else geo.unit_square()
    check_refinements(mg.mesh_unperforated(domain, 1.0 / cells))


SHAPES = {
    "disk": lambda h: shapes.mesh_disk(0.7, h, center=(0.2, -0.1)),
    "kgon": lambda h: shapes.mesh_hole_shape(("kgon", 5), h),
    "collar": lambda h: shapes.mesh_collar("circle", h),
    "kgon-collar": lambda h: shapes.mesh_collar(("kgon", 6), h),
    "slit-collar": lambda h: shapes.mesh_slit_collar(0.4, h),
    "polygon": lambda h: shapes.mesh_convex_polygon(
        [(0, 0), (1, 0), (1.2, 0.7), (0.2, 1)], h),
}
REGION_SHAPES = {
    "ball": lambda h: shapes.mesh_ball_with_interface("circle", h),
    "kgon-ball": lambda h: shapes.mesh_ball_with_interface(("kgon", 3), h),
    "secure-ball": lambda h: shapes.mesh_secure_ball(h / 20, 0.5),
    "cell-with-hole": lambda h: shapes.mesh_cell_with_hole(h / 20),
}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SHAPES) + sorted(REGION_SHAPES)),
       h=st.floats(0.15, 0.4))
def test_shape_meshes_match_reference(name, h):
    build = SHAPES.get(name) or REGION_SHAPES[name]
    check_refinements(build(h), regions=name in REGION_SHAPES)


def test_conformity_check_reports_an_edge_of_three_triangles():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0),
                      (0.6, 0.8)])
    tris = np.array([(0, 1, 2), (1, 0, 3), (0, 1, 4)], dtype=np.int64)
    with pytest.raises(mg.MeshError, match=r"edge \(0, 1\) shared by more"):
        mg._outer_edges(nodes, tris, np.empty((0, 2), dtype=np.int64),
                        np.ones(len(nodes), dtype=bool))


def test_refine_rejects_boundary_edge_off_the_triangles():
    mesh = shapes.mesh_disk(1.0, 0.5)
    mesh.boundary_edges = np.vstack([mesh.boundary_edges,
                                     [[0, 2]]])
    mesh.edge_tags = np.append(mesh.edge_tags, mg.OUTER)
    with pytest.raises(mg.MeshError, match="not a side"):
        mg.refine(mesh)
