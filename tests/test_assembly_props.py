"""Property tests: invariants of the assembled P1 matrices.

Over perforated meshes, their refinements and every one-shape builder:
stiffness annihilates constants, the mass matrix integrates 1 to the mesh
area, the boundary mass integrates 1 to the boundary length, every
assembled matrix equals its transpose exactly, and the assembly kernel and
the Dirichlet elimination equal their straightforward scipy references bit
for bit.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_lab import fem, shapes
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg

TEMPLATES = [mg.CellMeshTemplate(6, 2.0, 4, 16),
             mg.CellMeshTemplate(8, 2.0, 8, 32)]

SHAPES = {
    "disk": lambda h: shapes.mesh_disk(0.7, h, center=(0.2, -0.1)),
    "kgon": lambda h: shapes.mesh_hole_shape(("kgon", 5), h),
    "collar": lambda h: shapes.mesh_collar("circle", h),
    "kgon-collar": lambda h: shapes.mesh_collar(("kgon", 6), h),
    "slit-collar": lambda h: shapes.mesh_slit_collar(0.4, h),
    "polygon": lambda h: shapes.mesh_convex_polygon(
        [(0, 0), (1, 0), (1.2, 0.7), (0.2, 1)], h),
    "ball": lambda h: shapes.mesh_ball_with_interface("circle", h),
    "kgon-ball": lambda h: shapes.mesh_ball_with_interface(("kgon", 3), h),
    "secure-ball": lambda h: shapes.mesh_secure_ball(h / 20, 0.5),
    "cell-with-hole": lambda h: shapes.mesh_cell_with_hole(h / 20),
}


def assert_symmetric(mat):
    assert (mat != mat.T).nnz == 0


def assert_same_csr(a, b):
    for got, want in ((a.indptr, b.indptr), (a.indices, b.indices),
                      (a.data, b.data)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def reference_mirror(up):
    """Upper triangle mirrored through a second COO to CSR conversion."""
    n = up.shape[0]
    row = np.repeat(np.arange(n, dtype=up.indices.dtype), np.diff(up.indptr))
    off = row != up.indices
    return sp.csr_matrix((np.concatenate([up.data, up.data[off]]),
                          (np.concatenate([row, up.indices[off]]),
                           np.concatenate([up.indices, row[off]]))),
                         shape=(n, n))


def reference_scatter(conn, local, n):
    """Every triplet over all n nodes, summed by scipy, then mirrored."""
    conn = conn.astype(np.int32)
    k = conn.shape[1]
    sides = [(i, j) for i in range(k) for j in range(i + 1, k)]
    diag = sum(np.bincount(conn[:, i], local(i, i), n) for i in range(k))
    nodes = np.unique(conn)
    up = sp.csr_matrix((
        np.concatenate([local(i, j) for i, j in sides] + [diag[nodes]]),
        (np.concatenate([np.minimum(conn[:, i], conn[:, j])
                         for i, j in sides] + [nodes]),
         np.concatenate([np.maximum(conn[:, i], conn[:, j])
                         for i, j in sides] + [nodes]))), shape=(n, n))
    return reference_mirror(up)


def check_kernel(mesh, weight, edges):
    n = mesh.num_nodes
    ends = mesh.nodes[edges]
    length = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    for conn, local in (
            (mesh.triangles, fem._stiffness_local(mesh)),
            (mesh.triangles,
             fem._times(fem._weighted_area(mesh, weight), fem._MASS_LOCAL)),
            (edges, fem._times(length, fem._EDGE_LOCAL))):
        assert_same_csr(fem._scatter(conn, local, n),
                        reference_scatter(conn, local, n))


def check_assembly(mesh):
    ones = np.ones(mesh.num_nodes)
    K = fem.assemble_stiffness(mesh)
    assert np.abs(K @ ones).max() <= 1e-12 * np.abs(K).sum(axis=1).max()

    M = fem.assemble_mass(mesh)
    assert ones @ (M @ ones) == pytest.approx(mesh.area(), rel=1e-12)

    Ball = fem.edge_mass(mesh, mesh.boundary_edges)
    ends = mesh.nodes[mesh.boundary_edges]
    length = math.fsum(np.hypot(*(ends[:, 1] - ends[:, 0]).T))
    assert ones @ (Ball @ ones) == pytest.approx(length, rel=1e-12)

    # one weight per triangle: by cell id where every triangle has one,
    # else a smooth field at the centroids
    if np.all(mesh.tri_cell >= 0):
        weight = 1.0 + mesh.tri_cell
    else:
        x, y = mesh.nodes[mesh.triangles].mean(axis=1).T
        weight = 1.0 + x * x + y
    for mat in (K, M, Ball, fem.assemble_hole_mass(mesh),
                fem.assemble_weighted_mass(mesh, weight),
                fem.edge_mass(mesh, shapes.interface_edges(mesh))):
        assert_symmetric(mat)

    # a few edges touch only some nodes: the kernel sums over those
    check_kernel(mesh, weight, mesh.boundary_edges[::3])
    dm = fem.build_dofmap(mesh)
    assert_same_csr(fem.apply_dirichlet(K, dm), K[dm.free][:, dm.free])


def check_with_refinement(mesh):
    check_assembly(mesh)
    check_assembly(mg.refine(mesh))


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 4),
       l_shape=st.booleans(),
       hole=st.sampled_from(["circle", ("kgon", 4), ("kgon", 8)]),
       jitter=st.sampled_from([None, ("random", 0.5)]),
       seed=st.integers(0, 2 ** 16),
       template=st.sampled_from(TEMPLATES))
def test_perforated_assembly_invariants(m, l_shape, hole, jitter, seed,
                                        template):
    domain = geo.l_shape() if l_shape else geo.unit_square()
    m = 2 * math.ceil(m / 2) if l_shape else m
    geom = geo.build_perforated_geometry(
        domain, m, 0.5, shape_spec=hole, jitter=jitter,
        rng=np.random.default_rng(seed))
    check_with_refinement(mg.mesh_perforated(geom, template))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SHAPES)), h=st.floats(0.15, 0.4))
def test_shape_assembly_invariants(name, h):
    check_with_refinement(SHAPES[name](h))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(0, 120),
       seed=st.integers(0, 2 ** 16))
def test_mirror_matches_a_second_conversion(n, m, seed):
    """Duplicates, rows without a diagonal, empty rows and sums that cancel
    to 0 (which stay stored) all mirror as the reference does."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    vals = rng.choice([-1.0, 0.0, 0.5, 1.0, rng.standard_normal()], m)
    up = sp.csr_matrix((vals, (np.minimum(a, b).astype(np.int32),
                               np.maximum(a, b).astype(np.int32))),
                       shape=(n, n))
    assert_same_csr(fem._symmetric(up), reference_mirror(up))
