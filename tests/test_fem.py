import math

import numpy as np
import pytest

from steklov_lab import fem, shapes
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg


TPL = mg.CellMeshTemplate()


def perforated_setup(m=2, beta=1.0):
    geom = geo.build_perforated_geometry(geo.unit_square(), m, beta)
    mesh = mg.mesh_perforated(geom, TPL)
    return geom, mesh


def test_stiffness_row_sums_and_energy():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.5)
    K = fem.assemble_stiffness(mesh)
    assert abs(K @ np.ones(mesh.num_nodes)).max() == 0.0
    x = mesh.nodes[:, 0]
    assert x @ (K @ x) == pytest.approx(1.0, abs=1e-15)


def test_stiffness_exact_symmetry():
    _, mesh = perforated_setup()
    K = fem.assemble_stiffness(mesh)
    B = fem.assemble_hole_mass(mesh)
    M = fem.assemble_mass(mesh)
    for mat in (K, B, M):
        assert (mat != mat.T).nnz == 0


def test_patch_test_piecewise_linear():
    # K reproduces the Dirichlet inner product of linears exactly
    _, mesh = perforated_setup()
    K = fem.assemble_stiffness(mesh)
    u = 2 * mesh.nodes[:, 0] + 3 * mesh.nodes[:, 1]
    v = -mesh.nodes[:, 0] + 0.5 * mesh.nodes[:, 1]
    grad_dot = (2 * -1 + 3 * 0.5) * mesh.area()
    assert u @ (K @ v) == pytest.approx(grad_dot, rel=1e-13)


def test_degenerate_triangle_reported():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.5)
    mesh.nodes[4] = mesh.nodes[0]      # collapse an interior node
    with pytest.raises(fem.FemError, match="triangle"):
        fem.assemble_stiffness(mesh)


def test_hole_mass_single_edge_measure():
    _, mesh = perforated_setup()
    B = fem.assemble_hole_mass(mesh)
    ones = np.ones(mesh.num_nodes)
    total = ones @ (B @ ones)
    n = TPL.hole_boundary_segments
    per_hole = 2 * n * (1 / 16) * math.sin(math.pi / n)
    assert total == pytest.approx(4 * per_hole, rel=1e-13)
    # vanishing off hole boundaries
    u = np.zeros(mesh.num_nodes)
    u[np.setdiff1d(np.arange(mesh.num_nodes),
                   np.unique(mesh.boundary_edges[mesh.edge_tags >= 0]))] = 1.0
    assert abs(B @ u).max() == 0.0


def test_edge_mass_single_edge_measure():
    mesh = mg.Mesh(np.array([[0.0, 0.0], [0.3, 0.4]]),
                   np.empty((0, 3), dtype=np.int64),
                   np.empty((0, 2), dtype=np.int64),
                   np.empty(0, dtype=np.int64))
    B = fem.edge_mass(mesh, [(0, 1)])
    ones = np.ones(2)
    assert ones @ (B @ ones) == pytest.approx(0.5, abs=1e-15)


def reference_sum(conn, block):
    """Plain per-element loop: entry (a, b) of element e's block, block(e),
    added at (conn[e][a], conn[e][b]); every entry summed exactly."""
    terms = {}
    for e, nodes in enumerate(conn.tolist()):
        local = block(e)
        for a, i in enumerate(nodes):
            for b, j in enumerate(nodes):
                terms.setdefault((i, j), []).append(local[a][b])
    return {key: math.fsum(v) for key, v in terms.items()}


def reference_matrices(mesh, weight, inner):
    """Each assembly routine's matrix with its element list and per-element
    block, for reference_sum; weight holds one value per triangle and inner
    is the edge list given to edge_mass."""
    tri = mesh.triangles
    pts = mesh.nodes[tri].tolist()

    def area(e):
        (x0, y0), (x1, y1), (x2, y2) = pts[e]
        return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

    def stiffness(e):
        (x0, y0), (x1, y1), (x2, y2) = pts[e]
        b, c = (y1 - y2, y2 - y0, y0 - y1), (x2 - x1, x0 - x2, x1 - x0)
        return [[(b[i] * b[j] + c[i] * c[j]) / (4.0 * area(e))
                 for j in range(3)] for i in range(3)]

    def mass(w):
        return lambda e: [[w(e) * area(e) * (2.0 if i == j else 1.0) / 12.0
                           for j in range(3)] for i in range(3)]

    def edges(sel):
        ends = mesh.nodes[sel].tolist()
        return sel, lambda e: [[math.hypot(ends[e][1][0] - ends[e][0][0],
                                           ends[e][1][1] - ends[e][0][1])
                                * (2.0 if i == j else 1.0) / 6.0
                                for j in range(2)] for i in range(2)]

    hole = mesh.edge_tags != mg.OUTER
    return [
        (fem.assemble_stiffness(mesh), tri, stiffness),
        (fem.assemble_mass(mesh), tri, mass(lambda e: 1.0)),
        (fem.assemble_weighted_mass(mesh, weight), tri,
         mass(lambda e: float(weight[e]))),
        (fem.assemble_hole_mass(mesh), *edges(mesh.boundary_edges[hole])),
        (fem.edge_mass(mesh, mesh.boundary_edges[~hole]),
         *edges(mesh.boundary_edges[~hole])),
        (fem.edge_mass(mesh, mesh.boundary_edges),
         *edges(mesh.boundary_edges)),
        (fem.edge_mass(mesh, inner), *edges(np.asarray(inner))),
    ]


def exactness_mesh(name):
    """The mesh and the edge list that edge_mass sums over."""
    if name == "ball":
        mesh = shapes.mesh_ball_with_interface(("kgon", 3), 0.3)
        return mesh, shapes.interface_edges(mesh)
    if name == "structured":
        mesh = mg.mesh_unperforated(geo.unit_square(), 0.25)
    else:
        mesh = mg.mesh_perforated(
            geo.build_perforated_geometry(geo.unit_square(), 2, 0.5),
            mg.CellMeshTemplate(6, 2.0, 4, 16))
        mesh = mg.refine(mesh) if name == "refined" else mesh
    return mesh, mesh.boundary_edges[:7]


@pytest.mark.parametrize("name", ["structured", "perforated", "refined",
                                  "ball"])
def test_assembly_matches_a_per_element_loop(name):
    mesh, inner = exactness_mesh(name)
    # one weight per triangle: by cell id where every triangle has one,
    # else a smooth field at the centroids
    if np.all(mesh.tri_cell >= 0):
        weight = 1.0 + mesh.tri_cell
    else:
        x, y = mesh.nodes[mesh.triangles].mean(axis=1).T
        weight = 1.0 + x * x + y
    zeros = 0
    for mat, conn, block in reference_matrices(mesh, weight, inner):
        want = reference_sum(conn, block)
        coo = mat.tocoo()
        got = dict(zip(zip(coo.row.tolist(), coo.col.tolist()),
                       coo.data.tolist()))
        # the stored pattern, entries that sum to exactly 0 included
        assert len(got) == mat.nnz and got.keys() == want.keys()
        scale = max((abs(v) for v in want.values()), default=0.0)
        assert all(abs(got[k] - want[k]) <= 1e-15 * scale for k in want)
        zeros += int(np.sum(coo.data == 0.0))
    if name in ("structured", "perforated"):
        assert zeros > 0


def test_empty_element_list_gives_a_zero_matrix():
    mesh = mg.Mesh(np.array([[0.0, 0.0], [0.3, 0.4]]),
                   np.empty((0, 3), dtype=np.int64),
                   np.empty((0, 2), dtype=np.int64),
                   np.empty(0, dtype=np.int64))
    for mat in (fem.assemble_stiffness(mesh), fem.assemble_mass(mesh),
                fem.assemble_weighted_mass(mesh, 2.0),
                fem.assemble_hole_mass(mesh), fem.edge_mass(mesh, []),
                fem.edge_mass(mesh, np.empty((0, 2), dtype=np.int64))):
        assert mat.format == "csr" and mat.shape == (2, 2) and mat.nnz == 0


def test_weighted_mass_constant_and_linearity():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.25)
    ones = np.ones(mesh.num_nodes)
    M1 = fem.assemble_weighted_mass(mesh, 1.0)
    assert ones @ (M1 @ ones) == pytest.approx(1.0, rel=1e-14)
    Mc = fem.assemble_weighted_mass(mesh, 3.5)
    assert np.allclose((Mc - 3.5 * M1).data, 0.0)


def test_weighted_mass_cellwise_exact():
    geom, mesh = perforated_setup(m=2)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(fem.FemError, match="one value per triangle"):
        fem.assemble_weighted_mass(mesh, w)     # per cell, not per triangle
    Mq = fem.assemble_weighted_mass(mesh, w[mesh.tri_cell])
    ones = np.ones(mesh.num_nodes)
    total = ones @ (Mq @ ones)
    hole_area = 0.5 * TPL.hole_boundary_segments * (1 / 16) ** 2 \
        * math.sin(2 * math.pi / TPL.hole_boundary_segments)
    cell_area = 0.25 - hole_area
    assert total == pytest.approx(cell_area * w.sum(), rel=1e-13)


def test_mass_bounds_rayleigh():
    # per-cell weights that differ, so the two bounds are not one value
    geom, mesh = perforated_setup(m=2)
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.5, 2.0, len(geom.cells))
    assert weights.max() - weights.min() > 0.1
    Mq = fem.assemble_weighted_mass(mesh, weights[mesh.tri_cell])
    M1 = fem.assemble_mass(mesh)
    for _ in range(10):
        u = rng.standard_normal(mesh.num_nodes)
        r = (u @ (Mq @ u)) / (u @ (M1 @ u))
        assert weights.min() - 1e-12 <= r <= weights.max() + 1e-12


def test_dirichlet_elimination_hand_value():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.5)
    K = fem.assemble_stiffness(mesh)
    dm = fem.build_dofmap(mesh)
    Kr = fem.apply_dirichlet(K, dm)
    assert Kr.shape == (1, 1)
    assert Kr[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_dirichlet_no_outer_is_identity():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.5)
    K = fem.assemble_stiffness(mesh)
    dm = fem.build_dofmap(mesh, [])
    Kr = fem.apply_dirichlet(K, dm)
    assert (Kr != K).nnz == 0


def test_dirichlet_all_constrained_errors():
    mesh = mg.mesh_unperforated(geo.unit_square(), 1.0)
    with pytest.raises(fem.FemError, match="constrained"):
        fem.build_dofmap(mesh, range(mesh.num_nodes))


def test_dirichlet_dimension_mismatch():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.5)
    other = mg.mesh_unperforated(geo.unit_square(), 0.25)
    K = fem.assemble_stiffness(other)
    with pytest.raises(fem.FemError, match="dimension"):
        fem.apply_dirichlet(K, fem.build_dofmap(mesh))


def test_interpolate_reproduces_linears():
    src = mg.mesh_unperforated(geo.unit_square(), 0.25)
    u = 2 * src.nodes[:, 0] + 3 * src.nodes[:, 1] - 1.0
    _, tgt = perforated_setup(m=2)
    got = fem.interpolate(src, u, tgt.nodes)
    want = 2 * tgt.nodes[:, 0] + 3 * tgt.nodes[:, 1] - 1.0
    assert np.abs(got - want).max() < 1e-14


def test_interpolate_identity_and_constants():
    src = mg.mesh_unperforated(geo.unit_square(), 0.25)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(src.num_nodes)
    assert np.abs(fem.interpolate(src, u, src.nodes) - u).max() < 1e-12
    _, tgt = perforated_setup(m=2)
    got = fem.interpolate(src, np.ones(src.num_nodes), tgt.nodes)
    assert np.abs(got - 1.0).max() < 1e-14


def test_interpolate_outside_errors():
    src = mg.mesh_unperforated(geo.unit_square(), 0.5)
    with pytest.raises(fem.FemError, match="outside"):
        fem.interpolate(src, np.ones(src.num_nodes), np.array([[1.5, 0.5]]))
    ell = mg.mesh_unperforated(geo.l_shape(1), 0.25)
    with pytest.raises(fem.FemError, match="outside"):
        fem.interpolate(ell, np.ones(ell.num_nodes), np.array([[0.75, 0.75]]))
    with pytest.raises(fem.FemError, match="structured"):
        fem.interpolate(mg.refine(src), np.ones(25), np.array([[0.5, 0.5]]))


def test_interpolate_l_shape_sides_and_corner():
    src = mg.mesh_unperforated(geo.l_shape(1), 0.25)
    u = 2 * src.nodes[:, 0] - 5 * src.nodes[:, 1] + 0.5
    pts = np.array([
        [0.75, 0.5], [0.625, 0.5], [1.0, 0.5],     # re-entrant side y = 1/2
        [0.5, 0.75], [0.5, 0.875], [0.5, 1.0],     # re-entrant side x = 1/2
        [0.5, 0.5],                                # re-entrant corner
        [1.0, 0.3], [1.0, 0.0], [0.3, 1.0], [0.0, 1.0], [0.25, 1.0],
        [0.3, 0.2], [0.25, 0.25],
    ])
    got = fem.interpolate(src, u, pts)
    assert np.abs(got - (2 * pts[:, 0] - 5 * pts[:, 1] + 0.5)).max() < 1e-14


def test_h_eps_norm_basics():
    geom, mesh = perforated_setup(m=2)
    assert fem.h_eps_norm(mesh, np.zeros(mesh.num_nodes)) == 0.0
    ones = np.ones(mesh.num_nodes)
    n = TPL.hole_boundary_segments
    per = 4 * 2 * n * (1 / 16) * math.sin(math.pi / n)
    assert fem.h_eps_norm(mesh, ones) == pytest.approx(math.sqrt(per),
                                                       rel=1e-13)
    ones[0] = np.nan            # max(0.0, nan) once turned this into 0.0
    with pytest.raises(fem.FemError, match="nan"):
        fem.h_eps_norm(mesh, ones)


def test_h_eps_norm_linear_against_closed_form():
    # u = x on a single-cell domain: area part exact, boundary part compared
    # with the circle integral (polygonalization error is quadratic)
    geom = geo.build_perforated_geometry(geo.unit_square(), 1, 0.4)
    mesh = mg.mesh_perforated(geom, TPL)
    u = mesh.nodes[:, 0]
    d = geom.holes[0].d
    cx = geom.holes[0].center[0]
    n = TPL.hole_boundary_segments
    hole_area = 0.5 * n * d * d * math.sin(2 * math.pi / n)
    circle_integral = 2 * math.pi * d * cx ** 2 + math.pi * d ** 3
    exact = math.sqrt((1 - hole_area) + circle_integral)
    got = fem.h_eps_norm(mesh, u)
    assert got == pytest.approx(exact, rel=2e-4)


def test_form_equivalence_ratio_bounded_across_eps():
    # discrete echo of the norm equivalence: the perforated energy form is
    # uniformly comparable to the full H1 form across the sweep
    rng = np.random.default_rng(42)
    lo, hi = math.inf, -math.inf
    for m in (2, 4, 8):
        geom, mesh = perforated_setup(m=m)
        K = fem.assemble_stiffness(mesh)
        B = fem.assemble_hole_mass(mesh)
        M = fem.assemble_mass(mesh)
        dm = fem.build_dofmap(mesh)
        Kr = fem.apply_dirichlet(K, dm)
        Br = fem.apply_dirichlet(B, dm)
        Mr = fem.apply_dirichlet(M, dm)
        for _ in range(20):
            u = rng.standard_normal(Kr.shape[0])
            he = u @ (Kr @ u) + u @ (Br @ u)
            h1 = u @ (Kr @ u) + u @ (Mr @ u)
            lo = min(lo, he / h1)
            hi = max(hi, he / h1)
    assert 0.01 <= lo and hi <= 100.0

