import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from steklov_lab import cellmetrics as cm
from steklov_lab import cli, fem, oracles, shapes
from steklov_lab.eigen import dense_reference_eigs, largest_pencil_eigs
from steklov_lab.meshgen import OUTER, MeshError, refine


def test_square_neumann_gap():
    gap = cm.neumann_gap("square", 0.05)
    assert gap.value == pytest.approx(math.pi ** 2, rel=5e-3)


def test_annulus_gap_against_radial_oracle():
    # the disk's collar is the annulus 1 < |x| < 2
    gap = cm.neumann_gap(("collar", "disk"), 0.07)
    ref = oracles.annulus_neumann_gap(1.0, 2.0)
    assert gap.value == pytest.approx(ref, rel=5e-3)


def test_disk_dirichlet_ground_is_bessel_zero():
    val = cm.dirichlet_ground("disk", 0.06)
    assert val.value == pytest.approx(oracles.j0_zero(1) ** 2, rel=5e-3)


def test_square_dirichlet_ground():
    val = cm.dirichlet_ground("square", 0.05)
    assert val.value == pytest.approx(2 * math.pi ** 2, rel=5e-3)


def test_dirichlet_domain_monotonicity():
    # hexagon inscribed in the unit ball is contained in it
    ball = cm.dirichlet_ground("disk", 0.08).value
    hexa = cm.dirichlet_ground(("kgon", 6), 0.08).value
    assert ball <= hexa


def test_disk_robin_ground_against_oracle():
    val = cm.robin_ground("disk", 1.0, 0.06)
    assert val.value == pytest.approx(oracles.robin_disk_ground(1.0), rel=5e-3)


def test_robin_monotone_in_alpha_and_dirichlet_cap():
    r1 = cm.robin_ground("disk", 1.0, 0.1).value
    r2 = cm.robin_ground("disk", 2.0, 0.1).value
    rd = cm.dirichlet_ground("disk", 0.1).value
    assert r1 <= r2 <= rd + 1e-6
    sq1 = cm.robin_ground("square", 1.0, 0.1).value
    sq2 = cm.robin_ground("square", 2.0, 0.1).value
    assert sq1 <= sq2


def test_robin_rescaling_law():
    # ground state of the unit-alpha problem on a shrunk disk against the
    # rescaled oracle value
    for ell in (0.5, 0.8):
        coarse = cm._robin_ground_on(shapes.mesh_disk(ell, 0.05 * ell), 1.0)
        fine = cm._robin_ground_on(
            refine(shapes.mesh_disk(ell, 0.05 * ell)), 1.0)
        val = cm._richardson(coarse, fine).value
        ref = oracles.robin_disk_ground(ell) / ell ** 2
        assert val == pytest.approx(ref, rel=5e-3)


def test_trace_constant_bounds_and_dense_check():
    tc = cm.trace_constant("disk", 0.1)
    # plugging u = 1 gives perimeter/area as a lower bound for C^2
    assert tc.value ** 2 >= 2.0 - 1e-9
    mesh = cm.mesh_shape("disk", 0.15)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    Bb = fem.edge_mass(mesh, mesh.boundary_edges)
    dense = dense_reference_eigs((K + M).toarray(), Bb.toarray())
    got = cm._trace_sq_on(mesh)
    assert got == pytest.approx(dense.values[0], abs=1e-6)


def test_trace_constant_stable_under_refinement():
    hexa = cm.trace_constant(("kgon", 6), 0.1)
    assert abs(hexa.fine - hexa.coarse) / hexa.fine < 0.01


def test_trace_inequality_every_shape():
    for shape in ("disk", ("kgon", 3), ("kgon", 6), "square"):
        mesh = cm.mesh_shape(shape, 0.1)
        ones = np.ones(mesh.num_nodes)
        Bb = fem.edge_mass(mesh, mesh.boundary_edges)
        M = fem.assemble_mass(mesh)
        per = ones @ (Bb @ ones)
        area = ones @ (M @ ones)
        c2 = cm._trace_sq_on(mesh)
        assert c2 >= per / area / (1.0 + 1e-9)


def test_harmonic_extension_constant_bound():
    cp = cm.harmonic_extension_norm("disk", 0.12)
    # extending the constant costs the full-ball vs collar mass ratio
    ratio = math.sqrt(4.0 / 3.0)
    assert cp.value >= ratio - 1e-3


def test_harmonic_extension_energy_minimality():
    mesh = shapes.mesh_ball_with_interface("circle", 0.15)
    K = fem.assemble_stiffness(mesh)
    _, _, _, extend, cn, _ = cm._extension_parts(mesh)
    rng = np.random.default_rng(4)
    region = mesh.tri_cell
    hole_nodes = np.unique(mesh.triangles[region == 0])
    interface = np.intersect1d(np.unique(mesh.triangles[region == 1]),
                               hole_nodes)
    inner = np.setdiff1d(hole_nodes, interface)
    for _ in range(5):
        v = rng.standard_normal(len(cn))
        harmonic = extend(v)
        competitor = harmonic.copy()
        competitor[inner] += rng.standard_normal(len(inner))
        e_h = harmonic @ (K @ harmonic)
        e_c = competitor @ (K @ competitor)
        assert e_h <= e_c + 1e-12


@pytest.mark.parametrize("shape", ["disk", ("kgon", 3), ("kgon", 6)])
@pytest.mark.parametrize("refined", [False, True])
def test_extension_norm_matches_full_pencil(shape, refined):
    # the interface eigenproblem against ARPACK on the full pencil
    # (E^T A_full E, A_g) over every collar dof
    spec = "circle" if shape == "disk" else shape
    mesh = shapes.mesh_ball_with_interface(spec, 0.15)
    if refined:
        mesh = refine(mesh)
    (K_g, M_g), _, _, extend, cn, iface = cm._extension_parts(mesh)
    E = sp.coo_matrix((np.ones(len(cn)), (cn, np.arange(len(cn)))),
                      shape=(mesh.num_nodes, len(cn))).tolil()
    for j in iface:
        E[:, j] = extend(np.eye(1, len(cn), j)[0])[:, None]
    E = E.tocsr()
    A_full = (fem.assemble_stiffness(mesh) + fem.assemble_mass(mesh)).tocsr()
    old = largest_pencil_eigs((K_g + M_g).tocsr(),
                              (E.T @ A_full @ E).tocsr(), 1).values[0]
    assert cm._extension_norm_on(mesh) == pytest.approx(old, rel=1e-12)


def test_faber_krahn_robin():
    for shape in ("square", ("kgon", 3), ("kgon", 6)):
        mesh = cm.mesh_shape(shape, 0.05)
        area = mesh.area()
        ell = math.sqrt(area / math.pi)
        ball = oracles.robin_disk_ground(ell) / ell ** 2
        val = cm._robin_ground_on(mesh, 1.0)
        assert val >= ball * (1 - 1e-9)


def test_payne_weinberger_random_polygons():
    rows = cm.payne_weinberger_check(count=8, h=0.06, seed=3)
    assert all(r["ok"] for r in rows)


def test_slit_collar_gap_vanishes():
    betas = [math.pi / 8, math.pi / 16, math.pi / 32, math.pi / 64,
             math.pi / 128]
    gaps = cm.slit_collar_gaps(betas, 0.08)
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 0.3 * gaps[0]


def test_cell_constants_bundle():
    consts = cm.cell_constants("disk", h=0.15)
    assert consts.c_inn == 1.0
    assert consts.c_tr.value > 1.0
    assert consts.neumann_gap_collar.value == pytest.approx(
        oracles.annulus_neumann_gap(1.0, 2.0), rel=2e-2)
    assert consts.c_p.value > 1.0
    d = consts.as_dict()
    assert set(d) == {"shape", "c_inn", "c_tr", "neumann_gap_collar",
                      "c_p", "dirichlet_ground", "robin_ground_1"}


@pytest.mark.parametrize("solver", ["largest_pencil_eigs",
                                    "smallest_pencil_eigs"])
def test_unconverged_solve_fails_cell_constants(monkeypatch, capsys, solver):
    # every constant once read values[0] without looking at converged
    solve = getattr(cm, solver)

    def unconverged(*args):
        res = solve(*args)
        return dataclasses.replace(
            res, converged=np.zeros_like(res.converged),
            warning="forced for the test")

    monkeypatch.setattr(cm, solver, unconverged)
    with pytest.raises(cm.CellMetricsError, match="not converged"):
        cm.cell_constants("disk", h=0.2)
    assert cli.main(["cell", "--h", "0.2"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "forced for the test" in lines[0]
    assert captured.out == ""


def test_cell_constants_dict_keeps_its_key_order():
    ex = [cm.Extrapolated(1.0 + i, 0.5, 2.0, 3.0) for i in range(5)]
    d = cm.CellConstants(("kgon", 3), 0.5, *ex).as_dict()
    assert list(d) == ["shape", "c_inn", "c_tr", "neumann_gap_collar",
                       "c_p", "dirichlet_ground", "robin_ground_1"]
    assert d["shape"] == "('kgon', 3)" and d["c_inn"] == 0.5
    assert [d[k] for k in list(d)[2:]] == [
        {"value": 1.0 + i, "uncertainty": 0.5, "coarse": 2.0, "fine": 3.0}
        for i in range(5)]
    assert all(list(d[k]) == ["value", "uncertainty", "coarse", "fine"]
               for k in list(d)[2:])


def test_inscribed_radius_values():
    assert cm.inscribed_radius("disk") == 1.0
    assert cm.inscribed_radius(("kgon", 4)) == pytest.approx(math.cos(math.pi / 4))
    with pytest.raises(cm.CellMetricsError):
        cm.inscribed_radius(("slit", 0.1))


_MALFORMED = [("kgon", 2), ("kgon", 2.5), ("kgon", True), ("kgon", "7"),
              ("kgon", 3, 1), "circle", ("collar", ("kgon", 2))]


@pytest.mark.parametrize("shape", _MALFORMED, ids=repr)
@pytest.mark.parametrize("call", [
    cm.inscribed_radius, lambda s: cm.trace_constant(s, 0.3),
    lambda s: cm.harmonic_extension_norm(s, 0.3),
    lambda s: cm.cell_constants(s, 0.3)],
    ids=["inscribed_radius", "trace_constant", "harmonic_extension_norm",
         "cell_constants"])
def test_malformed_shape_is_refused_naming_it(call, shape):
    # each once ran as another shape ("7" as k = 7, ("kgon", 3, 1) as k = 3),
    # returned an inradius of 6.1e-17 or -1.0, or ended in a FemError,
    # EigenError or int() ValueError; "circle" is geometry's spelling
    with pytest.raises(cm.CellMetricsError) as err:
        call(shape)
    assert repr(shape) in str(err.value)


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("call", [
    lambda h: cm.mesh_shape("square", h),
    lambda h: cm.neumann_gap(("collar", "disk"), h),
    lambda h: cm.dirichlet_ground("disk", h),
    lambda h: cm.robin_ground(("kgon", 5), 1.0, h),
    lambda h: cm.trace_constant("disk", h),
    lambda h: cm.harmonic_extension_norm("disk", h),
    lambda h: cm.cell_constants("disk", h),
    lambda h: cm.slit_collar_gaps([0.5], h),
    lambda h: cm.payne_weinberger_check(1, h)],
    ids=["mesh_shape", "neumann_gap", "dirichlet_ground", "robin_ground",
         "trace_constant", "harmonic_extension_norm", "cell_constants",
         "slit_collar_gaps", "payne_weinberger_check"])
def test_a_mesh_size_not_finite_and_positive_is_refused(call, h):
    # these once meshed a degenerate shape and returned a value (a collar
    # gap of 0.46 at h = -0.1, a square gap of 11.6 against pi^2 at
    # h = inf), raised an int() ValueError or a ZeroDivisionError, or
    # refined without end
    with pytest.raises(MeshError, match=f"mesh size h .* got {h!r}$"):
        call(h)


@pytest.mark.parametrize("h", [0.3, 0.12, 0.06])
def test_disk_mesh_is_the_unit_circle_hole_mesh(h):
    # mesh_shape("disk") meshes geometry's "circle" hole; the off-centre
    # mesh_disk stays, and at radius 1 it is the same mesh bit for bit
    got, want = cm.mesh_shape("disk", h), shapes.mesh_disk(1.0, h)
    for name in ("nodes", "triangles", "boundary_edges", "edge_tags",
                 "tri_cell"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.circles == want.circles == {OUTER: (0.0, 0.0, 1.0)}


@pytest.mark.parametrize("lemma", ["3.2", "3.3"])
def test_lemma_eigensolve_stability(lemma):
    rep = cm.verify_lemma(lemma, shape_params=[0.004, 0.008, 0.02])
    assert rep.method == "eigensolve"
    assert abs(rep.slope) <= 0.2
    assert rep.passed


def test_lemma_strip_constant():
    rep = cm.verify_lemma("3.5")
    # the sup equals (2/pi)^2 for a half-open strip, independent of width
    for row in rep.rows:
        assert row["ratio"] == pytest.approx((2 / math.pi) ** 2, rel=1e-2)
    assert rep.passed


def test_lemma_mean_value_linear_and_constant():
    mesh = shapes.mesh_cell_with_hole(0.01)
    B_int = fem.edge_mass(mesh, shapes.interface_edges(mesh))
    M = fem.assemble_mass(mesh)
    ones = np.ones(mesh.num_nodes)
    per = ones @ (B_int @ ones)
    vol = ones @ (M @ ones)
    # constants: both means are the constant itself
    c = 3.7 * ones
    assert abs((ones @ (B_int @ c)) / per - (ones @ (M @ c)) / vol) < 1e-13
    # linear u with a centered hole: both means hit the center value
    u = mesh.nodes[:, 0]
    assert abs((ones @ (B_int @ u)) / per - 0.5) < 1e-12
    assert abs((ones @ (M @ u)) / vol - 0.5) < 1e-9


def test_lemma_mean_value_sampled_bounded():
    rep = cm.verify_lemma("3.4", shape_params=[0.004, 0.01, 0.02],
                          sample_count=16)
    assert rep.passed


def test_lemma_convex_comparison():
    rep = cm.verify_lemma("3.1", sample_count=16)
    assert rep.passed


def test_lemma_extension_bounded():
    rep = cm.verify_lemma("3.6", shape_params=["disk", ("kgon", 4)],
                          sample_count=12)
    assert rep.passed


def test_unknown_lemma_rejected():
    with pytest.raises(cm.CellMetricsError, match="unknown lemma"):
        cm.verify_lemma("9.9")
