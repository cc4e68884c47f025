import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from steklov_lab import geometry as geo
from steklov_lab import study
from steklov_lab.geometry import GeometryError


def test_unit_square_tessellation_m4():
    cells = geo.build_square_tessellation(geo.unit_square(), 4)
    assert len(cells) == 16
    assert all(c.r_in == 0.125 for c in cells)
    assert all(abs(c.r_out / c.r_in - math.sqrt(2)) < 1e-14 for c in cells)


def test_single_cell_covers_domain():
    cells = geo.build_square_tessellation(geo.unit_square(), 1)
    assert len(cells) == 1
    assert cells[0].area == 1


def test_l_shape_cell_count_by_enumeration():
    # enumeration oracle: count 1/4-grid squares whose center lies in the L
    dom = geo.l_shape(1)
    expected = 0
    for ix in range(4):
        for iy in range(4):
            cx, cy = Fraction(2 * ix + 1, 8), Fraction(2 * iy + 1, 8)
            if not (cx > Fraction(1, 2) and cy > Fraction(1, 2)):
                expected += 1
    assert expected == 12
    assert len(geo.build_square_tessellation(dom, 4)) == expected


def test_non_tileable_domain_rejected():
    dom = geo.make_domain([(0, 0), (Fraction(1, 3), 0),
                           (Fraction(1, 3), 1), (0, 1)])
    with pytest.raises(GeometryError, match="1/3"):
        geo.build_square_tessellation(dom, 2)


def test_tiling_partition_exact():
    for dom, m in [(geo.unit_square(), 3), (geo.l_shape(1), 6),
                   (geo.rectangle(2, 1), 4)]:
        cells = geo.build_square_tessellation(dom, m)
        assert sum(c.area for c in cells) == dom.area


def test_domain_requires_axis_aligned_edges():
    with pytest.raises(GeometryError, match="axis-aligned"):
        geo.make_domain([(0, 0), (1, 1), (0, 1), (-1, 0)])


def test_chebyshev_center_of_a_triangle_is_its_incircle():
    A, B, C = np.array([0.1, 0.2]), np.array([0.9, 0.3]), np.array([0.4, 0.8])
    a, b, c = (np.linalg.norm(B - C), np.linalg.norm(C - A),
               np.linalg.norm(A - B))
    area = abs(geo.poly_area([A, B, C]))
    center, r = geo.chebyshev_center([tuple(A), tuple(B), tuple(C)])
    assert type(r) is float and all(type(v) is float for v in center)
    np.testing.assert_allclose(center, (a * A + b * B + c * C) / (a + b + c),
                               rtol=0, atol=1e-14)
    assert abs(r - 2 * area / (a + b + c)) < 1e-14


def test_chebyshev_center_of_a_regular_hexagon():
    R = 0.7
    pts = [(R * math.cos(t), R * math.sin(t))
           for t in np.arange(6) * math.pi / 3]
    center, r = geo.chebyshev_center(pts)
    assert math.hypot(*center) < 1e-15
    assert abs(r - R * math.cos(math.pi / 6)) < 1e-15


def test_chebyshev_center_ignores_orientation_and_collinear_vertices():
    def flat(pts):
        (x, y), r = geo.chebyshev_center(pts)
        return x, y, r

    quad = [(0.0, 0.0), (1.0, 0.25), (0.75, 1.0), (0.0, 0.75)]
    want = flat(quad)
    assert flat(quad[::-1]) == pytest.approx(want, rel=0, abs=1e-15)
    # a vertex inside an edge repeats that edge's line: singular triples
    on_edge = quad[:1] + [(0.5, 0.125)] + quad[1:]
    assert flat(on_edge) == pytest.approx(want, rel=0, abs=1e-15)


def test_chebyshev_center_rejects_collinear_polygons():
    with pytest.raises(GeometryError, match="zero area"):
        geo.chebyshev_center([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    with pytest.raises(GeometryError, match="zero area"):
        geo.chebyshev_center([(0, 0), (1, 0), (2, 0), (3, 0)])


# ---------------------------------------------------------------------------
# holes and weights

def test_place_holes_scaling():
    cells = geo.build_square_tessellation(geo.unit_square(), 8)
    holes = geo.place_holes(cells, "circle", 1.0)
    assert all(abs(h.d - 1.0 / 256.0) < 1e-15 for h in holes)


def test_place_holes_rejects_large_beta():
    cells = geo.build_square_tessellation(geo.unit_square(), 2)
    with pytest.raises(GeometryError, match="max admissible beta"):
        geo.place_holes(cells, "circle", 1.1)


def test_jitter_preserves_secure_distance():
    g = geo.build_perforated_geometry(
        geo.unit_square(), 4, 1.0, jitter=("fixed", 0.25, 0.0))
    rep = geo.validate_assumptions(g)
    assert rep.passed
    # offsets actually applied
    assert all(abs(h.center[0] - c.center[0] - 0.25 * c.r_in) < 1e-15
               for c, h in zip(g.cells, g.holes))


def test_assumption_report_dict_keeps_its_key_order():
    g = geo.build_perforated_geometry(geo.unit_square(), 2, 0.5)
    d = geo.validate_assumptions(g).as_dict()
    assert list(d) == ["passed", "checks"] and d["passed"] is True
    assert [list(c) for c in d["checks"]] == [
        ["name", "passed", "measured", "bound", "worst_cell"]] * 5
    assert d["checks"][0] == {"name": "tiling-partition", "passed": True,
                              "measured": 1.0, "bound": 1.0,
                              "worst_cell": None}


def test_random_jitter_roundtrip_validation():
    rng = np.random.default_rng(5)
    g = geo.build_perforated_geometry(
        geo.unit_square(), 6, 1.0, jitter=("random", 0.9), rng=rng)
    assert geo.validate_assumptions(g).passed


@pytest.mark.parametrize("m", [2, 4])
def test_admissible_jitter_keeps_the_secure_distance_margin(m):
    # place_holes checks no hole itself: check_jitter's 0.45 r bound on the
    # offset alone leaves every hole an inset of at least 0.55 r > c_sec * r
    jitters = [("fixed", sx * 0.45, sy * 0.45) for sx in (-1, 1)
               for sy in (-1, 1)] + [("random", 0.9)] * 20
    for seed, jitter in enumerate(jitters):
        g = geo.build_perforated_geometry(geo.unit_square(), m, 1.0,
                                          jitter=jitter,
                                          rng=np.random.default_rng(seed))
        check, = [c for c in geo.validate_assumptions(g).checks
                  if c.name == "secure-distance"]
        assert check.passed and check.measured >= 0.55 - 1e-9


def hole_weights(g):
    """Hole perimeter over cell area, per cell."""
    return np.array([h.perimeter / float(c.area)
                     for c, h in zip(g.cells, g.holes)])


def test_weight_field_circle():
    g = geo.build_perforated_geometry(geo.unit_square(), 4, 1.0)
    assert np.allclose(hole_weights(g), math.pi / 2)
    assert geo.cell_weight(None, 1.0) == pytest.approx(math.pi / 2,
                                                        rel=1e-15)


@pytest.mark.parametrize("beta", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("shape", ["circle", ("kgon", 6)])
def test_weight_field_identical_at_every_m(beta, shape, monkeypatch):
    # the rounded d = beta*r^2 differs by an ulp between m (e.g. m = 13 at
    # beta 1 against m <= 12); every hole's perimeter per cell area is still
    # the limit weight to rounding, and cell_weight, which a study solves
    # its homogenized side for, is the same float at every m
    q = geo.cell_weight(geo.hole_order(shape), beta)
    for m in range(2, 41):
        g = geo.build_perforated_geometry(geo.unit_square(), m, beta,
                                          shape_spec=shape)
        assert len(g.holes) == m * m
        for w in hole_weights(g):
            assert math.isclose(w, q, rel_tol=1e-15)

    class Solved(Exception):
        pass

    def homogenized_pair(domain, q_limit, h, k):
        raise Solved(q_limit)

    monkeypatch.setattr(study, "oracle_selftest", lambda seed: [])
    monkeypatch.setattr(study.spectra, "homogenized_pair", homogenized_pair)
    with pytest.raises(Solved) as solved:
        study.run_study(study.config_from_dict(
            {"beta": beta, "hole_shape": shape, "m_values": [2, 3],
             "template": {"boundary_nodes_per_side": 12,
                          "hole_boundary_segments": 48}}))
    assert solved.value.args == (q,)


def test_weight_field_square_hole():
    g = geo.build_perforated_geometry(geo.unit_square(), 4, 1.0,
                                      shape_spec=("kgon", 4))
    d = g.holes[0].d
    eps = 0.25
    assert np.allclose(hole_weights(g), 4 * math.sqrt(2) * d / eps ** 2)
    assert geo.cell_weight(4, 1.0) == pytest.approx(
        4 * math.sqrt(2) * d / eps ** 2, rel=1e-15)


def test_validate_flags_wrong_scaling():
    # d ~ r^1.2 breaks the quadratic scaling bound once r is small
    cells = geo.build_square_tessellation(geo.unit_square(), 16)
    holes = [geo.Hole(cell_index=c.index, center=c.center,
                      d=c.r_in ** 1.2) for c in cells]
    g = geo.PerforatedGeometry(domain=geo.unit_square(), m=16, cells=cells,
                               holes=holes)
    rep = geo.validate_assumptions(g)
    names = {c.name: c for c in rep.checks}
    assert not names["hole-scaling-upper"].passed
    assert names["hole-scaling-upper"].worst_cell is not None


def test_validate_flags_hole_near_edge():
    cells = geo.build_square_tessellation(geo.unit_square(), 4)
    holes = []
    for c in cells:
        cx, cy = c.center
        holes.append(geo.Hole(cell_index=c.index,
                              center=(cx + 0.99 * c.r_in, cy),
                              d=c.r_in ** 2))
    g = geo.PerforatedGeometry(domain=geo.unit_square(), m=4, cells=cells,
                               holes=holes)
    rep = geo.validate_assumptions(g)
    names = {c.name: c for c in rep.checks}
    assert not names["secure-distance"].passed


def test_admissible_beta_roundtrip():
    cells = geo.build_square_tessellation(geo.unit_square(), 4)
    beta_max = geo.max_admissible_beta(cells)
    for frac in (0.1, 0.5, 0.9, 1.0):
        holes = geo.place_holes(cells, "circle", frac * beta_max)
        g = geo.PerforatedGeometry(domain=geo.unit_square(), m=4,
                                   cells=cells, holes=holes)
        assert geo.validate_assumptions(g).passed


def test_geometry_json_roundtrip():
    g = geo.build_perforated_geometry(geo.unit_square(), 3, 1.0,
                                      shape_spec=("kgon", 6))
    text = geo.geometry_to_json(g)
    back = geo.geometry_from_json(text)
    assert back.m == g.m
    assert len(back.cells) == len(g.cells)
    assert back.holes[5].k == 6 and back.holes[0].k == 6
    assert abs(back.holes[5].d - g.holes[5].d) < 1e-15
    assert geo.validate_assumptions(back).passed
    # deterministic serialization
    assert geo.geometry_to_json(back) == text
    # only what geometry_from_json reads: no cells, weights or epsilon value
    data = json.loads(text)
    assert list(data) == ["domain", "epsilon", "holes"]
    assert data["epsilon"] == {"m": 3}
    # each hole's "shape" is derived from its k
    assert list(data["holes"][5]) == ["cell", "shape", "k", "center", "d"]
    assert data["holes"][5]["shape"] == "kgon"


def test_hole_is_a_circle_exactly_when_k_is_none():
    assert [f.name for f in dataclasses.fields(geo.Hole)] == [
        "cell_index", "center", "d", "k"]
    circle = geo.Hole(cell_index=0, center=(0.0, 0.0), d=1.0)
    assert circle.perimeter == 2 * math.pi
    assert circle.boundary_point(0.25) == (math.cos(0.25), math.sin(0.25))
    square = geo.Hole(cell_index=0, center=(0.0, 0.0), d=1.0, k=4)
    assert square.perimeter == pytest.approx(4 * math.sqrt(2), rel=1e-15)
    assert square.boundary_point(math.pi / 4) == pytest.approx(
        (math.sqrt(0.5) * math.cos(math.pi / 4),
         math.sqrt(0.5) * math.sin(math.pi / 4)), rel=1e-15)
    data = json.loads(geo.geometry_to_json(geo.build_perforated_geometry(
        geo.unit_square(), 1, 0.5)))
    assert (data["holes"][0]["shape"], data["holes"][0]["k"]) == (
        "circle", None)


def test_hole_order_reads_k_by_the_config_integer_rule():
    # a numpy order passes, as a numpy count in a config does, and comes back
    # a plain int, so holes and geometry JSON carry plain ints
    k = geo.hole_order(("kgon", np.int64(4)))
    assert k == 4 and type(k) is int
    g = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0,
                                      ("kgon", np.int64(4)))
    assert all(type(h.k) is int for h in g.holes)
    assert json.loads(geo.geometry_to_json(g))["holes"][0]["k"] == 4
    assert geo.hole_order(["kgon", 3]) == 3
    assert geo.hole_order("circle") is None
    for bad in [("kgon", True), ("kgon", 4.0), ("kgon", np.float64(4)),
                ("kgon", 2), ("kgon", "7"), ("kgon", 3, 1), ("circle", None),
                "disk", "kgon"]:
        with pytest.raises(GeometryError, match="integer k >= 3"):
            geo.hole_order(bad)


@pytest.mark.parametrize("domain,m,jitter", [
    (geo.unit_square, 3, None),
    (geo.l_shape, 4, None),
    (geo.unit_square, 4, ("random", 0.3)),
])
def test_geometry_json_derives_cells_and_meshes_bit_identically(domain, m,
                                                                jitter):
    from steklov_lab import meshgen
    g = geo.build_perforated_geometry(domain(), m, 1.0, jitter=jitter,
                                      rng=np.random.default_rng(5))
    text = geo.geometry_to_json(g)
    assert "cells" not in json.loads(text)
    back = geo.geometry_from_json(text)
    assert back.cells == geo.build_square_tessellation(domain(), m)
    tpl = meshgen.CellMeshTemplate(ring_count=8, grading=2.0,
                                   boundary_nodes_per_side=4,
                                   hole_boundary_segments=16)
    mesh = meshgen.mesh_perforated(g, tpl)
    again = meshgen.mesh_perforated(back, tpl)
    assert np.array_equal(mesh.nodes, again.nodes)
    assert np.array_equal(mesh.triangles, again.triangles)


@pytest.mark.parametrize("domain", [geo.unit_square(), geo.l_shape(2)])
def test_derived_cell_fields_equal_the_exact_grid_values(domain):
    for m in range(1, 14):
        for c in geo.build_square_tessellation(domain, m):
            ix, iy, _ = c.grid
            assert c.center == (float(Fraction(2 * ix + 1, 2 * m)),
                                float(Fraction(2 * iy + 1, 2 * m)))
            assert c.r_in == 1.0 / (2 * m)
            assert c.r_out == math.sqrt(2) / (2 * m)
            assert c.area == Fraction(1, m * m)


L_SHAPE_JSON = {"kind": "L-shape", "vertices": [
    [str(x), str(y)] for x, y in geo.l_shape().vertices]}


@pytest.mark.parametrize("edit,match", [
    (lambda d: d["holes"].reverse(), "hole 0 names cell 3; holes list one "
                                     "hole per cell, in cell order"),
    (lambda d: d["holes"][2].update(cell=2.0), "hole 2 names cell 2.0"),
    (lambda d: d.update(domain=L_SHAPE_JSON, epsilon={"m": 3}),
     r"domain vertex \(1, 1/2\) is not on the 1/3 grid"),
    # the hole count is checked before the 1/m grid is enumerated
    (lambda d: d["epsilon"].update(m=10 ** 6),
     "got 1000000000000 cells and 4 holes"),
    (lambda d: d.pop("holes"), "KeyError"),
    (lambda d: d["holes"].pop(), "one hole per cell"),
    (lambda d: d.update(domain=1), "TypeError"),
])
def test_geometry_json_rejects_malformed_payload(edit, match):
    g = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    data = json.loads(geo.geometry_to_json(g))
    edit(data)
    with pytest.raises(GeometryError, match=match):
        geo.geometry_from_json(json.dumps(data))


def test_weight_upper_bound_uses_trace_constant():
    # the mechanism behind the uniform upper bound: the polygonal-or-circular
    # hole satisfies perimeter <= C_tr^2 * area at unit scale, hence
    # Q <= C_d_plus * C_tr^2
    from steklov_lab import cellmetrics
    g = geo.build_perforated_geometry(geo.unit_square(), 4, 1.0)
    c_tr = cellmetrics.trace_constant("disk", 0.1).value
    scaling = max(h.d / c.r_in ** 2 for c, h in zip(g.cells, g.holes))
    assert hole_weights(g).max() <= scaling * c_tr ** 2 * (1 + 1e-6)
