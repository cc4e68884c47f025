import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg
from steklov_lab import oracles, spectra


TPL = mg.CellMeshTemplate()


def gap_of(geom, descriptor, q):
    perf = spectra.condense(mg.mesh_perforated(geom, TPL))
    ref = spectra.gap_reference(geom, TPL, q)
    return spectra.resolvent_gap(descriptor, ref, perf)


def steklov_of(mesh, k):
    return spectra.steklov_spectrum(spectra.condense(mesh), k)


def solves_of(geom, k):
    """Coarse and refined Steklov solves of geom's mesh, as a study does."""
    mesh = mg.mesh_perforated(geom, TPL)
    return [steklov_of(pm, k + spectra.EXTRA)
            for pm in (mesh, mg.refine(mesh))]


def pair_of(geom, k, homog, solves=None):
    coarse, fine = solves or solves_of(geom, k)
    return spectra.spectrum_pair(geom, coarse, fine, k, homog)


def test_steklov_spectrum_contract():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    res = steklov_of(mg.mesh_perforated(geom, TPL), 3)
    assert len(res.values) == 3
    assert np.all((res.values > 0) & (res.values < 1))
    assert np.all(res.converged)
    steklov = 1.0 / res.values - 1.0
    assert np.all(steklov > 0)
    # lambda = 1/mu - 1 mapping is involutive
    assert np.abs(1.0 / (steklov + 1.0) - res.values).max() < 1e-15


def test_steklov_mu_converges_at_second_order():
    # three meshes of the cheapest benchmark sweep point: the observed
    # order log2(|e1| / |e2|) backs richardson's O(h^2) division by 3
    tpl = mg.CellMeshTemplate(6, 2.0, 4, 16)
    mesh = mg.mesh_perforated(
        geo.build_perforated_geometry(geo.unit_square(), 2, 0.5), tpl)
    mus = []
    for _ in range(3):
        mus.append(steklov_of(mesh, 3).values)
        mesh = mg.refine(mesh)
    order = np.log2(np.abs(mus[0] - mus[1]) / np.abs(mus[1] - mus[2]))
    assert np.all((order >= 1.75) & (order <= 2.25)), order


def test_homogenized_spectrum_against_analytic():
    # Q = pi*beta/2 with beta = 1 rescales the square spectrum to 4*pi
    q = math.pi / 2
    res = spectra.homogenized_spectrum(geo.unit_square(), q, 1 / 64, 3)
    assert res.values[0] == pytest.approx(4 * math.pi, rel=2e-3)
    exact = oracles.square_dirichlet_spectrum(q, 3)
    assert np.all(np.abs(res.values - exact) / exact < 5e-3)
    assert res.solver.endswith("-shift-invert")      # values are lambda


def test_homogenized_l_shape_benchmark():
    # frozen by fine-mesh self-convergence (h=1/64, 1/128 extrapolated);
    # agrees with the classical benchmark scaled to this L within 0.05%
    res = spectra.homogenized_spectrum(geo.l_shape(1), 1.0, 1 / 64, 1)
    assert res.values[0] == pytest.approx(38.5758, rel=1e-2)


def test_hausdorff_hand_values():
    assert spectra.hausdorff([0, 1], [0, 1]) == 0.0
    assert spectra.hausdorff([0, 0.5], [0, 0.4]) == pytest.approx(0.1)
    assert spectra.hausdorff([0.2], [0.1, 0.9]) == pytest.approx(0.7)
    with pytest.raises(spectra.SpectraError):
        spectra.hausdorff([], [1.0])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.lists(st.floats(-5, 5), min_size=1, max_size=8))
def test_hausdorff_axioms(a, b, c):
    dab = spectra.hausdorff(a, b)
    assert dab == pytest.approx(spectra.hausdorff(b, a))
    assert dab >= 0
    if set(a) == set(b):
        assert dab == 0.0
    assert dab <= spectra.hausdorff(a, c) + spectra.hausdorff(c, b) + 1e-12


def test_truncated_distance_semantics():
    st_mu = [0.9, 0.8, 0.2]
    ho_mu = [0.89, 0.79, 0.3]
    assert spectra.truncated_spectrum_distance(st_mu, ho_mu, 2, 0.5) == \
        pytest.approx(0.01)
    # identical sets
    assert spectra.truncated_spectrum_distance(st_mu, st_mu, 2, 0.5) == 0.0
    # one-sided extra eigenvalue below the floor is ignored
    assert spectra.truncated_spectrum_distance(
        [0.9, 0.8, 0.49], [0.89, 0.79], 2, 0.5) == pytest.approx(0.01)
    with pytest.raises(spectra.SpectraError, match="floor"):
        spectra.truncated_spectrum_distance([0.9], [0.89], 2, 0.5)


def test_fit_rate_synthetic():
    deltas = np.array([0.4, 0.2, 0.1, 0.05])
    exact = spectra.fit_rate(deltas, 0.3 * deltas)
    assert exact.slope == pytest.approx(1.0, abs=1e-12)
    assert exact.intercept == pytest.approx(math.log(0.3), abs=1e-12)
    assert exact.consistent
    fast = spectra.fit_rate(deltas, deltas ** 2)
    assert fast.slope == pytest.approx(2.0, abs=1e-12)
    assert fast.consistent and "faster" in fast.note
    slow = spectra.fit_rate(deltas, np.sqrt(deltas))
    assert slow.slope == pytest.approx(0.5, abs=1e-12)
    assert not slow.consistent and "INCONSISTENT" in slow.note


def test_fit_rate_degenerate_rejected():
    with pytest.raises(spectra.SpectraError, match="only 3 usable"):
        spectra.fit_rate([0.1, 0.2, 0.4], [1, 2, 3])
    with pytest.raises(spectra.SpectraError, match="only a factor 1.3 "):
        spectra.fit_rate([0.1, 0.11, 0.12, 0.13], [1, 2, 3, 4])


def test_rate_scale_closed_form():
    for m in (4, 8, 24):
        r = 1.0 / (2 * m)
        assert spectra.rate_scale(r) == r * math.sqrt(abs(math.log(r)))


def test_source_functions():
    f = spectra.source_function({"kind": "sine", "px": 2, "py": 1})
    x = np.array([0.0, 0.25, 1.0])
    y = np.array([0.5, 0.5, 0.3])
    np.testing.assert_allclose(
        f(x, y), np.sin(2 * math.pi * x) * np.sin(math.pi * y), atol=1e-15)
    g = spectra.source_function({"kind": "bump", "x0": 0.5, "y0": 0.5,
                                 "w": 0.3})
    assert g(np.array([0.0]), np.array([0.5]))[0] == 0.0
    with pytest.raises(spectra.SpectraError):
        spectra.source_function({"kind": "nope"})


def test_resolvent_gap_zero_source_and_linearity():
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    q = math.pi / 2
    s1 = gap_of(geom, {"kind": "sine", "px": 1, "py": 1}, q)
    assert s1.gap > 0
    zero = gap_of(geom, {"kind": "sine", "px": 1, "py": 1, "scale": 0.0}, q)
    assert zero.gap == 0.0
    doubled = gap_of(geom, {"kind": "sine", "px": 1, "py": 1, "scale": 2.0}, q)
    assert doubled.gap == pytest.approx(2 * s1.gap, rel=1e-11)
    assert doubled.normalized == pytest.approx(s1.normalized, rel=1e-11)


def test_resolvent_gap_decreases_along_sweep():
    q = math.pi / 2
    vals = []
    for m in (2, 4, 8):
        geom = geo.build_perforated_geometry(geo.unit_square(), m, 1.0)
        s = gap_of(geom, {"kind": "sine", "px": 1, "py": 1}, q)
        vals.append(s.normalized)
    assert vals[0] > vals[1] > vals[2]


def test_spectrum_pair_small_sweep():
    homog = spectra.homogenized_pair(geo.unit_square(), math.pi / 2, 1 / 64, 2)
    pairs = []
    for m in (2, 4):
        geom = geo.build_perforated_geometry(geo.unit_square(), m, 1.0)
        pairs.append(pair_of(geom, 2, homog))
    p = pairs[-1]
    assert p.delta == pytest.approx(
        p.r_eps * math.sqrt(abs(math.log(p.r_eps))), abs=1e-15)
    assert p.hausdorff > 0
    assert pairs[0].hausdorff > pairs[1].hausdorff
    assert p.gate_ok
    for j in range(2):
        assert spectra.eigenwise_monotone(pairs, j)


def test_homogenized_fine_mesh_is_the_red_refinement(monkeypatch):
    # at h = 0.03 the coarse lattice is 34; meshing h/2 afresh gave 67, not a
    # halving, while richardson assumes the ratio 2 of a red refinement
    sizes = []
    solve = spectra.smallest_pencil_eigs

    def counted(K, M, k):
        sizes.append(K.shape[0])
        return solve(K, M, k)

    monkeypatch.setattr(spectra, "smallest_pencil_eigs", counted)
    homog = spectra.homogenized_pair(geo.unit_square(), 1.0, 0.03, 1)
    assert sizes == [33 ** 2, 67 ** 2]
    coarse = spectra.homogenized_spectrum(geo.unit_square(), 1.0, 0.03,
                                          1 + spectra.EXTRA)
    assert np.array_equal(homog.coarse.values, coarse.values)


def test_unconverged_solve_fails_the_gate():
    homog = spectra.homogenized_pair(geo.unit_square(), math.pi / 2, 1 / 32, 2)
    geom = geo.build_perforated_geometry(geo.unit_square(), 2, 1.0)
    solves = solves_of(geom, 2)
    healthy = pair_of(geom, 2, homog, solves)
    assert healthy.gate_ok
    assert all("solver" not in d for d in healthy.gate_detail)

    # a warning about a value beyond k leaves the gate alone
    fine = homog.fine
    short = replace(fine, values=fine.values[:3],
                    converged=fine.converged[:3], warning="only 3 of 4")
    pair = pair_of(geom, 2, replace(homog, fine=short), solves)
    assert pair.gate_ok
    assert pair.gate_detail == healthy.gate_detail

    flagged = replace(short, converged=np.array([True, False, True]))
    pair = pair_of(geom, 2, replace(homog, fine=flagged), solves)
    assert not pair.gate_ok
    assert pair.gate_detail[2:] == [{"solver": "homogenized-fine",
                                     "unconverged": [2],
                                     "warning": "only 3 of 4", "ok": False}]

    unconverged = [replace(res, converged=np.zeros(len(res.values), bool))
                   for res in solves]
    pair = pair_of(geom, 2, homog, unconverged)
    assert not pair.gate_ok
    flagged = [d for d in pair.gate_detail if "solver" in d]
    assert [d["solver"] for d in flagged] == ["steklov-coarse",
                                              "steklov-fine"]
    assert flagged[0]["unconverged"] == [1, 2]
    assert pair.gate_detail[:2] == healthy.gate_detail
