"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime.  Tolerances are pinned here and nowhere
else; the sweep criteria share one run of the default study."""

import math
import time

import numpy as np
import pytest

from steklov_lab import cellmetrics as cm
from steklov_lab import eigen, fem, oracles, spectra, study
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg


def _report(num, name, ok, detail, elapsed):
    line = (f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: "
            f"{detail} ({elapsed:.1f} s)")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_study():
    t0 = time.time()
    cfg = study.StudyConfig()
    report = study.run_study(cfg)
    return report, time.time() - t0


def test_criterion_1_homogenized_oracle_match():
    t0 = time.time()
    coarse = spectra.homogenized_spectrum(geo.unit_square(), 1.0, 1 / 32, 3)
    fine = spectra.homogenized_spectrum(geo.unit_square(), 1.0, 1 / 64, 3)
    lam = fine.values + (fine.values - coarse.values) / 3.0
    exact = oracles.square_dirichlet_spectrum(1.0, 3)
    rel = np.abs(lam - exact) / exact
    elapsed = time.time() - t0
    _report(1, "homogenized oracle match",
            bool(np.all(rel < 2e-3)) and elapsed < 30.0,
            f"rel errors {[f'{r:.2e}' for r in rel]} vs 2pi^2, 5pi^2, 5pi^2",
            elapsed)


def test_criterion_2_solver_cross_validation():
    t0 = time.time()
    small = mg.CellMeshTemplate(8, 2.0, 4, 16)
    hexa = mg.CellMeshTemplate(8, 2.0, 6, 24)
    cases = [
        (geo.build_perforated_geometry(geo.unit_square(), 2, 1.0),
         mg.CellMeshTemplate()),
        (geo.build_perforated_geometry(geo.unit_square(), 2, 0.5), small),
        (geo.build_perforated_geometry(geo.unit_square(), 2, 1.0,
                                       shape_spec=("kgon", 6)), hexa),
        (geo.build_perforated_geometry(geo.unit_square(), 1, 0.4),
         mg.CellMeshTemplate()),
        (geo.build_perforated_geometry(geo.l_shape(1), 2, 1.0), small),
        (geo.build_perforated_geometry(geo.unit_square(), 2, 1.0,
                                       jitter=("fixed", 0.2, 0.1)), small),
    ]
    worst = 0.0
    dims = []
    for geom, tpl in cases:
        mesh = mg.mesh_perforated(geom, tpl)
        K = fem.assemble_stiffness(mesh)
        B = fem.assemble_hole_mass(mesh)
        dm = fem.build_dofmap(mesh)
        A = (fem.apply_dirichlet(K, dm) + fem.apply_dirichlet(B, dm)).tocsr()
        Br = fem.apply_dirichlet(B, dm).tocsr()
        dims.append(A.shape[0])
        assert A.shape[0] <= 2000
        it = eigen.largest_pencil_eigs(A, Br, 5)
        dn = eigen.dense_reference_eigs(A, Br)
        worst = max(worst, float(np.abs(it.values - dn.values[:5]).max()))
    elapsed = time.time() - t0
    _report(2, "solver cross-validation",
            worst < 1e-8 and elapsed < 60.0,
            f"{len(cases)} geometries (dofs {dims}), worst top-5 "
            f"disagreement {worst:.2e}", elapsed)


def test_criterion_3_spectral_convergence(default_study):
    report, elapsed = default_study
    pairs = report.pairs
    assert [p.m for p in pairs] == [4, 6, 8, 12, 16, 24]
    # delta matches its closed form
    for p in pairs:
        assert abs(p.delta - p.r_eps * math.sqrt(abs(math.log(p.r_eps)))) \
            < 1e-12
    monotone = all(spectra.eigenwise_monotone(pairs, j) for j in range(3))
    gates = all(p.gate_ok for p in pairs)
    slope = report.rate.slope if report.rate else float("nan")
    ok = monotone and gates and report.rate is not None and slope >= 0.7 \
        and elapsed < 1200.0
    _report(3, "spectral convergence",
            ok,
            f"monotone {monotone}, gates {gates}, hausdorff slope "
            f"{slope:.3f} >= 0.7 over delta span "
            f"{pairs[0].delta / pairs[-1].delta:.1f}x", elapsed)


def test_criterion_4_resolvent_gap_decay(default_study):
    report, elapsed = default_study
    t0 = time.time()
    gaps = [samples[0].normalized for samples in report.gap_samples]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    slope = report.gap_rates[0].slope if report.gap_rates else float("nan")
    ok = decreasing and bool(report.gap_rates) and slope >= 0.7
    _report(4, "resolvent-gap decay", ok,
            f"normalized gaps decreasing {decreasing}, slope {slope:.3f}",
            time.time() - t0)


def test_criterion_5_cell_constants_suite():
    t0 = time.time()
    details = []
    lam_d = cm.dirichlet_ground("disk", 0.06).value
    ref_d = oracles.j0_zero(1) ** 2
    ok = abs(lam_d - ref_d) / ref_d < 5e-3
    details.append(f"disk Dirichlet {abs(lam_d - ref_d) / ref_d:.1e}")

    lam_r = cm.robin_ground("disk", 1.0, 0.06).value
    ref_r = oracles.robin_disk_ground(1.0)
    ok &= abs(lam_r - ref_r) / ref_r < 5e-3
    details.append(f"disk Robin {abs(lam_r - ref_r) / ref_r:.1e}")

    gap_sq = cm.neumann_gap("square", 0.05).value
    ok &= abs(gap_sq - math.pi ** 2) / math.pi ** 2 < 5e-3
    details.append(f"square gap {abs(gap_sq - math.pi**2) / math.pi**2:.1e}")

    pw = cm.payne_weinberger_check(count=20, h=0.05, seed=7)
    ok &= all(r["ok"] for r in pw)
    details.append(f"PW {sum(r['ok'] for r in pw)}/20")

    fk_ok = True
    for shape in ("square", ("kgon", 3), ("kgon", 4), ("kgon", 6)):
        mesh = cm.mesh_shape(shape, 0.05)
        ell = math.sqrt(mesh.area() / math.pi)
        ball = oracles.robin_disk_ground(ell) / ell ** 2
        fk_ok &= cm._robin_ground_on(mesh, 1.0) >= ball * (1 - 1e-9)
    ok &= fk_ok
    details.append(f"Faber-Krahn {fk_ok}")

    betas = [math.pi / 8, math.pi / 16, math.pi / 32, math.pi / 64,
             math.pi / 128]
    gaps = cm.slit_collar_gaps(betas, 0.08)
    slit_ok = bool(np.all(np.diff(gaps) < 0)) and gaps[-1] < 0.3 * gaps[0]
    ok &= slit_ok
    details.append(f"slit collar {np.round(gaps, 4).tolist()}")

    elapsed = time.time() - t0
    _report(5, "cell-constants suite", ok and elapsed < 300.0,
            "; ".join(details), elapsed)


def test_criterion_6_lemma_inequality_stability():
    t0 = time.time()
    decade = [0.002, 0.004, 0.008, 0.012, 0.02]
    details = []
    ok = True
    for lid in ("3.2", "3.3"):
        rep = cm.verify_lemma(lid, shape_params=decade)
        ok &= abs(rep.slope) <= 0.2
        details.append(f"{lid} slope {rep.slope:+.3f}")
    rep = cm.verify_lemma("3.5")
    ok &= abs(rep.slope) <= 0.2
    details.append(f"3.5 slope {rep.slope:+.3f}")
    rep = cm.verify_lemma("3.4", shape_params=decade, sample_count=48)
    ratios = [r["ratio"] for r in rep.rows]
    bounded = max(ratios) <= 10.0 * min(ratios)
    ok &= bounded
    details.append(f"3.4 bounded {bounded} "
                   f"(spread {max(ratios)/min(ratios):.2f}x)")
    elapsed = time.time() - t0
    _report(6, "lemma inequality stability", ok and elapsed < 600.0,
            "; ".join(details), elapsed)


def test_criterion_7_determinism(default_study):
    report, _ = default_study
    t0 = time.time()
    again = study.run_study(study.StudyConfig())
    same_csv = study.report_csv(report) == study.report_csv(again)
    same_json = study.report_json(report) == study.report_json(again)
    _report(7, "determinism", same_csv and same_json,
            "repeated default study byte-identical (csv and json)",
            time.time() - t0)
