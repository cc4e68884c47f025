import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from steklov_lab import cli, eigen, fem, geometry, meshgen, spectra, study


SMALL = {
    "m_values": [2, 3],
    "k": 2,
    "h_hom": 1 / 32,
    "template": {"ring_count": 8, "grading": 2.0,
                 "boundary_nodes_per_side": 4, "hole_boundary_segments": 16},
    "sources": [{"kind": "sine", "px": 1, "py": 1}],
}


def small_config(**over):
    data = dict(SMALL)
    data.update(over)
    return study.config_from_dict(data)


def test_config_validation_errors():
    with pytest.raises(study.StudyError, match="strictly increasing"):
        study.config_from_dict({"m_values": [4, 4]})
    with pytest.raises(study.StudyError, match="violates hole smallness"):
        study.config_from_dict({"m_values": [2, 4], "beta": 1.5})
    with pytest.raises(study.StudyError, match="positive"):
        study.config_from_dict({"h_hom": -1})
    with pytest.raises(study.StudyError, match="unknown domain"):
        study.config_from_dict({"domain": "disk"})
    with pytest.raises(study.StudyError, match="bad config field"):
        study.config_from_dict({"nonsense": 1})


def test_numpy_kgon_order_validates_like_a_numpy_count():
    # k=np.int64(3) was accepted while the same integer as the kgon order
    # was refused; a bool order stays refused
    study.StudyConfig(k=np.int64(3),
                      hole_shape=("kgon", np.int64(4))).validate()
    with pytest.raises(study.StudyError, match="integer k >= 3"):
        study.StudyConfig(hole_shape=("kgon", True)).validate()


def test_numpy_counts_write_the_same_report_as_plain_ints(tmp_path):
    # a numpy count once passed validate and the whole sweep, then crashed
    # the report's JSON
    def run(num, out):
        cfg = study.StudyConfig(
            m_values=(num(1), num(2)), beta=0.5, hole_shape=("kgon", num(4)),
            template=meshgen.CellMeshTemplate(num(6), 2.0, num(4), num(16)),
            k=num(3), sources=(), h_hom=1 / 32, seed=num(0))
        study.write_report(study.run_study(cfg), str(out))
        return [(out / name).read_bytes()
                for name in ("report.json", "sweep.csv")]

    plain = run(int, tmp_path / "plain")
    assert run(np.int64, tmp_path / "numpy") == plain
    assert json.loads(plain[0])["cell_summary"]["shape"] == "('kgon', 4)"


def test_l_shape_with_odd_m_fails_validation():
    with pytest.raises(geometry.GeometryError) as late:
        geometry.build_perforated_geometry(geometry.l_shape(), 3, 1.0)
    assert "(1, 1/2) is not on the 1/3 grid" in str(late.value)
    with pytest.raises(study.StudyError) as early:
        study.config_from_dict({"domain": "l-shape", "m_values": [2, 3]})
    assert str(early.value) == str(late.value)


@pytest.mark.parametrize("jitter,message", [
    (["random", 1.5], "fraction must be in"),
    (["random", -0.1], "fraction must be in"),
    (["random"], "unknown jitter spec"),
    (["random", "0.3"], "unknown jitter spec"),
    (["wobble", 0.1], "unknown jitter spec"),
    ("random", "unknown jitter spec"),
    (["fixed", 0.8, 0.0], "secure distance"),
    (["fixed", 0.0, -2.0], "secure distance"),
    # within the secure distance, but no room for the transition layer
    (["fixed", 0.48, 0], "transition layer"),
    (["random", 0.95], "fraction must be in"),
])
def test_bad_jitter_fails_validation(jitter, message):
    spec = tuple(jitter) if isinstance(jitter, list) else jitter
    with pytest.raises(geometry.GeometryError, match=message) as late:
        geometry.build_perforated_geometry(
            geometry.unit_square(), 2, 1.0, jitter=spec,
            rng=np.random.default_rng(0))
    with pytest.raises(study.StudyError) as early:
        study.config_from_dict({"jitter": jitter})
    assert str(early.value) == str(late.value)


@pytest.mark.parametrize("jitter", [None, ["random", 0.3], ["random", 0.9],
                                    ["fixed", 0.45, -0.45]])
def test_jitter_within_the_offset_bound_validates_and_meshes(jitter):
    study.config_from_dict({"jitter": jitter})
    spec = tuple(jitter) if jitter else None
    tpl = meshgen.CellMeshTemplate(**SMALL["template"])
    for seed in range(5):
        geom = geometry.build_perforated_geometry(
            geometry.unit_square(), 2, 1.0, jitter=spec,
            rng=np.random.default_rng(seed))
        meshgen.mesh_perforated(geom, tpl)


def test_hole_past_the_offset_bound_fails_in_meshing():
    geom = geometry.build_perforated_geometry(geometry.unit_square(), 2, 1.0)
    cell = geom.cells[0]
    cx, cy = cell.center
    bound = geometry.MAX_HOLE_OFFSET
    geom.holes[0] = dataclasses.replace(
        geom.holes[0], center=(cx, cy + (bound + 0.01) * cell.r_in))
    with pytest.raises(meshgen.MeshError, match="transition layer"):
        meshgen.mesh_perforated(geom,
                                meshgen.CellMeshTemplate(**SMALL["template"]))


@pytest.mark.parametrize("m_values,bad", [
    ([0, 2], "0"), ([2.5, 4], "2.5"), ([-1, 2], "-1"), ([2, True], "True"),
])
def test_non_positive_integer_m_fails_validation(m_values, bad):
    with pytest.raises(study.StudyError,
                       match=f"m_values must be positive integers, got {bad}$"):
        study.config_from_dict({"m_values": m_values})


def test_short_ring_count_fails_validation():
    # ring_count 2 grades m = 2 (ratio 4) but not m = 9 (ratio 18); the
    # study once failed only after solving the m = 2 point
    tpl = dict(SMALL["template"], ring_count=2)
    cfg = dict(beta=0.5, template=tpl)
    study.config_from_dict(dict(cfg, m_values=[2]))
    geom = geometry.build_perforated_geometry(geometry.unit_square(), 9, 0.5)
    with pytest.raises(meshgen.MeshError) as late:
        meshgen.mesh_perforated(geom, meshgen.CellMeshTemplate(**tpl))
    with pytest.raises(study.StudyError) as early:
        study.config_from_dict(dict(cfg, m_values=[2, 9]))
    assert "use ring_count >= 5" in str(early.value)
    assert str(early.value) == str(late.value)


def test_unknown_source_kind_fails_validation():
    with pytest.raises(study.StudyError, match="cosine"):
        study.config_from_dict({"sources": [{"kind": "cosine"}]})


def test_oracle_selftest_passes():
    checks = study.oracle_selftest()
    assert all(ok for _, ok, _ in checks)
    names = {n for n, _, _ in checks}
    assert {"bessel-j0-zero", "quadrature-vs-matrices",
            "dense-vs-lanczos"} <= names


def test_small_study_runs_and_reports(tmp_path):
    cfg = small_config()
    report = study.run_study(cfg)
    assert report.oracle_ok
    assert len(report.pairs) == 2
    assert report.rate is None          # fewer than 4 usable points
    assert any("rate fit skipped" in n for n in report.notes)
    # no rate of the paper was checked, so the study does not pass
    assert report.gates_ok and not report.passed
    assert report.pairs[0].hausdorff > report.pairs[1].hausdorff
    paths = study.write_report(report, str(tmp_path / "out"))
    assert os.path.exists(paths["csv"])
    data = json.loads(open(paths["json"]).read())
    assert data["environment"]["package"] == "steklov-lab"
    assert len(data["points"]) == 2
    head = open(paths["csv"]).readline().strip().split(",")
    assert head[:4] == ["epsilon", "r_eps", "d", "delta"]
    assert "gap_f1" in head


def test_cli_study_fails_on_a_refused_gap_fit(capsys, monkeypatch,
                                             tmp_path):
    # a gap fit that raised once ended the study in a traceback after the
    # whole sweep; now it is a note, and the study fails
    fit, calls = spectra.fit_rate, []

    def hausdorff_only(deltas, distances):
        calls.append(len(deltas))
        if len(calls) > 1:
            raise spectra.SpectraError("distances must be positive")
        return fit([0.1, 0.2, 0.3, 0.4], [0.01, 0.02, 0.03, 0.04])

    monkeypatch.setattr(spectra, "fit_rate", hausdorff_only)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL))
    assert cli.main(["study", str(p), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert calls == [2, 2]
    assert "note: distances must be positive" in out and out[-1] == "FAIL"
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["rate"]["consistent"] and rep["gap_rates"] == []
    assert rep["passed"] is False


def test_study_determinism_byte_identical(tmp_path):
    outs = []
    for run in ("a", "b"):
        cfg = small_config()
        report = study.run_study(cfg)
        paths = study.write_report(report, str(tmp_path / run))
        outs.append((open(paths["csv"], "rb").read(),
                     open(paths["json"], "rb").read()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_rate_fit_gated_on_oracle(monkeypatch):
    cfg = small_config()
    monkeypatch.setattr(study, "oracle_selftest",
                        lambda seed=0: [("fake", False, "forced failure")])
    report = study.run_study(cfg)
    assert not report.oracle_ok
    assert report.rate is None
    assert any("refused" in n for n in report.notes)
    assert not report.passed


def test_svg_plot_structure():
    text = study.svg_loglog([0.1, 0.2, 0.4], [0.01, 0.02, 0.04],
                            slope=1.0, intercept=-2.3, title="test")
    assert text.startswith("<svg")
    assert "slope 1.000" in text
    assert "polyline" in text


def run_cli(*args, timeout=500):
    return subprocess.run([sys.executable, "-m", "steklov_lab.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def test_cli_oracle_selftest():
    r = run_cli("oracle")
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_cli_solve_homog_near_analytic():
    r = run_cli("solve", "homog", "--q", "1", "--h", "0.05", "-k", "3")
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("  ")]
    vals = [float(ln.split()[0]) for ln in lines]
    assert abs(vals[0] - 2 * np.pi ** 2) / (2 * np.pi ** 2) < 0.02
    assert abs(vals[1] - 5 * np.pi ** 2) / (5 * np.pi ** 2) < 0.02


def test_cli_solve_homog_prints_the_solver_warning():
    # h = 1/4 leaves 9 free dofs; k = 20 once printed 20 values, 19 of them
    # copies of a value the pencil does not have
    r = run_cli("solve", "homog", "--q", "1", "--h", "0.25", "-k", "20")
    assert r.returncode == 0
    vals = [float(ln.split()[0]) for ln in r.stdout.splitlines()
            if ln.startswith("  ")]
    assert len(vals) == 9
    mesh = meshgen.mesh_unperforated(geometry.unit_square(), 0.25)
    dm = fem.build_dofmap(mesh)
    dense = np.sort(eigen.dense_reference_eigs(
        fem.apply_dirichlet(fem.assemble_mass(mesh), dm),
        fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm)).values)
    assert np.abs(np.array(vals) - dense).max() <= 1e-10 * dense.max()
    assert "warning: only 9 of 20 eigenvalues available" in r.stdout


def test_cli_missing_study_config_exits_2(tmp_path):
    r = run_cli("study", str(tmp_path / "missing.json"))
    assert r.returncode == 2


def test_cli_invalid_study_config_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m_values": [4, 2]}))
    r = run_cli("study", str(p))
    assert r.returncode == 2


def test_cli_study_with_zero_m_exits_2_with_message(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m_values": [0, 2]}))
    r = run_cli("study", str(p))
    assert r.returncode == 2
    assert "m_values must be positive integers, got 0" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("field,value", [
    ("hole_shape", ["kgon", "4"]), ("hole_shape", ["kgon"]),
    ("hole_shape", "square"), ("hole_shape", ["kgon", 2]),
    ("hole_shape", ["kgon", 4.5]),
    ("seed", "a"), ("parallelism", "2"), ("beta", "0.5"), ("h_hom", "x"),
    ("k", 2.5), ("run_gaps", "no"),
    ("sources", [{"kind": "sine", "px": True}]), ("jitter", ["random", False]),
    # no longer fields: the residual bound is fixed, "sources": [] runs no
    # gaps, and every cell has the same weight, so the weight defect whose
    # norm sigma chose is 0 and is not computed
    ("tol", 1e-10), ("run_gaps", False), ("sigma", 1.0),
    # a key its kind does not read once ran another source silently
    ("sources", [{"kind": "sine", "pz": 3}]),
    ("sources", [{"px": 2, "kidn": "bump"}]),
    ("sources", [{"kind": "bump", "px": 2}]),
    ("sources", [{"kind": "sine", "w": -1}]),
])
def test_cli_study_with_mistyped_field_exits_2_with_one_line(tmp_path, field,
                                                            value):
    # each once ended in a traceback, a late error, or a silent default
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m_values": [2], "beta": 0.5, field: value}))
    r = run_cli("study", str(p), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config: ")
    assert field.replace("_", " ") in lines[0].replace("_", " ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", [
    {}, {"kind": "sine", "px": 1, "py": 1},
    {"kind": "bump", "x0": 0.3, "y0": 0.6, "w": 0.2},
])
def test_sources_with_only_their_kinds_keys_validate(source):
    # the default config's sine and the bump of perfbench's cell-suite
    cfg = study.config_from_dict({"sources": [source]})
    assert cfg.sources == (source,)


@pytest.mark.parametrize("source,key", [
    ({"kind": "sine", "px": 0}, "px"), ({"kind": "sine", "py": 1.5}, "py"),
    ({"kind": "sine", "px": "2"}, "px"), ({"kind": "bump", "w": 0}, "w"),
    ({"kind": "bump", "w": -0.2}, "w"), ({"kind": "bump", "w": None}, "w"),
    ({"kind": "bump", "x0": float("inf")}, "x0"),
    ({"kind": "bump", "y0": float("nan")}, "y0"),
    ({"kind": "sine", "scale": float("nan")}, "scale"),
])
def test_cli_study_with_degenerate_source_exits_2_with_one_line(tmp_path,
                                                                source, key):
    # px 0 once gave f_norm 0 and w 0 gave f_norm NaN, and both passed
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m_values": [2], "beta": 0.5,
                             "sources": [source]}))
    r = run_cli("study", str(p), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config: bad source")
    assert re.search(rf"\b{key}\b", lines[0])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", [
    {"kind": "sine", "scale": 0}, {"kind": "bump", "x0": 100},
])
def test_cli_study_with_zero_source_exits_1_with_one_line(tmp_path, source):
    # valid descriptors that vanish on every node once divided 0.0 by 0.0
    # while the report was written
    cfg = dict(SMALL, m_values=[2], beta=0.5, sources=[source])
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(cfg))
    r = run_cli("study", str(p), "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: m=2: source ")
    assert "cannot be normalized" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,message", [
    (["mesh", "--beta", "nan"], "beta=nan"),
    (["mesh", "--beta", "inf"], "beta=inf"),
    (["solve", "steklov", "--m", "2", "--beta", "nan"], "beta=nan"),
    (["mesh", "--grading", "nan"], "grading factor"),
    (["mesh", "--grading", "inf"], "grading factor"),
])
def test_cli_non_finite_beta_or_grading_exits_1_with_one_line(args, message):
    # NaN once passed both range checks and reached the mesher
    r = run_cli(*args)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert r.stdout == ""


@pytest.mark.parametrize("args,flag", [
    (["cell", "--h", "0"], "--h"),
    (["cell", "--h", "-1"], "--h"),
    (["solve", "homog", "--h", "nan"], "--h"),
    (["solve", "homog", "--q", "0"], "--q"),
    (["solve", "homog", "--q", "-1"], "--q"),
    (["solve", "steklov", "-k", "0"], "-k"),
    (["solve", "homog", "-k", "1.5"], "-k"),
    (["mesh", "--refine", "-1"], "--refine"),
])
def test_cli_rejects_out_of_range_arguments(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err


def test_cli_mesh_rejects_zero_hole_segments(capsys):
    assert cli.main(["mesh", "--segments", "0"]) == 1
    err = capsys.readouterr().err
    assert "error: hole_boundary_segments must be a positive multiple of 8" \
        in err
    assert "Traceback" not in err


def _homog_lambdas(capsys, q):
    assert cli.main(["solve", "homog", "--q", q, "--h", "0.25"]) == 0
    out = capsys.readouterr().out
    return np.array([float(ln.split()[0]) for ln in out.splitlines()
                     if ln.startswith("  ")])


def test_cli_solve_homog_largest_weight_scales_the_spectrum(capsys):
    # the weighted mass is near overflow; the solver scales it back in range
    want = _homog_lambdas(capsys, "1") / 1e308
    got = _homog_lambdas(capsys, "1e308")
    assert len(got) == 3
    assert np.abs(got / want - 1.0).max() <= 1e-12


@pytest.mark.parametrize("q,message", [
    ("1e-320", "error: no eigenvalue found"),
])
def test_cli_solve_homog_extreme_weight_exits_1(capsys, q, message):
    # the weighted mass underflows until no eigenvalue is left
    assert cli.main(["solve", "homog", "--q", q, "--h", "0.25"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_reports_library_errors_with_exit_1(capsys, monkeypatch):
    # an empty homogenized system (FemError), and an EigenError from the
    # solver, which argparse's k > 0 check keeps the CLI itself from causing
    assert cli.main(["solve", "homog", "--h", "10"]) == 1
    assert "error: every node is constrained" in capsys.readouterr().err
    solve = spectra.steklov_spectrum
    monkeypatch.setattr(spectra, "steklov_spectrum",
                        lambda op, k: solve(op, 0))
    assert cli.main(["solve", "steklov", "--m", "2"]) == 1
    assert "error: k must be >= 1" in capsys.readouterr().err


def test_cli_validate_roundtrip(tmp_path):
    from steklov_lab import geometry
    g = geometry.build_perforated_geometry(geometry.unit_square(), 3, 1.0)
    p = tmp_path / "geom.json"
    p.write_text(geometry.geometry_to_json(g))
    r = run_cli("validate", str(p))
    assert r.returncode == 0
    assert "PASS" in r.stdout


def _edited_geometry_payload(edit, shape_spec="circle",
                             domain=geometry.unit_square):
    g = geometry.build_perforated_geometry(domain(), 2, 1.0,
                                           shape_spec=shape_spec)
    data = json.loads(geometry.geometry_to_json(g))
    edit(data)
    return json.dumps(data)


def _swap_holes(data):
    holes = data["holes"]
    holes[0], holes[1] = holes[1], holes[0]


@pytest.mark.parametrize("text,message", [
    (None, "geometry file not found: "),
    ("not json", "invalid geometry: malformed geometry JSON (JSONDecodeError"),
    ('{"domain": 1}', "invalid geometry: malformed geometry JSON (TypeError"),
    # holes must name their cells in cell order, and m must tile the domain
    pytest.param(
        _edited_geometry_payload(_swap_holes),
        "invalid geometry: hole 0 names cell 1; holes list one hole per "
        "cell, in cell order", id="holes-swapped"),
    pytest.param(
        _edited_geometry_payload(lambda d: d["holes"][1].update(cell="1")),
        "invalid geometry: hole 1 names cell '1'", id="cell-string"),
    pytest.param(
        _edited_geometry_payload(lambda d: d["epsilon"].update(m=3),
                                 domain=geometry.l_shape),
        "invalid geometry: domain vertex (1, 1/2) is not on the 1/3 grid",
        id="untileable-m"),
    # well-formed JSON with bad values
    pytest.param(
        _edited_geometry_payload(lambda d: d["epsilon"].update(m=0)),
        "invalid geometry: epsilon m must be an integer >= 1", id="m-zero"),
    pytest.param(
        _edited_geometry_payload(lambda d: d["holes"][0].update(k=None),
                                 ("kgon", 4)),
        "invalid geometry: hole shape must be circle or kgon with an integer "
        "k >= 3", id="kgon-k-null"),
    # each of these once ended in a traceback
    pytest.param(
        _edited_geometry_payload(lambda d: d["holes"][0].update(center=[0.1])),
        "invalid geometry: hole 0 center must be two numbers", id="center-1d"),
    pytest.param(
        _edited_geometry_payload(
            lambda d: d["holes"][0].update(center=[0.1, 0.2, 0.3])),
        "invalid geometry: hole 0 center must be two numbers", id="center-3d"),
])
def test_cli_validate_bad_input_exits_2(capsys, tmp_path, text, message):
    p = tmp_path / "geom.json"
    if text is not None:
        p.write_text(text)
    assert cli.main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_validate_fails_a_hole_moved_into_the_next_cell(capsys,
                                                            tmp_path):
    # hole 0 sits at the center of cell 1: r = 1/4 from cell 0's side, but
    # outside cell 0, so its inset into cell 0 is -r
    p = tmp_path / "geom.json"
    p.write_text(_edited_geometry_payload(
        lambda d: d["holes"][0].update(center=[0.75, 0.25])))
    assert cli.main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  secure-distance: measured -1 vs bound 0.5 (cell 0)" in out
    assert out.endswith("FAIL\n")


def _break_two_holes(data):
    """Hole 0 at 0.08 r from its cell side, hole 1 with d / r^2 = 80 (m = 2,
    r = 1/4)."""
    data["holes"][0].update(center=[0.5 - 0.08 / 4, 0.25])
    data["holes"][1].update(d=80 / 16)


def _with_key(edit, key, value):
    def both(data):
        edit(data)
        data[key] = value
    return both


def test_cli_validate_ignores_a_files_own_lenient_bounds(capsys, tmp_path):
    # a file once set the bounds it was checked against, and passed
    lenient = {"c_tilde": 99, "c_sec": -1, "c_d_minus": -1e9, "c_d_plus": 1e9}
    p = tmp_path / "geom.json"
    p.write_text(_edited_geometry_payload(
        _with_key(_break_two_holes, "constants", lenient)))
    assert cli.main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  secure-distance: measured 0.08 vs bound 0.5 (cell 0)" in out
    assert "FAIL  hole-scaling-upper: measured 80 vs bound 10 (cell 1)" in out
    assert "pass  cell-radius-ratio: measured 1.41421 vs bound 1.5\n" in out
    assert "pass  hole-scaling-lower: measured 1 vs bound 0.1\n" in out
    assert out.endswith("FAIL\n")


@pytest.mark.parametrize("edit", [lambda d: None, _break_two_holes],
                         ids=["admissible", "two-holes-broken"])
def test_cli_validate_reads_an_old_constants_block_as_absent(capsys, tmp_path,
                                                             edit):
    # so is an older file's "beta", whatever its value: the holes carry d
    old = {"c_tilde": 1.5, "c_sec": 0.5, "c_d_minus": 0.1, "c_d_plus": 10.0}
    payloads = [_edited_geometry_payload(edit)] + [
        _edited_geometry_payload(_with_key(edit, key, value))
        for key, value in [("constants", old), ("beta", 1.0), ("beta", "1"),
                           ("beta", -1)]]
    runs = []
    for payload in payloads:
        p = tmp_path / "geom.json"
        p.write_text(payload)
        runs.append((cli.main(["validate", str(p)]), capsys.readouterr()))
    assert runs[1:] == [runs[0]] * 4
    assert "beta" not in json.loads(payloads[0])
    assert "constants" in json.loads(payloads[1])
    assert [json.loads(p)["beta"] for p in payloads[2:]] == [1.0, "1", -1]


def test_cli_mesh_export_reloadable(tmp_path):
    out = tmp_path / "mesh.txt"
    r = run_cli("mesh", "--m", "2", "--export", str(out))
    assert r.returncode == 0
    mesh = meshgen.load_mesh(out.read_text())
    assert mesh.num_triangles > 0
    assert meshgen.export_mesh(mesh) == out.read_text()


@pytest.mark.parametrize("target", ["missing/mesh.txt", "."])
def test_cli_mesh_export_file_error_exits_1_with_one_line(capsys, monkeypatch,
                                                         tmp_path, target):
    # a missing directory or a directory as target once gave a traceback,
    # and later failed only after all the meshing
    def mesh(*args):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(meshgen, "mesh_perforated", mesh)
    assert cli.main(["mesh", "--m", "1", "--beta", "0.5",
                     "--export", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_study_output_dir_on_a_file_fails_before_the_sweep(
        capsys, monkeypatch, tmp_path):
    # the sweep once ran in full and then died writing its report, also
    # for a directory below a file
    def sweep(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(study, "run_study", sweep)
    blocker = tmp_path / "out"
    blocker.write_text("")
    for target in (blocker, blocker / "sub"):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SMALL, output_dir=str(target))))
        assert cli.main(["study", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["mesh"], ["solve", "steklov"],
                                     ["solve", "homog"]])
def test_cli_unknown_domain_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--domain", "disk"])
    assert exc.value.code == 2
    assert "argument --domain: invalid choice: 'disk'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["homog", "--m", "8"], "unrecognized arguments: --m 8"),
    (["homog", "--rings", "3"], "unrecognized arguments: --rings 3"),
    (["homog", "--shape", "kgon:5"], "unrecognized arguments: --shape kgon:5"),
    (["steklov", "--q", "7"], "unrecognized arguments: --q 7"),
    # not read as an abbreviated --help either
    (["steklov", "--h", "0.3"], "unrecognized arguments: --h 0.3"),
    (["--homog"], "required: problem"),
])
def test_cli_solve_refuses_flags_its_problem_does_not_read(capsys, args,
                                                           message):
    # one solve parser once took every flag of both problems and ignored
    # those of the other one
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"] + args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_cli_cell_unknown_lemma_is_a_usage_error(capsys):
    # once exited 1 with "error: unknown lemma id '9.9'"
    with pytest.raises(SystemExit) as exc:
        cli.main(["cell", "--lemma", "9.9"])
    assert exc.value.code == 2
    assert "invalid choice: '9.9' (choose from '3.1', '3.2'" in \
        capsys.readouterr().err


def test_cli_cell_lemma_csv():
    r = run_cli("cell", "--lemma", "3.5")
    assert r.returncode == 0
    assert "PASS" in r.stdout


@pytest.mark.parametrize("flag", [["--shape", "kgon:4"], ["--h", "0.1"]])
def test_cli_cell_lemma_refuses_shape_and_h(capsys, flag):
    # the lemma sweeps once ran their own shapes and ignored both flags
    assert cli.main(["cell", "--lemma", "3.6"] + flag) == 2
    err = capsys.readouterr().err
    assert "do not apply to --lemma" in err and err.count("\n") == 1


@pytest.mark.parametrize("shape", ["square", "slit_collar:0.3", "kgon:2",
                                   "kgon:x", "circle"])
def test_cli_cell_rejects_unsupported_shape(shape):
    r = run_cli("cell", "--shape", shape)
    assert r.returncode == 2
    assert "accepted: disk, kgon:K" in r.stderr


@pytest.mark.parametrize("command", [["mesh"], ["solve", "steklov"]])
@pytest.mark.parametrize("shape", ["disk", "square", "kgon:2", "kgon:x",
                                   "kgon:+7", "kgon:\u00b2", "kgon:3:1"])
def test_cli_mesh_and_solve_reject_unsupported_shape(capsys, command, shape):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--shape", shape])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "accepted: circle, kgon:K (integer K >= 3)" in err
    assert "Traceback" not in err


def test_parallelism_leaves_results_byte_identical():
    # a 2-worker pool must give byte-identical results to the serial path
    serial = study.run_study(small_config(sources=[]))
    pooled = study.run_study(small_config(sources=[], parallelism=2))
    assert study.report_csv(serial) == study.report_csv(pooled)


@pytest.mark.parametrize("m_values", [[1, 2], [1, 2, 4, 9]])
def test_homogenized_side_solved_once_per_study(monkeypatch, m_values):
    solves = []
    solve = spectra.smallest_pencil_eigs

    def counted(*args, **kwargs):
        solves.append(args[0].shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectra, "smallest_pencil_eigs", counted)
    cfg = small_config(m_values=m_values, beta=0.5, sources=[])
    report = study.run_study(cfg)
    assert len(solves) == 2
    assert len(report.pairs) == len(m_values)
    assert all(p.gate_ok for p in report.pairs)


@pytest.mark.parametrize("sources", [1, 3])
def test_point_condenses_its_coarse_mesh_once_for_all_gaps(monkeypatch,
                                                           sources):
    # bundles and references are held weakly, so the test keeps none alive
    condensed, refs, solved, used, alive = [], [], [], [], []
    condense, solve = spectra.condense, spectra.steklov_spectrum
    gap, gap_reference = spectra.resolvent_gap, spectra.gap_reference

    def counted_condense(mesh):
        alive.append([w() is not None for w in condensed + refs])
        op = condense(mesh)
        condensed.append(weakref.ref(op))
        return op

    def counted_solve(op, *args):
        solved.append((op is condensed[-1](), op.mesh))
        return solve(op, *args)

    def counted_reference(*args):
        ref = gap_reference(*args)
        refs.append(weakref.ref(ref))
        return ref

    def counted_gap(desc, ref, perf):
        used.append((ref is refs[0](), perf is condensed[0](), ref.fac,
                     perf.S))
        return gap(desc, ref, perf)

    factored, factor_spd = [], spectra.factor_spd

    def counted_factor(A):
        factored.append((A, factor_spd(A)))
        return factored[-1][1]

    monkeypatch.setattr(spectra, "condense", counted_condense)
    monkeypatch.setattr(spectra, "steklov_spectrum", counted_solve)
    monkeypatch.setattr(spectra, "gap_reference", counted_reference)
    monkeypatch.setattr(spectra, "resolvent_gap", counted_gap)
    monkeypatch.setattr(spectra, "factor_spd", counted_factor)
    descs = [{"kind": "sine", "px": p, "py": 1} for p in range(1, 4)]
    cfg = small_config(sources=descs[:sources])
    homog = spectra.homogenized_pair(cfg.domain_object(), np.pi / 2,
                                     cfg.h_hom, cfg.k)
    pair, gaps, _ = study._run_point(cfg, 2, homog)
    assert len(gaps) == sources and pair.gate_ok
    # one bundle per mesh, the coarse one then its refinement, and each
    # solves its own pencil
    assert len(condensed) == 2 and len(refs) == 1
    (own_coarse, coarse), (own_fine, fine) = solved
    assert own_coarse and own_fine
    assert fine.num_triangles == 4 * coarse.num_triangles
    # every gap runs on the bundle that solved the coarse pencil and on one
    # reference; neither is alive when the refined mesh is condensed
    assert len(used) == sources
    assert all(on_ref and on_perf for on_ref, on_perf, _, _ in used)
    assert alive == [[], [False, False]]
    # the gaps share one factor of the bundle's S and one reference factor
    _, _, ref_fac, perf_S = used[0]
    assert sum(A is perf_S for A, _ in factored) == 1
    assert sum(fac is ref_fac for _, fac in factored) == 1


def test_study_without_sources_builds_no_gap_reference(monkeypatch):
    # "sources": [] once still meshed and factored a gap reference at every
    # sweep point
    calls = []
    reference = spectra.gap_reference
    monkeypatch.setattr(spectra, "gap_reference",
                        lambda *args: calls.append(args) or reference(*args))
    report = study.run_study(small_config(m_values=[2], sources=[]))
    assert calls == [] and report.gap_samples == [[]]
    head = study.report_csv(report).splitlines()[0].split(",")
    assert head[-1] == "hausdorff"
    assert not any(h.startswith("gap_f") for h in head)


def test_study_mixing_cell_counts_runs():
    # m = 13 once gave a cell weight one ulp off that of m <= 12, so an
    # exact per-point check of it against the study's q_limit refused this
    # sweep
    tpl = {"ring_count": 6, "grading": 2.0, "boundary_nodes_per_side": 2,
           "hole_boundary_segments": 8}
    cfg = small_config(m_values=[4, 8, 13], sources=[], template=tpl)
    report = study.run_study(cfg)
    assert [p.m for p in report.pairs] == [4, 8, 13]
    assert all(p.delta == spectra.rate_scale(p.r_eps) for p in report.pairs)


def test_degenerate_sweep_skips_fits_and_writes_report(tmp_path):
    # m = 2..5 spans delta by 1.94x only; the fits once raised after every
    # point was solved, and no report was written
    tpl = {"ring_count": 6, "grading": 2.0, "boundary_nodes_per_side": 4,
           "hole_boundary_segments": 16}
    cfg = study.config_from_dict({"beta": 0.5, "m_values": [2, 3, 4, 5],
                                  "template": tpl, "sources": []})
    report = study.run_study(cfg)
    assert all(p.gate_ok for p in report.pairs)
    assert report.rate is None and report.gap_rates == []
    assert report.notes == [
        "delta spans only a factor 1.94 (a fit needs 4.0); rate fit skipped"]
    assert report.gates_ok and not report.passed
    paths = study.write_report(report, str(tmp_path / "out"))
    assert "svg" not in paths
    assert json.loads(open(paths["json"]).read())["rate"] is None


def test_a_non_monotone_eigenvalue_gap_fails_the_study():
    # perfbench's sweep passes; planting one point whose second eigenvalue
    # gap grows past its error bars leaves every gate and fit as it was,
    # and criterion 3's monotonicity alone now fails the study
    cfg = study.config_from_dict(
        {"beta": 0.5, "m_values": [1, 2, 4, 9], "h_hom": 1 / 32, "k": 2,
         "template": {"ring_count": 6, "grading": 2.0,
                      "boundary_nodes_per_side": 4,
                      "hole_boundary_segments": 16}})
    report = study.run_study(cfg)
    assert report.passed
    p = report.pairs[2]
    mu = p.steklov_mu.copy()
    mu[1] = p.homog_mu[1] + 2 * abs(report.pairs[1].steklov_mu[1]
                                    - report.pairs[1].homog_mu[1])
    report.pairs[2] = dataclasses.replace(p, steklov_mu=mu)
    assert report.gates_ok
    assert all(r.consistent for r in [report.rate, *report.gap_rates])
    assert len(report.gap_rates) == len(cfg.sources)
    assert spectra.eigenwise_monotone(report.pairs, 0)
    assert not spectra.eigenwise_monotone(report.pairs, 1)
    assert not report.passed
    assert json.loads(study.report_json(report))["passed"] is False
