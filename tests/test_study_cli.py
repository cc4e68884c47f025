import dataclasses
import json
import os
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
    with pytest.raises(study.StudyError, match="inadmissible"):
        study.config_from_dict({"m_values": [2, 4], "beta": 1.5})
    with pytest.raises(study.StudyError, match="positive"):
        study.config_from_dict({"tol": -1})
    with pytest.raises(study.StudyError, match="unknown domain"):
        study.config_from_dict({"domain": "disk"})
    with pytest.raises(study.StudyError, match="bad config field"):
        study.config_from_dict({"nonsense": 1})


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
    bound = geometry.max_hole_offset(geometry.DEFAULT_CONSTANTS.c_sec)
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


@pytest.mark.parametrize("value", ["two", "0", "-1"])
def test_bad_thread_variable_fails_validation(monkeypatch, value):
    monkeypatch.setenv("STEKLOV_LAB_THREADS", value)
    with pytest.raises(study.StudyError,
                       match=f"STEKLOV_LAB_THREADS='{value}'"):
        study.config_from_dict({})


def test_oracle_selftest_passes():
    checks = study.oracle_selftest()
    assert all(ok for _, ok, _ in checks)
    names = {n for n, _, _ in checks}
    assert {"bessel-j0-zero", "quadrature-vs-matrices",
            "dense-vs-lanczos"} <= names


def test_small_study_runs_and_reports(tmp_path):
    cfg = small_config(run_gaps=True)
    report = study.run_study(cfg, with_cell_summary=False)
    assert report.oracle_ok
    assert len(report.pairs) == 2
    assert report.rate is None          # fewer than 4 usable points
    assert any("rate fit skipped" in n for n in report.notes)
    assert report.pairs[0].hausdorff > report.pairs[1].hausdorff
    paths = study.write_report(report, str(tmp_path / "out"))
    assert os.path.exists(paths["csv"])
    data = json.loads(open(paths["json"]).read())
    assert data["environment"]["package"] == "steklov-lab"
    assert len(data["points"]) == 2
    head = open(paths["csv"]).readline().strip().split(",")
    assert head[:5] == ["epsilon", "r_eps", "d", "kappa", "delta"]
    assert "gap_f1" in head


def test_study_determinism_byte_identical(tmp_path):
    outs = []
    for run in ("a", "b"):
        cfg = small_config(run_gaps=True)
        report = study.run_study(cfg, with_cell_summary=False)
        paths = study.write_report(report, str(tmp_path / run))
        outs.append((open(paths["csv"], "rb").read(),
                     open(paths["json"], "rb").read()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_rate_fit_gated_on_oracle(monkeypatch):
    cfg = small_config()
    monkeypatch.setattr(study, "oracle_selftest",
                        lambda seed=0: [("fake", False, "forced failure")])
    report = study.run_study(cfg, with_cell_summary=False)
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
    r = run_cli("oracle", "--selftest")
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_cli_solve_homog_near_analytic():
    r = run_cli("solve", "--homog", "--q", "1", "--h", "0.05", "-k", "3")
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("  ")]
    vals = [float(ln.split()[0]) for ln in lines]
    assert abs(vals[0] - 2 * np.pi ** 2) / (2 * np.pi ** 2) < 0.02
    assert abs(vals[1] - 5 * np.pi ** 2) / (5 * np.pi ** 2) < 0.02


def test_cli_solve_homog_prints_the_solver_warning():
    # h = 1/4 leaves 9 free dofs; k = 20 once printed 20 values, 19 of them
    # copies of a value the pencil does not have
    r = run_cli("solve", "--homog", "--q", "1", "--h", "0.25", "-k", "20")
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
    ("seed", "a"), ("parallelism", "2"), ("beta", "0.5"), ("tol", "x"),
    ("k", 2.5), ("run_gaps", "no"),
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


@pytest.mark.parametrize("args,flag", [
    (["cell", "--h", "0"], "--h"),
    (["cell", "--h", "-1"], "--h"),
    (["solve", "--homog", "--h", "nan"], "--h"),
    (["solve", "--homog", "--q", "0"], "--q"),
    (["solve", "--homog", "--q", "-1"], "--q"),
    (["solve", "--steklov", "-k", "0"], "-k"),
    (["solve", "--homog", "-k", "1.5"], "-k"),
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
    assert cli.main(["solve", "--homog", "--q", q, "--h", "0.25"]) == 0
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
    assert cli.main(["solve", "--homog", "--q", q, "--h", "0.25"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_reports_library_errors_with_exit_1(capsys, monkeypatch):
    # an empty homogenized system (FemError), and an EigenError from the
    # solver, which argparse's k > 0 check keeps the CLI itself from causing
    assert cli.main(["solve", "--homog", "--h", "10"]) == 1
    assert "error: every node is constrained" in capsys.readouterr().err
    solve = spectra.steklov_spectrum
    monkeypatch.setattr(spectra, "steklov_spectrum",
                        lambda op, k: solve(op, 0))
    assert cli.main(["solve", "--steklov", "--m", "2"]) == 1
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
    pytest.param(
        _edited_geometry_payload(lambda d: d.update(beta="1")),
        "invalid geometry: beta must be a finite number", id="beta-string"),
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


def test_cli_mesh_export_reloadable(tmp_path):
    out = tmp_path / "mesh.txt"
    r = run_cli("mesh", "--m", "2", "--export", str(out))
    assert r.returncode == 0
    mesh = meshgen.load_mesh(out.read_text())
    assert mesh.num_triangles > 0
    assert meshgen.export_mesh(mesh) == out.read_text()


def test_cli_cell_lemma_csv():
    r = run_cli("cell", "--lemma", "3.5")
    assert r.returncode == 0
    assert "PASS" in r.stdout


@pytest.mark.parametrize("shape", ["square", "slit_collar:0.3", "kgon:2",
                                   "kgon:x"])
def test_cli_cell_rejects_unsupported_shape(shape):
    r = run_cli("cell", "--shape", shape)
    assert r.returncode == 2
    assert "accepted: disk, kgon:K" in r.stderr


@pytest.mark.parametrize("command", [["mesh"], ["solve", "--steklov"]])
@pytest.mark.parametrize("shape", ["disk", "square", "kgon:2", "kgon:x"])
def test_cli_mesh_and_solve_reject_unsupported_shape(capsys, command, shape):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--shape", shape])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "accepted: circle, kgon:K (integer K >= 3)" in err
    assert "Traceback" not in err


def test_env_var_overrides_parallelism(monkeypatch, tmp_path):
    # a 2-worker pool must give byte-identical results to the serial path
    cfg = small_config(run_gaps=False)
    serial = study.run_study(cfg, with_cell_summary=False)
    monkeypatch.setenv("STEKLOV_LAB_THREADS", "2")
    pooled = study.run_study(cfg, with_cell_summary=False)
    monkeypatch.delenv("STEKLOV_LAB_THREADS")
    assert study.report_csv(serial) == study.report_csv(pooled)


@pytest.mark.parametrize("m_values", [[1, 2], [1, 2, 4, 9]])
def test_homogenized_side_solved_once_per_study(monkeypatch, m_values):
    solves = []
    solve = spectra.smallest_pencil_eigs

    def counted(*args, **kwargs):
        solves.append(args[0].shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectra, "smallest_pencil_eigs", counted)
    cfg = small_config(m_values=m_values, beta=0.5, run_gaps=False)
    report = study.run_study(cfg, with_cell_summary=False)
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
                                     cfg.h_hom, cfg.k, cfg.tol)
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


def test_point_weight_must_match_study_q_limit():
    cfg = small_config(run_gaps=False)
    homog = spectra.homogenized_pair(cfg.domain_object(), 1.0, cfg.h_hom,
                                     cfg.k, cfg.tol)
    with pytest.raises(study.StudyError, match="q_limit"):
        study._run_point(cfg, 2, homog)


def test_study_mixing_cell_counts_runs():
    # m = 13 once gave a cell weight one ulp off that of m <= 12, so the
    # exact per-point q_limit check refused this sweep
    tpl = {"ring_count": 6, "grading": 2.0, "boundary_nodes_per_side": 2,
           "hole_boundary_segments": 8}
    cfg = small_config(m_values=[4, 8, 13], run_gaps=False, template=tpl)
    report = study.run_study(cfg, with_cell_summary=False)
    assert [p.m for p in report.pairs] == [4, 8, 13]
    assert all(p.kappa == 0.0 for p in report.pairs)


def test_degenerate_sweep_skips_fits_and_writes_report(tmp_path):
    # m = 2..5 spans delta by 1.94x only; the fits once raised after every
    # point was solved, and no report was written
    tpl = {"ring_count": 6, "grading": 2.0, "boundary_nodes_per_side": 4,
           "hole_boundary_segments": 16}
    cfg = study.config_from_dict({"beta": 0.5, "m_values": [2, 3, 4, 5],
                                  "template": tpl, "run_gaps": False})
    report = study.run_study(cfg, with_cell_summary=False)
    assert all(p.gate_ok for p in report.pairs)
    assert report.rate is None and report.gap_rates == []
    assert report.notes == [
        "delta spans only a factor 1.94 (a fit needs 4.0); rate fit skipped"]
    paths = study.write_report(report, str(tmp_path / "out"))
    assert "svg" not in paths
    assert json.loads(open(paths["json"]).read())["rate"] is None
