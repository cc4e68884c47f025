import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from steklov_lab import fem, geometry, meshgen, oracles


def test_j0_zeros():
    assert abs(oracles.j0_zero(1) - 2.404825557695773) < 1e-10
    refs = scipy.special.jn_zeros(0, 50)
    for idx in range(1, 51):
        assert abs(oracles.j0_zero(idx) - refs[idx - 1]) < 1e-12


def test_root_stability_under_tightening():
    loose = oracles.j0_zero(1, tol=1e-8)
    tight = oracles.j0_zero(1, tol=1e-10)
    assert abs(loose - tight) < 1e-8
    refs = scipy.special.jn_zeros(0, 5)
    for tol in (1e-8, 1e-10):
        for idx in range(1, 6):
            assert abs(oracles.j0_zero(idx, tol=tol) - refs[idx - 1]) <= tol
    # a tolerance below the float spacing stops at adjacent floats
    assert abs(oracles.j0_zero(5, tol=0.0) - refs[4]) < 1e-14


def test_robin_disk_ground_solves_its_equation():
    for alpha in (0.5, 1.0, 2.0):
        s = math.sqrt(oracles.robin_disk_ground(alpha))
        assert abs(alpha * scipy.special.j0(s)
                   - s * scipy.special.j1(s)) < 1e-10
    lam = oracles.robin_disk_ground(1.0)
    assert 0 < lam < oracles.j0_zero(1) ** 2
    # monotone in alpha
    assert oracles.robin_disk_ground(0.5) < lam < oracles.robin_disk_ground(2.0)


def test_annulus_gap_root_of_cross_product():
    lam = oracles.annulus_neumann_gap(1.0, 2.0)
    k = math.sqrt(lam)

    def dj1(x):
        return scipy.special.jvp(1, x)

    def dy1(x):
        return scipy.special.yvp(1, x)

    assert abs(dj1(k) * dy1(2 * k) - dj1(2 * k) * dy1(k)) < 1e-10


def test_oracles_import_only_math_numpy_and_scipy():
    # the oracles certify the FEM/SuperLU/Lanczos path, so they must not
    # import any of it
    allowed = {"__future__", "math", "numpy", "scipy.special"}
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and imported <= allowed, imported - allowed


def test_package_never_imports_scipy_optimize():
    # cli imports every module; scipy.optimize would add its HiGHS, fft and
    # spatial imports to the start-up of every process
    src = str(Path(oracles.__file__).resolve().parents[1])
    code = ("import sys, steklov_lab.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.optimize')])")
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_square_dirichlet_spectrum():
    vals = oracles.square_dirichlet_spectrum(1.0, 4)
    assert np.allclose(vals / math.pi ** 2, [2, 5, 5, 8])
    assert np.allclose(oracles.square_dirichlet_spectrum(2.0, 4), vals / 2)


def test_quadrature_matches_matrices_on_random_data():
    dom = geometry.unit_square()
    geo = geometry.build_perforated_geometry(dom, 2, 1.0)
    mesh = meshgen.mesh_perforated(geo, meshgen.CellMeshTemplate())
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    Ball = fem.edge_mass(mesh, mesh.boundary_edges)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(mesh.num_nodes)
        scale = max(1.0, math.sqrt(v @ (K @ v)))
        assert abs(math.sqrt(v @ (M @ v))
                   - oracles.quadrature_norm(mesh, v, "l2")) < 1e-12 * scale
        assert abs(math.sqrt(v @ (K @ v))
                   - oracles.quadrature_norm(mesh, v, "h1-semi")) < 1e-12 * scale
        assert abs(math.sqrt(v @ (Ball @ v))
                   - oracles.quadrature_norm(mesh, v, "boundary-l2")) \
            < 1e-12 * scale


def test_quadrature_simple_values():
    mesh = meshgen.mesh_unperforated(geometry.unit_square(), 0.25)
    ones = np.ones(mesh.num_nodes)
    assert abs(oracles.quadrature_norm(mesh, ones, "l2") - 1.0) < 1e-14
    x = mesh.nodes[:, 0]
    assert abs(oracles.quadrature_norm(mesh, x, "h1-semi") - 1.0) < 1e-14


def test_boundary_quadrature_is_hole_perimeter():
    geo = geometry.build_perforated_geometry(geometry.unit_square(), 2, 1.0)
    tpl = meshgen.CellMeshTemplate()
    mesh = meshgen.mesh_perforated(geo, tpl)
    ones = np.ones(mesh.num_nodes)
    per = oracles.quadrature_norm(mesh, ones, "boundary-l2", tag=0) ** 2
    n = tpl.hole_boundary_segments
    d = geo.holes[0].d
    assert abs(per - 2 * n * d * math.sin(math.pi / n)) < 1e-13


def test_quadrature_rejects_unknown_form():
    mesh = meshgen.mesh_unperforated(geometry.unit_square(), 0.5)
    with pytest.raises(ValueError):
        oracles.quadrature_norm(mesh, np.ones(mesh.num_nodes), "h2")
