"""The condensed Steklov pencil against the full one it replaces.

The reference solves B u = mu (K + B) u over every free dof, as the solver
did before the cell interiors were eliminated.  The condensed values must
equal it, and the condensed vectors, extended harmonically into the cell
interiors, must be eigenvectors of that full pencil.
"""

import weakref

import numpy as np
import pytest

from steklov_lab import fem, spectra
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg
from steklov_lab.eigen import (dense_reference_eigs, factor_spd,
                              largest_pencil_eigs)

TPL = mg.CellMeshTemplate(6, 2.0, 4, 16)
K_VALUES = 5
TOL = 1e-10


def perforated(domain, m, hole, jitter, seed=0):
    dom = geo.l_shape() if domain == "l-shape" else geo.unit_square()
    geom = geo.build_perforated_geometry(
        dom, m, 0.5, shape_spec=hole, jitter=jitter,
        rng=np.random.default_rng(seed) if jitter else None)
    return mg.mesh_perforated(geom, TPL)


def full_pencil(mesh):
    dm = fem.build_dofmap(mesh, "outer")
    B = fem.apply_dirichlet(fem.assemble_hole_mass(mesh), dm)
    A = (fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm) + B).tocsr()
    return A, B


CASES = [(domain, m, hole, jitter)
         for domain, ms in (("unit-square", (1, 2, 4)), ("l-shape", (2, 4)))
         for m in ms
         for hole in ("circle", ("kgon", 4))
         for jitter in (None, ("random", 0.5))]


@pytest.mark.parametrize("domain,m,hole,jitter", CASES)
def test_condensed_values_and_vectors_match_full_pencil(domain, m, hole,
                                                        jitter):
    coarse = perforated(domain, m, hole, jitter, seed=m)
    for mesh in (coarse, mg.refine(coarse)):
        A, B = full_pencil(mesh)
        want = largest_pencil_eigs(A, B, K_VALUES, tol=TOL)
        op = spectra.condense(mesh)
        got = spectra.steklov_spectrum(op, K_VALUES, TOL)
        assert len(got.values) == K_VALUES and np.all(got.converged)
        assert np.max(np.abs(got.values - want.values) / want.values) <= 1e-10
        assert got.vectors.shape == (K_VALUES, len(op.r))
        # u_I = -A_II^-1 A_IR u_R, from the full pencil's own blocks
        i = np.setdiff1d(np.arange(A.shape[0]), op.r)
        u = np.zeros((K_VALUES, A.shape[0]))
        u[:, op.r] = got.vectors
        u[:, i] = -factor_spd(A[i][:, i]).solve(
            np.asarray(A[i][:, op.r] @ got.vectors.T)).T
        anorm = np.abs(A).sum(axis=1).max()
        for mu, x in zip(got.values, u):
            assert np.linalg.norm(B @ x - mu * (A @ x)) <= TOL * anorm
        gram = u @ (A @ u.T)
        assert np.abs(gram - np.eye(K_VALUES)).max() <= 1e-10


@pytest.mark.parametrize("domain,m", [("unit-square", 1), ("l-shape", 2)])
def test_dense_reference_on_condensed_pencil(domain, m):
    mesh = perforated(domain, m, "circle", ("random", 0.5), seed=3)
    op = spectra.condense(mesh)
    S, B_RR = op.S, op.B_RR
    assert (S != S.T).nnz == 0
    dense = dense_reference_eigs(S, B_RR).values[:K_VALUES]
    full = dense_reference_eigs(*full_pencil(mesh)).values[:K_VALUES]
    got = spectra.steklov_spectrum(op, K_VALUES, TOL).values
    assert np.max(np.abs(dense - full) / full) <= 1e-10
    assert np.max(np.abs(got - dense) / dense) <= 1e-10


def test_condensed_dofs_are_hole_and_skeleton_nodes():
    # 2x2 cells: R is every free hole node plus the free nodes on the
    # inner cell sides x = 0.5 and y = 0.5, before and after refinement
    coarse = perforated("unit-square", 2, "circle", None)
    for mesh in (coarse, mg.refine(coarse)):
        dm = fem.build_dofmap(mesh, "outer")
        on_r, _ = spectra._skeleton(mesh, dm)
        hole = mesh.boundary_edges[mesh.edge_tags != mg.OUTER]
        x, y = mesh.nodes[dm.free].T
        want = np.isclose(x, 0.5) | np.isclose(y, 0.5) | np.isin(dm.free,
                                                                 hole)
        assert np.array_equal(on_r, want)


def test_condensation_needs_cell_ids():
    mesh = perforated("unit-square", 2, "circle", None)
    mesh.tri_cell[:] = -1
    with pytest.raises(spectra.SpectraError, match="cell ids"):
        spectra.condense(mesh)


def test_condensation_rejects_hole_mass_on_a_cell_interior(monkeypatch):
    mesh = perforated("unit-square", 2, "circle", None)
    dm = fem.build_dofmap(mesh, "outer")
    on_r, _ = spectra._skeleton(mesh, dm)
    inner = dm.free[np.flatnonzero(~on_r)[0]]
    hole_mass = fem.assemble_hole_mass

    def leaky(msh):
        B = hole_mass(msh).tolil()
        B[inner, inner] = 1.0
        return B.tocsr()

    monkeypatch.setattr(spectra.fem, "assemble_hole_mass", leaky)
    with pytest.raises(spectra.SpectraError, match="cell-interior"):
        spectra.condense(mesh)


@pytest.mark.parametrize("k", [30, 31, 32, 33])
def test_condensed_pencil_at_and_beyond_its_size(k):
    # m = 1 leaves only hole dofs: 32 of them on the default template
    geom = geo.build_perforated_geometry(geo.unit_square(), 1, 0.5)
    op = spectra.condense(mg.mesh_perforated(geom, mg.CellMeshTemplate()))
    n = op.S.shape[0]
    assert n == 32
    dense = dense_reference_eigs(op.S, op.B_RR).values
    res = largest_pencil_eigs(op.S, op.B_RR, k)
    assert len(res.values) == min(k, n)
    assert np.abs(res.values - dense[:len(res.values)]).max() <= 1e-10
    assert (res.warning is None) == (k <= n)


@pytest.mark.parametrize("domain,m,hole,jitter", CASES)
def test_condensed_source_solve_matches_full_operator(domain, m, hole,
                                                      jitter):
    coarse = perforated(domain, m, hole, jitter, seed=m)
    for mesh in (coarse, mg.refine(coarse)):
        op = spectra.condense(mesh)
        A, _ = full_pencil(mesh)
        x, y = mesh.nodes.T
        f = np.sin(np.pi * x) * np.sin(np.pi * y) + x * y
        B = fem.assemble_hole_mass(mesh)
        want = op.dofmap.expand(
            factor_spd(A).solve((B @ f)[op.dofmap.free]))
        got = op.solve(f)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("domain,m,hole,jitter", CASES)
def test_condensed_energy_matches_h_eps_norm(domain, m, hole, jitter):
    coarse = perforated(domain, m, hole, jitter, seed=m)
    for mesh in (coarse, mg.refine(coarse)):
        op = spectra.condense(mesh)
        x, y = mesh.nodes.T
        u = op.dofmap.expand((np.cos(3 * x) + x * y)[op.dofmap.free])
        want = fem.h_eps_norm(mesh, u)
        assert abs(op.energy(u) - want) <= 1e-13 * want


def test_condensed_bundle_holds_no_factor_until_its_first_solve(
        monkeypatch):
    built = []
    factor_spd = spectra.factor_spd

    def recorded(A):
        fac = factor_spd(A)
        built.append((A.shape[0], weakref.ref(fac)))
        return fac

    monkeypatch.setattr(spectra, "factor_spd", recorded)
    mesh = perforated("unit-square", 2, "circle", ("random", 0.5))
    op = spectra.condense(mesh)
    # the A_II factor behind S is gone once condense returns
    assert len(built) == 1 and built[0][1]() is None
    n_i = op.A.shape[0] - len(op.r)
    assert built[0][0] == n_i
    f = np.ones(mesh.num_nodes)
    u = op.solve(f)
    assert [n for n, _ in built[1:]] == [len(op.r), n_i]
    assert all(ref() is not None for _, ref in built[1:])
    assert np.array_equal(op.solve(f), u) and len(built) == 3
