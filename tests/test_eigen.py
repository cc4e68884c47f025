import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_lab import eigen, fem
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg
from steklov_lab import oracles, spectra


def steklov_pencil(m=2, beta=1.0, tpl=None):
    tpl = tpl or mg.CellMeshTemplate()
    geom = geo.build_perforated_geometry(geo.unit_square(), m, beta)
    mesh = mg.mesh_perforated(geom, tpl)
    K = fem.assemble_stiffness(mesh)
    B = fem.assemble_hole_mass(mesh)
    dm = fem.build_dofmap(mesh)
    A = (fem.apply_dirichlet(K, dm) + fem.apply_dirichlet(B, dm)).tocsr()
    return A, fem.apply_dirichlet(B, dm).tocsr(), mesh


def test_factor_identity_and_2x2():
    f = eigen.factor_spd(sp.eye(4).tocsc())
    assert np.allclose(f.solve(np.arange(4.0)), np.arange(4.0))
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eigen.factor_spd(A).solve(np.array([3.0, 3.0])),
                       [1.0, 1.0])


def test_factor_reads_a_symmetric_csr_as_its_own_csc():
    A, _, _ = steklov_pencil()
    assert eigen._exactly_symmetric(A)
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    copied = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       **eigen._SPD_MODE)
    assert np.array_equal(eigen.factor_spd(A).solve(b), copied.solve(b))


def test_factor_solves_a_nonsymmetric_csr_as_given():
    # not its own transpose, so it must not be factored as A^T
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [0.5, 3.0, 1.0],
                                [0.0, 0.2, 2.0]]))
    assert not eigen._exactly_symmetric(A)
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(A @ eigen.factor_spd(A).solve(b), b, rtol=1e-14)


def test_factor_rejects_indefinite():
    A = sp.diags([1.0, -1.0, 2.0]).tocsc()
    with pytest.raises(eigen.EigenError, match="positive"):
        eigen.factor_spd(A)


def test_fill_ratio_counts_both_factors():
    A, _, mesh = steklov_pencil()
    op = spectra.condense(mesh)
    # the condensation's bordered form: interior dofs first, R last
    order = np.concatenate([np.setdiff1d(np.arange(A.shape[0]), op.r), op.r])
    for M in (A, op.S, A[order][:, order]):
        fac = eigen.factor_spd(M)
        assert fac.fill_ratio == (fac.lu.L.nnz + fac.lu.U.nnz) / M.nnz


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), density=st.floats(0.02, 0.3),
       n_keep=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
def test_schur_complement_matches_dense_formula(n, density, n_keep, seed):
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng)
    A = (R @ R.T + sp.diags(rng.uniform(0.1, 1.0, n))).tocsr()
    keep = rng.permutation(n)[:min(n_keep, n)]
    drop = np.setdiff1d(np.arange(n), keep)
    D = A.toarray()
    ref = D[np.ix_(keep, keep)]
    if len(drop):
        ref = ref - D[np.ix_(keep, drop)] @ np.linalg.solve(
            D[np.ix_(drop, drop)], D[np.ix_(drop, keep)])
    got = eigen.schur_complement(A, keep)
    assert np.array_equal(got, got.T)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("dense", [
    [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]],
    [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]],
])
def test_schur_complement_rejects_indefinite(dense):
    with pytest.raises(eigen.EigenError, match="positive definite"):
        eigen.schur_complement(sp.csr_matrix(np.array(dense)), [2])


def test_factor_solve_accuracy_on_pencil():
    A, _, _ = steklov_pencil()
    f = eigen.factor_spd(A)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    x = f.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_diagonal_pencil():
    A = sp.eye(3).tocsr()
    B = sp.diags([0.9, 0.5, 0.1]).tocsr()
    res = eigen.largest_pencil_eigs(A, B, 2)
    assert np.allclose(res.values, [0.9, 0.5], atol=1e-12)


def test_smallest_diagonal():
    K = sp.diags([1.0, 2.0, 3.0]).tocsr()
    res = eigen.smallest_pencil_eigs(K, sp.eye(3).tocsr(), 2)
    assert np.allclose(res.values, [1.0, 2.0], atol=1e-12)


def test_mu_within_unit_interval():
    A, B, _ = steklov_pencil(m=2)
    res = eigen.largest_pencil_eigs(A, B, 5)
    assert res.values.max() <= 1 + 1e-10
    assert res.values.min() > 0


def test_iterative_matches_dense_and_orthogonality():
    A, B, _ = steklov_pencil(m=2)
    it = eigen.largest_pencil_eigs(A, B, 5)
    dn = eigen.dense_reference_eigs(A, B)
    assert np.abs(it.values - dn.values[:5]).max() < 1e-9
    G = it.vectors @ (A @ it.vectors.T)
    assert np.abs(G - np.eye(5)).max() < 1e-9
    # residual contract
    import scipy.sparse.linalg as spla
    anorm = spla.norm(A, np.inf)
    assert np.all(it.residuals <= 1e-10 * anorm + 1e-13)
    assert np.all(it.converged)


def test_degenerate_pair_recovered():
    # the symmetric cell layout makes the 2nd/3rd values an exact pair
    A, B, _ = steklov_pencil(m=2)
    res = eigen.largest_pencil_eigs(A, B, 3)
    assert res.values[1] == pytest.approx(res.values[2], rel=1e-9)


def test_zero_eigenvalue_multiplicity_matches_rank():
    tpl = mg.CellMeshTemplate(8, 2.0, 4, 16)
    A, B, mesh = steklov_pencil(m=2, tpl=tpl)
    dn = eigen.dense_reference_eigs(A, B)
    positive = (dn.values > 1e-10).sum()
    hole_nodes = len(np.unique(mesh.boundary_edges[mesh.edge_tags >= 0]))
    assert positive == hole_nodes
    assert (np.abs(dn.values) <= 1e-10).sum() == A.shape[0] - hole_nodes


def test_k_beyond_rank_truncates_with_warning():
    tpl = mg.CellMeshTemplate(8, 2.0, 4, 16)
    A, B, mesh = steklov_pencil(m=2, tpl=tpl)
    rank = len(np.unique(mesh.boundary_edges[mesh.edge_tags >= 0]))
    res = eigen.largest_pencil_eigs(A, B, rank + 3)
    assert len(res.values) == rank
    assert "rank" in res.warning


def test_empty_boundary_rejected():
    A, B, _ = steklov_pencil(m=2)
    with pytest.raises(eigen.EigenError, match="Steklov boundary"):
        eigen.largest_pencil_eigs(A, 0.0 * B, 2)


def test_dense_refuses_large():
    n = 4001
    with pytest.raises(eigen.EigenError, match="refused"):
        eigen.dense_reference_eigs(sp.eye(n), sp.eye(n))


def test_dense_random_pencil_orthogonality():
    rng = np.random.default_rng(1)
    n = 50
    R = rng.standard_normal((n, n))
    A = R @ R.T + n * np.eye(n)
    S = rng.standard_normal((n, 8))
    B = S @ S.T
    dn = eigen.dense_reference_eigs(A, B)
    G = dn.vectors @ A @ dn.vectors.T
    assert np.abs(G - np.eye(n)).max() < 1e-10


def test_one_by_one_pencil():
    res = eigen.dense_reference_eigs(np.array([[4.0]]), np.array([[2.0]]))
    assert res.values[0] == pytest.approx(0.5)


def test_smallest_pencil_square_spectrum():
    mesh = mg.mesh_unperforated(geo.unit_square(), 1 / 32)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    dm = fem.build_dofmap(mesh)
    res = eigen.smallest_pencil_eigs(fem.apply_dirichlet(K, dm),
                                     fem.apply_dirichlet(M, dm), 3)
    exact = oracles.square_dirichlet_spectrum(1.0, 3)
    assert np.all(np.abs(res.values - exact) / exact < 8e-3)
    # pencil scaling: q-weighted eigenvalues divide exactly
    res2 = eigen.smallest_pencil_eigs(
        fem.apply_dirichlet(K, dm),
        fem.apply_dirichlet(fem.assemble_weighted_mass(mesh, 2.0), dm), 3)
    assert np.abs(res2.values - res.values / 2.0).max() < 1e-10


def test_deflation_removes_known_mode():
    mesh = mg.mesh_unperforated(geo.unit_square(), 1 / 16)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    res = eigen.smallest_pencil_eigs((K + M).tocsr(), M, 2)
    # the constant mode comes first, at exactly 1; the first nonzero
    # Neumann eigenvalue of the unit square is pi^2
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.values[1] - 1.0 == pytest.approx(math.pi ** 2, rel=5e-3)


def small_spd_pencil(n, rank, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    S = rng.standard_normal((n, rank))
    return sp.csr_matrix(R @ R.T + n * np.eye(n)), sp.csr_matrix(S @ S.T)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,rank", [(6, 6), (9, 9), (12, 7)])
def test_never_more_values_than_the_pencil_has(n, rank, seed):
    # once every direction was deflated, further runs started from rounding
    # noise and returned spurious copies of one value as converged pairs
    A, B = small_spd_pencil(n, rank, seed)
    dense = eigen.dense_reference_eigs(A, B).values[:rank]
    for k in range(1, n + 3):
        res = eigen.largest_pencil_eigs(A, B, k)
        got = min(k, rank)
        assert len(res.values) == got
        assert np.abs(res.values - dense[:got]).max() <= 1e-10
        if k > rank:
            assert f"only {rank} of {k} eigenvalues available" in res.warning
        else:
            assert res.warning is None


@pytest.mark.parametrize("k", [8, 9, 10, 20])
def test_smallest_never_more_values_than_free_dofs(k):
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.25)
    dm = fem.build_dofmap(mesh)
    K = fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm)
    M = fem.apply_dirichlet(fem.assemble_mass(mesh), dm)
    n = K.shape[0]
    assert n == 9
    dense = np.sort(eigen.dense_reference_eigs(M, K).values)
    res = eigen.smallest_pencil_eigs(K, M, k)
    assert len(res.values) == min(k, n)
    assert np.abs(res.values - dense[:k]).max() <= 1e-10 * dense.max()
    if k > n:
        assert res.warning == f"only {n} of {k} eigenvalues available"


@pytest.mark.parametrize("seed", range(3))
def test_oracle_pencil_shape_goes_through_arpack(seed):
    # the study's dense-vs-lanczos gate compares this shape against the
    # dense route; a dense answer on both sides would make it vacuous
    A, B = small_spd_pencil(50, 5, seed)
    res = eigen.largest_pencil_eigs(A, B, 5)
    assert res.solver == "arpack" and res.iterations > 0
    dense = eigen.dense_reference_eigs(A, B).values[:5]
    assert np.abs(res.values - dense).max() <= 1e-10


def test_k_at_n_minus_1_takes_the_dense_route():
    mesh = mg.mesh_unperforated(geo.unit_square(), 0.25)
    dm = fem.build_dofmap(mesh)
    K = fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm)
    M = fem.apply_dirichlet(fem.assemble_mass(mesh), dm)
    assert K.shape[0] == 9
    res = eigen.smallest_pencil_eigs(K, M, 20)
    assert res.solver == "dense-shift-invert" and res.iterations == 0
    assert res.warning == "only 9 of 20 eigenvalues available"
    assert eigen.smallest_pencil_eigs(K, M, 6).solver == "arpack-shift-invert"


def test_weighted_spectrum_scales_exactly_over_every_normal_weight(capfd):
    # a convergence test must be relative to the values, which scale as 1/q
    from steklov_lab import spectra
    base = spectra.homogenized_spectrum(geo.unit_square(), 1.0, 0.05, 3)
    for q in (1e-300, 1e-200, 1e-8, 1.0, 1e8, 1e200, 1e300):
        res = spectra.homogenized_spectrum(geo.unit_square(), q, 0.05, 3)
        assert np.all(res.converged)
        assert np.abs(res.values * q / base.values - 1.0).max() <= 1e-12
    assert capfd.readouterr().err == ""
