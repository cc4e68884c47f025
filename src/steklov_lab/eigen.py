"""Generalized symmetric eigensolvers for the two spectral pencils.

Both discrete problems reduce to the largest eigenvalues of B u = mu A u
with A positive definite: the perforated resolvent uses A = K + B_hole
(condensed onto hole and skeleton dofs), and the homogenized one arrives as
the reciprocal pencil of (K, M_Q).  The solver is ARPACK's implicitly
restarted Lanczos (scipy's eigsh) on the A-self-adjoint operator A^{-1}B,
with B scaled by a power of two to unit norm so any normal weight stays in
range.  A dense LAPACK route takes the pencils too small for ARPACK
(k >= n - 1) and provides the independent reference spectrum on small
problems.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class EigenError(ValueError):
    pass


DEFAULT_SEED = 20260314
_MAX_DENSE = 4000
_TOL = 1e-10       # relative residual bound of a converged pair


@dataclass
class SpdFactorization:
    """Reusable direct solve handle for a symmetric positive definite matrix."""
    lu: object
    n: int
    fill_ratio: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


def _check_pivots(lu, U) -> None:
    """Raise unless every pivot of a symmetric-mode SuperLU factor is
    positive, so a lost-SPD matrix (assembly or elimination bug) fails
    loudly.  U is lu.U, which SuperLU builds anew on every access."""
    diag = U.diagonal()
    bad = ~(np.isfinite(diag) & (diag > 0))
    if np.any(bad):
        where = int(np.nonzero(bad)[0][0])
        orig = int(np.nonzero(lu.perm_r == where)[0][0])
        raise EigenError(
            f"non-positive pivot at elimination step {where} "
            f"(original row {orig}); matrix is not positive definite")


def _exactly_symmetric(A) -> bool:
    """Whether a CSR matrix in canonical form equals its transpose.  (A z)_i
    and (A^T z)_i sum the same products in the same order when A is
    symmetric, so they agree bit for bit; on a random z they differ unless
    every asymmetry is lost to rounding, where factoring A^T in place of A
    moves a solve by no more than rounding does."""
    if A.format != "csr" or not A.has_canonical_format:
        return False
    z = np.random.default_rng(0).standard_normal(A.shape[0])
    return np.array_equal(A @ z, A.T @ z)


# diagonal pivots in symmetric mode: SuperLU factors an SPD matrix without
# row interchanges, as L U with U = D L^T
_SPD_MODE = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def factor_spd(A: sp.spmatrix) -> SpdFactorization:
    """SuperLU factorization in symmetric mode with a pivot-positivity check.
    An exactly symmetric CSR matrix is factored as its own transpose, whose
    CSC arrays are its CSR arrays, so no CSC copy is made."""
    if A.shape[0] != A.shape[1]:
        raise EigenError("matrix must be square")
    A = A.T if _exactly_symmetric(A) else A.tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", **_SPD_MODE)
    U = lu.U
    _check_pivots(lu, U)
    # without row exchanges L has the pattern of U^T, so L.nnz == U.nnz
    fill = 2 * U.nnz / max(1, A.nnz)
    return SpdFactorization(lu=lu, n=A.shape[0], fill_ratio=float(fill))


def schur_complement(A: sp.spmatrix, keep) -> np.ndarray:
    """Dense Schur complement A_kk - A_kd A_dd^{-1} A_dk of an SPD matrix
    onto the dofs keep, from one SuperLU factorization.

    The eliminated dofs go first, in the minimum-degree order of their own
    block, and keep last.  Factored in that order with diagonal pivots, the
    trailing block of L U is the Schur complement, so no solve is needed;
    with U = D L^T that block is W^T W for W = D^{-1/2} U_22, which is
    exactly symmetric.
    """
    A = A.tocsr()
    n = A.shape[0]
    keep = np.asarray(keep, dtype=np.int64)
    drop = np.setdiff1d(np.arange(n), keep)
    if len(drop):
        # SuperLU's MMD order of the block, read off an incomplete factor
        # at the coarsest drop tolerance, which costs little beyond the order
        perm = spla.spilu(A[drop][:, drop].tocsc(), drop_tol=1.0,
                          fill_factor=1, permc_spec="MMD_AT_PLUS_A",
                          **_SPD_MODE).perm_c
        drop = drop[np.argsort(perm)]
    order = np.concatenate([drop, keep])
    lu = spla.splu(A[order][:, order].tocsc(), permc_spec="NATURAL",
                   **_SPD_MODE)
    U = lu.U
    _check_pivots(lu, U)
    ident = np.arange(n)
    if not (np.array_equal(lu.perm_r, ident)
            and np.array_equal(lu.perm_c, ident)):
        raise EigenError("SuperLU permuted the Schur complement ordering; "
                         "matrix is not positive definite")
    # the trailing block, in one submatrix pass over U's CSC arrays
    nd = len(drop)
    W = U[nd:, nd:].toarray()
    del U, lu                        # the factor is freed before W^T W
    W /= np.sqrt(W.diagonal())[:, None]
    return W.T @ W


@dataclass
class SpectralResult:
    """One pencil solve.  values are the largest mu of B u = mu A u,
    descending, except from smallest_pencil_eigs, whose solver name ends in
    "-shift-invert": the smallest lambda of K u = lambda M u, ascending."""
    values: np.ndarray
    residuals: np.ndarray            # ||B u - mu A u||_2 per A-unit pair
    iterations: int
    solver: str
    vectors: np.ndarray | None = None
    converged: np.ndarray | None = None
    warning: str | None = None


def _pencil_largest(A, B, k):
    """Largest eigenpairs of B u = mu A u, values descending with
    A-orthonormal vectors as rows, the operator applications and the route.

    ARPACK's implicitly restarted Lanczos runs on A^{-1}B in the A inner
    product.  B is scaled by the power of two that brings its infinity
    norm into [1/2, 1), which is exact, so the recurrence stays in range
    for any normal B; a B of subnormal norm gives no eigenvalue.
    """
    n = A.shape[0]
    bnorm = spla.norm(B, np.inf)
    if bnorm < sys.float_info.min:
        return np.empty(0), np.empty((0, n)), 0, "none"
    exp = math.frexp(bnorm)[1]
    B = B.copy()
    B.data = np.ldexp(B.data, -exp)
    if k >= n - 1:
        # ARPACK needs more Lanczos vectors than values (k < ncv <= n)
        res = dense_reference_eigs(A, B)
        vals, vecs, applied, route = res.values, res.vectors, 0, "dense"
    else:
        afac = factor_spd(A)
        applied = 0

        def solve(x):
            nonlocal applied
            applied += 1
            return afac.solve(x)

        rng = np.random.default_rng(DEFAULT_SEED)
        try:
            vals, vecs = spla.eigsh(
                B, k, M=A, Minv=spla.LinearOperator((n, n), matvec=solve,
                                                    dtype=float),
                which="LA", v0=rng.standard_normal(n), tol=0.0, rng=rng)
        except spla.ArpackError as exc:
            raise EigenError(f"ARPACK failed on {n} dofs: {exc}") from exc
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
            raise EigenError(f"ARPACK returned non-finite eigenpairs on "
                             f"{n} dofs")
        order = np.argsort(vals)[::-1]
        vals, vecs, route = vals[order], vecs[:, order].T, "arpack"
    # the null space of B is numerically zero
    vmax = max(float(vals.max(initial=0.0)), 1e-300)
    take = (vals > 1e-11 * vmax).nonzero()[0][:k]
    vecs = vecs[take]
    vecs = vecs / np.sqrt(np.einsum("ij,ij->i", vecs, (A @ vecs.T).T))[:, None]
    return np.ldexp(vals[take], exp), vecs, applied, route


def largest_pencil_eigs(A: sp.spmatrix, B: sp.spmatrix,
                        k: int) -> SpectralResult:
    """k largest eigenvalues of B u = mu A u with A SPD and B PSD sparse.

    Eigenvectors come back A-orthonormal; residuals are ||B u - mu A u||_2
    and are checked against max(_TOL * ||A||_inf, 1e-14).
    """
    if k < 1:
        raise EigenError("k must be >= 1")
    A = A.tocsr()
    B = B.tocsr()
    if spla.norm(B, np.inf) < sys.float_info.min:
        raise EigenError("empty Steklov boundary: B vanishes")
    vals, vecs, applied, route = _pencil_largest(A, B, k)
    warning = None
    if len(vals) < k:
        warning = (f"only {len(vals)} of {k} eigenvalues available "
                   "(pencil rank exhausted)")
    anorm = spla.norm(A, np.inf)
    residuals = np.array([
        np.linalg.norm(B @ x - v * (A @ x)) for v, x in zip(vals, vecs)])
    converged = residuals <= max(_TOL * anorm, 1e-14)
    return SpectralResult(values=vals, residuals=residuals, iterations=applied,
                          solver=route, vectors=vecs, converged=converged,
                          warning=warning)


def smallest_pencil_eigs(K: sp.spmatrix, M: sp.spmatrix,
                         k: int) -> SpectralResult:
    """k smallest eigenvalues of K u = lam M u (shift-invert at zero).

    Internally the largest eigenvalues theta of M u = theta K u, so K is
    factored once; eigenvectors are returned M-orthonormal.
    """
    if k < 1:
        raise EigenError("k must be >= 1")
    K = K.tocsr()
    M = M.tocsr()
    if M.nnz == 0:
        raise EigenError("mass matrix vanishes")
    vals, vecs, applied, route = _pencil_largest(K, M, k)
    if len(vals) == 0:
        raise EigenError(f"no eigenvalue found on {K.shape[0]} dofs; "
                         "M is numerically zero against K")
    if np.any(vals <= 0):
        raise EigenError("non-positive reciprocal eigenvalue; M not SPD "
                         "on the reduced space")
    lam = 1.0 / vals
    order = np.argsort(lam)
    lam = lam[order]
    vecs = vecs[order]
    # K-orthonormal x has x' M x = theta; rescale to M-orthonormality
    vecs = vecs / np.sqrt(1.0 / lam)[:, None]
    warning = None
    if len(lam) < k:
        warning = f"only {len(lam)} of {k} eigenvalues available"
    residuals = np.array([
        np.linalg.norm(K @ x - v * (M @ x)) / max(
            1e-300, math.sqrt(float(x @ (K @ x))))
        for v, x in zip(lam, vecs)])
    knorm = spla.norm(K, np.inf)
    converged = residuals <= max(_TOL * knorm, 1e-14) * np.maximum(lam, 1.0)
    return SpectralResult(values=lam, residuals=residuals, iterations=applied,
                          solver=f"{route}-shift-invert", vectors=vecs,
                          converged=converged, warning=warning)


def dense_reference_eigs(A, B) -> SpectralResult:
    """Full spectrum of B u = mu A u by the dense LAPACK reduction
    (Cholesky of A plus symmetric tridiagonal QL/QR).  Oracle route."""
    A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    B = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    n = A.shape[0]
    if n > _MAX_DENSE:
        raise EigenError(f"dense reference refused for n={n} > {_MAX_DENSE}")
    w, v = scipy.linalg.eigh(B, A)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order].T
    residuals = np.array([np.linalg.norm(B @ x - mu * (A @ x))
                          for mu, x in zip(w, v)])
    return SpectralResult(values=w, residuals=residuals, iterations=0,
                          solver="dense", vectors=v,
                          converged=np.ones(n, dtype=bool))
