"""Generalized symmetric eigensolvers for the two spectral pencils.

Both discrete problems reduce to the largest eigenvalues of B u = mu A u
with A positive definite: the perforated resolvent uses A = K + B_hole
(condensed onto hole and skeleton dofs), and the homogenized one arrives as
the reciprocal pencil of (K, M_Q).  The solver is Lanczos on the
A-self-adjoint operator A^{-1}B, fully reorthogonalized in the A-inner
product, with deflated restarts so repeated eigenvalues are recovered copy
by copy.  A dense LAPACK route provides the independent reference spectrum
on small problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class EigenError(ValueError):
    pass


DEFAULT_SEED = 20260314
_MAX_DENSE = 4000


@dataclass
class SpdFactorization:
    """Reusable direct solve handle for a symmetric positive definite matrix."""
    lu: object
    n: int
    fill_ratio: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


def _check_pivots(lu) -> None:
    """Raise unless every pivot of a symmetric-mode SuperLU factor is
    positive, so a lost-SPD matrix (assembly or elimination bug) fails
    loudly."""
    diag = lu.U.diagonal()
    bad = ~(np.isfinite(diag) & (diag > 0))
    if np.any(bad):
        where = int(np.nonzero(bad)[0][0])
        orig = int(np.nonzero(lu.perm_r == where)[0][0])
        raise EigenError(
            f"non-positive pivot at elimination step {where} "
            f"(original row {orig}); matrix is not positive definite")


# diagonal pivots in symmetric mode: SuperLU factors an SPD matrix without
# row interchanges, as L U with U = D L^T
_SPD_MODE = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def factor_spd(A: sp.spmatrix) -> SpdFactorization:
    """SuperLU factorization in symmetric mode with a pivot-positivity check."""
    A = A.tocsc()
    if A.shape[0] != A.shape[1]:
        raise EigenError("matrix must be square")
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", **_SPD_MODE)
    _check_pivots(lu)
    fill = (lu.L.nnz + lu.U.nnz) / max(1, A.nnz)
    return SpdFactorization(lu=lu, n=A.shape[0], fill_ratio=float(fill))


def schur_complement(A: sp.spmatrix, keep) -> np.ndarray:
    """Dense Schur complement A_kk - A_kd A_dd^{-1} A_dk of an SPD matrix
    onto the dofs keep, from one SuperLU factorization.

    The eliminated dofs go first, in the minimum-degree order of their own
    block, and keep last.  Factored in that order with diagonal pivots, the
    trailing block of L U is the Schur complement, so no solve is needed.
    """
    A = A.tocsr()
    n = A.shape[0]
    keep = np.asarray(keep, dtype=np.int64)
    drop = np.setdiff1d(np.arange(n), keep)
    if len(drop):
        # SuperLU's MMD order of the block, read off an incomplete factor
        # at the coarsest drop tolerance, which costs little beyond the order
        block = A[drop][:, drop].tocsc()
        perm = spla.spilu(block, drop_tol=1.0, fill_factor=1,
                          permc_spec="MMD_AT_PLUS_A", **_SPD_MODE).perm_c
        drop = drop[np.argsort(perm)]
    order = np.concatenate([drop, keep])
    lu = spla.splu(A[order][:, order].tocsc(), permc_spec="NATURAL",
                   **_SPD_MODE)
    _check_pivots(lu)
    ident = np.arange(n)
    if not (np.array_equal(lu.perm_r, ident)
            and np.array_equal(lu.perm_c, ident)):
        raise EigenError("SuperLU permuted the Schur complement ordering; "
                         "matrix is not positive definite")
    nd = len(drop)
    S = lu.L[:, nd:][nd:].toarray() @ lu.U[:, nd:][nd:].toarray()
    return 0.5 * (S + S.T)


@dataclass
class SpectralResult:
    values: np.ndarray               # mu descending, or lambda ascending
    kind: str                        # "largest-mu" | "smallest-lambda"
    residuals: np.ndarray            # ||B u - mu A u||_2 per A-unit pair
    iterations: int
    solver: str
    vectors: np.ndarray | None = None
    converged: np.ndarray | None = None
    warning: str | None = None

    @property
    def mu(self) -> np.ndarray:
        if self.kind == "smallest-lambda":
            return 1.0 / (1.0 + self.values)
        return self.values

    @property
    def steklov(self) -> np.ndarray:
        """lambda = 1/mu - 1 for the boundary-spectral problem."""
        return 1.0 / self.mu - 1.0


def _lanczos_run(A, afac, bmul, want, tol, rng, deflate, max_iter):
    """One deflated Lanczos sweep; returns converged Ritz pairs (desc)."""
    n = A.shape[0]
    Q = np.zeros((max_iter + 1, n))
    AQ = np.zeros((max_iter + 1, n))
    alphas: list = []
    betas: list = []

    adef = None
    if deflate is not None and len(deflate):
        adef = np.asarray((A @ deflate.T).T)     # rows: A * deflated vectors
    q = rng.standard_normal(n)
    if adef is not None:
        q -= deflate.T @ (adef @ q)
    aq = np.asarray(A @ q)
    nrm = math.sqrt(max(q @ aq, 0.0))
    if nrm == 0.0:
        # the deflated space is everything: an exhausted, empty run
        return np.empty(0), np.empty((0, n)), np.empty(0, dtype=bool), 0, True
    q /= nrm
    aq /= nrm
    Q[0], AQ[0] = q, aq

    scale = 0.0
    breakdown = False
    j = 0
    while j < max_iter:
        bq = bmul(Q[j])
        w = afac.solve(bq)
        alpha = float(Q[j] @ bq)
        alphas.append(alpha)
        w -= alpha * Q[j]
        if j > 0:
            w -= betas[-1] * Q[j - 1]
        # full reorthogonalization, two passes, plus deflation
        for _ in range(2):
            w -= Q[:j + 1].T @ (AQ[:j + 1] @ w)
            if adef is not None:
                w -= deflate.T @ (adef @ w)
        aw = np.asarray(A @ w)
        beta = math.sqrt(max(float(w @ aw), 0.0))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise EigenError(
                f"Lanczos step {j} is not finite (alpha {alpha!r}, "
                f"beta {beta!r}); the pencil overflows double precision")
        scale = max(scale, abs(alpha), beta)
        j += 1
        if beta <= 1e-13 * max(scale, 1e-300):
            breakdown = True
            break
        betas.append(beta)
        Q[j] = w / beta
        AQ[j] = aw / beta
        if j >= want and (j % 5 == 0 or j == max_iter):
            theta, S = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
            top = np.argsort(theta)[::-1][:want]
            bounds = betas[-1] * np.abs(S[-1, top])
            if np.all(bounds <= tol):
                break

    kdim = len(alphas)
    theta, S = scipy.linalg.eigh_tridiagonal(alphas, betas[:kdim - 1])
    order = np.argsort(theta)[::-1]
    if breakdown:
        # invariant subspace found: every Ritz pair is exact, but drop the
        # numerically-zero values that signal rank exhaustion of B
        floor = 1e-12 * max(float(theta.max(initial=0.0)), 1e-300)
        take = order[theta[order] > floor]
        ok = np.ones(len(take), dtype=bool)
    else:
        take = order[:want]
        bound = np.abs(S[-1, take]) * (betas[-1] if len(betas) >= kdim else 0.0)
        ok = bound <= max(tol, 1e-8)
    vals = theta[take]
    vecs = (Q[:kdim].T @ S[:, take]).T
    return vals, vecs, ok, kdim, breakdown


def _pencil_largest(A, bmul, k, tol, max_iter, initial_deflate=None):
    afac = factor_spd(A)
    n = A.shape[0]
    if max_iter is None:
        max_iter = min(n, max(10 * k + 40, 120))
    fixed_deflate: list = []
    if initial_deflate is not None:
        for v in np.atleast_2d(np.asarray(initial_deflate, dtype=float)):
            nrm = math.sqrt(max(float(v @ (A @ v)), 1e-300))
            fixed_deflate.append(v / nrm)
    collected_vals: list = []
    collected_vecs: list = []
    iterations = 0
    exhausted = False
    vmax = None
    for attempt in range(k + 3):
        if len(collected_vals) >= k:
            break
        rng = np.random.default_rng(DEFAULT_SEED + attempt)
        pool = fixed_deflate + collected_vecs
        if len(pool) >= n:
            # nothing is left to deflate into: a run would start from
            # rounding noise and return spurious copies as exact pairs
            exhausted = True
            break
        deflate = np.array(pool) if pool else None
        want = k - len(collected_vals)
        vals, vecs, ok, used, breakdown = _lanczos_run(
            A, afac, bmul, want, tol, rng, deflate, max_iter)
        iterations += used
        if vmax is None and len(vals):
            vmax = max(float(np.max(vals)), 1e-300)
        stalled = not breakdown and not np.any(ok)
        got = 0
        for v, x, conv in zip(vals, vecs, ok):
            if len(collected_vals) >= k:
                break
            if not conv and not stalled:
                continue      # unconverged stragglers return in a later run
            if vmax is not None and v <= 1e-11 * vmax:
                continue      # rank of B exhausted; zero eigenvalues remain
            # re-normalize in the A-inner product and keep
            nrm = math.sqrt(max(float(x @ (A @ x)), 1e-300))
            collected_vals.append(float(v))
            collected_vecs.append(x / nrm)
            got += 1
        if stalled or got == 0:
            exhausted = True
            break

    # verification restarts: a single Krylov space sees one copy per
    # eigenvalue, so hunt for missed multiplicity members until a deflated
    # run finds nothing at or above the k-th kept value
    rounds = 0
    while (not exhausted and len(collected_vals) >= k and rounds < k + 2
           and len(fixed_deflate) + len(collected_vecs) < n):
        rounds += 1
        rng = np.random.default_rng(DEFAULT_SEED + 7777 + rounds)
        pool = fixed_deflate + collected_vecs
        vals, vecs, ok, used, breakdown = _lanczos_run(
            A, afac, bmul, 2, tol, rng, np.array(pool), max_iter)
        iterations += used
        kth = sorted(collected_vals, reverse=True)[k - 1]
        guard = 1e-9 * max(abs(v) for v in collected_vals)
        added = False
        for v, x, conv in zip(vals, vecs, ok):
            if not conv or v < kth - guard or (
                    vmax is not None and v <= 1e-11 * vmax):
                continue
            nrm = math.sqrt(max(float(x @ (A @ x)), 1e-300))
            collected_vals.append(float(v))
            collected_vecs.append(x / nrm)
            added = True
        if not added:
            break

    order = np.argsort(collected_vals)[::-1][:k]
    vals = np.array([collected_vals[i] for i in order])
    vecs = np.array([collected_vecs[i] for i in order])
    return vals, vecs, iterations, exhausted


def largest_pencil_eigs(A: sp.spmatrix, B, k: int, tol: float = 1e-10,
                        max_iter: int | None = None,
                        deflate=None) -> SpectralResult:
    """k largest eigenvalues of B u = mu A u with A SPD and B PSD.

    B may be a sparse matrix or a matvec callable.  Eigenvectors come back
    A-orthonormal; residuals are ||B u - mu A u||_2 and are checked against
    tol * ||A||_inf.  Vectors in deflate span a known invariant subspace to
    project out (e.g. the constant mode of a Neumann problem).
    """
    if k < 1:
        raise EigenError("k must be >= 1")
    A = A.tocsr()
    if callable(B):
        bmul = B
    else:
        B = B.tocsr()
        if B.nnz == 0 or spla.norm(B, np.inf) == 0.0:
            raise EigenError("empty Steklov boundary: B vanishes")
        bmul = lambda v: B @ v  # noqa: E731

    vals, vecs, iterations, exhausted = _pencil_largest(
        A, bmul, k, tol, max_iter, initial_deflate=deflate)
    warning = None
    if len(vals) < k:
        warning = (f"only {len(vals)} of {k} eigenvalues available "
                   "(pencil rank exhausted)")
    anorm = spla.norm(A, np.inf)
    residuals = np.array([
        np.linalg.norm(bmul(x) - v * (A @ x)) for v, x in zip(vals, vecs)])
    converged = residuals <= max(tol * anorm, 1e-14)
    return SpectralResult(values=vals, kind="largest-mu",
                          residuals=residuals, iterations=iterations,
                          solver="lanczos", vectors=vecs,
                          converged=converged, warning=warning)


def smallest_pencil_eigs(K: sp.spmatrix, M: sp.spmatrix, k: int,
                         tol: float = 1e-10, max_iter: int | None = None,
                         deflate=None) -> SpectralResult:
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
    vals, vecs, iterations, exhausted = _pencil_largest(
        K, lambda v: M @ v, k, tol, max_iter, initial_deflate=deflate)
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
    converged = residuals <= max(tol * knorm, 1e-14) * np.maximum(lam, 1.0)
    return SpectralResult(values=lam, kind="smallest-lambda",
                          residuals=residuals, iterations=iterations,
                          solver="lanczos-shift-invert", vectors=vecs,
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
    return SpectralResult(values=w, kind="largest-mu", residuals=residuals,
                          iterations=0, solver="dense", vectors=v,
                          converged=np.ones(n, dtype=bool))
