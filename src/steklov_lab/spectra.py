"""Spectral pipeline: perforated boundary spectra vs. the weighted Dirichlet
limit, their Hausdorff distance, sampled resolvent gaps, and rate fits.

Every eigenvalue is computed on a mesh and its red refinement, reported as
the Richardson-extrapolated value with the two-mesh change as discretization
error; sweep points whose error is not well below the homogenization gap are
flagged and excluded from rate fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import fem, meshgen
from .eigen import (SpdFactorization, SpectralResult, factor_spd,
                    largest_pencil_eigs, smallest_pencil_eigs)
from .geometry import is_integer, is_number


class SpectraError(ValueError):
    pass


EXTRA = 2          # values solved beyond k, headroom for the truncation floor
MIN_POINTS = 4     # least number of usable sweep points a rate fit accepts
MIN_SPAN = 4.0     # least max/min ratio of delta that a rate fit accepts


def steklov_spectrum(op: Condensed, k: int) -> SpectralResult:
    """Top-k mu of B u = mu (K + B) u on a condensed perforated mesh (the
    Steklov eigenvalue is 1/mu - 1); vectors are S-orthonormal over the R
    dofs op.r."""
    return largest_pencil_eigs(op.S, op.B_RR, k)


@dataclass
class Condensed:
    """A perforated mesh's A = K + B condensed onto hole and skeleton dofs."""
    mesh: object
    dofmap: fem.DofMap
    A: sp.csr_matrix                 # K + B on the free dofs
    S: sp.csr_matrix                 # A_RR - A_RI A_II^-1 A_IR
    B_RR: sp.csr_matrix
    r: np.ndarray                    # free-dof indices of R
    p: np.ndarray                    # free-dof indices of I, cell by cell

    @cached_property
    def _solver(self):
        # built on the first solve: the Steklov pencils never call solve
        slot = np.full(self.A.shape[0], -1)
        slot[self.p] = np.arange(len(self.p))
        chol = _band_cholesky(self.A, self.p, slot, 0, len(self.p), "A_II")
        return factor_spd(self.S), chol, self.A[:, self.r][self.p]

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Nodal u, zero on the outer boundary, with A u = B f on the free
        dofs.  B lives on hole nodes, all in R, so (B f)_R = B_RR f_R and
        (B f)_I = 0: S u_R = B_RR f_R, then u_I = -A_II^-1 A_IR u_R."""
        s_fac, chol, A_IR = self._solver
        u = np.zeros(self.A.shape[0])
        u[self.r] = s_fac.solve(self.B_RR @ f[self.dofmap.free[self.r]])
        u[self.p] = -dpbtrs(chol, A_IR @ u[self.r], lower=1)[0]
        return self.dofmap.expand(u)

    def energy(self, u: np.ndarray) -> float:
        """Perforated energy norm sqrt(u' A u) of nodal u over the free
        dofs; equals fem.h_eps_norm when u vanishes on the outer nodes."""
        u_f = u[self.dofmap.free]
        form = float(u_f @ (self.A @ u_f))
        if not math.isfinite(form):
            raise SpectraError(f"energy form is {form!r}")
        return math.sqrt(max(0.0, form))


def condense(mesh) -> Condensed:
    """The one place a perforated mesh's operator is assembled and reduced.
    Eliminating every cell interior I is exact: B has no entry on I, so
    B_RR u = mu S u keeps every nonzero mu of B u = mu A u.  S is summed
    from per-cell Schur blocks; no factor outlives the call."""
    dm = fem.build_dofmap(mesh)
    Br = fem.apply_dirichlet(fem.assemble_hole_mass(mesh), dm)
    A = (fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm) + Br).tocsr()
    on_r, cell = _skeleton(mesh, dm)
    r, i = np.flatnonzero(on_r), np.flatnonzero(~on_r)
    if Br[i].nnz:
        raise SpectraError("hole mass has entries on cell-interior dofs")
    S, p = _schur(A, r, i, cell[i])
    return Condensed(mesh=mesh, dofmap=dm, A=A, S=S, B_RR=Br[r][:, r], r=r,
                     p=p)


def _skeleton(mesh, dm):
    """Mask of the free dofs on a hole boundary or in triangles of two or
    more cells (R), and the lowest cell id touching each free dof; every
    other free dof is interior to that one cell."""
    if np.any(mesh.tri_cell < 0):
        raise SpectraError("condensation needs cell ids on every triangle")
    at, cells = mesh.triangles.ravel(), np.repeat(mesh.tri_cell, 3)
    lo = np.full(mesh.num_nodes, np.iinfo(np.int64).max)
    hi = np.full(mesh.num_nodes, -1)
    np.minimum.at(lo, at, cells)
    np.maximum.at(hi, at, cells)
    on_r = lo != hi
    on_r[mesh.boundary_edges[mesh.edge_tags != meshgen.OUTER]] = True
    return on_r[dm.free], lo[dm.free]


def _schur(A, r, i, cell):
    """S = A_RR - sum_c A_R,I(c) A_I(c)^-1 A_I(c),R, exactly symmetric, and
    the interior order p: A_II's reverse Cuthill-McKee order, regrouped by
    cell, which gives each cell a narrow band (cells never couple, so A_II
    is block-diagonal).  Only the upper triangles of A_RR and of each cell's
    block are summed, then mirrored (fem._symmetric)."""
    order = reverse_cuthill_mckee(A[i][:, i], symmetric_mode=True)
    p = i[order[np.argsort(cell[order], kind="stable")]]
    rows, cols, vals = _schur_triplets(
        A, r, p, np.cumsum(np.unique(cell, return_counts=True)[1]))
    if not np.all(np.isfinite(vals)):
        raise SpectraError("Schur complement has non-finite entries")
    S = sp.csr_matrix((vals, (rows, cols)), shape=(len(r), len(r)))
    del rows, cols, vals
    return fem._symmetric(S), p


def _band_cholesky(A, p, slot, a, b, block):
    """L L^T of A on the interior dofs p[a:b] (slot: a dof's place in p, < 0
    on R) in LAPACK band storage, read straight off A's rows, with no copy
    of A_II.  p's cells never couple, so a run of them is their bands side
    by side, as tall as the widest one."""
    start, count = A.indptr[p[a:b]], np.diff(A.indptr)[p[a:b]]
    e = np.repeat(start - np.cumsum(count) + count, count)
    e += np.arange(len(e))
    lr, lc = np.repeat(np.arange(b - a), count), slot[A.indices[e]] - a
    low = (lc >= 0) & (lc <= lr)
    lr, lc = lr[low], lc[low]
    band = np.zeros((np.max(lr - lc) + 1, b - a), order="F")
    band[lr - lc, lc] = A.data[e[low]]
    chol, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info:
        raise SpectraError(
            f"{block} of {b - a} interior dofs is not positive definite "
            f"(leading minor {info})")
    return chol


def _schur_triplets(A, r, p, ends):
    """Upper-triangle triplets of A_RR, then of each cell's block
    -A_R,I(c) A_I(c)^-1 A_I(c),R; p lists the interior dofs cell by cell,
    and cell c ends at ends[c] in p.  The block is factored A_I(c) = L L^T
    in LAPACK band storage, W = L^-1 A_I(c),R, and the block is W^T W; its
    R ids rc are sorted, so its local upper triangle is a global one."""
    slot = np.empty(A.shape[0], dtype=np.int64)    # position in p, or < 0
    slot[p], slot[r] = np.arange(len(p)), -1
    A_IR = A[:, r][p]
    ir_row = np.repeat(np.arange(len(p)), np.diff(A_IR.indptr))
    cells = list(zip(np.r_[0, ends[:-1]], ends))
    blocks = [np.unique(A_IR.indices[A_IR.indptr[a]:A_IR.indptr[b]])
              for a, b in cells]
    up = sp.triu(A[r][:, r], format="coo")
    size = up.nnz + sum(len(rc) * (len(rc) + 1) // 2 for rc in blocks)
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    at = up.nnz
    rows[:at], cols[:at], vals[:at] = up.row, up.col, up.data
    for (a, b), rc in zip(cells, blocks):
        chol = _band_cholesky(A, p, slot, a, b, "cell block")
        q0, q1 = A_IR.indptr[a], A_IR.indptr[b]
        W = np.zeros((b - a, len(rc)), order="F")
        W[ir_row[q0:q1] - a, np.searchsorted(rc, A_IR.indices[q0:q1])] = \
            A_IR.data[q0:q1]
        W = dtbtrs(chol, W, uplo="L", overwrite_b=1)[0]
        G = W.T @ W
        lo, hi = np.triu_indices(len(rc))
        rows[at:at + len(lo)], cols[at:at + len(lo)] = rc[lo], rc[hi]
        vals[at:at + len(lo)] = -G[lo, hi]
        at += len(lo)
    return rows, cols, vals


def homogenized_spectrum(domain, q, h: float, k: int) -> SpectralResult:
    """Smallest eigenvalues lambda of the q-weighted Dirichlet problem on
    the plain domain; its resolvent values are 1/(1+lambda)."""
    return _homogenized_on(meshgen.mesh_unperforated(domain, h), q, k)


def _homogenized_on(mesh, q, k: int) -> SpectralResult:
    """homogenized_spectrum on a given mesh of the plain domain."""
    dm = fem.build_dofmap(mesh)
    return smallest_pencil_eigs(
        fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm),
        fem.apply_dirichlet(fem.assemble_weighted_mass(mesh, q), dm), k)


def richardson(coarse, fine):
    """Two-mesh extrapolation of an O(h^2) quantity from a mesh and its
    refinement (scalars or arrays)."""
    return fine + (fine - coarse) / 3.0


@dataclass
class HomogenizedPair:
    """The epsilon-independent side of every sweep point: the q-weighted
    Dirichlet spectrum on a mesh and its refinement, solved once per study."""
    q: float
    mu: np.ndarray                   # extrapolated, descending
    err: np.ndarray                  # two-mesh changes per eigenvalue
    coarse: SpectralResult           # solver outcomes, vectors dropped
    fine: SpectralResult


def homogenized_pair(domain, q: float, h: float,
                     k: int) -> HomogenizedPair:
    """k + EXTRA homogenized resolvent values 1/(1+lambda) on the mesh at h
    and its red refinement, extrapolated."""
    mesh = meshgen.mesh_unperforated(domain, h)
    coarse, fine = (replace(_homogenized_on(mm, q, k + EXTRA), vectors=None)
                    for mm in (mesh, meshgen.refine(mesh)))
    mu_c, mu_f = (1.0 / (1.0 + r.values) for r in (coarse, fine))
    return HomogenizedPair(q=q, mu=richardson(mu_c, mu_f),
                           err=np.abs(mu_f - mu_c), coarse=coarse, fine=fine)


def hausdorff(set_a, set_b) -> float:
    """Two-sided max-min distance between finite nonempty sets."""
    a = np.asarray(list(set_a), dtype=float)
    b = np.asarray(list(set_b), dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise SpectraError("Hausdorff distance needs nonempty sets")
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def truncated_spectrum_distance(steklov_mu, homog_mu, k: int,
                                floor_mu: float) -> float:
    """Hausdorff distance between {0} plus the top-k values above the floor
    of each spectrum; values below the floor are truncated away and their
    contribution is capped by the appended 0."""
    def trunc(vals):
        vals = np.asarray(vals, dtype=float)
        kept = vals[vals >= floor_mu][:k]
        if len(kept) < k:
            raise SpectraError(
                f"only {len(kept)} eigenvalues above floor {floor_mu:.3g}; "
                "raise k or lower the floor")
        return np.concatenate([[0.0], kept])

    return hausdorff(trunc(steklov_mu), trunc(homog_mu))


# ---------------------------------------------------------------------------
# source functions for resolvent-gap sampling

# the keys each source kind reads besides "kind", with their defaults
_SOURCE_KEYS = {"sine": {"scale": 1.0, "px": 1, "py": 1},
                "bump": {"scale": 1.0, "x0": 0.5, "y0": 0.5, "w": 0.2}}


def source_function(descriptor):
    """Vectorized analytic source from a descriptor; all members vanish on
    the boundary of the unit square.  Refuses a key its kind does not read,
    px, py other than integers >= 1, a w <= 0, non-finite numbers and bools
    (is_integer and is_number, the rules of every scalar config field)."""
    kind = descriptor.get("kind", "sine")
    keys = _SOURCE_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise SpectraError(f"unknown source descriptor {descriptor!r}")
    unread = [repr(key) for key in descriptor if key not in {"kind", *keys}]
    if unread:
        raise SpectraError(f"a {kind} source reads no {', '.join(unread)}; "
                           f"it takes kind, {', '.join(keys)}")
    v = {key: descriptor.get(key, default) for key, default in keys.items()}
    for key, value in v.items():
        if key not in ("px", "py") and not is_number(value):
            raise SpectraError(f"{key} must be a finite number, got {value!r}")
    if kind == "sine":
        scale, px, py = v.values()
        if not all(is_integer(p) and p >= 1 for p in (px, py)):
            raise SpectraError(
                f"px and py must be integers >= 1, got {px!r}, {py!r}")

        def f(x, y):
            return scale * np.sin(math.pi * px * x) * np.sin(math.pi * py * y)
        return f
    scale, x0, y0, w = v.values()
    if w <= 0:
        raise SpectraError(f"w must be positive, got {w!r}")

    def f(x, y):
        env = x * (1.0 - x) * y * (1.0 - y)
        return scale * env * np.exp(
            -(((x - x0) ** 2 + (y - y0) ** 2) / w ** 2))
    return f


@dataclass
class ResolventGapSample:
    descriptor: dict
    gap: float                       # || R_eps J f - J R f || in the
    f_norm: float                    # perforated energy norm, vs ||f||_H

    @property
    def normalized(self) -> float:
        return self.gap / self.f_norm


@dataclass
class GapReference:
    """The plain-domain side of every resolvent gap at one sweep point: the
    structured mesh, its K and q-weighted M, and one factor of the
    Dirichlet-reduced K + M_q that every source reuses."""
    mesh: object
    K: sp.csr_matrix
    Mq: sp.csr_matrix
    dofmap: fem.DofMap
    fac: SpdFactorization

    def solve(self, f: np.ndarray) -> np.ndarray:
        """(K + M_q)^{-1} M_q f with zero Dirichlet values."""
        free = self.dofmap.free
        return self.dofmap.expand(self.fac.solve((self.Mq @ f)[free]))


def gap_reference(geom, template, q_limit) -> GapReference:
    """Reference side of the gaps, meshed at h = 1/(2 s m)."""
    s = template.boundary_nodes_per_side
    hm = meshgen.mesh_unperforated(geom.domain, 1.0 / (2 * s * geom.m))
    Kh, dmh = fem.assemble_stiffness(hm), fem.build_dofmap(hm)
    Mq = fem.assemble_weighted_mass(hm, q_limit)
    Ah = (fem.apply_dirichlet(Kh, dmh) + fem.apply_dirichlet(Mq, dmh)).tocsr()
    return GapReference(mesh=hm, K=Kh, Mq=Mq, dofmap=dmh, fac=factor_spd(Ah))


def resolvent_gap(descriptor, ref: GapReference,
                  perf: Condensed) -> ResolventGapSample:
    """Apply both solution operators to one analytic source and measure the
    energy-norm discrepancy on perf, the condensed perforated mesh, against
    the plain-domain solve on ref."""
    f = source_function(descriptor)
    pm = perf.mesh
    u_eps = perf.solve(f(pm.nodes[:, 0], pm.nodes[:, 1]))

    hm = ref.mesh
    f_hom = f(hm.nodes[:, 0], hm.nodes[:, 1])
    u_restricted = fem.interpolate(hm, ref.solve(f_hom), pm.nodes)
    gap = perf.energy(u_eps - u_restricted)
    f_norm = math.sqrt(float(f_hom @ (ref.K @ f_hom)
                             + f_hom @ (ref.Mq @ f_hom)))
    return ResolventGapSample(descriptor=dict(descriptor), gap=gap,
                              f_norm=f_norm)


# ---------------------------------------------------------------------------
# two-mesh spectrum pairs and the rate fit

@dataclass
class SpectrumPair:
    epsilon: float
    m: int
    r_eps: float
    d: float
    delta: float
    steklov_mu: np.ndarray           # extrapolated, descending
    homog_mu: np.ndarray
    steklov_err: np.ndarray          # two-mesh changes per eigenvalue
    homog_err: np.ndarray
    hausdorff: float
    floor_mu: float
    gate_ok: bool
    gate_detail: list = field(default_factory=list)


def rate_scale(r_eps: float) -> float:
    """The theoretical error scale r |ln r|^(1/2) in 2D; the paper's weight
    defect term is zero, as every cell has the same hole."""
    return r_eps * math.sqrt(abs(math.log(r_eps)))


def spectrum_pair(geom, coarse: SpectralResult, fine: SpectralResult, k: int,
                  homog: HomogenizedPair) -> SpectrumPair:
    """Richardson-extrapolate the Steklov values solved on geom's mesh
    (coarse) and its refinement (fine) eigenvalue by eigenvalue, pair them
    with the study's homogenized side, and gate the pair on discretization
    error and on the outcome of all four solves."""
    kk = k + EXTRA
    n = min(len(coarse.values), len(fine.values))
    st_mu = richardson(coarse.values[:n], fine.values[:n])
    st_err = np.abs(fine.values[:n] - coarse.values[:n])
    ho_mu, ho_err = homog.mu, homog.err

    r_eps = geom.r_eps
    d_hole = max(h.d for h in geom.holes)
    delta = rate_scale(r_eps)

    floor = 0.5 * ho_mu[k - 1]
    dist = truncated_spectrum_distance(st_mu, ho_mu, k, floor)

    detail = []
    for j in range(k):
        gap = abs(st_mu[j] - ho_mu[j])
        err = st_err[j] + ho_err[j]
        good = err <= 0.1 * gap
        detail.append({"j": j + 1, "gap": float(gap), "disc_err": float(err),
                       "ok": bool(good)})
    # so does an unconverged or missing value among the first k of a solve
    for label, res in (("steklov-coarse", coarse), ("steklov-fine", fine),
                       ("homogenized-coarse", homog.coarse),
                       ("homogenized-fine", homog.fine)):
        bad = [j + 1 for j in range(k)
               if j >= len(res.converged) or not res.converged[j]]
        if bad:
            detail.append({"solver": label, "unconverged": bad,
                           "warning": res.warning, "ok": False})
    return SpectrumPair(
        epsilon=geom.epsilon, m=geom.m, r_eps=r_eps, d=d_hole,
        delta=float(delta),
        steklov_mu=st_mu[:kk], homog_mu=ho_mu[:kk],
        steklov_err=st_err[:kk], homog_err=ho_err[:kk],
        hausdorff=float(dist), floor_mu=float(floor),
        gate_ok=all(d["ok"] for d in detail), gate_detail=detail)


@dataclass
class RateModel:
    deltas: np.ndarray
    distances: np.ndarray
    slope: float
    intercept: float
    residual: float
    consistent: bool
    note: str


def _log_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    sx, sy = lx.sum(), ly.sum()
    sxx, sxy = (lx * lx).sum(), (lx * ly).sum()
    return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


def fit_rate(deltas, distances) -> RateModel:
    """Least-squares slope of log(distance) against log(delta).

    The theoretical bound is one-sided: slopes of at least 1 - 0.3 count as
    consistent, steeper decay is consistent a fortiori.
    """
    deltas = np.asarray(deltas, dtype=float)
    distances = np.asarray(distances, dtype=float)
    if len(deltas) < MIN_POINTS:
        raise SpectraError(
            f"only {len(deltas)} usable sweep points; rate fit skipped")
    lo, hi = np.min(deltas), np.max(deltas)
    if hi < MIN_SPAN * lo:
        raise SpectraError(f"delta spans only a factor {hi / lo:.3g} "
                           f"(a fit needs {MIN_SPAN}); rate fit skipped")
    if np.any(distances <= 0):
        raise SpectraError("distances must be positive for a log fit")
    lx, ly = np.log(deltas), np.log(distances)
    slope = _log_slope(deltas, distances)
    intercept = float((ly.sum() - slope * lx.sum()) / len(lx))
    resid = float(np.sqrt(np.mean((ly - slope * lx - intercept) ** 2)))
    if slope >= 1.3:
        note = "faster than the bound, consistent"
    elif slope >= 0.7:
        note = "consistent with the first-order bound"
    else:
        note = "INCONSISTENT: decay slower than the bound"
    return RateModel(deltas=deltas, distances=distances, slope=slope,
                     intercept=intercept, residual=resid,
                     consistent=slope >= 0.7, note=note)


def eigenwise_monotone(pairs, j: int) -> bool:
    """|mu_j^eps - mu_j| decreasing along the sweep within error bars."""
    gaps = [abs(p.steklov_mu[j] - p.homog_mu[j]) for p in pairs]
    errs = [p.steklov_err[j] + p.homog_err[j] for p in pairs]
    for a in range(len(gaps) - 1):
        if gaps[a + 1] > gaps[a] + errs[a] + errs[a + 1]:
            return False
    return True
