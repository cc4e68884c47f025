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

from . import fem, meshgen
from .eigen import (SpdFactorization, SpectralResult, factor_spd,
                    largest_pencil_eigs, smallest_pencil_eigs)


class SpectraError(ValueError):
    pass


EXTRA = 2          # values solved beyond k, headroom for the truncation floor
MIN_POINTS = 4     # least number of usable sweep points a rate fit accepts
MIN_SPAN = 4.0     # least max/min ratio of delta that a rate fit accepts
_BLOCK = 16        # coupling slots per interior solve; bounds its memory


def steklov_spectrum(op: Condensed, k: int,
                     tol: float = 1e-10) -> SpectralResult:
    """Top-k mu of B u = mu (K + B) u on a condensed perforated mesh
    (.steklov: 1/mu - 1); vectors are S-orthonormal over the R dofs op.r."""
    return largest_pencil_eigs(op.S, op.B_RR, k, tol=tol)


@dataclass
class Condensed:
    """A perforated mesh's A = K + B condensed onto hole and skeleton dofs."""
    mesh: object
    dofmap: fem.DofMap
    A: sp.csr_matrix                 # K + B on the free dofs
    S: sp.csr_matrix                 # A_RR - A_RI A_II^-1 A_IR
    B_RR: sp.csr_matrix
    r: np.ndarray                    # free-dof indices of R

    @cached_property
    def _solver(self):
        # built on the first solve: the Steklov pencils never call solve
        i = np.setdiff1d(np.arange(self.A.shape[0]), self.r)
        A_I = self.A[i]
        return (factor_spd(self.S), factor_spd(A_I[:, i]), i,
                A_I[:, self.r])

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Nodal u, zero on the outer boundary, with A u = B f on the free
        dofs.  B lives on hole nodes, all in R, so (B f)_R = B_RR f_R and
        (B f)_I = 0: S u_R = B_RR f_R, then u_I = -A_II^-1 A_IR u_R."""
        s_fac, i_fac, i, A_IR = self._solver
        u = np.zeros(self.A.shape[0])
        u[self.r] = s_fac.solve(self.B_RR @ f[self.dofmap.free[self.r]])
        u[i] = -i_fac.solve(A_IR @ u[self.r])
        return self.dofmap.expand(u)

    def energy(self, u: np.ndarray) -> float:
        """Perforated energy norm sqrt(u' A u) of nodal u over the free
        dofs; equals fem.h_eps_norm when u vanishes on the outer nodes."""
        u_f = u[self.dofmap.free]
        return math.sqrt(max(0.0, float(u_f @ (self.A @ u_f))))


def condense(mesh) -> Condensed:
    """The one place a perforated mesh's operator is assembled and reduced.
    Eliminating every cell interior I is exact: B has no entry on I, so
    B_RR u = mu S u keeps every nonzero mu of B u = mu A u.  The factor of
    A_II serves _schur only and is dropped on return."""
    dm = fem.build_dofmap(mesh, "outer")
    Br = fem.apply_dirichlet(fem.assemble_hole_mass(mesh), dm)
    A = (fem.apply_dirichlet(fem.assemble_stiffness(mesh), dm) + Br).tocsr()
    on_r, cell = _skeleton(mesh, dm)
    r, i = np.flatnonzero(on_r), np.flatnonzero(~on_r)
    if Br[i].nnz:
        raise SpectraError("hole mass has entries on cell-interior dofs")
    S = _schur(A[r][:, r], A[i][:, r], cell[i], factor_spd(A[i][:, i]))
    return Condensed(mesh=mesh, dofmap=dm, A=A, S=S, B_RR=Br[r][:, r], r=r)


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


def _schur(A_RR, A_IR, cell, fac):
    """S = A_RR - A_RI A_II^-1 A_IR for block-diagonal A_II (factored in
    fac), made exactly symmetric.

    Each (cell, R dof) coupling gets a slot number within its cell.  The
    interiors are disjoint, so one right-hand-side column holds slot s of
    every cell, and one solve per column block serves all cells.
    """
    nr = A_IR.shape[1]
    coo = A_IR.tocoo()
    pairs, pair_of = np.unique(cell[coo.row] * nr + coo.col,
                               return_inverse=True)
    pair_cell, pair_r = np.divmod(pairs, nr)
    slot = np.arange(len(pairs)) - np.searchsorted(pair_cell, pair_cell)
    width = int(slot.max()) + 1
    r_at = np.full((int(cell.max()) + 1, width), -1)
    r_at[pair_cell, slot] = pair_r
    rhs = sp.csc_matrix((coo.data, (coo.row, slot[pair_of])),
                        shape=(A_IR.shape[0], width))
    to_pairs = sp.csr_matrix((coo.data, (pair_of, coo.row)),
                             shape=(len(pairs), A_IR.shape[0]))
    blocks = []
    for s0 in range(0, width, _BLOCK):
        # to_pairs @ X: per (cell, R dof), A_R,I(cell) A_II(cell)^-1 slots
        G = to_pairs @ fac.solve(rhs[:, s0:s0 + _BLOCK].toarray())
        cols = r_at[pair_cell, s0:s0 + _BLOCK]
        keep = cols >= 0
        blocks.append(sp.coo_matrix(
            (G[keep], (np.broadcast_to(pair_r[:, None], keep.shape)[keep],
                       cols[keep])), shape=(nr, nr)).tocsr())
    S = (A_RR - sum(blocks, sp.csr_matrix((nr, nr)))).tocsr()
    return ((S + S.T) * 0.5).tocsr()


def homogenized_spectrum(domain, q, h: float, k: int,
                         tol: float = 1e-10) -> SpectralResult:
    """Smallest eigenvalues of the q-weighted Dirichlet problem on the plain
    domain; .mu gives the resolvent values 1/(1+lambda)."""
    _, K, Mq, dm = _structured(domain, q, h)
    return smallest_pencil_eigs(fem.apply_dirichlet(K, dm),
                                fem.apply_dirichlet(Mq, dm), k, tol=tol)


def _structured(domain, q, h: float):
    """Structured mesh of the plain domain, its K, q-weighted M and dofmap."""
    mesh = meshgen.mesh_unperforated(domain, h)
    return (mesh, fem.assemble_stiffness(mesh),
            fem.assemble_weighted_mass(mesh, q),
            fem.build_dofmap(mesh, "outer"))


def richardson(coarse, fine):
    """Two-mesh extrapolation of an O(h^2) quantity from a mesh and its
    refinement (scalars or arrays)."""
    return fine + (fine - coarse) / 3.0


@dataclass
class HomogenizedPair:
    """The epsilon-independent side of every sweep point: the q-weighted
    Dirichlet spectrum on meshes h and h/2, solved once per study."""
    q: float
    mu: np.ndarray                   # extrapolated, descending
    err: np.ndarray                  # two-mesh changes per eigenvalue
    coarse: SpectralResult           # solver outcomes, vectors dropped
    fine: SpectralResult


def homogenized_pair(domain, q: float, h: float, k: int,
                     tol: float = 1e-10) -> HomogenizedPair:
    """k + EXTRA homogenized values on meshes h and h/2, extrapolated."""
    coarse, fine = (
        replace(homogenized_spectrum(domain, q, hh, k + EXTRA, tol),
                vectors=None)
        for hh in (h, h / 2))
    return HomogenizedPair(q=q, mu=richardson(coarse.mu, fine.mu),
                           err=np.abs(fine.mu - coarse.mu),
                           coarse=coarse, fine=fine)


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

def source_function(descriptor):
    """Vectorized analytic source from a descriptor; all members vanish on
    the boundary of the unit square."""
    kind = descriptor.get("kind", "sine")
    scale = float(descriptor.get("scale", 1.0))
    if kind == "sine":
        px, py = int(descriptor.get("px", 1)), int(descriptor.get("py", 1))

        def f(x, y):
            return scale * np.sin(math.pi * px * x) * np.sin(math.pi * py * y)
        return f
    if kind == "bump":
        x0 = float(descriptor.get("x0", 0.5))
        y0 = float(descriptor.get("y0", 0.5))
        w = float(descriptor.get("w", 0.2))

        def f(x, y):
            env = x * (1.0 - x) * y * (1.0 - y)
            return scale * env * np.exp(
                -(((x - x0) ** 2 + (y - y0) ** 2) / w ** 2))
        return f
    raise SpectraError(f"unknown source descriptor {descriptor!r}")


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
    hm, Kh, Mq, dmh = _structured(geom.domain, q_limit, 1.0 / (2 * s * geom.m))
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
    u_restricted = fem.interpolate(hm, ref.solve(f_hom), pm)
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
    kappa: float
    delta: float
    steklov_mu: np.ndarray           # extrapolated, descending
    homog_mu: np.ndarray
    steklov_err: np.ndarray          # two-mesh changes per eigenvalue
    homog_err: np.ndarray
    hausdorff: float
    floor_mu: float
    gate_ok: bool
    gate_detail: list = field(default_factory=list)


def rate_scale(r_eps: float, kappa: float) -> float:
    """The theoretical error scale max(kappa, r |ln r|^(1/2)) in 2D."""
    return max(kappa, r_eps * math.sqrt(abs(math.log(r_eps))))


def spectrum_pair(geom, coarse: SpectralResult, fine: SpectralResult, k: int,
                  homog: HomogenizedPair, kappa: float) -> SpectrumPair:
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
    delta = rate_scale(r_eps, kappa)

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
        kappa=float(kappa), delta=float(delta),
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
