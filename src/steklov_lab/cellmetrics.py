"""Eigenvalue constants of single upscaled cells and their stability tests.

Everything here runs on one shape at a time: Neumann gaps of collars, trace
constants of holes, harmonic-extension norms across an interface, Dirichlet
and Robin ground states, plus stability sweeps for the scale-separated cell
inequalities (worst constants measured either by an exact two-form
eigensolve or by sampling random H1 test functions).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from . import fem, shapes
from .eigen import (factor_spd, largest_pencil_eigs, schur_complement,
                    smallest_pencil_eigs)
from .geometry import (C_SEC, GeometryError, chebyshev_center, hole_order,
                       make_domain, unit_square)
from .meshgen import Mesh, mesh_unperforated, refine
from .spectra import _log_slope, richardson


class CellMetricsError(ValueError):
    pass


@dataclass
class Extrapolated:
    """Two-mesh Richardson value with its reported uncertainty."""
    value: float
    uncertainty: float
    coarse: float
    fine: float


def _richardson(coarse: float, fine: float) -> Extrapolated:
    value = richardson(coarse, fine)
    return Extrapolated(value=value, uncertainty=abs(value - fine),
                        coarse=coarse, fine=fine)


def _two_mesh(solve, mesh: Mesh) -> Extrapolated:
    """solve(mesh) on the mesh and on its red refinement, extrapolated."""
    return _richardson(solve(mesh), solve(refine(mesh)))


def _sqrt_of(ex: Extrapolated) -> Extrapolated:
    """The constant whose square was extrapolated."""
    val = math.sqrt(max(ex.value, 0.0))
    return Extrapolated(value=val, uncertainty=abs(val - math.sqrt(ex.fine)),
                        coarse=math.sqrt(ex.coarse), fine=math.sqrt(ex.fine))


def _hole_spec(shape, named=None):
    """geometry's spec of a hole shape ("disk" is "circle"); CellMetricsError
    naming `named` (default shape) for "circle" and what hole_order refuses."""
    spec = "circle" if shape == "disk" else shape
    try:
        hole_order(None if shape == "circle" else spec)
    except GeometryError:
        raise CellMetricsError(f"unknown shape {named or shape!r}; accepted: "
                               "disk, ('kgon', k >= 3)") from None
    return spec


def mesh_shape(shape, h: float) -> Mesh:
    """Meshes of the cell studies' shapes: "square", "disk", ("kgon", k)
    and ("collar", inner) with inner "disk" or ("kgon", k)."""
    if shape == "square":
        return mesh_unperforated(unit_square(), h)
    if (isinstance(shape, (list, tuple)) and len(shape) == 2
            and shape[0] == "collar"):
        return shapes.mesh_collar(_hole_spec(shape[1], shape), h)
    return shapes.mesh_hole_shape(_hole_spec(shape), h)


def _value(res, j: int = 0) -> float:
    """Value j of a pencil solve; raises unless it exists and converged."""
    if j >= len(res.values) or not res.converged[j]:
        resid = ", ".join(f"{r:.3g}" for r in res.residuals)
        raise CellMetricsError(
            f"{res.solver} value {j} missing or not converged "
            f"({len(res.values)} values, residuals [{resid}], "
            f"warning {res.warning!r})")
    return float(res.values[j])


def _neumann_gap_on(mesh: Mesh) -> float:
    """Second value of the (K + M, M) pencil less 1: its first value is the
    constant mode's, exactly 1."""
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    return _value(smallest_pencil_eigs((K + M).tocsr(), M, 2), 1) - 1.0


def neumann_gap(shape, h: float) -> Extrapolated:
    """Smallest nonzero Neumann eigenvalue, extrapolated from h and h/2."""
    return _two_mesh(_neumann_gap_on, mesh_shape(shape, h))


def _dirichlet_ground_on(mesh: Mesh) -> float:
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    dm = fem.build_dofmap(mesh, mesh.boundary_nodes())
    return _value(smallest_pencil_eigs(fem.apply_dirichlet(K, dm),
                                       fem.apply_dirichlet(M, dm), 1))


def dirichlet_ground(shape, h: float) -> Extrapolated:
    return _two_mesh(_dirichlet_ground_on, mesh_shape(shape, h))


def _robin_ground_on(mesh: Mesh, alpha: float) -> float:
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    Bb = fem.edge_mass(mesh, mesh.boundary_edges)
    return _value(smallest_pencil_eigs((K + alpha * Bb).tocsr(), M, 1))


def robin_ground(shape, alpha: float, h: float) -> Extrapolated:
    """Ground state of the Robin Laplacian du/dn + alpha u = 0."""
    if alpha <= 0:
        raise CellMetricsError("alpha must be positive")
    return _two_mesh(lambda mesh: _robin_ground_on(mesh, alpha),
                     mesh_shape(shape, h))


def _trace_sq_on(mesh: Mesh) -> float:
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    Bb = fem.edge_mass(mesh, mesh.boundary_edges)
    return _value(largest_pencil_eigs((K + M).tocsr(), Bb, 1))


def trace_constant(shape, h: float) -> Extrapolated:
    """Best constant of ||u||_{L2(boundary)} <= C ||u||_{H1}: the square root
    of the largest eigenvalue of the (boundary mass, H1 form) pencil."""
    return _sqrt_of(_two_mesh(_trace_sq_on, mesh_shape(shape, h)))


# ---------------------------------------------------------------------------
# harmonic extension across the hole interface

def _extension_parts(mesh: Mesh):
    """Collar/hole split of an interface ball mesh (regions in tri_cell: 0
    hole interior, 1 collar) and the harmonic lift of interface traces.

    Returns (collar, hole, lift, extend, collar_nodes, iface): collar and
    hole are region-only (stiffness, mass) pairs, the collar's on
    collar_nodes and the hole's on the interface nodes followed by the inner
    hole nodes; iface indexes the interface within collar_nodes; lift maps
    interface values to hole values, harmonic in the inner nodes; extend(v)
    puts collar values v on the whole mesh with the lift in the hole.
    """
    region = mesh.tri_cell
    collar_nodes = np.unique(mesh.triangles[region == 1])
    hole_nodes = np.unique(mesh.triangles[region == 0])
    interface = np.intersect1d(collar_nodes, hole_nodes)
    inner = np.setdiff1d(hole_nodes, interface)

    def forms(part, nodes):
        sub = Mesh(mesh.nodes, mesh.triangles[region == part],
                   np.empty((0, 2), dtype=np.int64),
                   np.empty(0, dtype=np.int64))
        return tuple(F[nodes][:, nodes] for F in (
            fem.assemble_stiffness(sub), fem.assemble_mass(sub)))

    collar = forms(1, collar_nodes)
    hole = forms(0, np.concatenate([interface, inner]))
    n_if = len(interface)
    K_h = hole[0]
    lift = np.vstack([np.eye(n_if), factor_spd(K_h[n_if:, n_if:]).solve(
        -K_h[n_if:, :n_if].toarray())])
    iface = np.searchsorted(collar_nodes, interface)

    def extend(v):
        full = np.zeros(mesh.num_nodes)
        full[collar_nodes] = v
        full[inner] = lift[n_if:] @ v[iface]
        return full

    return collar, hole, lift, extend, collar_nodes, iface


def _extension_norm_on(mesh: Mesh) -> float:
    """Squared extension norm sup ||E v||^2 / ||v||^2 in H1 norms.

    ||E v||^2 = ||v||^2_collar + (L v_G)^T A_h (L v_G) with L the harmonic
    lift of the interface values v_G.  For fixed v_G the collar norm is
    smallest at its own harmonic extension, where it equals v_G^T S v_G with
    S the collar Schur complement onto the interface.  So the sup is
    1 + lambda_max(L^T A_h L, S), a dense pencil of interface size.
    """
    (K_g, M_g), (K_h, M_h), lift, _, _, iface = _extension_parts(mesh)
    S = schur_complement(K_g + M_g, iface)
    H = lift.T @ ((K_h + M_h) @ lift)
    n = len(iface)
    top = scipy.linalg.eigh(H, S, eigvals_only=True,
                            subset_by_index=[n - 1, n - 1])
    return 1.0 + float(top[0])


def harmonic_extension_norm(shape, h: float) -> Extrapolated:
    """Operator norm of harmonic extension from the collar to the full ball
    of radius 2, in H1 norms; the extension fixes interface traces and fills
    the hole with the discrete harmonic lift."""
    mesh = shapes.mesh_ball_with_interface(_hole_spec(shape), h)
    return _sqrt_of(_two_mesh(_extension_norm_on, mesh))


def inscribed_radius(shape) -> float:
    """Inner radius of the upscaled hole (enclosing ball is the unit ball)."""
    k = hole_order(_hole_spec(shape))
    return 1.0 if k is None else math.cos(math.pi / k)


@dataclass
class CellConstants:
    shape: object
    c_inn: float
    c_tr: Extrapolated
    neumann_gap_collar: Extrapolated
    c_p: Extrapolated
    dirichlet_ground: Extrapolated
    robin_ground_1: Extrapolated

    def as_dict(self):
        return {**asdict(self), "shape": str(self.shape)}


def cell_constants(shape, h: float = 0.08) -> CellConstants:
    """All uniform-geometry constants of one upscaled hole shape."""
    collar = ("collar", shape)
    return CellConstants(
        shape=shape,
        c_inn=inscribed_radius(shape),
        c_tr=trace_constant(shape, h),
        neumann_gap_collar=neumann_gap(collar, h),
        c_p=harmonic_extension_norm(shape, h),
        dirichlet_ground=dirichlet_ground(shape, h),
        robin_ground_1=robin_ground(shape, 1.0, h),
    )


def slit_collar_gaps(betas, h: float = 0.1) -> np.ndarray:
    """Neumann gaps of the slit collar across channel half-widths."""
    return np.array([_neumann_gap_on(shapes.mesh_slit_collar(b, h))
                     for b in betas])


# ---------------------------------------------------------------------------
# classical eigenvalue inequalities on random shapes

def random_convex_polygon(rng):
    """Convex hull of 5 to 10 random points in the unit square, rejecting
    slivers."""
    while True:
        pts = rng.uniform(0.1, 0.9, size=(rng.integers(5, 11), 2))
        hull = _convex_hull(pts)
        if len(hull) >= 4:
            _, r_in = chebyshev_center(hull)
            if r_in > 0.08:
                return hull


def _convex_hull(points):
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def payne_weinberger_check(count: int = 20, h: float = 0.05,
                           seed: int = 7) -> list:
    """Neumann gap of random convex polygons against pi^2 / diam^2.

    Conforming FEM overestimates Neumann eigenvalues, so the discrete gap
    must clear the bound up to roundoff.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        poly = random_convex_polygon(rng)
        mesh = shapes.mesh_convex_polygon(poly, h)
        gap = _neumann_gap_on(mesh)
        diam = max(math.dist(p, q) for p in poly for q in poly)
        bound = math.pi ** 2 / diam ** 2
        rows.append({"gap": gap, "bound": bound, "ok": gap >= bound * (1 - 1e-9)})
    return rows


# ---------------------------------------------------------------------------
# stability sweeps for the scale-separated cell inequalities

@dataclass
class LemmaReport:
    lemma_id: str
    rows: list                       # dicts with the sweep parameter + ratio
    slope: float | None
    passed: bool
    method: str
    detail: str = ""


def _sample_functions(mesh: Mesh, count: int, rng) -> list:
    """Random H1 test data: mass-smoothed Gaussian nodal vectors plus a
    deterministic polynomial/trigonometric family."""
    M = fem.assemble_mass(mesh)
    dinv = 1.0 / M.diagonal()
    out = []
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    for fn in (lambda: x, lambda: y, lambda: x * y,
               lambda: x * x - y * y, lambda: np.sin(3 * x) * np.cos(2 * y),
               lambda: np.exp(x - y)):
        out.append(fn())
    for _ in range(count):
        v = rng.standard_normal(mesh.num_nodes)
        out.append(dinv * (M @ v))
    return out


def _lemma_secure_ratio(lemma_id, d):
    """Exact sup of ||u||^2 on the hole boundary (3.2, s = d) or in the hole
    (3.3, s = d^2) over s (||u||^2_{L2(collar)} / r^2 + |log d| ||grad u||^2),
    on the secure ball of radius r / 2 around a hole of radius d, r = 0.5."""
    r = 0.5
    mesh = shapes.mesh_secure_ball(d, C_SEC * r)
    K = fem.assemble_stiffness(mesh)
    in_collar = np.array([0.0, 1.0])[mesh.tri_cell]
    M_collar = fem.assemble_weighted_mass(mesh, in_collar)
    if lemma_id == "3.2":
        s, B = d, fem.edge_mass(mesh, shapes.interface_edges(mesh))
    else:
        s, B = d ** 2, fem.assemble_weighted_mass(mesh, 1.0 - in_collar)
    W = ((s / r ** 2) * M_collar + s * abs(math.log(d)) * K).tocsr()
    return _value(largest_pencil_eigs(W, B, 1))


def _lemma_strip_ratio(width):
    dom = make_domain([(0, 0), (1, 0), (1, width), (0, width)], "strip")
    mesh = mesh_unperforated(dom, width / 8)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    fixed = np.nonzero(mesh.nodes[:, 1] < 1e-12)[0]
    dm = fem.build_dofmap(mesh, fixed)
    lam = _value(smallest_pencil_eigs(fem.apply_dirichlet(K, dm),
                                      fem.apply_dirichlet(M, dm), 1))
    return 1.0 / (lam * width ** 2)


def _lemma_mean_ratio(d, sample_count, rng):
    mesh = shapes.mesh_cell_with_hole(d)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    B_int = fem.edge_mass(mesh, shapes.interface_edges(mesh))
    ones = np.ones(mesh.num_nodes)
    per = float(ones @ (B_int @ ones))
    vol = float(ones @ (M @ ones))
    zeta = abs(math.log(d))
    worst = 0.0
    for u in _sample_functions(mesh, sample_count, rng):
        mean_b = float(ones @ (B_int @ u)) / per
        mean_c = float(ones @ (M @ u)) / vol
        grad = float(u @ (K @ u))
        if grad < 1e-14:
            continue
        worst = max(worst, (mean_b - mean_c) ** 2 / (zeta * grad))
    return worst


def _lemma_convex_ratio(d, sample_count, rng):
    # the two-subdomain L2 comparison on a convex cell: D1 a ball of radius
    # d, D2 a fixed half, gradient term over the whole square
    mesh = mesh_unperforated(unit_square(), 0.05)
    K = fem.assemble_stiffness(mesh)
    x, y = mesh.nodes[mesh.triangles].mean(axis=1).T     # centroids
    in_ball = (x - 0.3) ** 2 + (y - 0.5) ** 2 < d * d
    M1 = fem.assemble_weighted_mass(mesh, in_ball)
    M2 = fem.assemble_weighted_mass(mesh, x > 0.5)
    vol1 = math.pi * d * d
    vol2 = 0.5
    diam = math.sqrt(2.0)
    worst = 0.0
    for u in _sample_functions(mesh, sample_count, rng):
        lhs = float(u @ (M1 @ u))
        rhs = (2.0 * vol1 / vol2 * float(u @ (M2 @ u))
               + diam ** 3 * math.sqrt(vol1) / vol2 * float(u @ (K @ u)))
        worst = max(worst, lhs / rhs)
    return worst


def _lemma_extension_ratio(shape, sample_count, rng):
    mesh = shapes.mesh_ball_with_interface(_hole_spec(shape), 0.1)
    (K_g, _), (K_h, _), lift, _, cn, iface = _extension_parts(mesh)
    worst = 0.0
    for u in _sample_functions(mesh, sample_count, rng):
        v = u[cn]
        g = float(v @ (K_g @ v))
        if g < 1e-13:
            continue
        w = lift @ v[iface]
        worst = max(worst, (g + float(w @ (K_h @ w))) / g)
    return worst


LEMMA_IDS = ("3.1", "3.2", "3.3", "3.4", "3.5", "3.6")


def verify_lemma(lemma_id: str, shape_params=None, sample_count: int = 48,
                 seed: int = 0) -> LemmaReport:
    """Constant-stability sweep for one of the cell inequalities.

    Ids follow the build's naming: "3.1" convex two-subdomain comparison,
    "3.2" hole-boundary trace, "3.3" hole L2, "3.4" boundary/cell mean gap,
    "3.5" thin-strip Poincare, "3.6" harmonic extension.  3.2/3.3/3.5 are
    exact sup computations via generalized eigensolves; the rest sample.
    PASS means no growth trend: fitted log-log slope of the worst ratio
    against the sweep parameter stays below 0.2.
    """
    rng = np.random.default_rng(seed + 1234)
    if lemma_id == "3.6":
        rows = [{"shape": str(sh),
                 "ratio": _lemma_extension_ratio(sh, sample_count, rng)}
                for sh in shape_params or ["disk", ("kgon", 4), ("kgon", 6)]]
        worst = max(q["ratio"] for q in rows)
        return LemmaReport(lemma_id, rows, None, worst < 50.0, "sampled",
                           "gradient-only extension bound, bounded check")
    if lemma_id in ("3.2", "3.3"):
        rows = [{"d": d, "ratio": _lemma_secure_ratio(lemma_id, d)}
                for d in shape_params or [0.002, 0.004, 0.008, 0.012, 0.02]]
    elif lemma_id == "3.5":
        rows = [{"d": w, "ratio": _lemma_strip_ratio(w)}
                for w in shape_params or [0.2, 0.1, 0.05]]
    elif lemma_id == "3.4":
        rows = [{"d": d, "ratio": _lemma_mean_ratio(d, sample_count, rng)}
                for d in shape_params or [0.002, 0.004, 0.008, 0.012, 0.02]]
    elif lemma_id == "3.1":
        rows = [{"d": d, "ratio": _lemma_convex_ratio(d, sample_count, rng)}
                for d in shape_params or [0.05, 0.1, 0.2]]
    else:
        raise CellMetricsError(f"unknown lemma id {lemma_id!r}")
    ratios = [q["ratio"] for q in rows]
    slope = _log_slope([q["d"] for q in rows], ratios)
    passed, method, detail = {
        "3.1": (max(ratios) <= 1.0, "sampled",
                "ratios must stay below 1 (constant-free comparison)"),
        "3.2": (slope <= 0.2, "eigensolve", "sup over FEM space, r=0.5"),
        "3.3": (slope <= 0.2, "eigensolve", "sup over FEM space, r=0.5"),
        "3.4": (max(ratios) <= 10.0 * max(min(ratios), 1e-12), "sampled",
                "sampled sup; PASS = bounded across the sweep"),
        "3.5": (abs(slope) <= 0.2, "eigensolve",
                "mixed strip eigenvalue, C = sqrt"),
    }[lemma_id]
    return LemmaReport(lemma_id, rows, slope, passed, method, detail)
