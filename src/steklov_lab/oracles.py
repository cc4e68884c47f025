"""Independent reference values for the main pipeline.

Closed-form spectra, cylinder functions from scipy.special, roots by
bisection, and per-element Gauss quadrature that re-evaluates norms
without touching any assembled matrix.  Everything here is deliberately
self-contained so it can act as a cross-check rather than share code with
the solvers it certifies.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1, jvp, yvp


def _bisect(f, a: float, b: float, tol: float) -> float:
    """Midpoint of a bracket of f's root narrower than tol (or than the float
    spacing); f(a) and f(b) must not share a sign."""
    fa, mid = f(a), 0.5 * (a + b)
    while b - a > tol and a < mid < b:
        fm = f(mid)
        if fa * fm > 0:
            a, fa = mid, fm
        else:
            b = mid
        mid = 0.5 * (a + b)
    return float(mid)


def j0_zero(index: int, tol: float = 1e-12) -> float:
    """index-th positive zero of J0 (index >= 1).

    McMahon's expansion j_{0,n} = beta + 1/(8 beta) - ..., beta = (n - 1/4) pi,
    puts the zero inside ((n - 1/4) pi, (n - 1/8) pi).
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    return _bisect(j0, (index - 0.25) * math.pi, (index - 0.125) * math.pi,
                   tol)


def robin_disk_ground(alpha: float) -> float:
    """Smallest eigenvalue of -Laplace on the unit disk with du/dn + alpha*u = 0.

    The radial ground state J0(sqrt(lam) r) gives the scalar equation
    alpha*J0(s) = s*J1(s) with s = sqrt(lam).  The residual is alpha > 0 at
    s = 0 and negative at the first zero of J0, which brackets the root.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = _bisect(lambda x: alpha * j0(x) - x * j1(x), 0.0, j0_zero(1), 1e-12)
    return s * s


def annulus_neumann_gap(a: float, b: float) -> float:
    """First nonzero Neumann eigenvalue of the annulus a < |x| < b.

    For moderate aspect ratios the gap is the first azimuthal mode
    (cos(theta) angular factor); its radial part solves the cross-product
    equation  J1'(ka) Y1'(kb) - J1'(kb) Y1'(ka) = 0.  The first sign change
    on a grid of step 0.01/b brackets the root.
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")

    def f(k):
        return jvp(1, k * a) * yvp(1, k * b) - jvp(1, k * b) * yvp(1, k * a)

    ks = np.arange(0.02 / b, 8.0 / (b - a) + 1e-15, 0.01 / b)
    sign = np.sign(f(ks))
    cells = np.flatnonzero(sign[:-1] * sign[1:] <= 0)
    if len(cells) == 0:
        raise ValueError(f"no sign change on [{ks[0]}, {ks[-1]}]")
    k = _bisect(f, ks[cells[0]], ks[cells[0] + 1], 1e-12)
    return k * k


def square_dirichlet_spectrum(q_const: float, count: int) -> np.ndarray:
    """First eigenvalues of -Laplace u = lam * q_const * u on the unit square,
    Dirichlet walls: lam = pi^2 (p^2 + q^2) / q_const, p, q >= 1."""
    if q_const <= 0:
        raise ValueError("q_const must be positive")
    pmax = int(math.isqrt(2 * count)) + 2
    vals = [
        math.pi ** 2 * (p * p + q * q) / q_const
        for p in range(1, pmax + 1)
        for q in range(1, pmax + 1)
    ]
    vals.sort()
    return np.array(vals[:count])


# ---------------------------------------------------------------------------
# Gauss quadrature (order 4): independent norm evaluation for P1 data.

# 6-point Dunavant rule on the reference triangle, exact through degree 4.
_TRI_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_TRI_B = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])

# 3-point Gauss-Legendre on [0,1], exact through degree 5.
_EDGE_T = np.array([0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)])
_EDGE_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def quadrature_norm(mesh, values, form: str, tag: int | None = None) -> float:
    """Norm of P1 nodal data by per-element Gauss quadrature.

    form is one of "l2", "h1-semi", "boundary-l2".  For the boundary form an
    edge tag may be given (None integrates every tagged boundary edge).
    Bypasses all assembled matrices on purpose.
    """
    values = np.asarray(values, dtype=float)
    if form == "l2":
        p = mesh.nodes[mesh.triangles]            # (m, 3, 2)
        area = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        v = values[mesh.triangles]                # (m, 3)
        ug = v @ _TRI_B.T                         # (m, 6)
        return math.sqrt(float(np.sum(area * ((ug * ug) @ _TRI_W))))
    if form == "h1-semi":
        p = mesh.nodes[mesh.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        v = values[mesh.triangles]
        dv1 = v[:, 1] - v[:, 0]
        dv2 = v[:, 2] - v[:, 0]
        gx = (dv1 * e2[:, 1] - dv2 * e1[:, 1]) / det
        gy = (-dv1 * e2[:, 0] + dv2 * e1[:, 0]) / det
        return math.sqrt(float(np.sum(0.5 * np.abs(det) * (gx * gx + gy * gy))))
    if form == "boundary-l2":
        sel = np.ones(len(mesh.edge_tags), dtype=bool) if tag is None \
            else mesh.edge_tags == tag
        e = mesh.boundary_edges[sel]
        if len(e) == 0:
            return 0.0
        pa, pb = mesh.nodes[e[:, 0]], mesh.nodes[e[:, 1]]
        length = np.hypot(*(pb - pa).T)
        va, vb = values[e[:, 0]], values[e[:, 1]]
        acc = 0.0
        for t, w in zip(_EDGE_T, _EDGE_W):
            u = (1 - t) * va + t * vb
            acc += w * float(np.sum(length * u * u))
        return math.sqrt(acc)
    raise ValueError(f"unknown form {form!r}")
