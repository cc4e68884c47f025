"""Tessellations, holes, and limit weights for perforated planar domains.

Every cell is a square of the 1/m grid cut from an axis-aligned polygon.
The tiling runs on rational arithmetic wherever the inputs are rational, so
tiling checks and cell areas carry no floating-point slack.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polygon helpers

def poly_area(pts):
    """Signed shoelace area; exact when the coordinates are Fractions."""
    n = len(pts)
    acc = 0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2


def chebyshev_center(pts):
    """Center and radius of the largest ball inscribed in a convex polygon:
    the LP optimum is a point equidistant from three edge lines, so keep the
    triple point farthest from its nearest edge line."""
    p = np.array(pts, dtype=float)
    area = float(poly_area(pts))
    if area == 0.0:
        raise GeometryError("polygon has zero area")
    e = np.roll(p, -1, axis=0) - p           # inward normal (-ey, ex) if CCW
    nrm = math.copysign(1.0, area) * np.column_stack((-e[:, 1], e[:, 0]))
    nrm /= np.hypot(nrm[:, 0], nrm[:, 1])[:, None]
    c = np.einsum("ij,ij->i", nrm, p)
    tri = np.array(list(combinations(range(len(p)), 3)))
    rows = np.concatenate((nrm[tri], -np.ones(tri.shape + (1,))), axis=2)
    ok = np.linalg.det(rows) != 0.0
    xr = np.linalg.solve(rows[ok], c[tri[ok]][..., None])[..., 0]
    dist = (xr[:, :2] @ nrm.T - c).min(axis=1)
    best = int(np.argmax(dist))
    return (float(xr[best, 0]), float(xr[best, 1])), float(dist[best])


# ---------------------------------------------------------------------------
# domain and tessellation types

@dataclass(frozen=True)
class Domain:
    """Axis-aligned simple polygon, positively oriented (exact tiling)."""
    vertices: tuple          # tuple of (Fraction, Fraction)
    kind: str = "polygon"

    def __post_init__(self):
        v = self.vertices
        if len(v) < 4:
            raise GeometryError("domain needs at least 4 vertices")
        if poly_area(v) <= 0:
            raise GeometryError("domain must be positively oriented")
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            if a[0] != b[0] and a[1] != b[1]:
                raise GeometryError(f"edge {a}-{b} is not axis-aligned")

    @property
    def area(self) -> Fraction:
        return poly_area(self.vertices)

    def bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value).limit_denominator(10 ** 12)


def make_domain(vertices, kind="polygon") -> Domain:
    return Domain(tuple((_frac(x), _frac(y)) for x, y in vertices), kind)


def unit_square() -> Domain:
    return make_domain([(0, 0), (1, 0), (1, 1), (0, 1)], "unit-square")


def l_shape(size=1) -> Domain:
    """L-shaped domain [0,s]^2 minus the open upper-right quadrant square."""
    s = _frac(size)
    h = s / 2
    return make_domain([(0, 0), (s, 0), (s, h), (h, h), (h, s), (0, s)], "L-shape")


def rectangle(width, height) -> Domain:
    w, h = _frac(width), _frac(height)
    return make_domain([(0, 0), (w, 0), (w, h), (0, h)], "rectangle")


@dataclass(frozen=True)
class Cell:
    """The square [ix/m, (ix+1)/m] x [iy/m, (iy+1)/m] of the 1/m grid,
    grid = (ix, iy, m).  Area, radii and center are derived from grid."""
    index: int
    grid: tuple                      # (ix, iy, m)

    @property
    def area(self) -> Fraction:
        return Fraction(1, self.grid[2] ** 2)

    @property
    def r_in(self) -> float:
        return 1.0 / (2 * self.grid[2])

    @property
    def r_out(self) -> float:
        return math.sqrt(2.0) / (2 * self.grid[2])

    @property
    def center(self) -> tuple:
        ix, iy, m = self.grid
        return ((2 * ix + 1) / (2 * m), (2 * iy + 1) / (2 * m))

    def inset(self, point) -> float:
        """Distance from point to the nearest cell side; negative outside."""
        ix, iy, m = self.grid
        x, y = point
        return min(x - ix / m, (ix + 1) / m - x, y - iy / m, (iy + 1) / m - y)


@dataclass(frozen=True)
class Hole:
    cell_index: int
    center: tuple
    d: float                         # radius of smallest enclosing ball
    k: int | None = None             # polygon order; None for a circle

    @property
    def perimeter(self) -> float:
        if self.k is None:
            return 2.0 * math.pi * self.d
        return 2.0 * self.k * self.d * math.sin(math.pi / self.k)

    def boundary_point(self, theta: float) -> tuple:
        """Point of the hole boundary in direction theta from the center."""
        if self.k is None:
            rho = self.d
        else:
            step = 2.0 * math.pi / self.k
            loc = math.fmod(theta, step)
            if loc < 0:
                loc += step
            rho = self.d * math.cos(math.pi / self.k) / math.cos(loc - math.pi / self.k)
        cx, cy = self.center
        return (cx + rho * math.cos(theta), cy + rho * math.sin(theta))


# uniform-geometry bounds that every generated or loaded geometry is
# validated against
C_TILDE = 1.5                        # outer/inner cell radius ratio
C_SEC = 0.5                          # secure-distance fraction of r
C_D_MINUS = 0.1                      # lower bound on d / r^2
C_D_PLUS = 10.0                      # upper bound on d / r^2
# largest offset max(|dx|, |dy|) of a hole from the center of its square
# cell, in units of r, that the cell mesh admits: the secure ball of radius
# C_SEC * r keeps a transition layer of 0.05 r to the cell sides
MAX_HOLE_OFFSET = 0.95 - C_SEC


@dataclass
class PerforatedGeometry:
    domain: Domain
    m: int
    cells: list
    holes: list
    beta: float

    @property
    def epsilon(self) -> float:
        return 1.0 / self.m

    @property
    def r_eps(self) -> float:
        return max(c.r_in for c in self.cells)


# ---------------------------------------------------------------------------
# square tessellation (exact tiling)

def check_tiling(domain: Domain, m: int):
    """Raise unless every vertex of the domain lies on the 1/m grid."""
    for x, y in domain.vertices:
        if (x * m).denominator != 1 or (y * m).denominator != 1:
            raise GeometryError(
                f"domain vertex ({x}, {y}) is not on the 1/{m} grid; "
                "exact tiling impossible")


def _grid_squares(domain: Domain, n: int):
    """The squares of the 1/n grid over the bounding box of a domain whose
    vertices lie on that grid: ((ix0, iy0), inside), where inside[iy - iy0,
    ix - ix0] says whether square (ix, iy) lies in the domain.

    Crossing test of the square centres on the doubled lattice: vertices are
    even there, centres odd, so no centre lies on an edge; Domain edges are
    axis-aligned, and only the vertical ones cross a horizontal ray.
    """
    x0, y0, x1, y1 = domain.bbox()
    ix0, iy0 = int(x0 * n), int(y0 * n)
    cx = 2 * np.arange(ix0, int(x1 * n), dtype=np.int64) + 1
    cy = 2 * np.arange(iy0, int(y1 * n), dtype=np.int64) + 1
    inside = np.zeros((len(cy), len(cx)), dtype=bool)
    v = domain.vertices
    for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
        if ax == bx:
            rows = (int(2 * n * ay) > cy) != (int(2 * n * by) > cy)
            inside ^= rows[:, None] & (cx < int(2 * n * ax))[None, :]
    return (ix0, iy0), inside


def build_square_tessellation(domain: Domain, m: int) -> list:
    """Cells of the 1/m grid inside the domain, in row-major (iy, ix)
    order; rejects non-tileable input."""
    if m < 1:
        raise GeometryError("m must be a positive integer")
    check_tiling(domain, m)
    (ix0, iy0), inside = _grid_squares(domain, m)
    jy, jx = np.nonzero(inside)
    cells = [Cell(i, (ix0 + x, iy0 + y, m))
             for i, (x, y) in enumerate(zip(jx.tolist(), jy.tolist()))]
    if not cells:
        raise GeometryError("tessellation produced no cells")
    return cells


# ---------------------------------------------------------------------------
# holes

def max_admissible_beta(cells) -> float:
    r_max = max(c.r_in for c in cells)
    return C_SEC / (2.0 * r_max)


def check_jitter(jitter):
    """Raise unless jitter is None, ("random", frac), or ("fixed", dx, dy)
    whose largest offset stays within MAX_HOLE_OFFSET, every value passing
    is_number (so a bool is refused).  A random offset has length
    frac * (1 - C_SEC) * r in any direction."""
    if jitter is None:
        return
    spec = list(jitter) if isinstance(jitter, (list, tuple)) else []
    kind = spec[0] if spec and isinstance(spec[0], str) else None
    if (len(spec) != {"random": 2, "fixed": 3}.get(kind)
            or not all(map(is_number, spec[1:]))):
        raise GeometryError(f"unknown jitter spec {jitter!r}")
    if kind == "random":
        frac_max = MAX_HOLE_OFFSET / (1.0 - C_SEC)
        if not 0 <= spec[1] <= frac_max + 1e-12:
            raise GeometryError(
                f"random jitter fraction must be in [0, {frac_max:.6g}] = "
                f"[0, (0.95 - c_sec) / (1 - c_sec)]")
    elif max(map(abs, spec[1:])) > MAX_HOLE_OFFSET + 1e-12:
        raise GeometryError(
            f"fixed jitter offset {jitter!r} breaks the secure distance and "
            f"transition layer: max(|dx|, |dy|) must be at most "
            f"0.95 - c_sec = {MAX_HOLE_OFFSET:.6g}")


def place_holes(cells, shape_spec, beta, jitter=None, rng=None) -> list:
    """One hole per cell at the Chebyshev center, enclosing radius beta*r^2.

    shape_spec is "circle" or ("kgon", k).  jitter is None, a fixed offset
    ("fixed", dx, dy) in units of r, or ("random", frac), see check_jitter.
    check_jitter's offsets of at most 0.45 r keep an inset >= 0.55 r > C_SEC*r.
    """
    k = hole_order(shape_spec)
    beta_max = max_admissible_beta(cells)
    if not 0 < beta <= beta_max:
        raise GeometryError(
            f"beta={beta} violates hole smallness (2*d <= c_sec*r); "
            f"max admissible beta is {beta_max:.6g}")
    check_jitter(jitter)
    if jitter is not None and jitter[0] == "random" and rng is None:
        raise GeometryError("random jitter needs an rng")

    holes = []
    for cell in cells:
        r = cell.r_in
        cx, cy = cell.center
        if jitter is None:
            off = (0.0, 0.0)
        elif jitter[0] == "fixed":
            off = (jitter[1] * r, jitter[2] * r)
        else:
            ang = rng.uniform(0.0, 2.0 * math.pi)
            mag = float(jitter[1]) * (1.0 - C_SEC) * r
            off = (mag * math.cos(ang), mag * math.sin(ang))
        holes.append(Hole(cell_index=cell.index, k=k,
                          center=(cx + off[0], cy + off[1]), d=beta * r * r))
    return holes


def build_perforated_geometry(domain, m, beta, shape_spec="circle",
                              jitter=None, rng=None) -> PerforatedGeometry:
    cells = build_square_tessellation(domain, m)
    holes = place_holes(cells, shape_spec, beta, jitter, rng)
    return PerforatedGeometry(domain=domain, m=m, cells=cells, holes=holes,
                              beta=beta)


# ---------------------------------------------------------------------------
# limit weight, weight field and its convergence defect

def cell_weight(k, beta: float) -> float:
    """The limit weight Q: perimeter per area of the order-k hole (None for
    a circle) of a 1/m grid cell, at every m.  That cell (r = 1/(2m),
    d = beta*r^2) weighs what a hole of d = beta/4 does in a unit cell: the
    same float at every m, unlike its rounded d over its area, which can be
    an ulp off."""
    return Hole(cell_index=0, center=(0.0, 0.0), d=beta / 4, k=k).perimeter


def weight_field(geometry: PerforatedGeometry) -> np.ndarray:
    """Hole perimeter / cell area, per cell index."""
    values = np.empty(len(geometry.cells))
    for cell, hole in zip(geometry.cells, geometry.holes):
        values[cell.index] = cell_weight(hole.k, geometry.beta)
    return values


def kappa(geometry: PerforatedGeometry, weights: np.ndarray,
          q_limit: float) -> float:
    """Worst L^2 defect (the paper's sigma = 1) of the piecewise weight
    against the constant limit q_limit, over unit boxes of the integer
    lattice that meet the domain.

    The grid cell (ix, iy, m) lies in the one unit box (ix // m, iy // m)
    and covers 1/m^2 of it, so each box sums its cells in cell order.
    """
    q = float(q_limit)
    box_acc: dict = {}
    for cell in geometry.cells:
        ix, iy, m = cell.grid
        box = (ix // m, iy // m)
        val = abs(weights[cell.index] - q) ** 2.0 * (1.0 / (m * m))
        box_acc[box] = box_acc.get(box, 0.0) + val
    return max(box_acc.values(), default=0.0) ** 0.5


# ---------------------------------------------------------------------------
# assumption validation

@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    measured: float
    bound: float
    worst_cell: int | None = None


@dataclass
class AssumptionReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {"passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def validate_assumptions(geometry: PerforatedGeometry) -> AssumptionReport:
    cells, holes = geometry.cells, geometry.holes
    checks = []

    # grid cells are exact 1/m squares regardless of how they were loaded
    tiled = Fraction(len(cells), geometry.m ** 2)
    exact = tiled == geometry.domain.area
    checks.append(AssumptionCheck(
        "tiling-partition", exact, float(tiled), float(geometry.domain.area)))

    ratios = [(c.r_out / c.r_in, c.index) for c in cells]
    worst, idx = max(ratios)
    checks.append(AssumptionCheck(
        "cell-radius-ratio", worst <= C_TILDE + 1e-12, worst, C_TILDE,
        idx if worst > C_TILDE + 1e-12 else None))

    sec = []
    for cell, hole in zip(cells, holes):
        sec.append((cell.inset(hole.center) / cell.r_in, cell.index))
    worst, idx = min(sec)
    checks.append(AssumptionCheck(
        "secure-distance", worst >= C_SEC - 1e-12, worst, C_SEC,
        idx if worst < C_SEC - 1e-12 else None))

    scaling = [(h.d / c.r_in ** 2, c.index) for c, h in zip(cells, holes)]
    lo, lo_i = min(scaling)
    hi, hi_i = max(scaling)
    checks.append(AssumptionCheck(
        "hole-scaling-lower", lo >= C_D_MINUS - 1e-12, lo, C_D_MINUS,
        lo_i if lo < C_D_MINUS - 1e-12 else None))
    checks.append(AssumptionCheck(
        "hole-scaling-upper", hi <= C_D_PLUS + 1e-12, hi, C_D_PLUS,
        hi_i if hi > C_D_PLUS + 1e-12 else None))

    weights = weight_field(geometry)
    q_min = float(np.min(weights))
    checks.append(AssumptionCheck(
        "weight-positive", q_min > 0.0, q_min, 0.0,
        int(np.argmin(weights)) if q_min <= 0 else None))

    return AssumptionReport(checks)


# ---------------------------------------------------------------------------
# serialization

def geometry_to_json(geometry: PerforatedGeometry) -> str:
    payload = {
        "domain": {
            "kind": geometry.domain.kind,
            "vertices": [[str(x), str(y)] for x, y in geometry.domain.vertices],
        },
        "epsilon": {"m": geometry.m},
        "beta": geometry.beta,
        "holes": [
            {"cell": h.cell_index,
             "shape": "circle" if h.k is None else "kgon", "k": h.k,
             "center": list(h.center), "d": h.d}
            for h in geometry.holes
        ],
    }
    return json.dumps(payload, indent=2)


def geometry_from_json(text: str) -> PerforatedGeometry:
    """Inverse of geometry_to_json; GeometryError on a malformed payload.
    Keys it does not read, such as an older file's "constants", are
    ignored: every geometry is validated against this module's bounds."""
    try:
        data = json.loads(text)
        domain = make_domain(
            [(Fraction(x), Fraction(y)) for x, y in data["domain"]["vertices"]],
            data["domain"]["kind"])
        m = data["epsilon"]["m"]
        if type(m) is not int or m < 1:
            raise GeometryError(f"epsilon m must be an integer >= 1, got {m!r}")
        holes = [
            Hole(cell_index=h["cell"], k=hole_order(
                h["shape"] if h["k"] is None else (h["shape"], h["k"])),
                 center=tuple(_real(x, "hole center") for x in h["center"]),
                 d=_real(h["d"], "hole d"))
            for h in data["holes"]
        ]
        beta = _real(data["beta"], "beta")
    except GeometryError:
        raise
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GeometryError(
            f"malformed geometry JSON ({type(exc).__name__}: {exc})") from exc
    # a grid of 1/m squares has area * m^2 cells: check the count before
    # tiling, so that a huge m cannot start a huge loop
    check_tiling(domain, m)
    if len(holes) != domain.area * m * m:
        raise GeometryError(f"geometry needs one hole per cell, got "
                            f"{domain.area * m * m} cells and {len(holes)} "
                            "holes")
    for i, hole in enumerate(holes):
        if type(hole.cell_index) is not int or hole.cell_index != i:
            raise GeometryError(f"hole {i} names cell {hole.cell_index!r}; "
                                "holes list one hole per cell, in cell order")
        if len(hole.center) != 2:
            raise GeometryError(f"hole {i} center must be two numbers")
    return PerforatedGeometry(domain=domain, m=m,
                              cells=build_square_tessellation(domain, m),
                              holes=holes, beta=beta)


def is_integer(value) -> bool:
    """The rule of every count read from a config, a jitter spec or a
    source descriptor: an integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """The rule of every real read from the same inputs: finite, not a
    bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _real(value, name: str):
    if not is_number(value):
        raise GeometryError(f"{name} must be a finite number, got {value!r}")
    return value


def hole_order(shape_spec):
    """The k of a ("kgon", k) hole spec (is_integer, >= 3) as an int, None
    for "circle"; GeometryError otherwise.  Every Hole's k comes from here."""
    if shape_spec == "circle":
        return None
    if not (isinstance(shape_spec, (list, tuple)) and len(shape_spec) == 2
            and shape_spec[0] == "kgon" and is_integer(shape_spec[1])
            and shape_spec[1] >= 3):
        raise GeometryError(f"hole shape must be circle or kgon with an "
                            f"integer k >= 3, got {shape_spec!r}")
    return int(shape_spec[1])

