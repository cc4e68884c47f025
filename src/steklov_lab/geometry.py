"""Tessellations, holes, and weight fields for perforated planar domains.

Every cell is a square of the 1/m grid cut from an axis-aligned polygon.
The tiling runs on rational arithmetic wherever the inputs are rational, so
tiling checks and cell areas carry no floating-point slack.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

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
    """Center and radius of the largest ball inscribed in a convex polygon,
    by linear programming over the edge half-planes."""
    n = len(pts)
    rows, rhs = [], []
    area = poly_area(pts)
    sgn = 1.0 if area > 0 else -1.0
    for i in range(n):
        ax, ay = map(float, pts[i])
        bx, by = map(float, pts[(i + 1) % n])
        # inward normal for CCW ordering is (-(by-ay), bx-ax)
        nx, ny = sgn * (ay - by), sgn * (bx - ax)
        norm = math.hypot(nx, ny)
        # n.(x - a) >= r*|n|  <=>  -n.x + r|n| <= -n.a
        rows.append((-nx, -ny, norm))
        rhs.append(-(nx * ax + ny * ay))
    res = linprog(c=(0.0, 0.0, -1.0), A_ub=rows, b_ub=rhs,
                  bounds=((None, None), (None, None), (0, None)), method="highs")
    if not res.success:
        raise GeometryError("Chebyshev LP failed")
    return (res.x[0], res.x[1]), res.x[2]


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

    def contains(self, x, y) -> bool:
        """Crossing test; exact for rational input off the boundary."""
        inside = False
        v = self.vertices
        for i in range(len(v)):
            (x0, y0), (x1, y1) = v[i], v[(i + 1) % len(v)]
            if (y0 > y) != (y1 > y):
                xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                if x < xi:
                    inside = not inside
        return inside


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
    kind: str                        # "circle" | "kgon"
    center: tuple
    d: float                         # radius of smallest enclosing ball
    k: int | None = None             # polygon order for "kgon"

    @property
    def perimeter(self) -> float:
        if self.kind == "circle":
            return 2.0 * math.pi * self.d
        return 2.0 * self.k * self.d * math.sin(math.pi / self.k)

    def boundary_point(self, theta: float) -> tuple:
        """Point of the hole boundary in direction theta from the center."""
        if self.kind == "circle":
            rho = self.d
        else:
            step = 2.0 * math.pi / self.k
            loc = math.fmod(theta, step)
            if loc < 0:
                loc += step
            rho = self.d * math.cos(math.pi / self.k) / math.cos(loc - math.pi / self.k)
        cx, cy = self.center
        return (cx + rho * math.cos(theta), cy + rho * math.sin(theta))


@dataclass(frozen=True)
class AssumptionConstants:
    """Configured uniform-geometry bounds the generated data must satisfy."""
    c_tilde: float = 1.5             # outer/inner cell radius ratio
    c_sec: float = 0.5               # secure-distance fraction of r
    c_d_minus: float = 0.1           # lower bound on d / r^2
    c_d_plus: float = 10.0           # upper bound on d / r^2


DEFAULT_CONSTANTS = AssumptionConstants()


@dataclass
class PerforatedGeometry:
    domain: Domain
    m: int
    cells: list
    holes: list
    beta: float
    constants: AssumptionConstants = field(default_factory=AssumptionConstants)

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


def build_square_tessellation(domain: Domain, m: int) -> list:
    """Cells of the 1/m grid inside the domain; rejects non-tileable input."""
    if m < 1:
        raise GeometryError("m must be a positive integer")
    check_tiling(domain, m)
    x0, y0, x1, y1 = domain.bbox()
    cells = []
    for iy in range(int(y0 * m), int(y1 * m)):
        for ix in range(int(x0 * m), int(x1 * m)):
            if domain.contains(Fraction(2 * ix + 1, 2 * m),
                               Fraction(2 * iy + 1, 2 * m)):
                cells.append(Cell(len(cells), (ix, iy, m)))
    if not cells:
        raise GeometryError("tessellation produced no cells")
    return cells


# ---------------------------------------------------------------------------
# holes

def max_admissible_beta(cells, constants=DEFAULT_CONSTANTS) -> float:
    r_max = max(c.r_in for c in cells)
    return constants.c_sec / (2.0 * r_max)


def max_hole_offset(c_sec: float) -> float:
    """Largest offset max(|dx|, |dy|) of a hole from the center of its square
    cell, in units of the inradius r, that the cell mesh admits: the secure
    ball of radius c_sec * r keeps a transition layer of 0.05 r to the cell
    sides."""
    return 0.95 - c_sec


def check_jitter(jitter, constants=DEFAULT_CONSTANTS):
    """Raise unless jitter is None, ("random", frac), or ("fixed", dx, dy)
    whose largest offset stays within max_hole_offset.  A random offset
    has length frac * (1 - c_sec) * r in any direction."""
    if jitter is None:
        return
    spec = list(jitter) if isinstance(jitter, (list, tuple)) else []
    kind = spec[0] if spec and isinstance(spec[0], str) else None
    if (len(spec) != {"random": 2, "fixed": 3}.get(kind)
            or not all(isinstance(v, numbers.Real) and math.isfinite(v)
                       for v in spec[1:])):
        raise GeometryError(f"unknown jitter spec {jitter!r}")
    bound = max_hole_offset(constants.c_sec)
    if kind == "random":
        frac_max = bound / (1.0 - constants.c_sec)
        if not 0 <= spec[1] <= frac_max + 1e-12:
            raise GeometryError(
                f"random jitter fraction must be in [0, {frac_max:.6g}] = "
                f"[0, (0.95 - c_sec) / (1 - c_sec)]")
    elif max(map(abs, spec[1:])) > bound + 1e-12:
        raise GeometryError(
            f"fixed jitter offset {jitter!r} breaks the secure distance and "
            f"transition layer: max(|dx|, |dy|) must be at most "
            f"0.95 - c_sec = {bound:.6g}")


def place_holes(cells, shape_spec, beta, constants=DEFAULT_CONSTANTS,
                jitter=None, rng=None) -> list:
    """One hole per cell at the Chebyshev center, enclosing radius beta*r^2.

    shape_spec is "circle" or ("kgon", k).  jitter is None, a fixed offset
    ("fixed", dx, dy) in units of r, or ("random", frac), see check_jitter.
    """
    k = hole_order(shape_spec)
    kind = "circle" if k is None else "kgon"

    r_max = max(c.r_in for c in cells)
    beta_max = max_admissible_beta(cells, constants)
    if beta <= 0 or beta > beta_max:
        raise GeometryError(
            f"beta={beta} violates hole smallness (2*d <= c_sec*r); "
            f"max admissible beta is {beta_max:.6g}")
    if constants.c_sec * r_max > 0.5 + 1e-15:
        raise GeometryError("c_sec * r exceeds 1/2; refine the tessellation")
    check_jitter(jitter, constants)
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
            mag = float(jitter[1]) * (1.0 - constants.c_sec) * r
            off = (mag * math.cos(ang), mag * math.sin(ang))
        center = (cx + off[0], cy + off[1])
        dist = cell.inset(center)
        if dist < constants.c_sec * r - 1e-12:
            raise GeometryError(
                f"jittered hole in cell {cell.index} breaks the secure "
                f"distance: dist={dist:.3g} < c_sec*r={constants.c_sec * r:.3g}")
        holes.append(Hole(cell_index=cell.index, kind=kind, k=k,
                          center=center, d=beta * r * r))
    return holes


def build_perforated_geometry(domain, m, beta, shape_spec="circle",
                              constants=DEFAULT_CONSTANTS, jitter=None,
                              rng=None) -> PerforatedGeometry:
    cells = build_square_tessellation(domain, m)
    holes = place_holes(cells, shape_spec, beta, constants, jitter, rng)
    return PerforatedGeometry(domain=domain, m=m, cells=cells, holes=holes,
                              beta=beta, constants=constants)


# ---------------------------------------------------------------------------
# weight field and its convergence defect

@dataclass
class WeightField:
    per_cell: np.ndarray             # hole perimeter / cell area, per cell

    @property
    def q_min(self) -> float:
        return float(np.min(self.per_cell))

    @property
    def q_max(self) -> float:
        return float(np.max(self.per_cell))


def weight_field(geometry: PerforatedGeometry) -> WeightField:
    values = np.empty(len(geometry.cells))
    for cell, hole in zip(geometry.cells, geometry.holes):
        # a 1/m grid cell (r = 1/(2m), d = beta*r^2) weighs what a hole of
        # d = beta/4 does in a unit cell: the same float at every m, unlike
        # its rounded d over its area, which can be an ulp off
        values[cell.index] = replace(hole, d=geometry.beta / 4).perimeter
    return WeightField(per_cell=values)


def kappa(geometry: PerforatedGeometry, wf: WeightField, q_limit: float,
          sigma: float = 1.0) -> float:
    """Worst L^(1+sigma) defect of the piecewise weight against the constant
    limit q_limit, over unit boxes of the integer lattice that meet the
    domain.

    The grid cell (ix, iy, m) lies in the one unit box (ix // m, iy // m)
    and covers 1/m^2 of it, so each box sums its cells in cell order.
    """
    mu = 1.0 + sigma
    q = float(q_limit)
    box_acc: dict = {}
    for cell in geometry.cells:
        ix, iy, m = cell.grid
        box = (ix // m, iy // m)
        val = abs(wf.per_cell[cell.index] - q) ** mu * (1.0 / (m * m))
        box_acc[box] = box_acc.get(box, 0.0) + val
    return max(box_acc.values(), default=0.0) ** (1.0 / mu)


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
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "measured": c.measured,
                 "bound": c.bound, "worst_cell": c.worst_cell}
                for c in self.checks
            ],
        }


def validate_assumptions(geometry: PerforatedGeometry,
                         wf: WeightField | None = None) -> AssumptionReport:
    cst = geometry.constants
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
        "cell-radius-ratio", worst <= cst.c_tilde + 1e-12, worst,
        cst.c_tilde, idx if worst > cst.c_tilde + 1e-12 else None))

    sec = []
    for cell, hole in zip(cells, holes):
        sec.append((cell.inset(hole.center) / cell.r_in, cell.index))
    worst, idx = min(sec)
    checks.append(AssumptionCheck(
        "secure-distance", worst >= cst.c_sec - 1e-12, worst, cst.c_sec,
        idx if worst < cst.c_sec - 1e-12 else None))

    scaling = [(h.d / c.r_in ** 2, c.index) for c, h in zip(cells, holes)]
    lo, lo_i = min(scaling)
    hi, hi_i = max(scaling)
    checks.append(AssumptionCheck(
        "hole-scaling-lower", lo >= cst.c_d_minus - 1e-12, lo, cst.c_d_minus,
        lo_i if lo < cst.c_d_minus - 1e-12 else None))
    checks.append(AssumptionCheck(
        "hole-scaling-upper", hi <= cst.c_d_plus + 1e-12, hi, cst.c_d_plus,
        hi_i if hi > cst.c_d_plus + 1e-12 else None))

    if wf is None:
        wf = weight_field(geometry)
    checks.append(AssumptionCheck(
        "weight-positive", wf.q_min > 0.0, wf.q_min, 0.0,
        int(np.argmin(wf.per_cell)) if wf.q_min <= 0 else None))

    return AssumptionReport(checks)


# ---------------------------------------------------------------------------
# serialization

def geometry_to_json(geometry: PerforatedGeometry, wf: WeightField | None = None,
                     indent: int | None = 2) -> str:
    wf = weight_field(geometry) if wf is None else wf
    payload = {
        "domain": {
            "kind": geometry.domain.kind,
            "vertices": [[str(x), str(y)] for x, y in geometry.domain.vertices],
        },
        "epsilon": {"m": geometry.m, "value": geometry.epsilon},
        "beta": geometry.beta,
        "constants": {
            "c_tilde": geometry.constants.c_tilde,
            "c_sec": geometry.constants.c_sec,
            "c_d_minus": geometry.constants.c_d_minus,
            "c_d_plus": geometry.constants.c_d_plus,
        },
        "holes": [
            {"cell": h.cell_index, "shape": h.kind, "k": h.k,
             "center": list(h.center), "d": h.d}
            for h in geometry.holes
        ],
        "weights": {"per_cell": [float(v) for v in wf.per_cell]},
    }
    return json.dumps(payload, indent=indent)


def geometry_from_json(text: str) -> PerforatedGeometry:
    """Inverse of geometry_to_json; GeometryError on a malformed payload."""
    try:
        data = json.loads(text)
        domain = make_domain(
            [(Fraction(x), Fraction(y)) for x, y in data["domain"]["vertices"]],
            data["domain"]["kind"])
        cst = AssumptionConstants(**data["constants"])
        m = data["epsilon"]["m"]
        if type(m) is not int or m < 1:
            raise GeometryError(f"epsilon m must be an integer >= 1, got {m!r}")
        holes = [
            Hole(cell_index=h["cell"], kind=h["shape"], k=hole_order(
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
    return PerforatedGeometry(domain=domain, m=m,
                              cells=build_square_tessellation(domain, m),
                              holes=holes, beta=beta, constants=cst)


def _real(value, name: str):
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        raise GeometryError(f"{name} must be a finite number, got {value!r}")
    return value


def hole_order(shape_spec):
    """The k of a ("kgon", k) hole spec (an integer >= 3), None for
    "circle"; GeometryError on any other spec."""
    if shape_spec == "circle":
        return None
    if not (isinstance(shape_spec, (list, tuple)) and len(shape_spec) == 2
            and shape_spec[0] == "kgon" and type(shape_spec[1]) is int
            and shape_spec[1] >= 3):
        raise GeometryError(f"hole shape must be circle or kgon with an "
                            f"integer k >= 3, got {shape_spec!r}")
    return shape_spec[1]

