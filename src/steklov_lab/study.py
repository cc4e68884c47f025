"""Configuration-driven convergence studies with gated reporting.

A study sweeps the cell count m, solves both spectral problems per point
with two-mesh error control, samples resolvent gaps for configured sources,
and fits the observed decay against the theoretical scale.  Rate fitting is
refused unless the oracle self-test and the per-point discretization gates
pass.  All outputs are deterministic byte-for-byte for a fixed config and
seed: fixed solver start vectors, fixed reduction orders, repr-formatted
floats, no timestamps.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from operator import attrgetter

import numpy as np

from . import __version__
from . import cellmetrics, fem, geometry, meshgen, oracles, spectra
from .eigen import dense_reference_eigs, largest_pencil_eigs


class StudyError(ValueError):
    pass


DOMAINS = {
    "unit-square": geometry.unit_square,
    "l-shape": geometry.l_shape,
}


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# (fields, test, rule) of the scalar config fields
_FIELD_RULES = (
    (("beta", "template.grading"), _number, "a finite number"),
    (("sigma", "tol", "h_hom"), lambda v: _number(v) and v > 0,
     "a positive finite number"),
    (("k", "parallelism", "template.ring_count",
      "template.boundary_nodes_per_side", "template.hole_boundary_segments"),
     lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    (("seed",), lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    (("run_gaps",), lambda v: isinstance(v, bool), "true or false"),
    (("domain", "output_dir"), lambda v: isinstance(v, str), "a string"),
)


@dataclass(frozen=True)
class StudyConfig:
    domain: str = "unit-square"
    m_values: tuple = (4, 6, 8, 12, 16, 24)
    beta: float = 1.0
    hole_shape: object = "circle"            # "circle" or ("kgon", k)
    jitter: object = None
    sigma: float = 1.0
    template: meshgen.CellMeshTemplate = field(
        default_factory=meshgen.CellMeshTemplate)
    k: int = 3
    sources: tuple = ({"kind": "sine", "px": 1, "py": 1},)
    tol: float = 1e-10
    h_hom: float = 1.0 / 128.0
    output_dir: str = "study_out"
    parallelism: int = 1
    seed: int = 0
    run_gaps: bool = True

    def validate(self):
        for names, ok, rule in _FIELD_RULES:
            for name in names:
                value = attrgetter(name)(self)
                if not ok(value):
                    raise StudyError(f"{name} must be {rule}, got {value!r}")
        ms = list(self.m_values)
        for m in ms:
            if not _integer(m) or m < 1:
                raise StudyError(
                    f"m_values must be positive integers, got {m!r}")
        if len(ms) < 1 or any(b <= a for a, b in zip(ms, ms[1:])):
            raise StudyError("m_values must be strictly increasing")
        if self.domain not in DOMAINS:
            raise StudyError(f"unknown domain {self.domain!r}")
        cst = geometry.DEFAULT_CONSTANTS
        try:
            self.template.validate(geometry.hole_order(self.hole_shape))
            geometry.check_jitter(self.jitter, cst)
            for m in ms:    # holes have d = beta r^2
                cells = geometry.build_square_tessellation(
                    self.domain_object(), m)
                r = cells[0].r_in
                beta_max = geometry.max_admissible_beta(cells, cst)
                if not 0 < self.beta <= beta_max:
                    raise StudyError(
                        f"beta={self.beta} inadmissible for m_min={m}: "
                        f"hole smallness requires beta <= {beta_max:.6g}")
                self.template.rings_needed(self.beta * r * r, cst.c_sec * r)
        except (geometry.GeometryError, meshgen.MeshError) as exc:
            raise StudyError(str(exc)) from exc
        for desc in self.sources:
            try:
                spectra.source_function(desc)
            except ValueError as exc:
                raise StudyError(f"bad source: {exc}") from exc
        self.workers()

    def workers(self) -> int:
        """STEKLOV_LAB_THREADS when set, else parallelism."""
        raw = os.environ.get("STEKLOV_LAB_THREADS")
        if raw is None:
            return self.parallelism
        if not (raw.isdecimal() and int(raw) >= 1):
            raise StudyError(
                f"STEKLOV_LAB_THREADS={raw!r} is not an integer >= 1")
        return int(raw)

    def domain_object(self):
        return DOMAINS[self.domain]()


def config_from_dict(data: dict) -> StudyConfig:
    try:
        data = dict(data)
        if "template" in data:
            data["template"] = meshgen.CellMeshTemplate(**data["template"])
        if "m_values" in data:
            data["m_values"] = tuple(data["m_values"])
        if "sources" in data:
            data["sources"] = tuple(dict(s) for s in data["sources"])
        if "hole_shape" in data and isinstance(data["hole_shape"], list):
            data["hole_shape"] = tuple(data["hole_shape"])
        if "jitter" in data and isinstance(data["jitter"], list):
            data["jitter"] = tuple(data["jitter"])
        cfg = StudyConfig(**data)
    except (TypeError, ValueError) as exc:
        raise StudyError(f"bad config field: {exc}") from exc
    cfg.validate()
    return cfg


def load_config(path: str) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# oracle gate

def oracle_selftest(seed: int = 0) -> list:
    """Independent-reference gate: special-function roots, quadrature vs
    assembled matrices, and dense vs iterative eigensolvers."""
    checks = []

    root = oracles.j0_zero(1)
    checks.append(("bessel-j0-zero",
                   abs(root - 2.404825557695773) < 1e-9,
                   f"first zero {root!r}"))
    drift = abs(oracles.j0_zero(1, tol=1e-8) - oracles.j0_zero(1, tol=1e-10))
    checks.append(("bessel-root-stability", drift < 1e-8,
                   f"tolerance tightening moved the root by {drift:.2e}"))
    rob = oracles.robin_disk_ground(1.0)
    checks.append(("bessel-robin-bracket", 0.0 < rob < root ** 2,
                   f"ground state {rob!r} below the Dirichlet value"))

    dom = geometry.unit_square()
    geo = geometry.build_perforated_geometry(dom, 2, 1.0)
    tpl = meshgen.CellMeshTemplate()
    mesh = meshgen.mesh_perforated(geo, tpl)
    rng = np.random.default_rng(seed + 99)
    v = rng.standard_normal(mesh.num_nodes)
    M = fem.assemble_mass(mesh)
    K = fem.assemble_stiffness(mesh)
    Ball = fem.assemble_boundary_mass(mesh, "all")
    dl2 = abs(math.sqrt(v @ (M @ v)) - oracles.quadrature_norm(mesh, v, "l2"))
    dh1 = abs(math.sqrt(v @ (K @ v))
              - oracles.quadrature_norm(mesh, v, "h1-semi"))
    dbd = abs(math.sqrt(v @ (Ball @ v))
              - oracles.quadrature_norm(mesh, v, "boundary-l2"))
    scale = math.sqrt(v @ (K @ v))
    ok = max(dl2, dh1, dbd) < 1e-12 * max(1.0, scale)
    checks.append(("quadrature-vs-matrices", ok,
                   f"l2 {dl2:.2e}, h1 {dh1:.2e}, boundary {dbd:.2e}"))

    worst = 0.0
    for trial in range(10):
        trng = np.random.default_rng(seed + 1000 + trial)
        n = 50
        R = trng.standard_normal((n, n))
        A = R @ R.T + n * np.eye(n)
        S = trng.standard_normal((n, 5))
        B = S @ S.T
        import scipy.sparse as sp
        it = largest_pencil_eigs(sp.csr_matrix(A), sp.csr_matrix(B), 5)
        dn = dense_reference_eigs(A, B)
        worst = max(worst, float(np.abs(it.values - dn.values[:5]).max()))
    checks.append(("dense-vs-lanczos", worst < 1e-9,
                   f"worst top-5 disagreement {worst:.2e} over 10 pencils"))
    return checks


# ---------------------------------------------------------------------------
# sweep execution

def _geometry(cfg: StudyConfig, m: int):
    return geometry.build_perforated_geometry(
        cfg.domain_object(), m, cfg.beta, shape_spec=cfg.hole_shape,
        jitter=cfg.jitter,
        rng=np.random.default_rng(cfg.seed + m) if cfg.jitter else None)


def _run_point(cfg: StudyConfig, m: int, homog: spectra.HomogenizedPair):
    geo = _geometry(cfg, m)
    wf = geometry.weight_field(geo)
    q_limit = homog.q
    if wf.per_cell[0] != q_limit:
        raise StudyError(
            f"m={m}: cell weight {float(wf.per_cell[0])!r} differs from the "
            f"q_limit {q_limit!r} the homogenized side was solved for")
    kappa = geometry.kappa(geo, wf, q_limit, cfg.sigma)
    pm = meshgen.mesh_perforated(geo, cfg.template)
    coarse, gaps = _coarse_side(cfg, geo, pm, q_limit)
    fine = spectra.steklov_spectrum(spectra.condense(meshgen.refine(pm)),
                                    cfg.k + spectra.EXTRA, cfg.tol)
    pair = spectra.spectrum_pair(geo, coarse, fine, cfg.k, homog, kappa)
    validation = geometry.validate_assumptions(geo, wf).as_dict()
    return pair, gaps, validation


def _coarse_side(cfg: StudyConfig, geo, pm, q_limit: float):
    """The coarse Steklov solve and every resolvent gap, on one condensed
    bundle of pm; it and the gap reference are freed on return, before the
    refined mesh is condensed."""
    perf = spectra.condense(pm)
    coarse = spectra.steklov_spectrum(perf, cfg.k + spectra.EXTRA, cfg.tol)
    if not cfg.run_gaps:
        return coarse, []
    ref = spectra.gap_reference(geo, cfg.template, q_limit)
    return coarse, [spectra.resolvent_gap(desc, ref, perf)
                    for desc in cfg.sources]


@dataclass
class StudyReport:
    config: StudyConfig
    oracle_checks: list
    pairs: list
    gap_samples: list                # list per point, parallel to pairs
    validations: list
    q_limit: float
    rate: object = None
    gap_rates: list = field(default_factory=list)
    cell_summary: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def oracle_ok(self) -> bool:
        return all(ok for _, ok, _ in self.oracle_checks)

    @property
    def gates_ok(self) -> bool:
        return self.oracle_ok and all(p.gate_ok for p in self.pairs)

    @property
    def passed(self) -> bool:
        ok = self.gates_ok
        if self.rate is not None:
            ok = ok and self.rate.consistent
        for r in self.gap_rates:
            ok = ok and r.consistent
        return ok


def run_study(cfg: StudyConfig, with_cell_summary: bool = True) -> StudyReport:
    cfg.validate()
    workers = cfg.workers()
    checks = oracle_selftest(cfg.seed)

    # the limit problem does not depend on m: solve it once, for the weight
    # of the first point, which every point checks against its own
    q_limit = float(geometry.weight_field(
        _geometry(cfg, cfg.m_values[0])).per_cell[0])
    homog = spectra.homogenized_pair(cfg.domain_object(), q_limit, cfg.h_hom,
                                     cfg.k, cfg.tol)
    points = len(cfg.m_values)
    if workers > 1 and points > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, [cfg] * points,
                                    cfg.m_values, [homog] * points))
    else:
        results = [_run_point(cfg, m, homog) for m in cfg.m_values]

    pairs = [r[0] for r in results]
    gap_samples = [r[1] for r in results]
    validations = [r[2] for r in results]

    report = StudyReport(config=cfg, oracle_checks=checks, pairs=pairs,
                         gap_samples=gap_samples, validations=validations,
                         q_limit=q_limit)

    if with_cell_summary:
        consts = cellmetrics.cell_constants(
            "disk" if cfg.hole_shape == "circle" else cfg.hole_shape, h=0.12)
        report.cell_summary = consts.as_dict()

    usable = [p for p in pairs if p.gate_ok]
    deltas = [p.delta for p in usable]
    if not report.oracle_ok:
        report.notes.append("oracle self-test failed; rate fit refused")
        return report
    try:
        report.rate = spectra.fit_rate(deltas, [p.hausdorff for p in usable])
    except spectra.SpectraError as exc:
        report.notes.append(str(exc))
        return report
    if len(usable) < len(pairs):
        skipped = [p.m for p in pairs if not p.gate_ok]
        report.notes.append(
            f"points excluded by the discretization gate: m={skipped}")
    if cfg.run_gaps:
        for si in range(len(cfg.sources)):
            vals = [gap_samples[i][si].normalized
                    for i, p in enumerate(pairs) if p.gate_ok]
            report.gap_rates.append(spectra.fit_rate(deltas, vals))
    return report


# ---------------------------------------------------------------------------
# persistence: CSV, JSON, SVG (deterministic)

def _fmt(x) -> str:
    return repr(float(x))


def report_csv(report: StudyReport) -> str:
    k = report.config.k
    j = len(report.config.sources) if report.config.run_gaps else 0
    head = (["epsilon", "r_eps", "d", "kappa", "delta"]
            + [f"steklov_mu_{i+1}" for i in range(k)]
            + [f"homog_mu_{i+1}" for i in range(k)]
            + [f"disc_err_{i+1}" for i in range(k)]
            + ["hausdorff"] + [f"gap_f{i+1}" for i in range(j)])
    lines = [",".join(head)]
    for idx, p in enumerate(report.pairs):
        row = ([_fmt(p.epsilon), _fmt(p.r_eps), _fmt(p.d), _fmt(p.kappa),
                _fmt(p.delta)]
               + [_fmt(v) for v in p.steklov_mu[:k]]
               + [_fmt(v) for v in p.homog_mu[:k]]
               + [_fmt(e1 + e2) for e1, e2 in
                  zip(p.steklov_err[:k], p.homog_err[:k])]
               + [_fmt(p.hausdorff)]
               + [_fmt(g.normalized) for g in report.gap_samples[idx]])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def report_json(report: StudyReport) -> str:
    def rate_dict(r):
        if r is None:
            return None
        return {"slope": r.slope, "intercept": r.intercept,
                "residual": r.residual, "consistent": r.consistent,
                "note": r.note,
                "deltas": [float(v) for v in r.deltas],
                "distances": [float(v) for v in r.distances]}

    cfg = asdict(report.config)
    cfg["template"] = asdict(report.config.template)
    payload = {
        "environment": {"package": "steklov-lab", "version": __version__,
                        "seed": report.config.seed},
        "config": cfg,
        "q_limit": report.q_limit,
        "oracle_checks": [
            {"name": n, "passed": ok, "detail": d}
            for n, ok, d in report.oracle_checks],
        "points": [
            {"m": p.m, "epsilon": p.epsilon, "r_eps": p.r_eps, "d": p.d,
             "kappa": p.kappa, "delta": p.delta,
             "steklov_mu": [float(v) for v in p.steklov_mu],
             "homog_mu": [float(v) for v in p.homog_mu],
             "steklov_err": [float(v) for v in p.steklov_err],
             "homog_err": [float(v) for v in p.homog_err],
             "hausdorff": p.hausdorff, "floor_mu": p.floor_mu,
             "gate_ok": p.gate_ok, "gate_detail": p.gate_detail,
             "gaps": [{"descriptor": s.descriptor, "gap": s.gap,
                       "f_norm": s.f_norm, "normalized": s.normalized}
                      for s in report.gap_samples[i]]}
            for i, p in enumerate(report.pairs)],
        "validations": report.validations,
        "cell_summary": report.cell_summary,
        "rate": rate_dict(report.rate),
        "gap_rates": [rate_dict(r) for r in report.gap_rates],
        "notes": report.notes,
        "passed": report.passed,
    }
    return json.dumps(payload, indent=2)


def svg_loglog(xs, ys, slope=None, intercept=None, title="") -> str:
    """Minimal log-log scatter with a fitted line and slope annotation."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    W, H, pad = 640, 480, 60
    lx, ly = np.log10(xs), np.log10(ys)
    x0, x1 = math.floor(lx.min()), math.ceil(lx.max())
    y0, y1 = math.floor(ly.min()), math.ceil(ly.max())
    x1 = max(x1, x0 + 1)
    y1 = max(y1, y0 + 1)

    def px(v):
        return pad + (v - x0) / (x1 - x0) * (W - 2 * pad)

    def py(v):
        return H - pad - (v - y0) / (y1 - y0) * (H - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
             f'height="{H}" viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W/2}" y="24" text-anchor="middle" '
             f'font-family="monospace" font-size="14">{title}</text>']
    for d in range(x0, x1 + 1):
        parts.append(f'<line x1="{px(d)}" y1="{py(y0)}" x2="{px(d)}" '
                     f'y2="{py(y1)}" stroke="#ddd"/>')
        parts.append(f'<text x="{px(d)}" y="{H - pad + 18}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">1e{d}</text>')
    for d in range(y0, y1 + 1):
        parts.append(f'<line x1="{px(x0)}" y1="{py(d)}" x2="{px(x1)}" '
                     f'y2="{py(d)}" stroke="#ddd"/>')
        parts.append(f'<text x="{pad - 6}" y="{py(d) + 4}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="11">1e{d}</text>')
    parts.append(f'<rect x="{pad}" y="{pad}" width="{W - 2*pad}" '
                 f'height="{H - 2*pad}" fill="none" stroke="black"/>')
    if slope is not None and intercept is not None:
        fy0 = (slope * (x0 * math.log(10)) + intercept) / math.log(10)
        fy1 = (slope * (x1 * math.log(10)) + intercept) / math.log(10)
        parts.append(f'<line x1="{px(x0)}" y1="{py(fy0)}" x2="{px(x1)}" '
                     f'y2="{py(fy1)}" stroke="#c33" stroke-width="1.5"/>')
        parts.append(f'<text x="{W - pad - 8}" y="{pad + 20}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="13" fill="#c33">slope {slope:.3f}</text>')
    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#226" '
                 f'stroke-width="1"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3.5" '
                     f'fill="#226"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(report: StudyReport, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    paths["csv"] = os.path.join(out_dir, "sweep.csv")
    with open(paths["csv"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_csv(report))
    paths["json"] = os.path.join(out_dir, "report.json")
    with open(paths["json"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_json(report))
    if report.rate is not None:
        paths["svg"] = os.path.join(out_dir, "hausdorff_vs_delta.svg")
        with open(paths["svg"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg_loglog(report.rate.deltas, report.rate.distances,
                                report.rate.slope, report.rate.intercept,
                                "spectral distance vs theoretical scale"))
    return paths
