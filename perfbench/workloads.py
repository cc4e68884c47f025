"""The benchmark's workloads: inputs, entry calls, op accounting, output
values and the structural span checks of a traced repetition.

Each workload has a small number of input variants; ``--seed`` picks one
(``seed % VARIANTS``), so the same seed gives the same inputs and every
variant has reference values in ``reference.json``.  Why each workload
exists is recorded in GLOSSARY.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from layers import PENCILS, ancestors

VARIANTS = 4

# Tolerance of the reference comparison: admits rounding-level drift from a
# changed arithmetic path (ordering, condensation, reuse) and rejects a
# changed eigenvalue, which moves these values by 1e-5 or more.
RTOL = 1e-6
ATOL = 1e-12

_TEMPLATE = {"ring_count": 6, "grading": 2.0, "boundary_nodes_per_side": 4,
             "hole_boundary_segments": 16}

# m = 1, 2, 4, 9 spans 4.4x in delta, the fewest cells that let fit_rate
# run; beta = 0.5 makes m = 1 admissible.
_STUDY_BASE = {"beta": 0.5, "m_values": [1, 2, 4, 9], "h_hom": 1.0 / 32.0,
               "template": _TEMPLATE}

# Jittered holes (not translates, so periodic-cell reuse is bypassed) and
# three sources, for the one-point study of cell-suite.
_JITTER_GAPS = {"jitter": ["random", 0.3],
                "sources": [{"kind": "sine", "px": 1, "py": 1},
                            {"kind": "sine", "px": 2, "py": 1},
                            {"kind": "bump", "x0": 0.3, "y0": 0.6,
                             "w": 0.2}]}

# oracle_selftest reports four checks; counted as failed when it raises
_ORACLE_CHECKS = 4

CELL_SHAPES = {"disk": "disk", "kgon3": ("kgon", 3), "kgon6": ("kgon", 6)}
CELL_H = 0.06
LEMMAS = ["3.1", "3.2", "3.3", "3.4", "3.5", "3.6"]
POLYGONS = 20
SLIT_BETAS = [math.pi / 2 ** j for j in range(3, 8)]
_CONSTANTS = ["c_tr", "neumann_gap_collar", "c_p", "dirichlet_ground",
              "robin_ground_1"]


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _count(spans, name, parent_module=None, under=None):
    return sum(1 for s in spans if s.name == name
               and (parent_module is None
                    or (s.parent is not None
                        and s.parent.module == parent_module))
               and (under is None
                    or any(a.name == under for a in ancestors(s))))


def _expect(errors, label, got, want, exact=True):
    if (got != want) if exact else (got < want):
        errors.append(f"span check {label}: {got} "
                      f"{'!=' if exact else '<'} {want}")


class StudyWorkload:
    """``study.run_study`` plus ``study.write_report``, as ``steklov-lab
    study`` runs them."""

    def __init__(self, config):
        self.config = config

    def prepare(self, seed):
        from steklov_lab import study
        return study.config_from_dict(dict(self.config,
                                           seed=variant_of(seed)))

    def run(self, cfg, out_dir):
        from steklov_lab import study
        report = study.run_study(cfg)
        study.write_report(report, out_dir)

    def _fits(self):
        # run_study fits rates only with at least four sweep points
        if len(self.config["m_values"]) < 4:
            return 0
        return 1 + len(self.config.get("sources", [None]))

    def outcome(self, cfg, out_dir, produced, error):
        points = len(self.config["m_values"])
        if error is not None:
            planned = _ORACLE_CHECKS + points + self._fits()
            return {"attempted": planned, "failed": planned, "values": {},
                    "hashes": {}, "messages": [error]}
        paths = {n: os.path.join(out_dir, n)
                 for n in ("report.json", "sweep.csv")}
        with open(paths["report.json"], "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        values = {}
        failed = 0
        for check in rep["oracle_checks"]:
            failed += not check["passed"]
        for p in rep["points"]:
            tag = f"m{p['m']}"
            values[f"{tag}.steklov_mu"] = p["steklov_mu"]
            values[f"{tag}.homog_mu"] = p["homog_mu"]
            values[f"{tag}.hausdorff"] = [p["hausdorff"]]
            values[f"{tag}.delta"] = [p["delta"]]
            values[f"{tag}.gap_normalized"] = [g["normalized"]
                                               for g in p["gaps"]]
            failed += not p["gate_ok"]
        fits = ([rep["rate"]] if rep["rate"] else []) + rep["gap_rates"]
        values["rate.slopes"] = [r["slope"] for r in fits]
        failed += self._fits() - sum(1 for r in fits if r["consistent"])
        return {"attempted": len(rep["oracle_checks"]) + points + self._fits(),
                "failed": failed, "values": values,
                "hashes": {n: _sha256(p) for n, p in paths.items()},
                "messages": rep["notes"]}

    def span_checks(self, spans):
        points = len(self.config["m_values"])
        sources = len(self.config.get("sources", [None]))
        errors = []
        _expect(errors, "study.run_study calls",
                _count(spans, "study.run_study"), 1)
        _expect(errors, "study.write_report calls",
                _count(spans, "study.write_report"), 1)
        _expect(errors, "spectrum_pair calls == points",
                _count(spans, "spectra.spectrum_pair"), points)
        _expect(errors, "resolvent_gap calls == points x sources",
                _count(spans, "spectra.resolvent_gap"), points * sources)
        _expect(errors, "pencil solves called from spectra",
                sum(_count(spans, n, parent_module="spectra")
                    for n in PENCILS), 2 * points, exact=False)
        _expect(errors, "pencil solves called from study",
                _count(spans, "eigen.largest_pencil_eigs",
                       parent_module="study"), 1, exact=False)
        return errors


class CellSuiteWorkload:
    """The ``cellmetrics`` calls behind ``steklov-lab cell``: constants of
    three hole shapes, the six cell lemmas, Payne-Weinberger on random
    polygons and the shrinking-slit collar; plus a one-point study with
    jittered holes and three sources, so that every traced layer is
    exercised here too, with periodic-cell reuse bypassed."""

    point = StudyWorkload({**_STUDY_BASE, **_JITTER_GAPS, "m_values": [2]})

    def prepare(self, seed):
        return variant_of(seed), self.point.prepare(seed)

    def run(self, state, out_dir):
        from steklov_lab import cellmetrics as cm
        variant, cfg = state
        done = {}

        def attempt(key, fn):
            try:
                done[key] = fn()
            except Exception as exc:          # recorded as failed ops
                done[key] = f"{type(exc).__name__}: {exc}"

        for label, shape in CELL_SHAPES.items():
            attempt(f"const.{label}",
                    lambda: cm.cell_constants(shape, h=CELL_H))
        for lemma in LEMMAS:
            attempt(f"lemma.{lemma}",
                    lambda: cm.verify_lemma(lemma, seed=variant))
        attempt("pw", lambda: cm.payne_weinberger_check(
            count=POLYGONS, h=0.05, seed=7 + variant))
        attempt("slit", lambda: cm.slit_collar_gaps(SLIT_BETAS, 0.08))
        attempt("point", lambda: self.point.run(cfg, out_dir))
        return done

    def outcome(self, state, out_dir, produced, error):
        done = produced or {}
        point_error = done.get("point", error or "not run")
        point = self.point.outcome(state[1], out_dir, None, point_error)
        values = {f"point.{k}": v for k, v in point["values"].items()}
        attempted, failed = point["attempted"], point["failed"]
        messages = point["messages"] + [
            v for k, v in done.items() if isinstance(v, str) and k != "point"]
        for label in CELL_SHAPES:
            res = done.get(f"const.{label}")
            for name in _CONSTANTS:
                attempted += 1
                if res is None or isinstance(res, str):
                    failed += 1
                    continue
                ex = getattr(res, name)
                trio = [ex.value, ex.coarse, ex.fine]
                values[f"{label}.{name}"] = trio
                failed += not all(math.isfinite(v) for v in trio)
        for lemma in LEMMAS:
            attempted += 1
            rep = done.get(f"lemma.{lemma}")
            if rep is None or isinstance(rep, str):
                failed += 1
                continue
            values[f"lemma{lemma}.ratios"] = [r["ratio"] for r in rep.rows]
            if rep.slope is not None:
                values[f"lemma{lemma}.slope"] = [float(rep.slope)]
            failed += not rep.passed
        rows = done.get("pw")
        attempted += POLYGONS
        if rows is None or isinstance(rows, str):
            failed += POLYGONS
        else:
            values["pw.gaps"] = [r["gap"] for r in rows]
            values["pw.bounds"] = [r["bound"] for r in rows]
            failed += sum(not r["ok"] for r in rows)
        gaps = done.get("slit")
        attempted += len(SLIT_BETAS)
        if gaps is None or isinstance(gaps, str):
            failed += len(SLIT_BETAS)
        else:
            values["slit.gaps"] = [float(g) for g in gaps]
            failed += sum(not g > 0 for g in gaps)
        return {"attempted": attempted, "failed": failed, "values": values,
                "hashes": point["hashes"], "messages": messages}

    def span_checks(self, spans):
        errors = self.point.span_checks(spans)
        _expect(errors, "cell_constants calls == shapes + study summary",
                _count(spans, "cellmetrics.cell_constants"),
                len(CELL_SHAPES) + 1)
        _expect(errors, "verify_lemma calls == lemmas",
                _count(spans, "cellmetrics.verify_lemma"), len(LEMMAS))
        _expect(errors, "pencil solves under payne_weinberger_check",
                sum(_count(spans, n, parent_module="cellmetrics",
                           under="cellmetrics.payne_weinberger_check")
                    for n in PENCILS), POLYGONS, exact=False)
        _expect(errors, "largest_pencil_eigs called from cellmetrics",
                _count(spans, "eigen.largest_pencil_eigs",
                       parent_module="cellmetrics"), 1, exact=False)
        _expect(errors, "factor_spd called from cellmetrics",
                _count(spans, "eigen.factor_spd",
                       parent_module="cellmetrics"), 1, exact=False)
        for name in ("meshgen.refine", "meshgen.mesh_unperforated"):
            _expect(errors, f"{name} called from cellmetrics",
                    _count(spans, name, parent_module="cellmetrics"), 1,
                    exact=False)
        _expect(errors, "meshgen.refine called from shapes",
                _count(spans, "meshgen.refine", parent_module="shapes"), 1,
                exact=False)
        return errors


WORKLOADS = {"study-periodic": StudyWorkload(_STUDY_BASE),
             "cell-suite": CellSuiteWorkload()}


def compare(values: dict, reference: dict) -> list:
    """Mismatches between one repetition's values and the reference."""
    errors = []
    for key in sorted(set(values) | set(reference)):
        got, want = values.get(key), reference.get(key)
        if got is None or want is None:
            status = "missing" if got is None else "unexpected"
            errors.append(f"{key}: {status}")
        elif len(got) != len(want):
            errors.append(f"{key}: {len(got)} values, reference {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                if not abs(g - w) <= ATOL + RTOL * abs(w):
                    errors.append(f"{key}[{i}]: {g!r} vs reference {w!r}")
    return errors
