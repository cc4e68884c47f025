"""Per-layer metrics of one traced repetition.

Probes read counts off the arguments and results at the span boundaries;
``layer_metrics`` folds the spans of one repetition into the metric names
that BENCHMARK.json lists under ``per_layer`` (the static ``*.src_lines``,
``trace.overhead_frac`` and ``failed_ops_frac`` are added by run.py).
"""

from __future__ import annotations

from collections import defaultdict

PENCILS = ("eigen.largest_pencil_eigs", "eigen.smallest_pencil_eigs")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _factor_probe(args, kwargs, result):
    return {"n": result.n, "nnz": _arg(args, kwargs, 0, "A").nnz,
            "fill": result.fill_ratio}


def _pencil_probe(args, kwargs, result):
    conv = result.converged
    return {"n": args[0].shape[0], "k": _arg(args, kwargs, 2, "k"),
            "iterations": result.iterations,
            "converged": 0 if conv is None else int(conv.sum())}


def _interpolate_probe(args, kwargs, result):
    return {"points": len(result)}


def _gate_probe(args, kwargs, result):
    return {"gate_ok": bool(result.gate_ok)}


PROBES = {
    "eigen.factor_spd": _factor_probe,
    "eigen.largest_pencil_eigs": _pencil_probe,
    "eigen.smallest_pencil_eigs": _pencil_probe,
    "fem.interpolate": _interpolate_probe,
    "spectra.spectrum_pair": _gate_probe,
}


def ancestors(span):
    span = span.parent
    while span is not None:
        yield span
        span = span.parent


def _is_assembly(name: str) -> bool:
    return name.startswith("fem.assemble_") or name == "fem.edge_mass"


def layer_metrics(spans, wall_s: float) -> dict:
    by_name = defaultdict(list)
    by_module = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        by_module[s.module].append(s)

    def named(*names):
        return [s for n in names for s in by_name[n]]

    def self_s(group):
        return sum(s.self_s for s in group)

    def inclusive(name):
        return sum(s.duration for s in by_name[name]
                   if all(a.name != name for a in ancestors(s)))

    def info_sum(group, key):
        return sum(s.info[key] for s in group if s.info)

    def info_max(group, key):
        return max((s.info[key] for s in group if s.info), default=0)

    factors = by_name["eigen.factor_spd"]
    pencils = named(*PENCILS)
    assembly = [s for s in by_module["fem"] if _is_assembly(s.name)]
    pairs = by_name["spectra.spectrum_pair"]
    requested = info_sum(pencils, "k")
    outside = ("study", "cli")
    layers_s = sum(s.duration for s in spans if s.module not in outside
                   and all(a.module in outside for a in ancestors(s)))
    return {
        "meshgen.mesh_unperforated.self_s":
            self_s(by_name["meshgen.mesh_unperforated"]),
        "meshgen.mesh_unperforated.calls":
            len(by_name["meshgen.mesh_unperforated"]),
        "meshgen.mesh_perforated.self_s":
            self_s(by_name["meshgen.mesh_perforated"]),
        "meshgen.refine.self_s": self_s(by_name["meshgen.refine"]),
        "eigen.factor_spd.calls": len(factors),
        "eigen.factor_spd.self_s": self_s(factors),
        "eigen.factor_spd.max_n": info_max(factors, "n"),
        "eigen.factor_spd.max_nnz": info_max(factors, "nnz"),
        "eigen.factor_spd.fill_mean":
            info_sum(factors, "fill") / len(factors) if factors else 0.0,
        "eigen.lanczos.self_s": self_s(pencils),
        "eigen.lanczos.calls": len(pencils),
        "eigen.lanczos.iterations": info_sum(pencils, "iterations"),
        "eigen.lanczos.max_n": info_max(pencils, "n"),
        "eigen.smallest_pencil_eigs.calls":
            len(by_name["eigen.smallest_pencil_eigs"]),
        "eigen.converged_frac":
            info_sum(pencils, "converged") / requested if requested else 1.0,
        "fem.assemble.self_s": self_s(assembly),
        "fem.assemble.calls": len(assembly),
        "fem.interpolate.self_s": self_s(by_name["fem.interpolate"]),
        "fem.interpolate.points":
            info_sum(by_name["fem.interpolate"], "points"),
        "spectra.spectrum_pair.s": inclusive("spectra.spectrum_pair"),
        "spectra.resolvent_gap.s": inclusive("spectra.resolvent_gap"),
        "spectra.gate_ok_frac":
            info_sum(pairs, "gate_ok") / len(pairs) if pairs else 1.0,
        "shapes.self_s": self_s(by_module["shapes"]),
        "shapes.calls": len(by_module["shapes"]),
        "cellmetrics.self_s": self_s(by_module["cellmetrics"]),
        "cellmetrics.calls": len(by_module["cellmetrics"]),
        "geometry.self_s": self_s(by_module["geometry"]),
        "study.oracle_selftest.s": inclusive("study.oracle_selftest"),
        "study.report.s": inclusive("study.write_report"),
        "study.untraced_s": wall_s - layers_s,
    }
