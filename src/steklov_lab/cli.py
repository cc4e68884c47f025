"""Command-line interface: one-shot solves (`solve steklov`, `solve homog`,
each taking only the flags it reads), mesh export, cell constants and
configuration-driven studies.

Exit codes: 0 on success, 1 when a gate, a validation or a file operation
fails, 2 on usage errors (argparse's convention) and malformed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import cellmetrics, eigen, fem, geometry, meshgen, spectra, study


# CLI flag -> CellMeshTemplate field; defaults and types come from the class
_TEMPLATE_FLAGS = {"rings": "ring_count", "grading": "grading",
                   "sides": "boundary_nodes_per_side",
                   "segments": "hole_boundary_segments"}


def _number_type(kind, ok, rule: str):
    """argparse type accepting a `kind` value that passes `ok`."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_positive_float = _number_type(float, lambda v: 0 < v < math.inf,
                               "a finite number > 0")
_positive_int = _number_type(int, lambda v: v > 0, "an integer > 0")
_non_negative_int = _number_type(int, lambda v: v >= 0, "an integer >= 0")


def _shape_type(name: str):
    """argparse type accepting `name` or kgon:K, K as hole_order reads it."""
    def parse(spec: str):
        kind, _, k = spec.partition(":")
        try:
            return spec if spec == name else ("kgon", geometry.hole_order(
                (kind, int(k) if k.isdigit() else None)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown shape {spec!r}; accepted: {name}, kgon:K "
                "(integer K >= 3)") from None
    return parse


_cell_shape = _shape_type("disk")        # cellmetrics' reference shapes
_hole_shape = _shape_type("circle")      # geometry's hole shapes


def _add_geometry_args(p):    # the flags of `mesh` and `solve steklov`
    p.add_argument("--domain", default="unit-square",
                   choices=sorted(study.DOMAINS))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--shape", type=_hole_shape, default="circle",
                   help="circle | kgon:K")
    for flag, field in _TEMPLATE_FLAGS.items():
        default = getattr(meshgen.CellMeshTemplate, field)
        p.add_argument(f"--{flag}", type=type(default), default=default)


def _check_writable(path: str, is_dir: bool) -> None:
    """Raise OSError, creating nothing, unless `path` can be written as a
    directory (is_dir; missing parents are made) or as a file in an
    existing directory, so that a bad path fails before any work."""
    target = os.path.abspath(path)
    if not is_dir and os.path.isdir(target):
        raise IsADirectoryError(f"{path} is a directory")
    base = target if is_dir else os.path.dirname(target)
    while is_dir and not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK)):
        raise OSError(f"cannot write {path}: {base} is not a writable "
                      "directory")


def cmd_validate(args) -> int:
    try:
        with open(args.geometry, "r", encoding="utf-8") as fh:
            geom = geometry.geometry_from_json(fh.read())
    except FileNotFoundError:
        print(f"geometry file not found: {args.geometry}", file=sys.stderr)
        return 2
    except (geometry.GeometryError, UnicodeDecodeError) as exc:
        print(f"invalid geometry: {exc}", file=sys.stderr)
        return 2
    report = geometry.validate_assumptions(geom)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        where = "" if c.worst_cell is None else f" (cell {c.worst_cell})"
        print(f"{status}  {c.name}: measured {c.measured:.6g} "
              f"vs bound {c.bound:.6g}{where}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _perforated_mesh(args) -> meshgen.Mesh:
    geom = geometry.build_perforated_geometry(
        study.DOMAINS[args.domain](), args.m, args.beta,
        shape_spec=args.shape)
    return meshgen.mesh_perforated(geom, meshgen.CellMeshTemplate(**{
        field: getattr(args, flag) for flag, field in _TEMPLATE_FLAGS.items()}))


def cmd_mesh(args) -> int:
    if args.export:
        _check_writable(args.export, is_dir=False)
    mesh = _perforated_mesh(args)
    for _ in range(args.refine):
        mesh = meshgen.refine(mesh)
    print(f"nodes {mesh.num_nodes}  triangles {mesh.num_triangles}  "
          f"boundary edges {len(mesh.boundary_edges)}  "
          f"min angle {mesh.min_angle():.2f} deg  area {float(mesh.area())!r}")
    if args.export:
        with open(args.export, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(meshgen.export_mesh(mesh))
        print(f"wrote {args.export}")
    return 0


def _print_pairs(res, other) -> int:
    for a, b in zip(res.values, other):
        print(f"  {float(a)!r}  {float(b)!r}")
    if res.warning:
        print(f"warning: {res.warning}")
    return 0


def cmd_steklov(args) -> int:
    op = spectra.condense(_perforated_mesh(args))
    res = spectra.steklov_spectrum(op, args.k)
    print("boundary spectrum (mu, steklov lambda = 1/mu - 1):")
    return _print_pairs(res, 1.0 / res.values - 1.0)


def cmd_homog(args) -> int:
    res = spectra.homogenized_spectrum(study.DOMAINS[args.domain](), args.q,
                                       args.h, args.k)
    print("weighted Dirichlet eigenvalues (lambda, mu):")
    return _print_pairs(res, 1.0 / (1.0 + res.values))


def cmd_cell(args) -> int:
    if args.lemma:
        if args.shape is not None or args.h is not None:
            print("--shape and --h do not apply to --lemma", file=sys.stderr)
            return 2
        rep = cellmetrics.verify_lemma(args.lemma)
        keys = sorted({k for row in rep.rows for k in row})
        print(",".join(keys))
        for row in rep.rows:
            print(",".join(repr(row.get(k, "")) for k in keys))
        slope = "" if rep.slope is None else f" slope {rep.slope:+.3f}"
        print(f"# {('PASS' if rep.passed else 'FAIL')}{slope} ({rep.method})")
        return 0 if rep.passed else 1
    consts = cellmetrics.cell_constants(args.shape or "disk", args.h or 0.08)
    print(json.dumps(consts.as_dict(), indent=2))
    return 0


def cmd_oracle(args) -> int:
    checks = study.oracle_selftest()
    for name, ok, detail in checks:
        print(f"{'pass' if ok else 'FAIL'}  {name}: {detail}")
    passed = all(ok for _, ok, _ in checks)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_study(args) -> int:
    try:
        cfg = study.load_config(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except (study.StudyError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.output_dir
    _check_writable(out_dir, is_dir=True)
    report = study.run_study(cfg)
    paths = study.write_report(report, out_dir)
    for name, ok, detail in report.oracle_checks:
        print(f"{'pass' if ok else 'FAIL'}  oracle/{name}")
    for p in report.pairs:
        print(f"m={p.m}: delta {p.delta:.5f}  hausdorff {p.hausdorff:.6f}  "
              f"gate {'ok' if p.gate_ok else 'FAIL'}")
    if report.rate is not None:
        print(f"rate fit: slope {report.rate.slope:.3f}  {report.rate.note}")
    for i, r in enumerate(report.gap_rates):
        print(f"gap rate f{i+1}: slope {r.slope:.3f}  {r.note}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote {', '.join(paths.values())}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):    # subparsers inherit the class
    def __init__(self, **kwargs):   # no abbreviation: `--h` is not `--help`
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="steklov-lab",
        description="Spectra of finely perforated domains: geometry, "
                    "meshing, eigensolvers, and convergence studies.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a geometry JSON file against "
                                        "the uniform-geometry assumptions")
    p.add_argument("geometry")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("mesh", help="mesh a perforated domain")
    _add_geometry_args(p)
    p.add_argument("--refine", type=_non_negative_int, default=0)
    p.add_argument("--export", help="write the plain-text mesh format here")
    p.set_defaults(fn=cmd_mesh)

    problems = sub.add_parser("solve", help="one-shot eigenvalue solves")
    problem = problems.add_subparsers(dest="problem", required=True)
    p = problem.add_parser("steklov", help="perforated boundary spectrum")
    _add_geometry_args(p)
    p.add_argument("-k", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_steklov)
    p = problem.add_parser("homog", help="homogenized Dirichlet spectrum")
    p.add_argument("--domain", default="unit-square",
                   choices=sorted(study.DOMAINS))
    p.add_argument("--q", type=_positive_float, default=1.0,
                   help="constant weight for the homogenized problem")
    p.add_argument("--h", type=_positive_float, default=0.02)
    p.add_argument("-k", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_homog)

    p = sub.add_parser("cell", help="single-cell constants and inequality "
                                    "sweeps")
    p.add_argument("--shape", type=_cell_shape,
                   help="disk | kgon:K (default disk; not with --lemma)")
    p.add_argument("--h", type=_positive_float,
                   help="mesh size (default 0.08; not with --lemma)")
    p.add_argument("--lemma", choices=cellmetrics.LEMMA_IDS)
    p.set_defaults(fn=cmd_cell)

    p = sub.add_parser("oracle", help="run the independent reference "
                                      "self-tests")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("study", help="run a configuration-driven sweep")
    p.add_argument("config")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(fn=cmd_study)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (geometry.GeometryError, meshgen.MeshError, study.StudyError,
            spectra.SpectraError, cellmetrics.CellMetricsError,
            eigen.EigenError, fem.FemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
