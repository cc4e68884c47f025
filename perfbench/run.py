"""Benchmark of the steklov_lab package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each repetition runs in a fresh interpreter
(worker.py) with BLAS/OpenMP pinned to one thread and STEKLOV_LAB_THREADS
unset.  A repetition is started only while it is expected to end within
S seconds (but at least three are run, or two pairs with tracing), and
every repetition's outputs are checked against reference.json and against
each other byte for byte.  Each repetition is also one set-up sample: the
time from spawning its interpreter to the package imported and the inputs
validated.

--trace 0 reports the end-to-end metrics (over repetitions: the lower
quartile of each time, the median of peak RSS; see end_to_end);
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object; the exit code is 0 only when
every check passed.  Metric names, units and the workloads are defined in
BENCHMARK.json and explained in GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MODULES = ("geometry", "meshgen", "shapes", "fem", "eigen", "cellmetrics",
           "spectra", "oracles", "study", "cli")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
REP_TIMEOUT_S = 150
DEADLINE_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STEKLOV_LAB_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, env, timeout=REP_TIMEOUT_S):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def src_lines() -> dict:
    out = {}
    total = 0
    pkg = os.path.join(ROOT, "src", "steklov_lab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                count = fh.read().count(b"\n")
            total += count
            if fname[:-3] in MODULES:
                out[f"{fname[:-3]}.src_lines"] = count
    out["src.lines"] = total
    return out


def run_reps(name, seed, seconds, trace, env, out_root):
    """Repetitions while the longest one so far would still end within
    ``seconds``; with ``trace`` they alternate untraced and traced,
    starting untraced."""
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        longest = max((r["elapsed"] for r in reps), default=0.0)
        if len(reps) >= (2 * MIN_TRACED_PAIRS if trace else MIN_REPS) and (
                elapsed + longest > min(seconds, DEADLINE_S)):
            break
        traced = trace and len(reps) % 2 == 1
        rep_dir = os.path.join(out_root, f"rep{len(reps)}")
        result_file = rep_dir + ".json"
        t0 = time.monotonic()
        worker(["--workload", name, "--seed", str(seed), "--out", rep_dir,
                "--result", result_file] + (["--trace"] if traced else []),
               env)
        with open(result_file, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        rep["elapsed"] = time.monotonic() - t0
        rep["setup_s"] = rep.pop("ready_monotonic") - t0
        rep["traced"] = traced
        reps.append(rep)
    return reps


def check_reps(name, seed, reps, reference) -> list:
    errors = []
    pkg = os.path.realpath(os.path.join(ROOT, "src", "steklov_lab"))
    variant = str(workloads.variant_of(seed))
    ref = reference.get(name, {}).get(variant)
    if ref is None:
        errors.append(f"no reference values for {name} variant {variant}")
    for i, rep in enumerate(reps):
        used = os.path.realpath(rep["environment"]["package"])
        if os.path.dirname(used) != pkg:
            errors.append(f"rep {i}: imported {used}, not the checkout's")
        if ref is not None:
            errors += [f"rep {i}: {e}"
                       for e in workloads.compare(rep["values"], ref)]
        if rep["hashes"] != reps[0]["hashes"]:
            errors.append(f"rep {i}: written outputs differ from rep 0 "
                          f"({rep['hashes']} vs {reps[0]['hashes']})")
        errors += [f"rep {i}: {e}" for e in rep.get("span_errors", [])]
    return errors


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def end_to_end(reps) -> dict:
    """Times are the lower quartile over repetitions: a shared host only
    ever slows identical work down, often for tens of seconds at a time,
    so the fast repetitions show the program's own cost best and vary
    less from run to run than the median (GLOSSARY.md gives the figures).
    Peak RSS does not depend on the host's load and is the median."""
    values = {name: lower_quartile([r[name] for r in reps])
              for name in ("wall_s", "cpu_s", "setup_s")}
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    return values


def per_layer(reps, units, errors) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    metrics = {}
    for key in traced[0]["layers"]:
        vals = [r["layers"][key] for r in traced]
        if units.get(key) == "s":
            metrics[key] = statistics.median(vals)
        else:
            if any(v != vals[0] for v in vals):
                errors.append(f"layer count {key} differs between traced "
                              f"repetitions: {vals}")
            metrics[key] = vals[0]
    metrics.update(src_lines())
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "steklov_lab",
                                       "__init__.py")):
        print(f"no steklov_lab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), "r",
              encoding="utf-8") as fh:
        reference = json.load(fh)

    env = child_env()
    out_root = os.path.join(ROOT, ".perfbench_out",
                            f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    try:
        reps = run_reps(args.workload, args.seed, args.seconds,
                        bool(args.trace), env, out_root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    errors = check_reps(args.workload, args.seed, reps, reference)
    info = reps[0]["environment"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    messages = sorted({m for r in reps for m in r["messages"]})
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(reps, units, errors)
        values["failed_ops_frac"] = failed / attempted
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(reps)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    print(f"# environment {json.dumps(info, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed} variant "
          f"{workloads.variant_of(args.seed)}: {len(reps)} repetitions")
    print("# medians: " + "  ".join(
        f"{name} {statistics.median(r[name] for r in reps):.4f}"
        for name in ("wall_s", "cpu_s", "setup_s")))
    for rep in reps:
        print(f"#   {'traced' if rep['traced'] else 'plain '} wall "
              f"{rep['wall_s']:.3f} s  cpu {rep['cpu_s']:.3f} s  rss "
              f"{rep['peak_rss_mb']:.1f} MiB  setup {rep['setup_s']:.3f} s  "
              f"failed {rep['failed']}/{rep['attempted']}")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"# failed_ops_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    for msg in messages:
        print(f"# note: {msg}")
    for err in errors:
        print(f"# CHECK FAILED: {err}")
    with open(os.path.join(out_root, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": info, "errors": errors, "reps": reps,
                   "messages": messages}, fh, indent=1)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
