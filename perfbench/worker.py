"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --result FILE [--trace]

The repetition imports the package and validates the inputs, noting the
moment it is ready (time.monotonic, which is system-wide, so run.py can
subtract the moment it spawned this interpreter), then times the
workload's entry calls (wall, and user+sys CPU of this process and its
children).  It writes the ready moment, wall, CPU, peak RSS, op counts,
output values and, with --trace, the per-layer metrics and span-check
errors to FILE as JSON, with the environment it ran in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _cpu() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            kids.ru_utime + kids.ru_stime)


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    import steklov_lab
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo", "r", encoding="ascii") as fh:
        mem_kib = int(fh.readline().split()[1])
    return {
        "package": os.path.abspath(steklov_lab.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kib // 1024,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "steklov_lab_threads": os.environ.get("STEKLOV_LAB_THREADS"),
    }


def repetition(wl, seed: int, out_dir: str, trace: bool) -> dict:
    state = wl.prepare(seed)
    ready = time.monotonic()
    tracer = None
    if trace:
        import steklov_lab.cli  # noqa: F401  (load every module)
        from layers import PROBES
        from tracer import Tracer
        tracer = Tracer(PROBES)
        tracer.install("steklov_lab")
    os.makedirs(out_dir, exist_ok=True)
    cpu0, child0 = _cpu()
    t0 = time.perf_counter()
    try:
        produced, error = wl.run(state, out_dir), None
    except Exception:                   # a failed run is data, not a crash
        produced, error = None, traceback.format_exc(limit=-3)
    wall = time.perf_counter() - t0
    cpu1, child1 = _cpu()
    if tracer is not None:
        tracer.uninstall()
    result = wl.outcome(state, out_dir, produced, error)
    result.update(ready_monotonic=ready, wall_s=wall, cpu_s=cpu1 - cpu0,
                  peak_rss_mb=_peak_rss_mb(), environment=environment())
    if tracer is not None:
        from layers import layer_metrics
        result["layers"] = layer_metrics(tracer.spans, wall)
        errors = wl.span_checks(tracer.spans)
        if child1 > child0:
            errors.append("work ran in child processes, whose spans the "
                          "tracer cannot see")
        result["span_errors"] = errors
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    result = repetition(workloads.WORKLOADS[args.workload], args.seed,
                        args.out, args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
