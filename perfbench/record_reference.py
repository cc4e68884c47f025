"""Record reference.json: the output values of every workload variant.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose results are trusted; the
benchmark then rejects any later result that drifts beyond the tolerance
in workloads.py.  Every repetition must pass all of its ops.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, ROOT, child_env, worker
import workloads


def main() -> int:
    env = child_env()
    reference = {}
    tmp = os.path.join(ROOT, ".perfbench_out", "record")
    shutil.rmtree(tmp, ignore_errors=True)
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            out = os.path.join(tmp, f"{name}-{variant}")
            worker(["--workload", name, "--seed", str(variant),
                    "--out", out, "--result", out + ".json"], env)
            with open(out + ".json", "r", encoding="utf-8") as fh:
                rep = json.load(fh)
            print(f"{name} variant {variant}: {rep['wall_s']:.2f} s, "
                  f"{rep['failed']}/{rep['attempted']} ops failed")
            if rep["failed"]:
                print("\n".join(rep["messages"]), file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(variant)] = rep["values"]
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
