"""Fast tests of the benchmark itself (seconds, no workload runs).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class FakeClock:
    """Each reading advances one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fakepkg():
    """A package whose module b does ``from .a import leaf, boom``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("import math\n"
         "def leaf(x):\n    return x + 1\n"
         "def boom():\n    raise KeyError('boom')\n"
         "def _private():\n    return leaf(0)\n", a.__dict__)
    b.leaf, b.boom = a.leaf, a.boom
    exec("def outer(x):\n    return leaf(x) + leaf(x)\n", b.__dict__)
    pkg.a, pkg.b, pkg.leaf = a, b, a.leaf
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_passes_values_and_self_time(fakepkg):
    originals = (fakepkg.a.leaf, fakepkg.b.outer, fakepkg.a.math)
    tracer = Tracer(clock=FakeClock())
    sites = tracer.install("fakepkg")
    assert {("fakepkg.b", "leaf"), ("fakepkg.a", "leaf"), ("fakepkg", "leaf"),
            ("fakepkg.b", "outer")} <= set(sites)
    assert ("fakepkg.a", "_private") not in sites
    assert fakepkg.b.leaf is fakepkg.a.leaf is not originals[0]
    assert fakepkg.b.outer(3) == 8
    outer = [s for s in tracer.spans if s.name == "b.outer"][0]
    leaves = [s for s in tracer.spans if s.name == "a.leaf"]
    assert [s.parent for s in leaves] == [outer, outer]
    # outer opens at 1, leaves span 2-3 and 4-5, outer closes at 6
    assert outer.duration == 5.0 and outer.self_s == 3.0
    assert all(s.duration == 1.0 == s.self_s for s in leaves)
    tracer.uninstall()
    assert (fakepkg.a.leaf, fakepkg.b.outer, fakepkg.a.math) == originals
    assert fakepkg.b.leaf is originals[0]


def test_tracer_lets_exceptions_through(fakepkg):
    tracer = Tracer()
    tracer.install("fakepkg")
    with pytest.raises(KeyError, match="boom"):
        fakepkg.b.boom()
    tracer.uninstall()
    (span,) = tracer.spans
    assert span.name == "a.boom" and span.error == "KeyError"
    assert not tracer._stack


def _import_package():
    try:
        import steklov_lab  # noqa: F401
    except ImportError:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import steklov_lab.cli  # noqa: F401
    return sys.modules["steklov_lab"]


def test_tracer_rebinds_every_import_site():
    pkg = _import_package()
    from steklov_lab import cellmetrics, eigen, meshgen, shapes, spectra, study
    tracer = Tracer()
    tracer.install("steklov_lab")
    try:
        for mod, name, home in [
                (spectra, "largest_pencil_eigs", eigen),
                (study, "largest_pencil_eigs", eigen),
                (cellmetrics, "largest_pencil_eigs", eigen),
                (spectra, "smallest_pencil_eigs", eigen),
                (cellmetrics, "smallest_pencil_eigs", eigen),
                (cellmetrics, "factor_spd", eigen),
                (pkg, "factor_spd", eigen),
                (cellmetrics, "mesh_unperforated", meshgen),
                (cellmetrics, "refine", meshgen),
                (shapes, "refine", meshgen)]:
            fn = getattr(mod, name)
            assert fn is getattr(home, name), (mod.__name__, name)
            assert hasattr(fn, "__wrapped__"), (mod.__name__, name)
    finally:
        tracer.uninstall()
    assert not hasattr(spectra.largest_pencil_eigs, "__wrapped__")


def _span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    if parent is not None:
        parent.child_s += end - start
    return s


def test_layer_metrics_self_time_and_untraced():
    run_ = _span("study.run_study", 0.0, 10.0)
    pair = _span("spectra.spectrum_pair", 1.0, 9.0, run_)
    eig = _span("eigen.largest_pencil_eigs", 2.0, 8.0, pair)
    fac = _span("eigen.factor_spd", 3.0, 5.0, eig)
    fac.info = {"n": 10, "nnz": 40, "fill": 2.5}
    eig.info = {"n": 10, "k": 4, "iterations": 30, "converged": 3}
    pair.info = {"gate_ok": True}
    m = layers.layer_metrics([fac, eig, pair, run_], wall_s=11.0)
    assert m["eigen.lanczos.self_s"] == 4.0
    assert m["eigen.factor_spd.self_s"] == 2.0
    assert m["eigen.factor_spd.fill_mean"] == 2.5
    assert m["eigen.converged_frac"] == 0.75
    assert m["spectra.spectrum_pair.s"] == 8.0
    assert m["study.untraced_s"] == 3.0


def test_failed_run_is_recorded_not_raised(tmp_path):
    class Raising:
        prepare = staticmethod(lambda seed: seed)
        outcome = workloads.WORKLOADS["study-periodic"].outcome

        def run(self, state, out_dir):
            raise ValueError("degenerate sweep: delta spans less than 4")

        span_checks = staticmethod(lambda spans: [])

    rep = worker.repetition(Raising(), 0, str(tmp_path), trace=False)
    assert rep["failed"] == rep["attempted"] == 4 + 4 + 2
    assert "degenerate sweep" in rep["messages"][0]
    assert rep["values"] == {}


def test_end_to_end_takes_lower_quartile_of_times():
    reps = [{"wall_s": w, "cpu_s": w, "setup_s": w / 10, "peak_rss_mb": m}
            for w, m in ((4.0, 200.0), (6.0, 202.0), (5.0, 201.0),
                         (9.0, 199.0))]
    got = run.end_to_end(reps)
    assert got["wall_s"] == got["cpu_s"] == 4.25
    assert got["setup_s"] == pytest.approx(0.425)
    assert got["peak_rss_mb"] == 200.5


def test_compare_tolerance():
    ref = {"m1.steklov_mu": [0.5, 0.25], "rate.slopes": [2.0]}
    drift = {"m1.steklov_mu": [0.5 * (1 + 1e-12), 0.25], "rate.slopes": [2.0]}
    assert workloads.compare(drift, ref) == []
    moved = {"m1.steklov_mu": [0.5 * (1 + 1e-5), 0.25], "rate.slopes": [2.0]}
    assert len(workloads.compare(moved, ref)) == 1
    assert workloads.compare({"rate.slopes": [2.0]}, ref) == [
        "m1.steklov_mu: missing"]


def test_benchmark_json_follows_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in bench["paths"])
    assert len(bench["command"]) <= 32
    assert all(len(c) <= 200 for c in bench["command"])
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    assert ({w["name"] for w in bench["workloads"]}
            == set(workloads.WORKLOADS))
    e2e, per = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per) <= 128
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in per:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in bench["workloads"] + e2e + per]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in e2e + per)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in e2e)


def test_per_layer_names_match_what_is_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    reported = set(layers.layer_metrics([], 0.0)) | set(run.src_lines())
    reported |= {"trace.overhead_frac", "failed_ops_frac"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert set(run.src_lines()) == {f"{m}.src_lines" for m in run.MODULES} \
        | {"src.lines"}
