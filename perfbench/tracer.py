"""Outside tracer: spans around the public functions of a package.

The tracer never edits the package.  It wraps every public module-level
function of every loaded submodule and rebinds the wrapper at every import
site: a ``from .eigen import factor_spd`` in ``cellmetrics`` holds the same
function object as ``eigen.factor_spd``, so every module attribute that is
a wrapped original is replaced.  Calls resolved through module globals at
call time therefore reach the wrapper wherever they come from.

A span records its name, start, end and parent.  Self time is the span's
duration minus the durations of its direct children; calls are strictly
nested in one thread, so the children cover disjoint parts of the parent.
"""

from __future__ import annotations

import functools
import sys
import time
import types


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "info",
                 "error")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.info = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans in memory; ``probes`` maps a span name to a function
    ``(args, kwargs, result) -> dict`` whose counts are stored on the span."""

    def __init__(self, probes=None, clock=time.perf_counter):
        self.spans: list = []
        self.probes = dict(probes or {})
        self.clock = clock
        self._stack: list = []
        self._rebound: list = []

    def wrap(self, name: str, fn):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def install(self, package: str) -> list:
        """Wrap the public functions of every loaded ``package`` submodule;
        returns the rebound ``(module, attribute)`` sites."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name.startswith(package + ".") and mod is not None]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(package) + 1:]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        sites = []
        for mod in modules + [sys.modules[package]]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                    sites.append((mod.__name__, attr))
        return sites

    def uninstall(self):
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()
