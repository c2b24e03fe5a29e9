"""Span recorder that times calls into relbo's layers from outside.

Wrappers are installed at run time on module attributes and class methods;
``src/`` is never edited. A function is rebound in every loaded ``relbo``
module that holds it (``from .x import f`` copies the binding), so calls
made through any module are seen. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
from collections import defaultdict

PACKAGE = "relbo"


class SpanRecorder:
    """Records (name, start, end, parent) spans and per-name counters.

    Counters and ``.s`` totals are taken only at the outermost span of a
    name, so a layer whose wrapped entry points call one another is neither
    double-timed nor double-counted.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, t0, t1, parent
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self.enabled = True  # False: wrappers call through without recording
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0, 0, parent))
            self._stack.append(idx)
            outermost = self._open[name] == 0
            self._open[name] += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._open[name] -= 1
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent)
            if outermost and count is not None:
                for key, value in count(args, kwargs, result).items():
                    if key.endswith(".max"):
                        self.maxima[key] = max(self.maxima.get(key, value), value)
                    else:
                        self.counters[key] += value
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _drop(self, name, where):
        warnings.warn(f"span {name!r} dropped: {where} not found", stacklevel=3)
        self.missing.append(name)

    def wrap_function(self, module, attr, name, count=None):
        """Time ``module.attr`` wherever a relbo module binds it."""
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if not callable(orig):
            self._drop(name, f"{module}.{attr}")
            return
        wrapper = self._wrap(name, orig, count)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, wrapper)

    def wrap_method(self, module, cls, attr, name, count=None):
        """Time ``module.cls.attr`` for every instance."""
        klass = getattr(sys.modules.get(module), cls, None)
        if klass is None or attr not in vars(klass):
            self._drop(name, f"{module}.{cls}.{attr}")
            return
        self._set(klass, attr, self._wrap(name, vars(klass)[attr], count))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name ``.s`` (busy time) and ``.self_s`` (minus child spans),
        and the recorded counters, as one flat dict."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        busy = defaultdict(int)
        own = defaultdict(int)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            own[name] += (t1 - t0) - child_ns[i]
            if not self._has_ancestor(parent, name):
                busy[name] += t1 - t0
        out: dict[str, float] = {}
        for name in busy:
            out[f"{name}.s"] = busy[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        out.update(self.counters)
        out.update(self.maxima)
        return out

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path):
        """Write every span as JSON: name, start and end in ns, parent index."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "missing": self.missing,
                },
                fh,
            )
