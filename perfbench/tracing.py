"""Spans around gtimm's public functions, recorded from outside the program.

Every public function of each gtimm module is wrapped at every place a
caller looks it up: the defining module and every module (or the package)
that imported it by name.  ``RegressionTree.route`` and ``Dataset.take``
are wrapped on their classes.  A span records its name, its parent span,
its thread and its start and end; spans stay in memory until the run
ends.  A span opened on a worker thread with nothing open on that thread
(a gap-experiment cell on the pool's thread) takes the innermost span
open on the main thread as its parent.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

LAYERS = ("data", "tree", "mixedmodel", "fit", "baselines", "evaluate", "modelio", "cli")
CLASS_METHODS = (("data", "Dataset", "take"), ("tree", "RegressionTree", "route"))


class Tracer:
    def __init__(self, gtimm):
        self.modules = [gtimm] + [getattr(gtimm, name) for name in LAYERS]
        self.spans = []  # [name, parent, start, end]
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, parent, time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                with self._lock:
                    extra(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of a public gtimm function with its wrapper."""
        gtimm = self.modules[0]
        for layer in LAYERS:
            module = getattr(gtimm, layer)
            for attr, fn in vars(module).items():
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != module.__name__:
                    continue
                for owner in self.modules:
                    if vars(owner).get(attr) is fn:
                        extra = _EXTRA.get((owner.__name__.rsplit(".", 1)[-1], layer, attr))
                        self._patch(owner, attr, self._wrap(f"{layer}.{attr}", fn, extra))
        for layer, cls_name, attr in CLASS_METHODS:
            cls = getattr(getattr(gtimm, layer), cls_name)
            self._patch(cls, attr, self._wrap(f"{layer}.{attr}", vars(cls)[attr],
                                              _EXTRA.get((layer, layer, attr))))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self):
        """Per span name: inclusive seconds ``.s``, self seconds ``.self_s``
        (duration minus the union of its children's intervals) and
        ``.calls``; plus the extra counters.  A span nested inside another
        of the same name adds to neither ``.s`` nor ``.calls``."""
        children = defaultdict(list)
        for index, (_, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(float)
        for index, (name, parent, start, end) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[f"{name}.self_s"] += end - start - covered
            if not self._inside_same(parent, name):
                out[f"{name}.s"] += end - start
                out[f"{name}.calls"] += 1
        out.update(self.counts)
        return dict(out)

    def _inside_same(self, parent, name):
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False


def _count_lmm_iteration(counts, args, kwargs, result):
    counts["baselines.fit_lmm.iterations"] += 1


def _count_route_rows(counts, args, kwargs, result):
    counts["tree.route.rows"] += len(result)


def _count_loaded_rows(counts, args, kwargs, result):
    counts["data.load_csv.rows"] += result.n


def _count_model_bytes(counts, args, kwargs, result):
    counts["modelio.model_bytes"] += os.path.getsize(args[0])


# (module the caller looks the name up in, defining module, name) -> counter
_EXTRA = {
    ("baselines", "mixedmodel", "blup"): _count_lmm_iteration,
    ("tree", "tree", "route"): _count_route_rows,
    ("data", "data", "load_csv"): _count_loaded_rows,
    ("cli", "data", "load_csv"): _count_loaded_rows,
    ("gtimm", "data", "load_csv"): _count_loaded_rows,
    ("modelio", "modelio", "save_model"): _count_model_bytes,
    ("cli", "modelio", "save_model"): _count_model_bytes,
    ("gtimm", "modelio", "save_model"): _count_model_bytes,
}
