"""In-memory span recorder that wraps oneplane's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
label of the instance being processed.  Self time is a span's duration minus
the durations of its direct children (calls are single-threaded, so children
nest inside their parent and never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute) of every wrapped function; "Class.method" wraps a method.
TARGETS = (
    ("oneplane.core", "validate"),
    ("oneplane.core", "faces"),
    ("oneplane.build", "DrawingBuilder.finish"),
    ("oneplane.transform", "skeleton"),
    ("oneplane.transform", "dual"),
    ("oneplane.maximality", "insertion_candidates"),
    ("oneplane.maximality", "is_maximal"),
    ("oneplane.maximality", "apply_insertion"),
    ("oneplane.maximality", "min_redraw_crossings"),
    ("oneplane.maximality", "is_immovable"),
    ("oneplane.analyze", "vertex_connectivity"),
    ("oneplane.analyze", "connectivity_at_least"),
    ("oneplane.analyze", "degree_profile"),
    ("oneplane.generators", "generate"),
    ("oneplane.generators", "gen_random_seed"),
    ("oneplane.interchange", "parse"),
    ("oneplane.interchange", "serialize"),
    ("oneplane.interchange", "to_dot"),
)


def span_name(module: str, attr: str) -> str:
    """``oneplane.build`` + ``DrawingBuilder.finish`` -> ``build.finish``."""
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}"


class Recorder:
    """Spans live in parallel arrays (names, labels, start, end, parent), so
    recording one allocates no object the garbage collector has to track."""

    def __init__(self):
        self.names: list[str] = []
        self.labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")      # index of the enclosing span, or -1
        self.label = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, labels, start, end = self.names, self.labels, self.start, self.end
        parent, stack = self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            labels.append(self.label)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every target, including the copies other oneplane modules
        imported by name (``from .core import validate``)."""
        loaded = [m for k, m in sys.modules.items()
                  if k == "oneplane" or k.startswith("oneplane.")]
        for module, attr in TARGETS:
            owner = sys.modules[module]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = getattr(cls, fn_name)
                self._swap(cls, fn_name, self.wrap(span_name(module, attr), original))
                continue
            original = getattr(owner, fn_name)
            traced = self.wrap(span_name(module, attr), original)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, key, traced)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def _swap(self, obj, key: str, new) -> None:
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def durations(self) -> list[float]:
        return [t1 - t0 for t0, t1 in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        child = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        return [d - c for d, c in zip(dur, child)]

    def totals(self) -> dict[tuple[str, str], list]:
        """[calls, inclusive s, self s] per (span name, label)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for key, d, self_s in zip(zip(self.names, self.labels), self.durations(),
                                  self.self_times()):
            acc = out[key]
            acc[0] += 1
            acc[1] += d
            acc[2] += self_s
        return out

    def dump(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, label."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.start, self.end, self.parent, self.labels):
                fh.write(json.dumps(span) + "\n")
