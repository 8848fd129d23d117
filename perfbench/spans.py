"""Span recording around calls into milstab's public functions.

A Tracer replaces public functions with recording wrappers at the module
attributes where callers look them up, so no file of the package changes.
Each span records its name, layer, start, end, parent span and invocation id.
Spans stay in memory and are written out by the caller at the end of a run.

Parents follow a per-thread stack. Work that milstab hands to a thread pool
would lose its parent that way, so the pools the package creates are
replaced by one whose submit() carries the submitting thread's open span
into the worker.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    invocation: int
    layer: str
    name: str
    start: float
    end: float
    # Work done by the call, when the wrapper knows how to count it:
    # normal draws, MC samples, path steps, clamped steps, thread count.
    note: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def write_spans(spans, path) -> None:
    """Write spans as gzipped JSON lines: a header of field names, then one list per span."""
    names = [f.name for f in fields(Span)]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps(names) + "\n")
        fh.writelines(json.dumps([getattr(s, n) for n in names]) + "\n" for s in spans)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children that ran at the same time on different threads overlap; the
    union of their intervals is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def _count_normals(args, kwargs, result):
    return {"draws": int(args[1] if len(args) > 1 else kwargs["n"])}


def _count_path(args, kwargs, result):
    return {"steps": int(result.n_steps), "clamped": int(result.flags.sum())}


def _count_mc(args, kwargs, result):
    return {"samples": int(result.n_samples), "threads": int(kwargs.get("threads", 1))}


# (module, attribute, layer, span name, note) for every function wrapped. A
# function is wrapped in each module that looks it up, so calls across
# layers and calls inside a layer are both seen. RngStream.normals is patched
# on the class, which every caller shares.
_TARGETS = [
    ("milstab.stochastics", "RngStream.normals", "stochastics", "normals", _count_normals),
    ("milstab.exponents", "gauss_hermite_rule", "stochastics", "gauss_hermite_rule", None),
    ("milstab.lemmas", "gauss_hermite_rule", "stochastics", "gauss_hermite_rule", None),
    ("milstab.cli", "gauss_hermite_rule", "stochastics", "gauss_hermite_rule", None),
    ("milstab.cli", "simulate_path", "scheme", "simulate_path", _count_path),
    ("milstab.exponents", "simulate_path", "scheme", "simulate_path", _count_path),
    ("milstab.cli", "simulate_theta_path", "scheme", "simulate_theta_path", _count_path),
    ("milstab.cli", "estimate", "exponents", "estimate", None),
    ("milstab.cli", "fit_loglog", "exponents", "fit_loglog", None),
    ("milstab.exponents", "ms_exponent_exact", "exponents", "ms_exponent_exact", None),
    ("milstab.exponents", "theta_ms_exponent", "exponents", "theta_ms_exponent", None),
    ("milstab.exponents", "as_exponent_quadrature", "exponents", "as_exponent_quadrature", None),
    (
        "milstab.exponents",
        "theta_as_exponent_quadrature",
        "exponents",
        "theta_as_exponent_quadrature",
        None,
    ),
    ("milstab.exponents", "as_exponent_mc", "exponents", "as_exponent_mc", _count_mc),
    ("milstab.exponents", "as_exponent_path_slope", "exponents", "path_slope", None),
    ("milstab.cli", "verify_log_sandwich", "lemmas", "verify_log_sandwich", None),
    ("milstab.cli", "xi_gamma", "lemmas", "xi_gamma", None),
    ("milstab.cli", "composite_increment_moments", "lemmas", "composite_increment_moments", None),
    ("milstab.cli", "gaussian_moment", "lemmas", "gaussian_moment", None),
    ("milstab.cli", "classify", "model", "classify", None),
    ("milstab.cli", "as_boundary_epsilon", "model", "as_boundary_epsilon", None),
]

_POOL_MODULES = ("milstab.exponents", "milstab.cli")


class Tracer:
    """Records spans while installed; install() and uninstall() patch milstab."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, layer: str, name: str, fn, args=(), kwargs=None, note=None):
        """Call fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            # A call that raised still gets its span, without a work count.
            info = note(args, kwargs, result) if ok and note is not None else None
            span = Span(sid, parent, self.invocation, layer, name, start, end, info)
            with self._lock:
                self.spans.append(span)
        return result

    def _run_under(self, parent, fn, args, kwargs):
        saved = getattr(self._local, "stack", None)
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def _wrapper(self, layer, name, fn, note):
        def traced(*args, **kwargs):
            return self.record(layer, name, fn, args, kwargs, note)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target that exists; the rest are listed in self.missing.

        A later milstab may merge or rename some of these functions; their
        spans then stop and their layer metrics read 0, which the report
        shows next to the missing names.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for mod_name, attr, layer, name, note in _TARGETS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patch(owner, leaf, self._wrapper(layer, name, getattr(owner, leaf), note))
        tracer = self

        class ParentedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_under, tracer.current(), fn, args, kwargs)

        for mod_name in _POOL_MODULES:
            module = importlib.import_module(mod_name)
            if hasattr(module, "ThreadPoolExecutor"):
                self._patch(module, "ThreadPoolExecutor", ParentedPool)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
