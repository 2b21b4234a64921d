"""Span tracer that wraps gazeid's public functions from outside.

While installed, every public module-level function of the given modules
is replaced by a wrapper, in its defining module and in every other given
module that imported the name (``classify.extract_features``,
``markov.gamma_logpdf``, ``cli.load_dataset``, ...). A wrapped call
records a span: name, start, end and parent. Each thread keeps its own
stack. A span opened on a worker thread whose stack is empty takes as
parent the innermost open span of the thread that installed the tracer,
which is the thread that submitted the work (``classify.run_protocol``'s
thread pool). Work done in other processes is invisible to the wrappers.

Spans are kept in memory and written out by ``write``.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# A span is a list [name, start, end, parent span or None, extras or None].
NAME, START, END, PARENT, EXTRAS = range(5)


class Tracer:
    def __init__(self, modules, observers: dict[str, Callable] | None = None):
        """``observers`` maps a span name to fn(bound_arguments, result) ->
        dict of numbers, stored on the span after the call returns."""
        self.modules = list(modules)
        self.observers = observers or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_lists: list[list] = []
        self._owner_stack: list | None = None
        self._owner_thread: threading.Thread | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._span_lists.append(state[1])
        return state

    def _open(self, name: str) -> tuple[list, list]:
        stack, spans = self._state()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not self._owner_thread and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        span = [name, 0.0, 0.0, parent, None]
        spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return stack, span

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one operation."""
        stack, span = self._open(name)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)
        signature = inspect.signature(fn) if observer else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack, span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[EXTRAS] = observer(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def __enter__(self):
        self._owner_thread = threading.current_thread()
        self._owner_stack = self._state()[0]
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
        return False

    # -- results -----------------------------------------------------------

    def spans(self) -> list[list]:
        with self._lock:
            return [span for spans in self._span_lists for span in spans]

    def write(self, path: str | Path) -> None:
        """All spans as {"names": [...], "spans": [[name, start, end, parent,
        thread], ...]}; name and parent are indices, parent -1 for none."""
        ids = {}
        names: dict[str, int] = {}
        rows = []
        with self._lock:
            lists = list(self._span_lists)
        for spans in lists:
            for span in spans:
                ids[id(span)] = len(ids)
        for thread, spans in enumerate(lists):
            for span in spans:
                parent = span[PARENT]
                rows.append(
                    [
                        names.setdefault(span[NAME], len(names)),
                        span[START],
                        span[END],
                        ids[id(parent)] if parent is not None else -1,
                        thread,
                    ]
                )
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def root_of(span: list) -> list:
    while span[PARENT] is not None:
        span = span[PARENT]
    return span


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, keyed
    by id(span). Children on other threads may overlap each other."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append((span[START], span[END]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(id(span), ())):
            start = max(start, cursor)
            end = min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out[id(span)] = (span[END] - span[START]) - covered
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, dict]]:
    """Per root-span name (such as ``bench.op``), per span name: call count,
    inclusive seconds, self seconds and summed extras. The root's own entry
    counts the roots."""
    selfs = self_times(spans)
    out: dict[str, dict[str, dict]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "extras": defaultdict(float)})
    )
    for span in spans:
        root = root_of(span)
        entry = out[root[NAME]][span[NAME]]
        entry["calls"] += 1
        entry["s"] += span[END] - span[START]
        entry["self_s"] += selfs[id(span)]
        for key, value in (span[EXTRAS] or {}).items():
            entry["extras"][key] += value
    return out
