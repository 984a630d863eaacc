"""In-memory spans and counters recorded around calls into slv.

Wrappers replace module attributes and class methods at run time, so the
program's sources stay untouched. Spans keep their parent through a
context variable; `ContextThreadPool` carries it into pool threads, so a
measurement made on a worker thread still points at the verification that
caused it. Every process dumps its spans as JSON lines when it exits.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (span id, trace id) of the innermost open span of the running context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


class ContextThreadPool(ThreadPoolExecutor):
    """ThreadPoolExecutor that runs each task in a copy of the submitter's
    context, so spans opened in the task keep their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Spans and counters of one process.

    A span is (id, parent id, trace id, name, start, end, attrs), with
    times from time.perf_counter, which reads CLOCK_MONOTONIC and so is
    comparable across the processes of one machine.
    """

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def counting(self, name: str, fn):
        """fn, counting its calls under `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def spanning(self, name: str, fn, trace_of=None, note=None):
        """fn, recording one span per call.

        trace_of(args) gives a new trace id and makes the span a root;
        otherwise the span joins its parent's trace. note(args, result)
        returns attributes to keep with the span.
        """
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            sid = next(ids)
            if trace_of is not None:
                trace = trace_of(args)
            else:
                trace = parent[1] if parent else None
            token = _CURRENT.set((sid, trace))
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if note is not None:
                    attrs = note(args, result)
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append((sid, parent[0] if parent else None, trace, name, start, end, attrs))

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr, remembering the original for uninstall()."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, modules, original, wrapper) -> None:
        """Rebind every module global that names `original` to `wrapper`,
        since `from x import f` copies the reference into each importer."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        """Spans as dicts; ids gain a process prefix to stay unique across
        processes."""
        tag = self.process
        return [
            {
                "id": f"{tag}:{sid}",
                "parent": f"{tag}:{parent}" if parent is not None else None,
                "trace": trace,
                "name": name,
                "start": start,
                "end": end,
                "attrs": attrs or {},
            }
            for sid, parent, trace, name, start, end, attrs in self.spans
        ]

    def dump(self, path) -> None:
        """Write counters, then one span per line, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"process": self.process, "counts": self.counts}) + "\n")
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def load_dump(path) -> tuple[dict, list[dict]]:
    """Counters and spans written by Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header["counts"], [json.loads(line) for line in fh if line.strip()]


def self_time(start: float, end: float, children) -> float:
    """Length of [start, end] not covered by any child interval.

    Children may overlap one another (a verification measures three
    verifiers at once) and are clipped to the parent's interval.
    """
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time in seconds of every span, by span id."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: self_time(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }
