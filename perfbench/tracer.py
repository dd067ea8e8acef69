"""In-memory span tracer that times calls into a package from outside it.

The tracer replaces chosen public functions and methods with thin wrappers
that record one span per call: name, start, end, parent span and the id of
the optimizer iteration the call belongs to. Nothing inside the traced
package changes; every replaced attribute is put back on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None
    error: str | None = None  # exception class name when the call raised
    work: int | None = None   # count taken from the call's result (steps, samples, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One callable to trace.

    `owner` is the module that defines it and `attr` its name there, dotted
    for a method (`"RunLog.to_csv"`). `work` maps (args, result) to a count
    stored on the span.
    """

    name: str
    owner: str
    attr: str
    work: Callable | None = None


class Tracer:
    """Context manager: patches the targets on entry and restores them on exit.

    A plain function is patched in every loaded module of `package` that
    bound it by name, so calls through `from x import f` copies are seen too.
    A method is patched once on its class. Spans opened between the start of
    `loop` and the end of each `step` share one iteration id. The tracer may
    be entered again; spans accumulate with unique ids.
    """

    def __init__(self, package: str, targets, loop: str | None = None,
                 step: str | None = None, clock=time.perf_counter):
        self.package = package
        self.targets = tuple(targets)
        self.loop = loop
        self.step = step
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._iteration: int | None = None
        self._next_iteration = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self._iteration)
        self.spans.append(span)
        self._stack.append(span)
        if name == self.loop:
            self._start_iteration()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.name == self.loop:
            self._iteration = None
        elif span.name == self.step and self._iteration is not None:
            self._start_iteration()

    def _start_iteration(self) -> None:
        self._iteration = self._next_iteration
        self._next_iteration += 1

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if work is not None:
                span.work = int(work(args, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, container, attr: str, value) -> None:
        self._saved.append((container, attr, container.__dict__[attr]))
        setattr(container, attr, value)

    def _patch(self, target: Target) -> None:
        owner = sys.modules[target.owner]
        head, _, method = target.attr.rpartition(".")
        if head:
            cls = getattr(owner, head)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                self._set(cls, method, classmethod(self.wrap(target.name, raw.__func__, target.work)))
            else:
                self._set(cls, method, self.wrap(target.name, raw, target.work))
            return
        original = getattr(owner, target.attr)
        wrapped = self.wrap(target.name, original, target.work)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package
                                      or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            container, attr, value = self._saved.pop()
            setattr(container, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result
