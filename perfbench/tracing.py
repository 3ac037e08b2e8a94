"""Span tracer that wraps ``hrcn`` functions from outside the package.

Every binding of a traced function is replaced for the duration of a
``with Tracer(...)`` block: the defining module's attribute and every name
another ``hrcn`` module imported with ``from ... import``.  Each call records
a span (name, start, end, parent) from a span stack, and optional hooks turn
arguments and return values into exact counts.  All bindings are restored on
exit, also when the block raises.
"""

import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Tracer:
    """Collects spans and counts while installed.

    targets: ``{span_name: (module, attribute, hook)}``, where ``hook`` is
    ``None`` or ``hook(tracer, args, kwargs, result)`` run after each call.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.reached: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace object, attr, original)

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "hrcn" or name.startswith("hrcn."))]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        try:
            for span_name, (module, attr, hook) in self.targets.items():
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self.reached[name] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open (for hooks)."""
        return any(self.spans[i].name == name for i in self._stack)


# -- span arithmetic ------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so children never overlap
    each other and the subtraction is exact.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def total_times(spans: list[Span]) -> Counter:
    """Per-name time, counting a recursive call only through its outermost
    span so nested spans of the same name are not added twice."""
    totals: Counter = Counter()
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            totals[s.name] += s.end - s.start
    return totals


def top_level_time(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)
