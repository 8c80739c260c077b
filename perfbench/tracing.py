"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program.  For a traced run it replaces
module-level names that the program calls through (``runner.simulate``,
``control.backward_sweep`` and so on) with thin wrappers that record one
span per call, and puts the originals back afterwards.  Self time of a span
is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer the workload must reach was never called."""


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    work: float = 0.0  # strain-steps for integrator spans, 0 elsewhere

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Collects spans of one process; the clock is ``time.perf_counter``."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str, work: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter(), work=work))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise TraceError(f"span {self.spans[idx].name} closed out of order")

    def call(self, name: str, fn: Callable, *args, work: float = 0.0, **kwargs):
        idx = self.open(name, work)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time (s) and summed work."""
    result: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = result.setdefault(s.name, {"calls": 0, "self_s": 0.0, "work": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["work"] += s.work
    return result


@dataclass(frozen=True)
class Hook:
    """One module attribute to wrap, the span name it records, and its work."""

    module: str
    attr: str
    span: str
    work: Callable[..., float] | None = None


class Patched:
    """Context manager that wraps the hooked names and restores them on exit."""

    def __init__(self, modules: dict, hooks: list[Hook], recorder: Recorder):
        self._modules = modules
        self._hooks = hooks
        self._recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for hook in self._hooks:
            mod = self._modules[hook.module]
            original = getattr(mod, hook.attr, None)
            if not callable(original):
                self.__exit__(None, None, None)
                raise TraceError(
                    f"cannot trace {hook.module}.{hook.attr}: no such function; "
                    "update the hooks in perfbench/workloads.py"
                )
            self._saved.append((mod, hook.attr, original))
            setattr(mod, hook.attr, _wrap(original, hook, self._recorder))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def _wrap(original: Callable, hook: Hook, recorder: Recorder) -> Callable:
    def traced(*args, **kwargs):
        work = hook.work(*args, **kwargs) if hook.work is not None else 0.0
        return recorder.call(hook.span, original, *args, work=work, **kwargs)

    traced.__wrapped__ = original
    return traced


def require_called(spans: list[Span], names: list[str]) -> None:
    """Fail loudly when a layer the workload must reach recorded no span."""
    seen = {s.name for s in spans}
    missing = [n for n in names if n not in seen]
    if missing:
        raise TraceError(
            "traced run recorded no span for " + ", ".join(missing)
            + "; the program no longer calls through the wrapped names"
        )


def span_cost_s(reps: int = 20000) -> float:
    """Measured cost of recording one span, in seconds."""

    def noop():
        return None

    recorder = Recorder()
    t0 = time.perf_counter()
    for _ in range(reps):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        recorder.call("noop", noop)
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / reps
