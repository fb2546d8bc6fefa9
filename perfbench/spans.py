"""Spans around calls into effectprob's layers, recorded from outside.

The program itself is not instrumented. While a :class:`Tracer` is
installed, every public function of the traced modules is replaced, in
every effectprob module namespace that refers to it, by a wrapper that
records a span. Calls inside one module go through the module's globals,
so they are traced too (``diagnose`` -> ``ess``); a span's parent is the
innermost span open when it starts, and each CLI invocation is the root
span of its command.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("io", "regress", "draws", "summary", "diagnostics", "render")


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    command: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if name in ("io.read_draws", "io.read_dataset"):
        attrs = {"bytes_read": os.path.getsize(args[0])}
        if name == "io.read_draws":
            v = result.values
            attrs["cells"] = v.shape[1] * v.shape[2] * (v.shape[0] + 2)
        return attrs
    if name in ("io.write_draws", "io.write_dataset"):
        return {"bytes_written": os.path.getsize(args[1])}
    if name in ("render.render_ccdf", "render.render_density"):
        return {"svg_bytes": len(result.encode("utf-8"))}
    if name == "regress.fit":
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        stats = result.chain_stats
        return {
            "chain_iterations": spec.chains * spec.iterations,
            "slice_evals": sum(s.slice_evals_per_iteration for s in stats) * spec.iterations,
            "stepouts": sum(s.stepouts_per_iteration for s in stats) * spec.iterations,
        }
    return {}


class Tracer:
    """Collects spans in memory while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._command = -1

    def _record(self, name, start_ns, end_ns, parent) -> Span:
        span = Span(len(self.spans), name, start_ns, end_ns, parent, self._command)
        self.spans.append(span)
        return span

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = self._record(name, 0, 0, parent)
            self._stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            span.attrs = _counters(name, args, kwargs, result)
            return result

        return traced

    def begin_command(self, kind: str, start_ns: int) -> None:
        self._command += 1
        root = self._record(f"cli.{kind}", start_ns, start_ns, None)
        self._stack = [root.id]

    def end_command(self, end_ns: int) -> None:
        self.spans[self._stack[0]].end_ns = end_ns
        self._stack = []

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer function for a tracing wrapper; restore on exit."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"effectprob.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        saved = []
        for name, module in list(sys.modules.items()):
            if name == "effectprob" or name.startswith("effectprob."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        saved.append((module, attr, obj))
                        setattr(module, attr, wrappers[obj])
        try:
            yield self
        finally:
            for module, attr, obj in reversed(saved):
                setattr(module, attr, obj)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover, in ns."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration_ns - covered
    return out


def command_breakdown(spans: list[Span]) -> list[dict]:
    """Per command: wall time, self time per layer, and whether they add up.

    The root span's self time is ``cli.other`` (argument parsing,
    printing, writing SVG files). Self times are derived from interval
    coverage, so they sum to the wall time exactly only when every span
    lies inside its parent and siblings do not overlap.
    """
    own = self_times(spans)
    nonnegative = all(v >= 0 for v in own.values())
    by_command: dict[int, list[Span]] = {}
    for s in spans:
        by_command.setdefault(s.command, []).append(s)
    out = []
    for command, group in sorted(by_command.items()):
        root = next(s for s in group if s.parent is None)
        layers: dict[str, int] = {}
        for s in group:
            if s is not root:
                layers[s.layer] = layers.get(s.layer, 0) + own[s.id]
        out.append({
            "command": root.name,
            "wall_ns": root.duration_ns,
            "other_ns": own[root.id],
            "layer_self_ns": layers,
            "adds_up": nonnegative and own[root.id] + sum(layers.values()) == root.duration_ns,
        })
    return out
