"""Span tracing of cospart's layers, applied from outside the package.

`Tracer.install` replaces each traced function by a wrapper wherever the
function object is bound: its own module, every cospart module that imported
the name, and the package namespace.  Spans (name, start, end, parent) are
kept in memory; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# (module, attribute) of every traced function, named "<module>.<function>".
TRACED = {
    "pipeline": ("run_cascade", "multiply_stage", "synthesize_sources"),
    "dsp": ("sample_after_filter", "apply_lowpass"),
    "calibration": ("bootstrap_threshold", "measure_stage_offsets", "decide_analog"),
    "exact": ("decide_dp", "decide_meet_in_middle", "ideal_dc", "solve_exact"),
    "reductions": ("sat_to_partition", "simplify"),
}
# Methods are traced on their class: (module, class, method) -> span name.
TRACED_METHODS = {("reductions", "OracleBackend", "decide"): "reductions.oracle_call"}


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    attrs: dict = field(default_factory=dict)


def _retained_node_bytes(trace) -> int:
    """Bytes of the sample arrays a PipelineTrace keeps alive, each array counted once."""
    arrays = {id(s.samples): s.samples.nbytes
              for s in [*trace.sources, *trace.mult_outputs, *trace.stage_outputs, trace.final]}
    return sum(arrays.values())


# Extra facts recorded from a traced call's result, per span name.
_ATTRS: dict[str, Callable] = {
    "pipeline.run_cascade": lambda tr: {"grid_points": tr.final.m,
                                        "node_bytes": _retained_node_bytes(tr)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields the span's index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(),
                               parent=self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter_ns()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if attrs is not None:
                self.spans[idx].attrs = attrs(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cospart" or key.startswith("cospart."))]
        originals = {}
        for mod, names in TRACED.items():
            module = sys.modules[f"cospart.{mod}"]
            for attr in names:
                fn = getattr(module, attr)
                originals[id(fn)] = self._wrap(f"{mod}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for (mod, cls_name, attr), name in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"cospart.{mod}"], cls_name)
            fn = vars(cls)[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self, roots: set[int]) -> tuple[dict, dict]:
        """Self time (s) and call count per span name, over the spans under ``roots``.

        Self time is a span's duration minus that of its direct children.
        """
        child_ns = defaultdict(int)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        inside = self.descendants(roots)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, s in enumerate(self.spans):
            if i not in inside:
                continue
            self_s[s.name] += (s.end - s.start - child_ns[i]) * 1e-9
            calls[s.name] += 1
        return self_s, calls

    def descendants(self, roots: set[int]) -> set[int]:
        """Indices of the given spans and of every span opened inside them."""
        inside = set()
        for i, s in enumerate(self.spans):  # parents always precede children
            if i in roots or s.parent in inside:
                inside.add(i)
        return inside

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent, **s.attrs}) + "\n")
