"""Outside-in tracing: spans recorded around calls into each layer.

Nothing under ``src/`` is changed.  :func:`install` wraps public methods at
class level (and one public module function) and :func:`uninstall` restores
them; each wrapper records a span with its name, start, end, parent span and
cell id.  The wrapped entry points, by layer:

==============  =============================================================
``pipeline``    ``Core.run``
``memory``      the ``MemoryHierarchy`` access methods, and ``warm``
``isa``         ``Interpreter.step`` (the commit-time golden reference)
``protection``  the ``ProtectionScheme`` hooks, on every scheme class
``security``    ``ResourceObserver.normalized`` and ``first_divergence``
==============  =============================================================

The benchmark's own calls into ``repro.sim`` (``execute``, ``Session.sweep``),
``repro.scan`` (``scan_program``, ``run_dynamic``) and ``repro.eval`` (the
table builders) are spanned where it makes them, with :meth:`Recorder.span`.
No private ``Core`` method is wrapped: instance-level patching of those is
what turns fast-forward off for ``MlpProbe``.

Calls made once per cell get one span each.  The hot entry points (memory
accesses, golden steps, protection hooks: millions of calls) are *folded*:
all calls with the same name under the same parent span share one span
record, whose ``count`` is the number of calls, ``total`` their summed
duration, and ``start``/``end`` the first start and last end.  A call into a
layer made directly inside a folded call into the same layer
(``SdoProtection`` calling ``SttProtection`` through ``super()``, ``store``
calling ``load``) belongs to the outer call and records nothing.

Spans stay in memory.  Sweep workers are forked from the benchmark process;
each worker appends its spans to ``<out>/worker-<pid>.jsonl`` when a cell's
root span closes, and :meth:`Recorder.collect` merges them with the
parent's spans at the end.  Self time is a span's total minus the totals of
its direct children.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import repro.security.analyzer as security_analyzer
from repro.isa.iss import Interpreter
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.observer import ResourceObserver
from repro.pipeline.core import Core
from repro.pipeline.protection import ProtectionScheme

#: MemoryHierarchy methods the core and the protection schemes call per access.
MEMORY_ACCESS_METHODS = (
    "load",
    "store",
    "validate",
    "expose",
    "speculative_load",
    "release_speculative",
    "drop_speculative",
    "oblivious_load",
    "external_invalidate",
    "residence_level",
    "line_in_l1",
)

#: The ProtectionScheme hooks the core calls (``attach`` runs once per build).
PROTECTION_HOOKS = (
    "on_rename",
    "is_root_safe",
    "sources_tainted",
    "output_safe",
    "load_issue_decision",
    "fp_issue_decision",
    "may_resolve_branch",
    "begin_cycle",
    "on_complete",
    "on_commit",
    "on_squash",
    "on_load_outcome",
)

# Span record fields (spans are plain lists: cheap to create and update).
ID, NAME, START, END, PARENT, CELL, COUNT, TOTAL, ATTRS = range(9)


def _scheme_classes() -> list[type]:
    import repro.sim.configs  # noqa: F401  (imports every protection scheme)

    classes, pending = [], [ProtectionScheme]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


class NullRecorder:
    """The untraced stand-in: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()

    def cell(self, key: str):
        return nullcontext()


class Recorder:
    """Span store of one process (plus the files its forked workers write)."""

    active = True

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.spans: list[list] = []
        self._folded: dict[tuple, list] = {}
        self._stack: list = [None]
        self._layers: list[str] = [""]
        self._next_id = 0
        self._pid = os.getpid()
        self._in_worker = False
        self._worker_cells = 0
        self._last_hierarchy = None
        self.current_cell: str | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    # -- span bookkeeping ------------------------------------------------ #

    def _new_span(self, name: str, start: float) -> list:
        span = [
            f"{self._pid}:{self._next_id}", name, start, start,
            self._stack[-1], self.current_cell, 0, 0.0, None,
        ]
        self._next_id += 1
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """One span around a call the benchmark itself makes."""
        span = self._new_span(name, time.perf_counter())
        self._stack.append(span[ID])
        self._layers.append(name)
        try:
            yield span
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._layers.pop()
            span[END] = end
            span[COUNT] = 1
            span[TOTAL] = end - span[START]

    @contextmanager
    def cell(self, key: str):
        previous, self.current_cell = self.current_cell, key
        try:
            yield
        finally:
            self.current_cell = previous

    def _after_fork(self) -> None:
        if not self.active:
            return
        # Reset in place: the folded wrappers hold these containers.
        self.spans.clear()
        self._folded.clear()
        self._stack[:] = [None]
        self._layers[:] = [""]
        self._pid = os.getpid()
        self._in_worker = True
        self.current_cell = None

    def _enter_worker_cell(self, hierarchy) -> None:
        """Give each simulated machine in a worker its own cell id."""
        if hierarchy is not self._last_hierarchy:
            self._last_hierarchy = hierarchy
            self._worker_cells += 1
            self.current_cell = f"w{self._pid}.{self._worker_cells}"

    def _flush_worker(self) -> None:
        path = self.out_dir / f"worker-{self._pid}.jsonl"
        with path.open("a") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
        self.spans.clear()
        self._folded.clear()

    # -- wrappers --------------------------------------------------------- #

    def coarse(self, name: str, fn, *, hierarchy_of=None, attrs_of=None):
        """Wrap a once-per-cell call: one span per call."""
        recorder = self

        def wrapper(*args, **kwargs):
            root = recorder._stack[-1] is None
            if root and recorder._in_worker and hierarchy_of is not None:
                recorder._enter_worker_cell(hierarchy_of(args[0]))
            span = recorder._new_span(name, time.perf_counter())
            recorder._stack.append(span[ID])
            recorder._layers.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder._layers.pop()
                span[END] = end
                span[COUNT] = 1
                span[TOTAL] = end - span[START]
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args[0], result)
            if root and recorder._in_worker:
                recorder._flush_worker()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def folded(self, name: str, fn):
        """Wrap a hot call: one span per (parent, name), counting calls."""
        recorder = self
        layer = name.split(".", 1)[0]
        stack, layers, folded = recorder._stack, recorder._layers, recorder._folded
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            key = (stack[-1], name)
            span = folded.get(key)
            start = perf_counter()
            if span is None:
                span = folded[key] = recorder._new_span(name, start)
            stack.append(span[ID])
            layers.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                layers.pop()
                span[COUNT] += 1
                span[TOTAL] += end - start
                span[END] = end

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------- #

    def collect(self, path: Path) -> list[dict]:
        """Merge the workers' spans with ours, write them all, return them."""
        records = [_as_dict(span) for span in self.spans]
        for worker_file in sorted(self.out_dir.glob("worker-*.jsonl")):
            with worker_file.open() as stream:
                records.extend(_as_dict(json.loads(line)) for line in stream)
            worker_file.unlink()
        with path.open("w") as stream:
            for record in records:
                stream.write(json.dumps(record) + "\n")
        return records


def _as_dict(span: list) -> dict:
    record = {
        "id": span[ID], "name": span[NAME], "start": span[START],
        "end": span[END], "parent": span[PARENT], "cell": span[CELL],
        "count": span[COUNT], "total": span[TOTAL],
    }
    if span[ATTRS]:
        record.update(span[ATTRS])
    return record


def _run_attrs(core: Core, result) -> dict:
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ff_skipped": core.ff_skipped_cycles,
    }


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every traced entry point; returns what :func:`uninstall` needs."""
    patches: list[tuple] = []

    def patch(owner, attr: str, wrapper) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    patch(Core, "run", recorder.coarse(
        "pipeline.run", Core.run,
        hierarchy_of=lambda core: core.hierarchy, attrs_of=_run_attrs,
    ))
    patch(MemoryHierarchy, "warm", recorder.coarse(
        "memory.warm", MemoryHierarchy.warm, hierarchy_of=lambda hierarchy: hierarchy,
    ))
    for method in MEMORY_ACCESS_METHODS:
        patch(MemoryHierarchy, method,
              recorder.folded(f"memory.{method}", getattr(MemoryHierarchy, method)))
    patch(Interpreter, "step", recorder.folded("isa.step", Interpreter.step))
    for cls in _scheme_classes():
        for hook in PROTECTION_HOOKS:
            if hook in cls.__dict__:
                patch(cls, hook, recorder.folded(f"protection.{hook}", cls.__dict__[hook]))
    patch(ResourceObserver, "normalized", recorder.coarse(
        "security.normalized", ResourceObserver.normalized,
        attrs_of=lambda _observer, trace: {"events": len(trace)},
    ))
    patch(security_analyzer, "first_divergence", recorder.folded(
        "security.first_divergence", security_analyzer.first_divergence,
    ))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- per-layer figures from spans ------------------------------------------ #


class SpanSummary:
    """Totals, self times, counts and attributes summed by span name."""

    def __init__(self, records: list[dict]) -> None:
        child_total: dict[str, float] = defaultdict(float)
        for record in records:
            if record["parent"] is not None:
                child_total[record["parent"]] += record["total"]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.attr: dict[str, float] = defaultdict(float)
        for record in records:
            name = record["name"]
            self.total[name] += record["total"]
            self.self_time[name] += record["total"] - child_total[record["id"]]
            self.count[name] += record["count"]
            for key in ("cycles", "instructions", "ff_skipped", "events"):
                if key in record:
                    self.attr[f"{name}.{key}"] += record[key]

    def layer(self, prefix: str, exclude: tuple[str, ...] = ()) -> tuple[float, int]:
        """(self seconds, calls) over span names starting with ``prefix``."""
        seconds, calls = 0.0, 0
        for name, value in self.self_time.items():
            if name.startswith(prefix) and name not in exclude:
                seconds += value
                calls += self.count[name]
        return seconds, calls
