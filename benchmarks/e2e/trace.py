"""Spans recorded from outside the program.

Nothing under ``src/`` knows it is being traced: :class:`Tracer` wraps
public callables of ``repro`` (rebinding every ``repro.*`` module
attribute that *is* the original, because e.g. ``core/api.py``
from-imports ``compile_train_step``) and reads public result objects.
Spans ``[name, start, end, parent, step]`` stay in memory; the segment
turns them into per-layer numbers and, on request, a Chrome-trace file.

A wrap target that a later change renamed is reported on stderr and its
metrics read 0 -- the benchmark keeps running, and the missing layer is
visible.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable

NAME, START, END, PARENT, STEP = range(5)

#: step id of spans recorded before the first step has returned.
SETUP = -1

# (module, attribute or "Class.method", span name)
_TARGETS = (
    ("repro.ir", "trace", "ir.tracer.trace"),
    ("repro.core.compile", "compile_train_step", "core.compile"),
    ("repro.core.stage_split", "split_stages", "core.stage_split"),
    ("repro.core.schedules", "Schedule.lower", "core.schedule_ir.lower"),
    ("repro.ir.opt", "optimize_split", "ir.opt"),
    ("repro.ir.linearize", "linearize", "ir.linearize"),
    ("repro.ir.codegen", "codegen", "ir.codegen"),
    ("repro.runtime.actorgen", "fuse_mesh", "runtime.actorgen.fuse"),
    ("repro.runtime.pool", "ActorPool.__init__", "runtime.pool.spawn"),
    ("repro.runtime.pool", "ActorPool.submit", "runtime.pool.submit"),
    ("repro.runtime.pool", "PoolFuture.result", "runtime.pool.wait"),
    ("repro.runtime.executor", "MpmdExecutor.place", "runtime.executor.place"),
    ("repro.runtime.executor", "MpmdExecutor.execute", "runtime.executor.execute"),
    ("repro.runtime.executor", "MpmdExecutor.fetch", "runtime.executor.fetch"),
    ("repro.core.autotune", "tune", "core.autotune.tune"),
    ("repro.perf.pipeline_sim", "price_schedule", "perf.pipeline_sim.price"),
)

#: span names whose call results (or, for methods, receivers) are kept, as
#: ``(step, object)``, so their public counters can be read afterwards.
_KEEP = {
    "ir.tracer.trace", "ir.linearize", "ir.codegen", "runtime.actorgen.fuse",
    "runtime.pool.spawn", "core.autotune.tune",
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.step = SETUP
        self.kept: dict[str, list] = {name: [] for name in _KEEP}
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.step])
        stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn: Callable, method: bool = False) -> Callable:
        keep = self.kept.get(name)

        # wraps() also copies __module__/__qualname__, so pickle still ships
        # a wrapped module-level function (LinearProgram.__reduce__ names
        # ``linearize``) by reference and workers resolve the original
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep is not None:
                keep.append((self.spans[idx][STEP], args[0] if method else out))
            return out

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Import ``repro`` under a span, then wrap every target."""
        idx = self.begin("core.api.import")
        import repro.core  # noqa: F401
        import repro.data  # noqa: F401
        import repro.ir  # noqa: F401
        import repro.models  # noqa: F401
        self.end(idx)
        for module, attr, name in _TARGETS:
            try:
                self._patch(importlib.import_module(module), attr, name)
            except (ImportError, AttributeError, KeyError) as e:
                print(f"trace: cannot wrap {module}.{attr}: {e!r}", file=sys.stderr)

    def _patch(self, module: Any, attr: str, name: str) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, self.wrap(name, cls.__dict__[meth], method=True))
            return
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def wrap_tasks(self, programs: list, name: str) -> int:
        """Replace each ``RunTask.fn`` in ``programs`` with a timing
        wrapper (``RunTask`` is a public, non-frozen dataclass).  Wrappers
        are shared per payload, as the payloads are."""
        wrappers: dict[int, Callable] = {}
        n = 0
        for program in programs:
            for instr in program:
                fn = getattr(instr, "fn", None)
                if type(instr).__name__ != "RunTask" or fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn)
                instr.fn = wrappers[id(fn)]
                n += 1
        return n

    # -- queries ---------------------------------------------------------
    def outermost(self, name: str, step: int | None = None) -> list[list]:
        """Spans called ``name`` with no ancestor of the same name (and,
        if given, recorded during ``step``)."""
        out = []
        for span in self.spans:
            if span[NAME] != name or (step is not None and span[STEP] != step):
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != name:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                out.append(span)
        return out

    def total_ms(self, name: str, step: int | None = None) -> float:
        """Inclusive wall milliseconds of the outermost ``name`` spans."""
        return sum(s[END] - s[START] for s in self.outermost(name, step)) * 1e3

    def count(self, name: str, step: int | None = None) -> int:
        return sum(
            1 for s in self.spans
            if s[NAME] == name and (step is None or s[STEP] == step)
        )

    def self_ms(self, name: str, step: int | None = None) -> float:
        """Duration of the ``name`` spans minus their direct children."""
        own = {
            i for i, s in enumerate(self.spans)
            if s[NAME] == name and (step is None or s[STEP] == step)
        }
        total = sum(self.spans[i][END] - self.spans[i][START] for i in own)
        child = sum(s[END] - s[START] for s in self.spans if s[PARENT] in own)
        return (total - child) * 1e3

    def per_step_ms(self, name: str, steps: list[int]) -> list[float]:
        """Inclusive milliseconds of ``name`` in each of ``steps`` (one
        pass over the spans; nested same-name spans do not occur in the
        steady state)."""
        acc = dict.fromkeys(steps, 0.0)
        for s in self.spans:
            if s[NAME] == name and s[STEP] in acc:
                acc[s[STEP]] += s[END] - s[START]
        return [acc[k] * 1e3 for k in steps]

    # -- export ----------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace JSON (open in Perfetto or
        ``chrome://tracing``)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": s[NAME], "ph": "X", "pid": 0, "tid": 0,
                "ts": (s[START] - t0) * 1e6, "dur": (s[END] - s[START]) * 1e6,
                "args": {"step": s[STEP], "parent": s[PARENT]},
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def count_eqns(jaxpr: Any) -> int:
    """Equations in ``jaxpr`` including nested sub-jaxprs (the
    ``pipeline_loop`` body holds most of a train step)."""
    n = 0
    for eqn in jaxpr.eqns:
        n += 1
        for value in getattr(eqn, "params", {}).values():
            if hasattr(value, "eqns"):
                n += count_eqns(value)
    return n


def count_py_calls(fn: Callable[[], Any]) -> int:
    """``call`` + ``c_call`` profile events while ``fn()`` runs in this
    thread: the Python-level dispatch count of one step."""
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n
