"""Pin the lowering: the four benchmark workloads compile to exactly these
generated sources and instruction streams.

A change that only moves knowledge between layers (which table says what
about a primitive, which module owns a rule) must leave every compiled
program byte-identical, so no step time can move.  This test compiles each
``benchmarks/e2e/workloads.py`` configuration in-process (``engine``
dropped, two steps), then hashes every ``CodegenProgram.source`` the
streams run and each actor's instruction stream.  A mismatch names the
digests it got; update the pinned values only in a change that means to
alter emitted programs, and say so there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import types

import pytest

from benchmarks.e2e.workloads import WORKLOADS, build
from repro.runtime.instructions import BufferRef, Bundled, RunTask

codegen_mod = importlib.import_module("repro.ir.codegen")

#: sha256 of the sorted, concatenated sources; their count and line total
SOURCES = (48, 17597, "3035a15458cb72f2082511aabef57c2c50f254609fe1108d43e3b0499a5c164b")
#: sha256 of every actor's serialized instruction stream, workload order
STREAMS = "9adaba6e5eb56d33d5ebfe44cf7b4b9781bce350e7641f0beb9ece80ba3649d4"


def _desc(v) -> str:
    """Address-free text of an instruction field."""
    if isinstance(v, Bundled):
        return f"Bundled({v.in_index}, {v.out_keep}, {v.out_groups}, {_desc(v.fn)})"
    if isinstance(v, codegen_mod.CodegenProgram):
        return "codegen:" + hashlib.sha256(v.source.encode()).hexdigest()
    if isinstance(v, BufferRef):
        return v.uid
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_desc(x) for x in v) + ")"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_desc(x)}" for k, x in sorted(v.items())) + "}"
    if isinstance(v, types.FunctionType):
        return f"{v.__module__}.{v.__qualname__}"
    return repr(v)


def _lower_all() -> tuple[dict[int, str], list[str]]:
    sources: dict[int, str] = {}
    lines: list[str] = []
    for name, w in WORKLOADS.items():
        mesh = {k: v for k, v in w.mesh.items() if k != "engine"}
        built = build(dataclasses.replace(w, mesh=mesh), seed=0)
        state = built.state
        try:
            for batch in built.batches[:2]:
                state, _ = built.step_fn(state, batch)
        finally:
            built.mesh.close()
        for a, prog in enumerate(built.step_fn.compiled.programs):
            lines.append(f"{name} actor {a}")
            for ins in prog:
                fn = ins.fn if isinstance(ins, RunTask) else None
                fn = fn.fn if isinstance(fn, Bundled) else fn
                if isinstance(fn, codegen_mod.CodegenProgram):
                    sources[id(fn)] = fn.source
                fields = ", ".join(
                    f"{f.name}={_desc(getattr(ins, f.name))}"
                    for f in dataclasses.fields(ins)
                )
                lines.append(f"{type(ins).__name__}({fields})")
    return sources, lines


@pytest.fixture(scope="module")
def lowered():
    return _lower_all()


def test_generated_sources_are_pinned(lowered):
    sources, _ = lowered
    texts = sorted(sources.values())
    got = (
        len(texts),
        sum(t.count("\n") for t in texts),
        hashlib.sha256("".join(texts).encode()).hexdigest(),
    )
    assert got == SOURCES


def test_instruction_streams_are_pinned(lowered):
    _, lines = lowered
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STREAMS
