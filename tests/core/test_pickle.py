"""Pickle round-trips for compiled artefacts — the spawn-context contract.

The multi-process MPMD backend (``engine="mp"``, :mod:`repro.runtime.mp`)
ships each actor's fused instruction program to a spawn-context worker
with plain :mod:`pickle`.  That makes picklability of everything a program
can reference part of the compiler's contract:

- ``Primitive`` reduces to a registry lookup by name (its impl/vjp rules
  are frequently lambdas and must never be serialized; identity is
  preserved, so unpickled equations still satisfy ``eqn.prim is
  registry[name]``);
- ``LinearProgram`` reduces to ``linearize(jaxpr)`` — the lowered form
  (``functools.partial`` impls, ``FusedChain`` ufunc steps) is rebuilt
  deterministically from the shipped jaxpr;
- every RunTask payload the compiler emits (slice / dp-mean / stack /
  combine / pre-post equation / interpret fallback) is a module-level
  function or a small picklable callable class — never a closure.
"""

import pickle

import numpy as np
import pytest

from repro import core, ir
from repro.core.compile import compile_train_step
from repro.ir.codegen import CodegenProgram, codegen
from repro.ir.jaxpr import validate
from repro.ir.linearize import FusedChain, LinearProgram, linearize
from repro.ir.primitives import registry
from repro.runtime.executor import MpmdExecutor
from repro.runtime.instructions import BufferRef, RunTask
from tests.core.test_linear_backend import assert_bit_identical, make_problem
from tests.helpers import payload

PROTOCOLS = (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL)


def _task_args(task, seed=0):
    r = np.random.RandomState(seed)
    return [
        r.randn(*v.aval.shape).astype(v.aval.dtype.np_dtype)
        if v.aval.shape
        else np.float32(r.randn())
        for v in task.jaxpr.invars
    ]


def _compiled(n_stages=3, n_mbs=4, schedule=None, **kw):
    ts, params, batch = make_problem(n_stages, n_mbs=n_mbs)
    jaxpr, _, _ = ir.trace(ts, params, batch)
    compiled = compile_train_step(jaxpr, schedule or core.OneFOneB(n_stages), **kw)
    flat, _ = ir.tree_flatten((params, batch))
    return compiled, flat


def _run(compiled, flat, programs=None):
    """Drive one execution of ``programs`` (default: the compiled step's
    own) through a fresh executor, mirroring the StepFunction driver."""
    ex = MpmdExecutor(compiled.n_actors)
    for k, placements in enumerate(compiled.input_placements):
        for actor, uid in placements:
            ex.place(actor, BufferRef(uid), np.asarray(flat[k]), 0, pinned=True)
    for actor, uid, lit in compiled.literal_placements:
        ex.place(actor, BufferRef(uid), np.asarray(lit.value), 0, pinned=True)
    ex.execute(programs if programs is not None else compiled.programs)
    outs = []
    for src in compiled.output_sources:
        if src[0] == "literal":
            outs.append(src[1])
        elif src[0] == "input":
            outs.append(flat[src[1]])
        else:
            outs.append(ex.fetch(src[1], BufferRef(src[2])))
    return outs


class TestPrimitivePickle:
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_identity_preserved(self, proto):
        p = registry["matmul"]
        q = pickle.loads(pickle.dumps(p, proto))
        assert q is p

    def test_unknown_primitive_rejected(self):
        from repro.ir.primitives import _lookup

        with pytest.raises(ValueError, match="not registered"):
            _lookup("definitely-not-a-primitive")


class TestJaxprPickle:
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_stage_jaxpr_round_trip(self, proto):
        compiled, _ = _compiled()
        for task in compiled.split.tasks:
            j2 = pickle.loads(pickle.dumps(task.jaxpr, proto))
            validate(j2)
            assert all(e.prim is registry[e.prim.name] for e in j2.eqns)
            args = _task_args(task)
            want = ir.eval_jaxpr(task.jaxpr, list(args))
            got = ir.eval_jaxpr(j2, list(args))
            assert_bit_identical(want, got)

    def test_internal_var_sharing_preserved(self):
        compiled, _ = _compiled()
        j = compiled.split.tasks[0].jaxpr
        j2 = pickle.loads(pickle.dumps(j))
        # single-assignment aliasing must survive: an eqn operand that was
        # the previous eqn's output is still the *same* Var object
        ids = {id(v) for v in j2.invars}
        for eqn in j2.eqns:
            for a in eqn.invars:
                if not isinstance(a, ir.jaxpr.Literal):
                    assert id(a) in ids
            ids.update(id(v) for v in eqn.outvars)


class TestLinearProgramPickle:
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_round_trip_bit_identical(self, proto):
        compiled, _ = _compiled()
        for task in compiled.split.tasks:
            lp = linearize(task.jaxpr)
            lp2 = pickle.loads(pickle.dumps(lp, proto))
            assert isinstance(lp2, LinearProgram)
            assert lp2.stats == lp.stats
            args = _task_args(task, seed=3)
            assert_bit_identical(lp(args), lp2(args))

    def test_fused_chain_rebuilt(self):
        """A program whose lowering produced FusedChain dispatches (raw
        ufunc steps — the unpicklable offender) still round-trips, because
        the reduce path rebuilds from the jaxpr."""
        compiled, _ = _compiled()
        fused = [
            linearize(t.jaxpr)
            for t in compiled.split.tasks
            if linearize(t.jaxpr).stats["fused_groups"] > 0
        ]
        assert fused, "expected at least one stage task with a fused chain"
        for lp in fused:
            lp2 = pickle.loads(pickle.dumps(lp))
            assert any(
                isinstance(instr[0], FusedChain) for instr in lp2._instrs
            )

    def test_sharing_collapses_via_memo_and_cache(self):
        compiled, _ = _compiled()
        loop_tasks = [
            instr
            for prog in compiled.programs
            for instr in prog
            if isinstance(instr, RunTask)
            and instr.meta.get("phase") == "loop"
            and isinstance(payload(instr.fn), LinearProgram)
        ]
        # ... and so do the Bundled adaptors over them
        n_distinct = len({id(t.fn) for t in loop_tasks})
        n_payloads = len({id(payload(t.fn)) for t in loop_tasks})
        rebuilt = pickle.loads(pickle.dumps(loop_tasks))
        assert len({id(t.fn) for t in rebuilt}) == n_distinct
        assert len({id(payload(t.fn)) for t in rebuilt}) == n_payloads


class TestCodegenProgramPickle:
    """``CodegenProgram.__reduce__`` ships only the jaxpr; the worker side
    re-lowers and re-generates source — the exact contract that lets
    ``engine="mp"`` and the persistent pool run codegen unchanged."""

    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_round_trip_bit_identical(self, proto):
        compiled, _ = _compiled()
        for task in compiled.split.tasks:
            cp = codegen(task.jaxpr)
            cp2 = pickle.loads(pickle.dumps(cp, proto))
            assert isinstance(cp2, CodegenProgram)
            args = _task_args(task, seed=3)
            assert_bit_identical(cp(args), cp2(args))

    def test_source_regenerated_not_shipped(self):
        compiled, _ = _compiled()
        cp = codegen(compiled.split.tasks[0].jaxpr)
        blob = pickle.dumps(cp)
        # the generated text never travels — only the jaxpr does
        assert cp.source.encode()[:40] not in blob
        assert pickle.loads(blob).source == cp.source

    def test_sharing_collapses_via_memo_and_cache(self):
        compiled, _ = _compiled(task_backend="codegen")
        loop_tasks = [
            instr
            for prog in compiled.programs
            for instr in prog
            if isinstance(instr, RunTask)
            and instr.meta.get("phase") == "loop"
            and isinstance(payload(instr.fn), CodegenProgram)
        ]
        assert loop_tasks
        # ... and so do the Bundled adaptors over them
        n_distinct = len({id(t.fn) for t in loop_tasks})
        n_payloads = len({id(payload(t.fn)) for t in loop_tasks})
        rebuilt = pickle.loads(pickle.dumps(loop_tasks))
        assert len({id(t.fn) for t in rebuilt}) == n_distinct
        assert len({id(payload(t.fn)) for t in rebuilt}) == n_payloads


class TestCompiledProgramsPickle:
    @pytest.mark.parametrize("task_backend", ["linear", "interpret", "codegen"])
    def test_programs_round_trip_and_execute(self, task_backend):
        compiled, flat = _compiled(task_backend=task_backend)
        want = _run(compiled, flat)
        progs2 = pickle.loads(pickle.dumps(compiled.programs))
        got = _run(compiled, flat, programs=progs2)
        assert_bit_identical(want, got)

    def test_data_parallel_programs_round_trip(self):
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(2), dp_size=2)
        blob = pickle.dumps(compiled.programs)
        assert pickle.loads(blob)  # dp all-reduce / dp-mean payloads included

    def test_every_payload_is_pickle_clean(self):
        for schedule in (core.GPipe(3), core.ZBH1(3)):
            compiled, _ = _compiled(schedule=schedule)
            for prog in compiled.programs:
                for instr in prog:
                    pickle.dumps(instr)
