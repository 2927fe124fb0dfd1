"""Differential suite: ``task_backend="codegen"`` vs ``"linear"``.

The codegen backend exec-compiles each lowered ``LinearProgram`` into one
straight-line Python function; the whole-mesh variant
(``codegen_actor=True`` on an in-process engine) additionally fuses the
engine's instruction loop into one generated driver.  Both must be
*bit-identical* to the linear VM — same values, same dtypes — for every
schedule in the gallery, for data-parallel execution, and through the
``engine="mp"`` pool.  Same differential pattern as the
linear-vs-interpret suite: the reference stays available forever,
equivalence is asserted rather than assumed.
"""

import re
import signal

import numpy as np
import pytest

from repro import core, ir
from repro.core.compile import compile_train_step
from repro.ir import ops
from repro.ir.codegen import CodegenProgram, codegen
from repro.runtime.instructions import RunTask
from tests.core.test_linear_backend import (
    GALLERY,
    assert_bit_identical,
    make_problem,
)
from tests.helpers import payload

HARD_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _hard_timeout():
    """mp lanes must never wedge the suite, even if a watchdog regresses."""

    def fire(signum, frame):  # pragma: no cover - only on regression
        raise TimeoutError(f"test exceeded {HARD_TIMEOUT_S}s hard cap")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(HARD_TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


class TestGalleryEquivalence:
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_codegen_bit_identical_to_linear(self, schedule):
        ts, params, batch = make_problem(4, n_mbs=8)
        results = {}
        for backend in ("linear", "codegen"):
            mesh = core.RemoteMesh((schedule.n_actors,))
            step = mesh.distributed(ts, schedule=schedule, task_backend=backend)
            results[backend] = step(params, batch)
        assert_bit_identical(results["linear"], results["codegen"])

    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_fused_actor_driver_bit_identical(self, schedule):
        """codegen_actor=True replaces the event engine's instruction loop
        with one exec-compiled whole-mesh driver — values must not move."""
        ts, params, batch = make_problem(4, n_mbs=8)
        ref = core.RemoteMesh((schedule.n_actors,)).distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh((schedule.n_actors,), codegen_actor=True)
        step = mesh.distributed(ts, schedule=schedule, task_backend="codegen")
        for _ in range(2):  # steady state reuses the cached driver
            assert_bit_identical(ref, step(params, batch))
        assert step.last_result.engine == "fused"
        assert step.last_result.repolls == 0

    def test_data_parallel_bit_identical(self):
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        results = {}
        for backend in ("linear", "codegen"):
            step = core.RemoteMesh((2, 2)).distributed(
                ts, schedule=core.OneFOneB(2), task_backend=backend
            )
            results[backend] = step(params, batch)
        assert_bit_identical(results["linear"], results["codegen"])

    def test_data_parallel_fused_driver_bit_identical(self):
        """The fused mesh driver folds the dp all-reduce in the engines'
        sorted-actor order — dp results stay bit-identical too."""
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        ref = core.RemoteMesh((2, 2)).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="linear"
        )(params, batch)
        step = core.RemoteMesh((2, 2), codegen_actor=True).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="codegen"
        )
        assert_bit_identical(ref, step(params, batch))


class TestProgramBehaviour:
    def _jaxpr(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        jaxpr, _, _ = ir.trace(
            lambda x: ops.mul(ops.add(x, 1.0), ops.tanh(x)), x
        )
        return jaxpr, x

    def test_cache_hit_on_jaxpr_identity(self):
        jaxpr, _ = self._jaxpr()
        assert codegen(jaxpr) is codegen(jaxpr)

    def test_source_is_exposed(self):
        jaxpr, x = self._jaxpr()
        prog = codegen(jaxpr)
        assert isinstance(prog.source, str)
        assert "def program(" in prog.source
        # liveness frees appear as plain rebinds to None
        assert "= None" in prog.source

    def test_matches_linear_and_interpreter(self):
        jaxpr, x = self._jaxpr()
        want = ir.eval_jaxpr(jaxpr, [x])
        got = codegen(jaxpr)([x])
        for w, g in zip(want, got):
            assert np.asarray(w).dtype == np.asarray(g).dtype
            np.testing.assert_array_equal(w, g)

    def test_active_trace_fallback_inlines(self):
        # calling a CodegenProgram under an active trace must splice the
        # jaxpr into the outer trace, exactly like eval_jaxpr
        x = np.full((3,), 2.0, np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.mul(ops.add(x, 1.0), 2.0), x)
        prog = codegen(jaxpr)
        outer, _, _ = ir.trace(lambda x: ops.neg(prog([x])[0]), x)
        assert outer.n_eqns >= 3  # inlined, not opaque
        np.testing.assert_array_equal(
            ir.eval_jaxpr(outer, [x])[0], -(x + 1.0) * 2.0
        )

    def test_repeated_runs_are_independent(self):
        # donation/liveness must not leak state between calls
        r = np.random.RandomState(7)
        x = r.randn(4, 4).astype(np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.add(ops.matmul(x, x), 1.0), x)
        prog = codegen(jaxpr)
        first = [np.array(v, copy=True) for v in prog([x])]
        second = prog([x])
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_compiler_embeds_codegen_payloads(self):
        ts, params, batch = make_problem(3, n_mbs=6)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(
            jaxpr, core.OneFOneB(3), task_backend="codegen"
        )
        assert compiled.task_backend == "codegen"
        loop_fns = {
            id(instr.fn): instr.fn
            for prog in compiled.programs
            for instr in prog
            if isinstance(instr, RunTask) and instr.meta.get("phase") == "loop"
        }
        assert loop_fns
        assert all(
            isinstance(payload(fn), CodegenProgram) for fn in loop_fns.values()
        )


class TestMpEngine:
    """The pickle-clean contract: ``__reduce__`` re-lowers worker-side, so
    mp spawn workers and the persistent pool ship codegen unchanged."""

    def test_pool_codegen_bit_identical(self):
        ts, params, batch = make_problem(4, n_mbs=4)
        ref = core.RemoteMesh((4,)).distributed(
            ts, schedule=core.OneFOneB(4), task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh((4,), engine="mp")
        try:
            step = mesh.distributed(
                ts, schedule=core.OneFOneB(4), task_backend="codegen"
            )
            for _ in range(2):  # second submit hits the worker program cache
                assert_bit_identical(ref, step(params, batch))
        finally:
            mesh.close()

    def test_pool_codegen_actor_accepted_without_effect(self):
        """codegen_actor=True on mp: every rank still runs the worker's
        instruction loop — same values, a per-instruction wall-clock
        timeline (the in-process fused driver has none) and a plain
        program key."""
        ts, params, batch = make_problem(4, n_mbs=4)
        ref = core.RemoteMesh((4,)).distributed(
            ts, schedule=core.OneFOneB(4), task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh((4,), engine="mp", codegen_actor=True)
        try:
            step = mesh.distributed(
                ts, schedule=core.OneFOneB(4), task_backend="codegen"
            )
            for _ in range(2):
                assert_bit_identical(ref, step(params, batch))
            res = step.last_result
            assert res.engine == "mp"
            assert {"task", "send", "recv"} <= {e.kind for e in res.timeline}
            assert re.fullmatch(r"step-\d+\.codegen\.L\d", step.compiled.program_key)
        finally:
            mesh.close()

    @pytest.mark.slow
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_pool_gallery_sweep(self, schedule):
        """Acceptance sweep: codegen == linear for the full gallery through
        the persistent pool (one warm mesh per actor width)."""
        ts, params, batch = make_problem(4, n_mbs=8)
        ref = core.RemoteMesh((schedule.n_actors,)).distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh((schedule.n_actors,), engine="mp")
        try:
            step = mesh.distributed(
                ts, schedule=schedule, task_backend="codegen"
            )
            assert_bit_identical(ref, step(params, batch))
        finally:
            mesh.close()


class TestFusionGuards:
    def test_cost_model_refused(self):
        from repro.runtime.clock import CostModel

        with pytest.raises(ValueError, match="codegen_actor"):
            core.RemoteMesh(
                (2,), codegen_actor=True, cost_model=CostModel()
            )

    def test_peak_bytes_needs_unfused_run(self):
        ts, params, batch = make_problem(2, n_mbs=4)
        step = core.RemoteMesh((2,), codegen_actor=True).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="codegen"
        )
        step(params, batch)
        with pytest.raises(RuntimeError, match="unfused"):
            step.peak_bytes_per_actor
