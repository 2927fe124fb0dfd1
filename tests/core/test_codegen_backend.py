"""Differential suite: ``task_backend="codegen"`` vs ``"linear"``.

The codegen backend exec-compiles each lowered ``LinearProgram`` into one
straight-line Python function; every warm ``engine="event"`` step
additionally fuses the engine's instruction loop into one generated
whole-mesh driver.  Both must be
*bit-identical* to the linear VM — same values, same dtypes — for every
schedule in the gallery, for data-parallel execution, and through the
``engine="mp"`` pool.  Same differential pattern as the
linear-vs-interpret suite: the reference stays available forever,
equivalence is asserted rather than assumed.
"""

import ast
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
from tests.helpers import fused_driver, payload

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
        """A warm call replaces the event engine's instruction loop with one
        exec-compiled whole-mesh driver — values must not move, and the
        call reports the first call's event-engine result."""
        ts, params, batch = make_problem(4, n_mbs=8)
        ref = core.RemoteMesh((schedule.n_actors,)).distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh((schedule.n_actors,))
        step = mesh.distributed(ts, schedule=schedule, task_backend="codegen")
        assert_bit_identical(ref, step(params, batch))
        first = step.last_result
        for _ in range(2):  # the first warm call builds the driver, then reuses it
            assert_bit_identical(ref, step(params, batch))
            assert fused_driver(step) is not None
        assert step.last_result is first
        assert first.engine == "event" and first.repolls == 0

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
        step = core.RemoteMesh((2, 2)).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="codegen"
        )
        for _ in range(2):  # an event run, then the fused driver
            assert_bit_identical(ref, step(params, batch))
        assert fused_driver(step) is not None


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

    @pytest.mark.parametrize("ta", [False, True])
    @pytest.mark.parametrize("tb", [False, True])
    @pytest.mark.parametrize(
        "m,k,n", [(256, 384, 128), (128, 256, 384), (7, 5, 3)]
    )
    def test_weight_gemm_path_bit_identical(self, m, k, n, ta, tb):
        # every weight GEMM reaches codegen as a 2-D float matmul, which
        # it emits as np.dot while linear and interpret call np.matmul;
        # dX and dW hand it transposed views, so pin all four layouts
        r = np.random.RandomState(m + k + n)

        def f32(*shape):
            return r.randn(*shape).astype(np.float32)

        a = f32(k, m).T if ta else f32(m, k)
        b = f32(n, k).T if tb else f32(k, n)
        jaxpr, _, _ = ir.trace(ops.matmul, a, b)
        prog = codegen(jaxpr)
        assert "_dot(" in prog.source
        want = ir.eval_jaxpr(jaxpr, [a, b])[0]
        for got in (ir.linearize(jaxpr)([a, b])[0], prog([a, b])[0]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

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


def _live_at_return(source: str) -> list[str]:
    """Locals a generated program still binds when it returns, other than
    the returned values: every other local must be rebound to ``None``
    after its last read (the liveness plan, as emitted)."""
    fn = ast.parse(source).body[0]
    *body, ret = fn.body
    returned = {n.id for n in ast.walk(ret) if isinstance(n, ast.Name)}
    bound: set[str] = set()
    dead: dict[str, bool] = {}  # name -> its last event rebinds it to None
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                dead[node.id] = False
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is None
        ):
            dead.update((t.id, True) for t in stmt.targets)
    return sorted(n for n in bound - returned if not dead[n])


class TestFreedIntermediates:
    """Regression: generated code must not keep a value the liveness plan
    freed.  Intermediates of fused elementwise groups used to live in
    temporaries that were never rebound, so an in-place group root held
    its buffer — and every freed ``vN`` sharing it — until the task
    returned."""

    def test_benchmark_shaped_tasks_free_every_local(self):
        from repro.data import token_batches
        from repro.models import (
            TrainState, TransformerConfig, adam_apply, adam_init,
            constant_lr, init_transformer, transformer_loss,
        )

        cfg = TransformerConfig(
            vocab=32, seq=8, d_model=16, n_heads=2, d_ff=32, n_layers=2,
            n_stages=2, tie_embeddings=True,
        )
        schedule, lr = core.OneFOneB(2), constant_lr(1e-3)

        def train_step(state, batch):
            def microbatch_grads(mb):
                loss, grads = ir.value_and_grad(
                    lambda p, mb: transformer_loss(p, mb, cfg)
                )(state.params, mb)
                return grads, loss

            grads, losses = core.accumulate_grads(microbatch_grads, schedule)(batch)
            return adam_apply(state, grads, lr(state.step)), losses

        params = init_transformer(np.random.RandomState(0), cfg)
        state = TrainState(params, adam_init(params), np.int32(0))
        batch = next(token_batches(cfg.vocab, cfg.seq, 4, 4, 1, seed=1))
        jaxpr, _, _ = ir.trace(train_step, state, batch)
        compiled = compile_train_step(jaxpr, schedule, task_backend="codegen")
        programs = {
            id(payload(instr.fn)): payload(instr.fn)
            for prog in compiled.programs
            for instr in prog
            if isinstance(instr, RunTask)
            and isinstance(payload(instr.fn), CodegenProgram)
        }
        assert sum(p.stats["fused_groups"] for p in programs.values()) > 0
        leaks = {
            i: live
            for i, p in enumerate(programs.values())
            if (live := _live_at_return(p.source))
        }
        assert not leaks


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
        timeline and a plain program key."""
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


class TestFusedWarmStep:
    """``codegen_actor`` selects nothing: a cost model and the store peaks
    are reported on every in-process step, warm ones included."""

    def test_codegen_actor_accepts_a_cost_model(self):
        from repro.runtime.clock import LinearCost

        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = core.RemoteMesh(
            (2,), codegen_actor=True, cost_model=LinearCost(dispatch=1e-6, p2p_latency=1e-6)
        )
        step = mesh.distributed(ts, schedule=core.OneFOneB(2), task_backend="codegen")
        for _ in range(2):
            step(params, batch)
        assert fused_driver(step) is not None
        assert step.last_result.makespan > 0 and step.last_result.timeline

    def test_peak_bytes_on_a_warm_step(self):
        ts, params, batch = make_problem(2, n_mbs=4)
        step = core.RemoteMesh((2,), codegen_actor=True).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="codegen"
        )
        step(params, batch)
        peaks = step.peak_bytes_per_actor
        step(params, batch)
        assert fused_driver(step) is not None
        assert step.peak_bytes_per_actor == peaks and min(peaks) > 0
