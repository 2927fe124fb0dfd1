"""Differential suite: ``task_backend="linear"`` vs ``"interpret"``.

The linear task VM must be *bit-identical* to the tree-walking
interpreter — same values, same dtypes — for every schedule in the
gallery, for data-parallel execution, and for the eager
``pipeline_loop`` reference path.  This mirrors the runtime's
event-vs-roundrobin differential pattern (PR 1): the reference backend
stays available forever, and equivalence is asserted rather than assumed.
"""

import numpy as np
import pytest

from repro import core, ir
from repro.core.compile import compile_train_step
from repro.ir import nn, ops, pipeline_yield
from repro.ir.linearize import LinearProgram
from tests.helpers import payload, rng


def make_problem(n_stages, n_mbs=4, mbsz=6, d=8, seed=1):
    r = rng(seed)
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    params = {f"w{i}": (r.randn(d, d) * 0.3).astype(np.float32) for i in range(n_stages)}

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages):
            h = nn.relu(ops.matmul(h, p[f"w{i}"])) if i < n_stages - 1 else ops.matmul(h, p[f"w{i}"])
            if i < n_stages - 1:
                h = pipeline_yield(h)
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(microbatch_grads, None)(batch)
        new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads)
        return new, loss

    return train_step, params, (X, Y)


def assert_bit_identical(a, b):
    fa, ta = ir.tree_flatten(a)
    fb, tb = ir.tree_flatten(b)
    assert repr(ta) == repr(tb)
    for x, y in zip(fa, fb):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


# the full 10-schedule gallery at 4 pipeline stages (two-chunk
# placements — interleaved, BFS, and the ZB-V v-shape — run 4 stages on
# 2 actors; Hybrid1F1B exercises a tuner-shaped warmup vector)
GALLERY = [
    core.GPipe(4),
    core.OneFOneB(4),
    core.Eager1F1B(4),
    core.Hybrid1F1B(4, (5, 3, 1, 0)),
    core.ZBH1(4),
    core.ZBH2(4),
    core.ZBV(2),
    core.Interleaved1F1B(2, 2),
    core.LoopedBFS(2, 2),
    core.InterleavedZB(2, 2),
]


class TestGalleryEquivalence:
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_backends_bit_identical(self, schedule):
        ts, params, batch = make_problem(4, n_mbs=8)
        results = {}
        for backend in ("linear", "interpret"):
            mesh = core.RemoteMesh((schedule.n_actors,))
            step = mesh.distributed(ts, schedule=schedule, task_backend=backend)
            results[backend] = step(params, batch)
        assert_bit_identical(results["linear"], results["interpret"])

    def test_data_parallel_bit_identical(self):
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        results = {}
        for backend in ("linear", "interpret"):
            step = core.RemoteMesh((2, 2)).distributed(
                ts, schedule=core.OneFOneB(2), task_backend=backend
            )
            results[backend] = step(params, batch)
        assert_bit_identical(results["linear"], results["interpret"])


class TestCompilerWiring:
    def test_codegen_is_default_and_linear_is_recorded_when_named(self):
        ts, params, batch = make_problem(2)
        mesh = core.RemoteMesh((2,))
        step = mesh.distributed(ts, schedule=core.OneFOneB(2))
        step(params, batch)
        assert step.compiled.task_backend == "codegen"
        step = mesh.distributed(ts, schedule=core.OneFOneB(2), task_backend="linear")
        step(params, batch)
        assert step.compiled.task_backend == "linear"
        assert ".linear." in step.compiled.program_key

    def test_unknown_backend_rejected(self):
        ts, params, batch = make_problem(2)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        with pytest.raises(ValueError, match="task_backend"):
            compile_train_step(jaxpr, core.OneFOneB(2), task_backend="jit")

    def test_task_programs_cached_across_microbatches(self):
        """Every RunTask of the same stage task shares one LinearProgram —
        and, where it packs or unpacks an edge bundle, one ``Bundled``
        adaptor over it: the one-time lowering amortizes over the whole
        schedule."""
        from repro.runtime.instructions import RunTask

        ts, params, batch = make_problem(3, n_mbs=6)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(3), task_backend="linear")
        loop_fns = [
            instr.fn
            for prog in compiled.programs
            for instr in prog
            if isinstance(instr, RunTask)
            and instr.meta.get("phase") == "loop"
            and instr.fn is not None
        ]
        assert all(isinstance(payload(fn), LinearProgram) for fn in loop_fns)
        # distinct programs == distinct tasks with a payload, not n_mbs x tasks
        n_payload_tasks = len(
            {id(t.jaxpr) for t in compiled.split.tasks}
        )
        assert len({id(payload(fn)) for fn in loop_fns}) <= n_payload_tasks
        # ... and the adaptors are as shared as the payloads under them
        assert len({id(fn) for fn in loop_fns}) <= n_payload_tasks


class TestEagerLoopPath:
    def test_pipeline_loop_impl_matches_reference(self):
        """Evaluating a traced train_step eagerly drives pipeline_loop's
        impl through the linear VM; it must match the pure-Python
        reference loop bit for bit."""
        ts, params, batch = make_problem(3, n_mbs=4)
        want = ts(params, batch)  # reference_loop (no trace active)
        jaxpr, _, out_tree = ir.trace(ts, params, batch)
        flat, _ = ir.tree_flatten((params, batch))
        got = ir.tree_unflatten(out_tree, ir.eval_jaxpr(jaxpr, flat))
        assert_bit_identical(want, got)


class TestLowerMemoization:
    def test_same_ir_instance_for_same_nmbs(self):
        s = core.OneFOneB(4)
        assert s.lower(8) is s.lower(8)
        assert s.lower(8) is not s.lower(6)

    def test_consumers_share_one_lowering(self):
        ts, params, batch = make_problem(4, n_mbs=8)
        s = core.ZBH1(4)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, s)
        from repro.viz import render_schedule

        render_schedule(s, 8)
        core.validate_schedule(s, 8)
        assert compiled.schedule_ir is s.lower(8)
