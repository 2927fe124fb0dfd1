"""Pre-/post-loop clusters: the train-level equations around the pipeline
loop compile to one closed sub-program per actor (and per wave), not one
task per equation.

Structure is checked on the compiled programs (task counts, what escapes
a cluster, matched transfers); values are checked differentially — every
back end and engine against ``task_backend="interpret"`` on the event
engine, bit for bit, and against the eager single-device step.
"""

import signal

import numpy as np
import pytest

from repro import core, ir
from repro.core import compile as compile_mod
from repro.core.compile import compile_train_step
from repro.ir import nn, ops, pipeline_yield
from repro.ir.codegen import CodegenProgram
from repro.runtime import CommMode
from repro.runtime.instructions import Recv, RunTask, Send
from tests.core.test_compile import phase_tasks
from tests.core.test_linear_backend import assert_bit_identical
from tests.helpers import fused_driver, payload

HARD_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _hard_timeout():
    """The mp lanes must never wedge the suite."""

    def fire(signum, frame):  # pragma: no cover - only on regression
        raise TimeoutError(f"test exceeded {HARD_TIMEOUT_S}s hard cap")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(HARD_TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _cluster_tasks(compiled):
    """``{actor: [RunTask, ...]}``: the pre tasks, then the post tasks."""
    pre, post = phase_tasks(compiled, "pre"), phase_tasks(compiled, "post")
    return {a: pre[a] + post[a] for a in pre}


def _assert_transfers_match(compiled):
    """§4.2 on every channel: the k-th send A->B carries the k-th recv's key."""
    sends, recvs = {}, {}
    for a, prog in enumerate(compiled.programs):
        for i in prog:
            if isinstance(i, Send):
                sends.setdefault((a, i.dst), []).append(i.key)
            elif isinstance(i, Recv):
                recvs.setdefault((i.src, a), []).append(i.key)
    assert sends == recvs


# ---------------------------------------------------------------------------
# (a) the benchmark's small configuration: mini-GPT, tied embeddings, Adam
# ---------------------------------------------------------------------------


def _gpt_small_adam():
    from repro.data import token_batches
    from repro.models import (
        TrainState, TransformerConfig, adam_apply, adam_init, constant_lr,
        init_transformer, transformer_loss,
    )

    cfg = TransformerConfig(
        n_stages=4, tie_embeddings=True,
        vocab=64, seq=12, d_model=32, n_heads=4, d_ff=64, n_layers=4,
    )
    schedule = core.OneFOneB(4)
    lr = constant_lr(3e-3)

    def train_step(state, batch):
        def microbatch_grads(mubatch):
            loss, grads = ir.value_and_grad(
                lambda p, mb: transformer_loss(p, mb, cfg)
            )(state.params, mubatch)
            return grads, loss

        grads, losses = core.accumulate_grads(microbatch_grads, schedule)(batch)
        return adam_apply(state, grads, lr(state.step)), losses

    params = init_transformer(np.random.RandomState(0), cfg)
    state = TrainState(params, adam_init(params), np.int32(0))
    (batch,) = token_batches(cfg.vocab, cfg.seq, 4, 8, 1, seed=1)
    return train_step, state, batch


class TestBenchmarkConfig:
    def test_optimizer_runs_as_one_compiled_task_per_actor(self):
        train_step, state, batch = _gpt_small_adam()
        step = core.RemoteMesh((4,)).distributed(train_step)
        got = step(state, batch)
        compiled = step.compiled

        for actor, tasks in _cluster_tasks(compiled).items():
            assert [t.meta["phase"] for t in tasks] == ["pre", "post"], actor
            assert all(isinstance(payload(t.fn), CodegenProgram) for t in tasks)
        assert not hasattr(compile_mod, "_EqnFn")
        assert sum(compiled.instruction_counts.values()) <= 200
        assert compiled.instruction_counts["RunTask"] <= 60
        # Adam's scalar constants live in the cluster programs: nothing
        # but loop captures is placed per step
        assert compiled.literal_placements == []

        want = train_step(state, batch)
        for w, g in zip(ir.tree_flatten(want)[0], ir.tree_flatten(got)[0]):
            np.testing.assert_allclose(g, w, rtol=2e-5, atol=1e-6)

    def test_only_escaping_values_get_buffers(self):
        """Every cluster output is read outside its cluster — by the loop,
        a cluster on another wave or actor, or the caller — under the
        per-equation uid; intermediates never reach the object store."""
        train_step, state, batch = _gpt_small_adam()
        jaxpr, _, _ = ir.trace(train_step, state, batch)
        compiled = compile_train_step(jaxpr)
        returned = {src[2] for src in compiled.output_sources if src[0] == "buffer"}
        for actor, tasks in _cluster_tasks(compiled).items():
            read_elsewhere = {
                r.uid
                for i in compiled.programs[actor]
                if isinstance(i, RunTask)
                for r in i.in_refs
            } | {
                i.ref.uid for i in compiled.programs[actor] if isinstance(i, Send)
            }
            for t in tasks:
                outs = [r.uid for r in t.out_refs]
                assert len(outs) < payload(t.fn).jaxpr.n_eqns
                assert all(u.startswith(f"{t.meta['phase']}.e") for u in outs)
                assert set(outs) <= returned | read_elsewhere, (actor, t.name)


# ---------------------------------------------------------------------------
# (b) a post phase that crosses actors twice: global-norm clipping
# ---------------------------------------------------------------------------


def _clip_problem(n_stages=3, n_mbs=4, mbsz=6, d=8, seed=2):
    r = np.random.RandomState(seed)
    batch = tuple(r.randn(n_mbs, mbsz, d).astype(np.float32) for _ in range(2))
    params = {
        f"w{i}": (r.randn(d, d) * 0.4).astype(np.float32) for i in range(n_stages)
    }

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages - 1):
            h = pipeline_yield(nn.relu(ops.matmul(h, p[f"w{i}"])))
        return ops.mean((ops.matmul(h, p[f"w{n_stages - 1}"]) - y) ** 2.0)

    def train_step(params, batch):
        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, losses = core.accumulate_grads(microbatch_grads, None)(batch)
        # per-actor partial norms -> one total -> every actor's update
        total = sum(ops.reduce_sum(ops.mul(g, g)) for g in ir.tree_flatten(grads)[0])
        scale = ops.minimum(1.0, ops.div(0.05, ops.sqrt(total)))
        # (a post equation follows its first loop/post operand: ``g`` first
        # keeps each update on its gradient's actor)
        new = ir.tree_map(
            lambda w, g: ops.sub(w, ops.mul(0.1, ops.mul(g, scale))), params, grads
        )
        # the total is read by other clusters *and* returned
        return new, losses, total

    return train_step, params, batch


class TestCrossActorPostPhase:
    def test_waves_and_transfers(self):
        train_step, params, batch = _clip_problem()
        jaxpr, _, _ = ir.trace(train_step, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(3))
        names = {
            a: [t.name for t in tasks]
            for a, tasks in phase_tasks(compiled, "post").items()
        }
        # the total lands on the first gradient's actor: partial norms
        # (wave 0) -> total, scale and that actor's own updates (wave 1)
        # -> the other actors' updates (wave 2)
        assert names == {
            0: ["post.w0", "post.w1"],
            1: ["post.w0", "post.w2"],
            2: ["post.w0", "post.w2"],
        }
        _assert_transfers_match(compiled)
        post_keys = [
            i.key for prog in compiled.programs for i in prog
            if isinstance(i, Send) and "->post." in i.key
        ]
        # two partial norms in, one scale out to each of the two others
        assert len(post_keys) == 4 and len(set(post_keys)) == 4

    def test_bit_identical_across_backends_and_engines(self):
        train_step, params, batch = _clip_problem()
        schedule = core.OneFOneB(3)

        def run(task_backend, **mesh_kw):
            """Two calls that agree; on the event engine the second runs
            the fused driver."""
            mesh = core.RemoteMesh((3,), **mesh_kw)
            try:
                step = mesh.distributed(train_step, schedule=schedule, task_backend=task_backend)
                first = step(params, batch)
                second = step(params, batch)
            finally:
                mesh.close()
            assert_bit_identical(first, second)
            assert (fused_driver(step) is not None) == (mesh.engine == "event")
            return second

        want = run("interpret")
        eager = train_step(params, batch)
        for w, g in zip(ir.tree_flatten(eager)[0], ir.tree_flatten(want)[0]):
            np.testing.assert_allclose(g, w, rtol=1e-5, atol=1e-6)
        assert float(want[2]) > 0.05 ** 2  # the clip is active

        assert_bit_identical(want, run("linear"))
        assert_bit_identical(want, run("codegen"))
        for comm_mode in (CommMode.SYNC, CommMode.ASYNC):
            assert_bit_identical(
                want,
                run("codegen", engine="mp", comm_mode=comm_mode, mp_watchdog_s=60.0),
            )
        assert_bit_identical(
            want, run("codegen", comm_mode=CommMode.SYNC)
        )  # event engine, rendezvous sends: the wave order cannot deadlock


# ---------------------------------------------------------------------------
# (c) the corners: data parallelism, literal-only equations, pre values
#     that are step outputs
# ---------------------------------------------------------------------------


class TestCorners:
    def test_data_parallel_replicas_get_their_own_cluster_tasks(self):
        train_step, params, batch = _clip_problem(n_stages=2, mbsz=8)
        schedule = core.OneFOneB(2)
        want = core.RemoteMesh((2, 2)).distributed(
            train_step, schedule=schedule, task_backend="interpret"
        )(params, batch)
        step = core.RemoteMesh((2, 2)).distributed(train_step, schedule=schedule)
        assert_bit_identical(want, step(params, batch))
        tasks = _cluster_tasks(step.compiled)
        for a_local in range(2):
            mine, twin = tasks[a_local], tasks[2 + a_local]
            assert [t.name for t in mine] == [t.name for t in twin]
            # one lowering, shared; one RunTask per replica
            assert all(m.fn is t.fn and m is not t for m, t in zip(mine, twin))
        _assert_transfers_match(step.compiled)

    def test_literal_only_equations_and_pre_outputs(self):
        """An equation over literals alone feeds the update on every actor
        and is returned: it is a pre cluster with no inputs (folded to a
        constant program) wherever it is needed, fetched from actor 0."""
        r = np.random.RandomState(5)
        batch = tuple(r.randn(4, 6, 8).astype(np.float32) for _ in range(2))
        params = {f"w{i}": (r.randn(8, 8) * 0.3).astype(np.float32) for i in range(2)}

        def loss_fn(p, mb):
            x, y = mb
            h = pipeline_yield(nn.relu(ops.matmul(x, p["w0"])))
            return ops.mean((ops.matmul(h, p["w1"]) - y) ** 2.0)

        def train_step(params, batch):
            def microbatch_grads(mb):
                loss, grads = ir.value_and_grad(loss_fn)(params, mb)
                return grads, loss

            grads, losses = core.accumulate_grads(microbatch_grads, None)(batch)
            lr = ops.mul(0.5, 0.2)
            new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(lr, g)), params, grads)
            return new, losses, lr

        schedule = core.OneFOneB(2)
        want = core.RemoteMesh((2,)).distributed(
            train_step, schedule=schedule, task_backend="interpret"
        )(params, batch)
        np.testing.assert_array_equal(want[2], np.float32(0.5) * np.float32(0.2))
        for backend in ("linear", "codegen"):
            step = core.RemoteMesh((2,)).distributed(
                train_step, schedule=schedule, task_backend=backend
            )
            assert_bit_identical(want, step(params, batch))
            assert_bit_identical(want, step(params, batch))
        kind, actor, lr_uid = step.compiled.output_sources[-1]
        assert (kind, actor) == ("buffer", 0) and lr_uid.startswith("pre.e")
        for pre, post in _cluster_tasks(step.compiled).values():
            assert pre.in_refs == [] and [r.uid for r in pre.out_refs] == [lr_uid]
            assert pre.out_refs[0] in post.in_refs
