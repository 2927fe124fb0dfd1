"""Unit tests for the MPMD compiler: placement inference, communication
inference, liveness, fusion — the §3.3/§4.2/§4.3/§4.4 passes."""

import numpy as np
import pytest

from repro import core, ir
from repro.core.compile import compile_train_step, find_batch_inputs
from repro.ir import nn, ops, pipeline_yield
from repro.runtime.instructions import Accumulate, Delete, Recv, RunTask, Send
from tests.helpers import check_program, payload, rng


def _trace_problem(n_stages=3, n_mbs=4, mbsz=6, d=4, seed=0, label_smooth=False):
    r = rng(seed)
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    params = {f"w{i}": (r.randn(d, d) * 0.4).astype(np.float32) for i in range(n_stages)}

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages):
            h = ops.matmul(h, p[f"w{i}"])
            if i < n_stages - 1:
                h = pipeline_yield(nn.relu(h))
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        if label_smooth:
            # Figure 3 line 3: pre-loop computation on the labels
            x_in, y_in = batch
            batch = (x_in, ops.add(ops.mul(0.9, y_in), 0.01))

        def mg(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(mg, None)(batch)
        new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads)
        return new, loss

    jaxpr, _, _ = ir.trace(train_step, params, (X, Y))
    return jaxpr, params, (X, Y), train_step


def phase_tasks(compiled, phase):
    """``{actor: [RunTask, ...]}`` of one phase, program order (every
    actor is a key)."""
    return {
        a: [i for i in prog if isinstance(i, RunTask) and i.meta.get("phase") == phase]
        for a, prog in enumerate(compiled.programs)
    }


class TestPlacementInference:
    def test_weights_pinned_to_their_stage_actor(self):
        jaxpr, params, batch, _ = _trace_problem()
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        # flat inputs: w0, w1, w2, X, Y
        for k, expect_actor in [(0, 0), (1, 1), (2, 2)]:
            actors = [a for a, _ in c.input_placements[k]]
            assert expect_actor in actors, k

    def test_batch_goes_to_first_stage_labels_to_last(self):
        # §3.3 / Figure 3: X feeds stage 0, y feeds the loss stage
        jaxpr, params, batch, _ = _trace_problem()
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        x_actors = [a for a, _ in c.input_placements[3]]
        y_actors = [a for a, _ in c.input_placements[4]]
        assert x_actors == [0]
        assert y_actors == [2]

    def test_pre_loop_computation_placed_with_consumer(self):
        # label smoothing depends only on y -> one pre cluster, on the
        # loss actor, holding both of its equations
        jaxpr, params, batch, _ = _trace_problem(label_smooth=True)
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        pre_tasks = phase_tasks(c, "pre")
        assert pre_tasks[0] == pre_tasks[1] == []
        (task,) = pre_tasks[2]
        assert [e.prim.name for e in payload(task.fn).jaxpr.eqns] == ["mul", "add"]
        # only the smoothed labels escape the cluster
        assert len(task.out_refs) == 1

    def test_post_loop_update_follows_gradient_actor(self):
        jaxpr, params, batch, _ = _trace_problem()
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        # each actor updates exactly its own stage's weights: one post
        # cluster per actor, each ending in that weight's `sub`
        for a, tasks in phase_tasks(c, "post").items():
            (task,) = tasks
            assert [e.prim.name for e in payload(task.fn).jaxpr.eqns] == ["mul", "sub"]
            (out,) = task.out_refs
            assert c.output_sources[a] == ("buffer", a, out.uid)

    def test_find_batch_inputs(self):
        jaxpr, *_ = _trace_problem()
        assert find_batch_inputs(jaxpr) == {3, 4}


class TestCommInference:
    def test_send_recv_counts_match(self):
        jaxpr, *_ = _trace_problem(n_mbs=6)
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        sends = sum(isinstance(i, Send) for p in c.programs for i in p)
        recvs = sum(isinstance(i, Recv) for p in c.programs for i in p)
        assert sends == recvs > 0

    def test_pairwise_fifo_orders_agree(self):
        # the §4.2 invariant: the k-th send A->B carries the same key as
        # the k-th recv-from-A on B
        jaxpr, *_ = _trace_problem(n_mbs=8)
        c = compile_train_step(jaxpr, core.Interleaved1F1B(3, 1) if False else core.OneFOneB(3))
        send_order: dict[tuple[int, int], list[str]] = {}
        recv_order: dict[tuple[int, int], list[str]] = {}
        for a, prog in enumerate(c.programs):
            for instr in prog:
                if isinstance(instr, Send):
                    send_order.setdefault((a, instr.dst), []).append(instr.key)
                elif isinstance(instr, Recv):
                    recv_order.setdefault((instr.src, a), []).append(instr.key)
        assert send_order.keys() == recv_order.keys()
        for chan in send_order:
            assert send_order[chan] == recv_order[chan], chan

    def test_cross_actor_edges_only_between_adjacent_stages(self):
        jaxpr, *_ = _trace_problem()
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        for a, prog in enumerate(c.programs):
            for instr in prog:
                if isinstance(instr, Send) and instr.key.startswith("mb"):
                    assert abs(instr.dst - a) == 1

    def test_naive_strategy_differs(self):
        jaxpr, *_ = _trace_problem()
        topo = compile_train_step(jaxpr, core.OneFOneB(3), comm_strategy="topo")
        naive = compile_train_step(jaxpr, core.OneFOneB(3), comm_strategy="naive")

        def recv_positions(c):
            out = []
            for prog in c.programs:
                out.append([k for k, i in enumerate(prog) if isinstance(i, Recv)])
            return out

        assert recv_positions(topo) != recv_positions(naive)

    def test_unknown_strategy_rejected(self):
        jaxpr, *_ = _trace_problem()
        with pytest.raises(ValueError):
            compile_train_step(jaxpr, core.OneFOneB(3), comm_strategy="yolo")


class TestLiveness:
    def test_every_defined_nonoutput_buffer_deleted(self):
        # tests.helpers.check_program: every buffer a program defines is
        # freed exactly once, step outputs stay live to the end
        jaxpr, *_ = _trace_problem(n_mbs=4)
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        check_program(c)
        assert all(isinstance(i.refs, tuple) and i.refs for p in c.programs for i in p
                   if isinstance(i, Delete))

    def test_deletes_come_after_last_use(self):
        # check_program again (nothing reads a freed uid), plus the
        # placement: a buffer is freed right after its last use, by the
        # instruction's own delete_value or the Delete that follows it
        jaxpr, *_ = _trace_problem(n_mbs=4)
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        check_program(c)
        for prog in c.programs:
            last_use: dict[str, int] = {}
            freed_at: dict[str, int] = {}
            for k, i in enumerate(prog):
                if isinstance(i, RunTask):
                    last_use.update((r.uid, k) for r in i.in_refs)
                elif isinstance(i, Send):
                    last_use[i.ref.uid] = k
                elif isinstance(i, Accumulate):
                    last_use.update((u.uid, k) for pair in i.pairs for u in pair)
                    if i.delete_value:
                        freed_at.update((value.uid, k) for _, value in i.pairs)
                elif isinstance(i, Delete):
                    freed_at.update((r.uid, k - 1) for r in i.refs)
            assert freed_at
            for uid, k in freed_at.items():
                assert last_use[uid] == k, (uid, k)

    def test_memory_actually_bounded(self):
        # executing with more microbatches must not grow peak memory
        # proportionally under 1F1B (the §2.2.1 claim, measured end-to-end)
        _, params, _, train_step = _trace_problem(n_mbs=4)
        r = rng(42)
        d, mbsz = 4, 6

        def run(n_mbs):
            batch = (
                r.randn(n_mbs, mbsz, d).astype(np.float32),
                r.randn(n_mbs, mbsz, d).astype(np.float32),
            )
            step = core.RemoteMesh((3,)).distributed(train_step, schedule=core.OneFOneB(3))
            step(params, batch)
            # subtract per-step linear costs: batch slices live up front
            return max(step.peak_bytes_per_actor)

        p4, p16 = run(4), run(16)
        # batch buffers grow 4x; activations must not: total growth well
        # under proportional
        assert p16 < 2.5 * p4


class TestFusion:
    def test_single_program_per_actor(self):
        jaxpr, *_ = _trace_problem()
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        assert len(c.programs) == 3
        assert all(len(p) > 0 for p in c.programs)

    def test_instruction_counts_property(self):
        jaxpr, *_ = _trace_problem()
        c = compile_train_step(jaxpr, core.OneFOneB(3))
        counts = c.instruction_counts
        assert counts["RunTask"] > 0 and counts["Delete"] > 0

    def test_requires_exactly_one_loop(self):
        def no_loop(x):
            return ops.mean(x)

        jaxpr, _, _ = ir.trace(no_loop, np.zeros((2, 2), np.float32))
        with pytest.raises(ValueError, match="exactly one"):
            compile_train_step(jaxpr, core.OneFOneB(2))

    def test_missing_schedule_rejected(self):
        jaxpr, *_ = _trace_problem()
        with pytest.raises(ValueError, match="schedule"):
            compile_train_step(jaxpr, None)
