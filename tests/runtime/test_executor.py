"""Executor tests: instruction semantics, NCCL-ordered matching, deadlock
detection, pending deletions, virtual-time behaviour."""

import numpy as np
import pytest

from repro.runtime import (
    Accumulate,
    AllReduce,
    BufferRef,
    CommMismatchError,
    CommMode,
    DeadlockError,
    Delete,
    LinearCost,
    MpmdExecutor,
    Recv,
    RunTask,
    Send,
)

B = BufferRef


def task(name, ins, outs, fn, cost=0.0, **meta):
    return RunTask(name, [B(i) for i in ins], [B(o) for o in outs], fn=fn, cost=cost, meta=meta)


def const(value):
    return lambda vals: [np.asarray(value)]


def addv(vals):
    return [vals[0] + vals[1]]


class TestBasics:
    def test_single_actor_chain(self):
        ex = MpmdExecutor(1)
        progs = [[
            task("a", [], ["x"], const(2.0)),
            task("b", ["x"], ["y"], lambda v: [v[0] * 3]),
        ]]
        res = ex.execute(progs)
        assert ex.fetch(0, B("y")) == 6.0
        assert res.p2p_count == 0

    def test_send_recv_transfers_value(self):
        ex = MpmdExecutor(2)
        progs = [
            [task("a", [], ["x"], const(5.0)), Send(B("x"), 1, "x")],
            [Recv(B("x"), 0, "x", 8), task("b", ["x"], ["y"], lambda v: [v[0] + 1])],
        ]
        res = ex.execute(progs)
        assert ex.fetch(1, B("y")) == 6.0
        assert res.p2p_count == 1

    def test_missing_operand_deadlocks(self):
        ex = MpmdExecutor(1)
        with pytest.raises(DeadlockError):
            ex.execute([[task("a", ["ghost"], ["y"], lambda v: v)]])

    def test_wrong_program_count(self):
        with pytest.raises(ValueError):
            MpmdExecutor(2).execute([[]])

    def test_accumulate_initialises_then_adds(self):
        ex = MpmdExecutor(1)
        progs = [[
            task("a", [], ["v1"], const(2.0)),
            Accumulate(((B("acc"), B("v1")),), delete_value=True),
            task("b", [], ["v2"], const(3.0)),
            Accumulate(((B("acc"), B("v2")),), delete_value=True),
        ]]
        ex.execute(progs)
        assert ex.fetch(0, B("acc")) == 5.0
        assert B("v1") not in ex.stores[0]

    def test_delete_frees(self):
        ex = MpmdExecutor(1)
        ex.execute([[task("a", [], ["x"], const(1.0)), Delete((B("x"),))]])
        assert B("x") not in ex.stores[0]

    def test_allreduce_sums_across_actors(self):
        ex = MpmdExecutor(2)
        progs = [
            [task("a", [], ["g"], const(1.0)), AllReduce(B("g"), (0, 1), "k")],
            [task("b", [], ["g"], const(2.0)), AllReduce(B("g"), (0, 1), "k")],
        ]
        ex.execute(progs)
        assert ex.fetch(0, B("g")) == 3.0
        assert ex.fetch(1, B("g")) == 3.0

    def test_place_and_pinned(self):
        ex = MpmdExecutor(1)
        ex.place(0, B("w"), np.float32(7.0), 4, pinned=True)
        ex.execute([[task("a", ["w"], ["y"], lambda v: [v[0] * 2])]])
        assert ex.fetch(0, B("y")) == 14.0


class TestOrderingSemantics:
    def test_mismatched_order_detected(self):
        # actor0 sends x then y; actor1 expects y then x: pairwise FIFO
        # matching must flag it (NCCL would corrupt data / hang).
        ex = MpmdExecutor(2)
        progs = [
            [
                task("a", [], ["x"], const(1.0)),
                task("b", [], ["y"], const(2.0)),
                Send(B("x"), 1, "x"),
                Send(B("y"), 1, "y"),
            ],
            [Recv(B("y"), 0, "y", 8), Recv(B("x"), 0, "x", 8)],
        ]
        with pytest.raises(CommMismatchError):
            ex.execute(progs)

    def test_sync_cross_sends_deadlock(self):
        # Figure 5's shape: both actors blocked in a send whose matching
        # recv is behind the peer's own send.
        ex = MpmdExecutor(2, comm_mode=CommMode.SYNC)
        progs = [
            [
                task("a", [], ["x"], const(1.0)),
                Send(B("x"), 1, "x"),
                Recv(B("y"), 1, "y", 8),
            ],
            [
                task("b", [], ["y"], const(2.0)),
                Send(B("y"), 0, "y"),
                Recv(B("x"), 0, "x", 8),
            ],
        ]
        with pytest.raises(DeadlockError):
            ex.execute(progs)

    def test_async_cross_sends_fine(self):
        ex = MpmdExecutor(2, comm_mode=CommMode.ASYNC)
        progs = [
            [
                task("a", [], ["x"], const(1.0)),
                Send(B("x"), 1, "x"),
                Recv(B("y"), 1, "y", 8),
                task("c", ["y"], ["z"], lambda v: [v[0] * 10]),
            ],
            [
                task("b", [], ["y"], const(2.0)),
                Send(B("y"), 0, "y"),
                Recv(B("x"), 0, "x", 8),
            ],
        ]
        ex.execute(progs)
        assert ex.fetch(0, B("z")) == 20.0

    def test_early_recv_prefetches(self):
        # recv posted before local compute: consuming task sees the value
        ex = MpmdExecutor(2)
        progs = [
            [
                Recv(B("r"), 1, "r", 8),
                task("local", [], ["l"], const(1.0)),
                task("use", ["l", "r"], ["o"], addv),
            ],
            [task("p", [], ["r"], const(41.0)), Send(B("r"), 0, "r")],
        ]
        ex.execute(progs)
        assert ex.fetch(0, B("o")) == 42.0


class TestPendingDeletions:
    def test_delete_before_send_matched_is_deferred(self):
        # §4.3: delete arrives while the send is still unmatched; buffer
        # must survive until the transfer happens.
        ex = MpmdExecutor(2, comm_mode=CommMode.ASYNC)
        progs = [
            [
                task("a", [], ["x"], const(9.0)),
                Send(B("x"), 1, "x"),
                Delete((B("x"),)),  # send not yet matched: deferred
                task("spin", [], ["s"], const(0.0)),
                Delete((B("s"),)),  # later delete flushes the queue
            ],
            [
                task("b", [], ["w"], const(1.0)),  # delay the recv post
                Recv(B("x"), 0, "x", 8),
                task("use", ["x", "w"], ["o"], addv),
            ],
        ]
        ex.execute(progs)
        assert ex.fetch(1, B("o")) == 10.0
        assert B("x") not in ex.stores[0]  # eventually reclaimed

    def test_use_after_free_is_loud(self):
        ex = MpmdExecutor(1)
        progs = [[
            task("a", [], ["x"], const(1.0)),
            Delete((B("x"),)),
            Send(B("x"), 0, "x"),
        ]]
        with pytest.raises((KeyError, DeadlockError)):
            ex.execute(progs)


class TestVirtualTime:
    def test_task_costs_accumulate(self):
        ex = MpmdExecutor(1, cost_model=LinearCost())
        res = ex.execute([[
            task("a", [], ["x"], const(1.0), cost=2.0),
            task("b", ["x"], ["y"], lambda v: v, cost=3.0),
        ]])
        assert res.makespan == pytest.approx(5.0)

    def test_dispatch_overhead_charged_per_task(self):
        ex = MpmdExecutor(1, cost_model=LinearCost(dispatch=0.5))
        res = ex.execute([[
            task("a", [], ["x"], const(1.0), cost=1.0),
            task("b", ["x"], ["y"], lambda v: v, cost=1.0),
        ]])
        assert res.makespan == pytest.approx(3.0)

    def test_transfer_time_on_critical_path(self):
        cm = LinearCost(p2p_latency=1.0, p2p_bandwidth=8.0)
        ex = MpmdExecutor(2, cost_model=cm)
        # the *sender's* logical buffer size governs the transfer time
        producer = RunTask("a", [], [B("x")], fn=const(1.0), cost=2.0,
                           meta={"out_nbytes": [16]})
        progs = [
            [producer, Send(B("x"), 1, "x")],
            [Recv(B("x"), 0, "x", 16), task("b", ["x"], ["y"], lambda v: v, cost=1.0)],
        ]
        res = ex.execute(progs)
        # 2.0 compute + (1.0 + 16/8) transfer + 1.0 compute
        assert res.makespan == pytest.approx(6.0)

    def test_async_send_overlaps_compute(self):
        cm = LinearCost(p2p_latency=10.0, p2p_bandwidth=float("inf"))
        progs_builder = lambda: [
            [
                task("p", [], ["x"], const(1.0), cost=1.0),
                Send(B("x"), 1, "x"),
                task("w", [], ["l"], const(0.0), cost=5.0),  # local work
            ],
            [Recv(B("x"), 0, "x", 8), task("u", ["x"], ["y"], lambda v: v, cost=1.0)],
        ]
        r_async = MpmdExecutor(2, cost_model=cm, comm_mode=CommMode.ASYNC).execute(progs_builder())
        r_sync = MpmdExecutor(2, cost_model=cm, comm_mode=CommMode.SYNC).execute(progs_builder())
        # ASYNC: sender's local work overlaps the transfer; SYNC: it waits.
        a0 = r_async.actor_finish[0]
        s0 = r_sync.actor_finish[0]
        assert a0 == pytest.approx(6.0)
        assert s0 == pytest.approx(16.0)

    def test_timeline_events_recorded(self):
        ex = MpmdExecutor(2, cost_model=LinearCost(p2p_latency=1.0))
        progs = [
            [task("a", [], ["x"], const(1.0), cost=1.0), Send(B("x"), 1, "x")],
            [Recv(B("x"), 0, "x", 4)],
        ]
        res = ex.execute(progs)
        kinds = {e.kind for e in res.timeline}
        assert "task" in kinds and "send" in kinds and "recv" in kinds
        starts = [e.start for e in res.timeline]
        assert starts == sorted(starts)
