"""Differential tests: the event-driven engine must reproduce the
round-robin reference engine's results exactly.

Both engines share the instruction interpreter, so this suite pins down
the part that differs — scheduling and wake-up order: randomized
instruction streams (the fuzz generators), deletion-heavy programs, the
full numeric compile path for every schedule family, and data-parallel
all-reduce rendezvous must all produce identical ``ExecutionResult``s
(makespan, timeline, p2p counts) and identical object-store contents.

Also covers the event engine's structural guarantees: zero re-polls
(every wake-up is for a changed resource) and the wait-for-graph deadlock
diagnostics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core, ir
from repro.runtime import (
    BufferRef,
    CommMode,
    DeadlockError,
    Delete,
    LinearCost,
    MpmdExecutor,
    Recv,
    RunTask,
    Send,
)
from tests.runtime.test_executor_fuzz import build_random_program

B = BufferRef


def run_both(n_actors, programs_builder, mode=CommMode.ASYNC, cost_model=None):
    """Execute fresh copies of a program under both engines."""
    results = {}
    for engine in ("event", "roundrobin"):
        ex = MpmdExecutor(n_actors, cost_model=cost_model, comm_mode=mode, engine=engine)
        results[engine] = (ex, ex.execute(programs_builder()))
    return results


def assert_identical(results):
    (ex_a, res_a), (ex_b, res_b) = results["event"], results["roundrobin"]
    assert res_a.makespan == res_b.makespan
    assert res_a.actor_finish == res_b.actor_finish
    assert res_a.p2p_bytes == res_b.p2p_bytes
    assert res_a.p2p_count == res_b.p2p_count
    assert res_a.timeline == res_b.timeline
    for store_a, store_b in zip(ex_a.stores, ex_b.stores):
        assert store_a.live_refs() == store_b.live_refs()
        assert store_a.bytes_in_use == store_b.bytes_in_use
        assert store_a.pending_deletions == store_b.pending_deletions
        for uid in store_a.live_refs():
            va = store_a.get(B(uid)).value
            vb = store_b.get(B(uid)).value
            assert np.array_equal(np.asarray(va), np.asarray(vb)) or (va is None and vb is None)
    return res_a, res_b


class TestRandomizedEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        n_actors=st.integers(2, 5),
        n_tasks=st.integers(3, 25),
        mode=st.sampled_from([CommMode.ASYNC, CommMode.SYNC]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dags_identical(self, seed, n_actors, n_tasks, mode):
        def build():
            programs, _, _ = build_random_program(seed, n_actors, n_tasks)
            return programs

        results = run_both(
            n_actors, build, mode=mode, cost_model=LinearCost(p2p_latency=0.01)
        )
        res_a, _ = assert_identical(results)
        # the event engine never re-polls an unchanged wait condition
        assert res_a.repolls == 0

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_deletion_heavy_programs_identical(self, seed):
        def build():
            programs, _, _ = build_random_program(seed, 3, 14)
            for prog in programs:
                last_use = {}
                for i, instr in enumerate(prog):
                    if isinstance(instr, RunTask):
                        for rf in instr.in_refs + instr.out_refs:
                            last_use[rf.uid] = i
                    elif isinstance(instr, (Send, Recv)):
                        last_use[instr.ref.uid] = i
                out = []
                for i, instr in enumerate(prog):
                    out.append(instr)
                    dying = tuple(B(uid) for uid, k in last_use.items() if k == i)
                    if dying:
                        out.append(Delete(dying))
                prog[:] = out
            return programs

        results = run_both(3, build, mode=CommMode.ASYNC)
        assert_identical(results)
        for ex, _ in results.values():
            for store in ex.stores:
                assert store.bytes_in_use == 0
                assert not store.pending_deletions

    @given(seed=st.integers(0, 2_000), mode=st.sampled_from([CommMode.ASYNC, CommMode.SYNC]))
    @settings(max_examples=20, deadline=None)
    def test_values_match_sequential_reference(self, seed, mode):
        programs, actor_of, ref = build_random_program(seed, 4, 18)
        ex = MpmdExecutor(4, comm_mode=mode, engine="event")
        ex.execute(programs)
        for t, want in ref.items():
            got = ex.fetch(actor_of[t], B(f"v{t}"))
            assert abs(got - want) < 1e-9


def _mlp_problem(n_stages=4, n_mbs=8, mbsz=4, d=8):
    from repro.models import init_mlp, mlp_loss

    params = init_mlp(np.random.RandomState(0), n_stages, d, d, d)

    def train_step(params, batch):
        def mg(mb):
            loss, grads = ir.value_and_grad(lambda p, m: mlp_loss(p, m, n_stages))(params, mb)
            return grads, loss

        grads, losses = core.accumulate_grads(mg, None)(batch)
        new = ir.tree_map(lambda w, g: w - 0.05 * g, params, grads)
        return new, losses

    r = np.random.RandomState(1)
    batch = (
        r.randn(n_mbs, mbsz, d).astype(np.float32),
        r.randn(n_mbs, mbsz, d).astype(np.float32),
    )
    return train_step, params, batch


SCHEDULES = [
    core.GPipe(4),
    core.OneFOneB(4),
    core.Eager1F1B(4),
    core.ZBH1(4),
    core.ZBH2(4),
    core.Interleaved1F1B(2, 2),
    core.LoopedBFS(2, 2),
    core.InterleavedZB(2, 2),
]


def _assert_step_matches_reference(schedule, backend="codegen", comm_mode=CommMode.ASYNC):
    """One compiled training step on the event engine (``backend``)
    against the round-robin engine on the linear VM: same values, same
    makespan, timeline and transfer count, and no re-poll."""
    train_step, params, batch = _mlp_problem()
    outs = {}
    for engine, task_backend in (("event", backend), ("roundrobin", "linear")):
        mesh = core.RemoteMesh((schedule.n_actors,), engine=engine, comm_mode=comm_mode)
        step = mesh.distributed(
            train_step, schedule=schedule, task_backend=task_backend
        )
        outs[engine] = (step(params, batch), step.last_result)
    (p_a, l_a), res_a = outs["event"]
    (p_b, l_b), res_b = outs["roundrobin"]
    for k in p_a:
        np.testing.assert_array_equal(p_a[k], p_b[k])
    np.testing.assert_array_equal(l_a, l_b)
    assert res_a.makespan == res_b.makespan
    assert res_a.timeline == res_b.timeline
    assert res_a.p2p_count == res_b.p2p_count
    assert res_a.repolls == 0


class TestCompiledEquivalence:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
    def test_numeric_step_identical_across_engines(self, schedule):
        _assert_step_matches_reference(schedule)

    @pytest.mark.parametrize("backend", ["interpret", "linear"])
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
    def test_event_engine_order_independent_of_task_backend(self, schedule, backend):
        """The ready queue runs in wake order whatever a task's body is:
        the event engine on the other two back ends reproduces the
        reference too (the codegen cells are the test above)."""
        _assert_step_matches_reference(schedule, backend=backend)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
    def test_sync_numeric_step_identical_across_engines(self, schedule):
        """Rendezvous semantics: every send waits for its receive, so an
        actor wakes on a matched send rather than on a posted buffer —
        the wake-up path the randomized DAGs exercise, here on every
        compiled schedule family."""
        _assert_step_matches_reference(schedule, comm_mode=CommMode.SYNC)

    def test_data_parallel_allreduce_identical(self):
        train_step, params, batch = _mlp_problem(n_stages=2, mbsz=4)
        outs = {}
        for engine, backend in (("event", "codegen"), ("roundrobin", "linear")):
            mesh = core.RemoteMesh((2, 2), engine=engine)
            step = mesh.distributed(
                train_step, schedule=core.OneFOneB(2), task_backend=backend
            )
            outs[engine] = (step(params, batch), step.last_result)
        (p_a, _), res_a = outs["event"]
        (p_b, _), res_b = outs["roundrobin"]
        for k in p_a:
            np.testing.assert_array_equal(p_a[k], p_b[k])
        assert res_a.timeline == res_b.timeline


class TestDeadlockDiagnostics:
    def _cross_send_programs(self):
        def const(v):
            return lambda vals: [np.asarray(v)]

        return [
            [
                RunTask("a", [], [B("x")], fn=const(1.0)),
                Send(B("x"), 1, "x"),
                Recv(B("y"), 1, "y", 8),
            ],
            [
                RunTask("b", [], [B("y")], fn=const(2.0)),
                Send(B("y"), 0, "y"),
                Recv(B("x"), 0, "x", 8),
            ],
        ]

    @pytest.mark.parametrize("engine", ["event", "roundrobin"])
    def test_sync_cross_send_cycle_reported(self, engine):
        ex = MpmdExecutor(2, comm_mode=CommMode.SYNC, engine=engine)
        with pytest.raises(DeadlockError) as exc:
            ex.execute(self._cross_send_programs())
        msg = str(exc.value)
        # both stuck actors, their blocking channels, and the cycle
        assert "actor 0 stuck at" in msg and "actor 1 stuck at" in msg
        assert "channel 0->1" in msg and "channel 1->0" in msg
        assert "wait-for cycle" in msg

    @pytest.mark.parametrize("engine", ["event", "roundrobin"])
    def test_missing_buffer_named(self, engine):
        ex = MpmdExecutor(1, engine=engine)
        with pytest.raises(DeadlockError) as exc:
            ex.execute([[RunTask("a", [B("ghost")], [B("y")], fn=lambda v: v)]])
        msg = str(exc.value)
        assert "buffer 'ghost'" in msg

    @pytest.mark.parametrize("engine", ["event", "roundrobin"])
    def test_unmatched_recv_names_sender(self, engine):
        # a recv whose sender never posts: the wait-for edge points at the
        # posted recv's source actor
        ex = MpmdExecutor(2, comm_mode=CommMode.ASYNC, engine=engine)
        progs = [
            [Recv(B("x"), 1, "x", 8), RunTask("use", [B("x")], [B("z")], fn=lambda v: v)],
            [],
        ]
        with pytest.raises(DeadlockError) as exc:
            ex.execute(progs)
        assert "buffer 'x'" in str(exc.value)

    def test_allreduce_rendezvous_reported(self):
        from repro.runtime import AllReduce

        def const(v):
            return lambda vals: [np.asarray(v)]

        ex = MpmdExecutor(2, engine="event")
        progs = [
            [RunTask("a", [], [B("g")], fn=const(1.0)), AllReduce(B("g"), (0, 1), "k")],
            [],  # actor 1 never joins
        ]
        with pytest.raises(DeadlockError) as exc:
            ex.execute(progs)
        msg = str(exc.value)
        assert "rendezvous 'k'" in msg and "missing actors [1]" in msg


class TestWaitProfile:
    """The per-resource time-parked histogram on ExecutionResult."""

    def _producer_consumer(self, cost=3.0):
        """Consumer on actor 0 (polled first by both engines, so it
        genuinely parks), slow producer on actor 1."""

        def const(v):
            return lambda vals: [np.asarray(v)]

        return [
            [
                Recv(B("x"), 1, "x", 8),
                RunTask("use", [B("x")], [B("y")], fn=lambda v: v,
                        meta={"out_nbytes": [8]}),
            ],
            [
                RunTask("slow", [], [B("x")], fn=const(1.0), cost=cost,
                        meta={"out_nbytes": [8]}),
                Send(B("x"), 0, "x"),
            ],
        ]

    @pytest.mark.parametrize("engine", ["event", "roundrobin"])
    def test_parked_time_charged_to_buffer(self, engine):
        # actor 0 posts its recv at t=0 and its consuming task parks on
        # the buffer until the slow producer delivers at t=3
        ex = MpmdExecutor(2, cost_model=LinearCost(), comm_mode=CommMode.ASYNC,
                          engine=engine)
        res = ex.execute(self._producer_consumer(cost=3.0))
        assert "buffer a0:x" in res.wait_profile
        stat = res.wait_profile["buffer a0:x"]
        assert stat.count == 1
        assert stat.total == pytest.approx(3.0, abs=0.2)

    @pytest.mark.parametrize("engine", ["event", "roundrobin"])
    def test_sync_mode_charges_channels(self, engine):
        ex = MpmdExecutor(2, cost_model=LinearCost(p2p_latency=0.5),
                          comm_mode=CommMode.SYNC, engine=engine)
        res = ex.execute(self._producer_consumer(cost=2.0))
        # the receiver parks on the 1->0 channel until the send matches
        assert any(label == "channel 1->0" for label in res.wait_profile)
        assert all(s.total >= 0.0 and s.count > 0 for s in res.wait_profile.values())

    def test_top_waits_sorted_by_parked_time(self):
        ex = MpmdExecutor(2, cost_model=LinearCost(), engine="event")
        res = ex.execute(self._producer_consumer())
        top = res.top_waits(10)
        totals = [stat.total for _, stat in top]
        assert totals == sorted(totals, reverse=True)

    def test_no_waits_no_profile(self):
        ex = MpmdExecutor(1, engine="event")
        res = ex.execute([[RunTask("a", [], [B("x")], fn=lambda v: [1.0])]])
        assert res.wait_profile == {}
        assert res.parked_by_rank() == [0.0]

    @pytest.mark.parametrize("engine", ["event", "roundrobin"])
    def test_parked_by_rank_attributes_the_waiter(self, engine):
        # actor 0 is the one parked on the buffer; actor 1 never waits
        ex = MpmdExecutor(2, cost_model=LinearCost(), comm_mode=CommMode.ASYNC,
                          engine=engine)
        res = ex.execute(self._producer_consumer(cost=3.0))
        parked = res.parked_by_rank()
        assert parked[0] == pytest.approx(3.0, abs=0.2)
        assert parked[1] == 0.0
        # per-rank split sums back to the per-resource totals
        assert sum(parked) == pytest.approx(
            sum(s.total for s in res.wait_profile.values())
        )

    def test_compiled_step_exposes_profile(self):
        train_step, params, batch = _mlp_problem(n_stages=2, mbsz=4)
        from repro.runtime import LinearCost as LC

        mesh = core.RemoteMesh((2,), cost_model=LC(p2p_latency=0.01))
        step = mesh.distributed(train_step, schedule=core.OneFOneB(2),
                                cost_fn=lambda task: 0.01)
        step(params, batch)
        prof = step.last_result.wait_profile
        assert prof, "a real pipeline must park at least once"
        assert all(s.count > 0 and s.total >= 0.0 for s in prof.values())


class TestRandomDags:
    @given(
        seed=st.integers(0, 3_000),
        mode=st.sampled_from([CommMode.ASYNC, CommMode.SYNC]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_dags_identical_across_engines(self, seed, mode):
        def build():
            programs, _, _ = build_random_program(seed, 4, 16)
            return programs

        results = {}
        for engine in ("event", "roundrobin"):
            ex = MpmdExecutor(4, cost_model=LinearCost(p2p_latency=0.01),
                              comm_mode=mode, engine=engine)
            results[engine] = (ex, ex.execute(build()))
        assert_identical(results)
