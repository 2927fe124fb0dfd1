"""Schedule-IR tests: the dependency-explicit table every consumer walks.

Covers the tentpole invariants: every schedule family lowers and
validates over an n_mbs grid, slot/edge counts follow closed forms,
intra/cross classification matches placement, resource annotations
balance, the topological order respects every edge, the graph checks
(deadlock, memory bound) reject bad schedules, and the one send/recv
emitter (:meth:`ScheduleIR.emit`) keeps its contract under both recv
placements — including Figure 5 on the event engine.
"""

import pytest

from repro.core.schedule_ir import ScheduleIR, iter_unit_deps, lower_schedule
from repro.core.schedules import (
    BWD,
    BWD_I,
    BWD_W,
    FWD,
    Eager1F1B,
    GPipe,
    Interleaved1F1B,
    InterleavedZB,
    LoopedBFS,
    OneFOneB,
    Schedule,
    Unit,
    ZBH1,
    ZBH2,
    ZBV,
)
from repro.perf.pipeline_sim import cost_only_programs
from repro.runtime import BufferRef, CommMode, LinearCost, MpmdExecutor, Recv, RunTask, Send
from repro.runtime.executor import CommMismatchError, DeadlockError


def all_schedules(p=4, v=2):
    return [
        GPipe(p),
        OneFOneB(p),
        Eager1F1B(p),
        ZBH1(p),
        ZBH2(p),
        Interleaved1F1B(p, v),
        LoopedBFS(p, v),
        InterleavedZB(p, v),
    ]


GRID = [sched for p, v in [(2, 2), (4, 2), (4, 3)] for sched in all_schedules(p, v)]


class TestLoweringGrid:
    @pytest.mark.parametrize("sched", GRID, ids=lambda s: f"{s.name}-p{s.n_actors}")
    @pytest.mark.parametrize("m_mult", [1, 2, 4])
    def test_every_schedule_lowers_and_validates(self, sched, m_mult):
        n_mbs = sched.n_actors * m_mult
        ir = sched.lower(n_mbs).validate()
        assert isinstance(ir, ScheduleIR)

    @pytest.mark.parametrize("sched", all_schedules(), ids=lambda s: s.name)
    def test_slot_count_closed_form(self, sched):
        n_mbs = 8
        ir = sched.lower(n_mbs)
        kinds = 3 if sched.backward_split else 2
        assert ir.n_slots == n_mbs * sched.n_stages * kinds
        # every unit exactly once
        assert len({s.key for row in ir.slots for s in row}) == ir.n_slots

    @pytest.mark.parametrize("sched", all_schedules(), ids=lambda s: s.name)
    def test_edge_count_closed_form(self, sched):
        # fwd: stage>0 has one dep; bwd: fwd dep + chain dep for stage<last;
        # bwd_i: same; bwd_w: exactly one local dep
        n_mbs, S = 8, sched.n_stages
        ir = sched.lower(n_mbs)
        if sched.backward_split:
            expected = n_mbs * ((S - 1) + S + (S - 1) + S)
        else:
            expected = n_mbs * ((S - 1) + S + (S - 1))
        assert ir.n_edges == expected
        assert ir.n_edges == ir.n_intra_edges + ir.n_cross_edges

    @pytest.mark.parametrize("sched", all_schedules(), ids=lambda s: s.name)
    def test_cross_edges_match_placement(self, sched):
        ir = sched.lower(8)
        for producer, consumer in ir.edges():
            crosses = producer.rank != consumer.rank
            assert (producer in ir.cross_deps(consumer)) == crosses
            assert (consumer in ir.cross_consumers(producer)) == crosses

    @pytest.mark.parametrize("sched", all_schedules(), ids=lambda s: s.name)
    def test_acquire_release_balance(self, sched):
        # every rank acquires (forwards) exactly as many activation
        # buffers as it releases (monolithic/weight-gradient backwards)
        ir = sched.lower(8)
        for row in ir.slots:
            assert sum(s.acquires for s in row) == sum(s.releases for s in row)

    @pytest.mark.parametrize("sched", all_schedules(), ids=lambda s: s.name)
    def test_toposort_respects_edges_and_program_order(self, sched):
        ir = sched.lower(8)
        pos = {s.key: i for i, s in enumerate(ir.toposort())}
        for producer, consumer in ir.edges():
            assert pos[producer.key] < pos[consumer.key]
        for row in ir.slots:
            for a, b in zip(row, row[1:]):
                assert pos[a.key] < pos[b.key]


class TestResolution:
    def test_deps_resolve_to_slots(self):
        ir = ZBH1(3).lower(6)
        for row in ir.slots:
            for slot in row:
                want = {
                    (d.mb, d.stage, d.kind)
                    for d in iter_unit_deps(slot.unit, ir.n_stages)
                }
                assert {d.key for d in ir.deps(slot)} == want

    def test_slot_of_roundtrip(self):
        ir = OneFOneB(3).lower(4)
        for row in ir.slots:
            for slot in row:
                assert ir.slot_of(slot.unit) is slot

    def test_initial_ready_ranks_puts_sources_first(self):
        ir = OneFOneB(4).lower(8)
        order = ir.initial_ready_ranks()
        assert order[0] == 0  # only rank 0's first slot is dependency-free
        assert sorted(order) == [0, 1, 2, 3]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown unit kind"):
            list(iter_unit_deps(Unit(0, 0, "sideways"), 2))


class TestGraphChecks:
    def test_deadlock_rejected(self):
        class Bad(OneFOneB):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                out[0] = list(reversed(out[0]))
                return out

        with pytest.raises(ValueError, match="deadlock"):
            Bad(2).lower(2).validate()

    def test_memory_bound_enforced(self):
        class Greedy(OneFOneB):
            """Claims 1F1B's bound but schedules like GPipe."""

            def units(self, n_mbs):
                return GPipe(self.n_stages).units(n_mbs)

        with pytest.raises(ValueError, match="live activations"):
            Greedy(3).lower(6).validate()

    def test_declared_bounds_hold_for_all_families(self):
        for sched in GRID:
            n_mbs = sched.n_actors * 2
            ir = sched.lower(n_mbs)
            peaks = ir.peak_live()
            for rank in range(ir.n_ranks):
                bound = sched.activation_bound(rank, n_mbs)
                if bound is not None:
                    assert peaks[rank] <= bound, (sched.name, rank)

    def test_stats_equivalent_to_ir_stats(self):
        from repro.core.schedules import schedule_stats

        for sched in all_schedules():
            a = schedule_stats(sched, 8, fwd_time=1.0, bwd_time=2.0)
            b = sched.lower(8).stats(fwd_time=1.0, bwd_time=2.0)
            assert a == b


GALLERY = all_schedules() + [ZBV(4)]


def emitted(sched, placement, n_mbs=8):
    """Cost-only programs (``fwd = 1, bwd = 2``, 8 bytes a transfer)
    through the one emitter."""
    return cost_only_programs(
        sched.lower(n_mbs), lambda u: 1.0 if u.kind == FWD else 2.0,
        lambda stage: 8, placement,
    )


class TestEmit:
    """:meth:`ScheduleIR.emit`'s contract, on the cost-only path."""

    @staticmethod
    def channels(progs):
        """Send keys and recv keys per directed channel, in program order."""
        sends: dict[tuple[int, int], list[str]] = {}
        recvs: dict[tuple[int, int], list[str]] = {}
        for rank, prog in enumerate(progs):
            for instr in prog:
                if isinstance(instr, Send):
                    sends.setdefault((rank, instr.dst), []).append(instr.key)
                elif isinstance(instr, Recv):
                    recvs.setdefault((instr.src, rank), []).append(instr.key)
        return sends, recvs

    @pytest.mark.parametrize("placement", ["topo", "naive"])
    @pytest.mark.parametrize("sched", GALLERY, ids=lambda s: s.name)
    def test_every_send_has_one_recv_in_channel_fifo_order(self, sched, placement):
        sends, recvs = self.channels(emitted(sched, placement))
        keys = [k for chan in sends.values() for k in chan]
        assert len(keys) == len(set(keys)) == sched.lower(8).n_cross_edges
        assert {c: sorted(k) for c, k in sends.items()} == {c: sorted(k) for c, k in recvs.items()}
        if placement == "naive" and isinstance(sched, ZBV):
            return  # consumer order is not send order here: see below
        assert sends == recvs

    def test_naive_breaks_channel_order_on_zbv(self):
        """ZB-V's V re-enters each rank, so one channel carries forward
        activations and input gradients that the destination consumes in
        another order than the source produces them: naive placement
        mismatches the pairwise-FIFO channel even with asynchronous
        sends. Topological placement posts recvs in send order."""
        sends, recvs = self.channels(emitted(ZBV(4), "naive"))
        assert sends != recvs
        ex = MpmdExecutor(4, cost_model=LinearCost(), comm_mode=CommMode.ASYNC)
        with pytest.raises(CommMismatchError):
            ex.execute(emitted(ZBV(4), "naive"))

    @pytest.mark.parametrize("sched", GALLERY, ids=lambda s: s.name)
    def test_naive_recv_immediately_precedes_its_first_consumer(self, sched):
        for prog in emitted(sched, "naive"):
            for i, instr in enumerate(prog):
                if not isinstance(instr, Recv):
                    continue
                j = i + 1
                while isinstance(prog[j], Recv):
                    j += 1
                assert isinstance(prog[j], RunTask) and instr.ref in prog[j].in_refs
                assert not any(
                    isinstance(x, RunTask) and instr.ref in x.in_refs for x in prog[:i]
                )

    def test_placements_differ_only_in_recv_position(self):
        for a, b in zip(emitted(OneFOneB(4), "topo"), emitted(OneFOneB(4), "naive")):
            assert [x for x in a if not isinstance(x, Recv)] == [
                x for x in b if not isinstance(x, Recv)
            ]

    def test_figure5_on_the_event_engine(self):
        """Naive placement deadlocks 1F1B under synchronous sends and is
        exact for GPipe; topological placement completes everywhere."""

        def run(sched, placement):
            ex = MpmdExecutor(sched.n_actors, cost_model=LinearCost(), comm_mode=CommMode.SYNC)
            return ex.execute(emitted(sched, placement))

        with pytest.raises(DeadlockError):
            run(OneFOneB(4), "naive")
        assert run(GPipe(4), "naive").makespan > 0
        for sched in GALLERY:
            assert run(sched, "topo").makespan > 0, sched.name

    def test_base_offsets_ranks_and_peers(self):
        """A data-parallel replica's programs and transfer peers sit
        ``base`` ranks up."""
        ir = OneFOneB(2).lower(2)

        def slot_fn(slot):
            key = f"x{slot.key}"
            return [], [(BufferRef(key), key, 8, c.rank, c) for c in ir.send_targets(slot)], []

        progs = ir.emit(slot_fn, programs=[[] for _ in range(4)], base=2)
        assert progs[0] == progs[1] == []
        assert {i.dst for i in progs[2] if isinstance(i, Send)} == {3}
        assert {i.src for i in progs[3] if isinstance(i, Recv)} == {2}


class TestCustomLowering:
    def test_lower_is_overridable(self):
        """The extensibility claim at the IR level: a schedule may lower
        itself (e.g. to cache), and consumers only see the IR."""

        class Caching(OneFOneB):
            def __init__(self, n):
                super().__init__(n)
                self.calls = 0

            def lower(self, n_mbs):
                self.calls += 1
                return lower_schedule(self, n_mbs)

        s = Caching(2)
        ir = s.lower(4)
        assert s.calls == 1 and ir.n_slots == 16

    def test_repr_mentions_shape(self):
        r = repr(ZBH1(2).lower(2))
        assert "ZB-H1" in r and "slots=" in r and "cross" in r
