"""Engine × schedule matrix: the event-driven runtime vs the round-robin
reference, across all five schedule families.

Two claims are checked here (and a comparison table is emitted):

1. **Equivalence** — for every schedule and comm mode, both engines
   produce identical ``ExecutionResult``s (makespan, timeline, P2P
   counts).  The randomized version of this lives in
   ``tests/runtime/test_engine_equivalence.py``; this file covers the
   paper's actual schedule shapes at benchmark scale.

2. **O(1) instruction visits** — the acceptance criterion for the
   engine rewrite, asserted on counters rather than wall-clock: on the
   8-actor × 32-microbatch 1F1B program the event engine performs *zero*
   re-polls (visits of an instruction still blocked on an unchanged
   resource) while the round-robin fixpoint re-polls every blocked actor
   on every pass — at least 5× the event engine's count (counting its
   floor of one), and strictly more total visits.

The programs are the cost-only encodings ``perf.pipeline_sim`` prices
(:func:`~repro.perf.pipeline_sim.cost_only_programs`), emitted with §4.2
topological send/recv placement by the emitter ``compile_train_step``
uses (:meth:`~repro.core.schedule_ir.ScheduleIR.emit`).
"""

import pytest

from repro.core.schedules import (
    Eager1F1B,
    GPipe,
    Interleaved1F1B,
    InterleavedZB,
    LoopedBFS,
    OneFOneB,
    ZBH1,
    ZBH2,
    schedule_stats,
)
from repro.perf.pipeline_sim import cost_only_programs
from repro.runtime import CommMode, LinearCost, MpmdExecutor

from .conftest import emit

FWD_T, BWD_T = 1.0, 2.0
NBYTES = 8


def build_programs(sched, n_mbs):
    """Cost-only programs for a schedule at unit costs ``fwd = 1, bwd =
    2`` and ``NBYTES`` per transfer."""
    frac = sched.bwd_input_fraction
    cost_of = {"fwd": FWD_T, "bwd": BWD_T, "bwd_i": BWD_T * frac, "bwd_w": BWD_T * (1 - frac)}
    return cost_only_programs(
        sched.lower(n_mbs), lambda u: cost_of[u.kind], lambda stage: NBYTES
    )


SCHEDULES = [
    ("GPipe", GPipe(8)),
    ("1F1B", OneFOneB(8)),
    ("Eager1F1B", Eager1F1B(8)),
    ("ZB-H1", ZBH1(8)),
    ("ZB-H2", ZBH2(8)),
    ("Interleaved(v=2)", Interleaved1F1B(8, 2)),
    ("LoopedBFS(v=2)", LoopedBFS(8, 2)),
    ("Interleaved-ZB(v=2)", InterleavedZB(8, 2)),
]
N_MBS = 32


def run_engines(sched, n_mbs, mode):
    out = {}
    for engine in ("event", "roundrobin"):
        ex = MpmdExecutor(sched.n_actors, cost_model=LinearCost(), comm_mode=mode,
                          engine=engine)
        out[engine] = ex.execute(build_programs(sched, n_mbs))
    return out


def test_engines_identical_across_schedule_matrix(results_dir):
    rows = [f"{'schedule':18s} {'mode':6s} {'makespan':>9s} {'instrs':>7s} "
            f"{'ev visits':>9s} {'rr visits':>9s} {'ev repoll':>9s} {'rr repoll':>9s}"]
    for name, sched in SCHEDULES:
        n_instr = sum(len(p) for p in build_programs(sched, N_MBS))
        for mode in (CommMode.ASYNC, CommMode.SYNC):
            res = run_engines(sched, N_MBS, mode)
            ev, rr = res["event"], res["roundrobin"]
            assert ev.makespan == rr.makespan, (name, mode)
            assert ev.timeline == rr.timeline, (name, mode)
            assert ev.p2p_count == rr.p2p_count and ev.p2p_bytes == rr.p2p_bytes
            assert ev.actor_finish == rr.actor_finish
            # O(1) visits per instruction, every schedule and mode: one
            # visit per task, at most post + completion per comm op
            assert ev.repolls == 0, (name, mode)
            assert ev.visits <= 2 * n_instr, (name, mode)
            assert ev.visits <= rr.visits, (name, mode)
            rows.append(
                f"{name:18s} {mode.value:6s} {ev.makespan:9.1f} {n_instr:7d} "
                f"{ev.visits:9d} {rr.visits:9d} {ev.repolls:9d} {rr.repolls:9d}"
            )
    emit(results_dir, "schedule_engine_matrix", "\n".join(rows))


@pytest.mark.parametrize("mode", [CommMode.ASYNC, CommMode.SYNC], ids=lambda m: m.value)
def test_event_engine_visit_counts_1f1b_8x32(mode):
    """The acceptance criterion, asserted on the re-poll counter for the
    8-actor x 32-microbatch 1F1B program.

    The fixpoint's waste is *re-polling*: visiting an instruction that is
    still blocked on an unchanged resource.  The event engine eliminates
    re-polls entirely (zero, vs 21 ASYNC / 180 SYNC for the reference at
    this size — far beyond the 5x bar, with its floor of one counted for
    the ratio), visits each instruction O(1) times (<= post + completion
    for comm ops), and never exceeds the reference's total visits.
    """
    progs = build_programs(OneFOneB(8), 32)
    n_instr = sum(len(p) for p in progs)
    res = run_engines(OneFOneB(8), 32, mode)
    ev, rr = res["event"], res["roundrobin"]
    # the event engine never revisits an unchanged wait condition...
    assert ev.repolls == 0
    # ...while the round-robin fixpoint re-polls blocked actors every pass
    assert rr.repolls >= 5 * max(1, ev.repolls)
    # O(1) visits per instruction, and strictly fewer than the reference
    assert ev.visits <= 2 * n_instr
    assert ev.visits < rr.visits
    assert ev.visits <= rr.visits - rr.repolls + 1  # the gap is the re-polling


def test_event_engine_visits_scale_linearly():
    """Visits per instruction stay bounded as the program grows."""
    for p, m in [(4, 8), (8, 32)]:
        progs = build_programs(OneFOneB(p), m)
        n_instr = sum(len(x) for x in progs)
        ex = MpmdExecutor(p, cost_model=LinearCost(), comm_mode=CommMode.SYNC,
                          engine="event")
        res = ex.execute(progs)
        # 1 visit per task, <=2 per comm op (post + completion after wake)
        assert res.visits <= 2 * n_instr
        assert res.repolls == 0


def test_zbh1_beats_1f1b_makespan(results_dir):
    """Zero-bubble's point, measured on the actual runtime: same work,
    smaller makespan, because weight-gradient units fill the bubble — and
    ZB-H2's relaxed memory bound shrinks it further."""
    rows = []
    makespans = {}
    for name, sched in SCHEDULES:
        res = run_engines(sched, N_MBS, CommMode.ASYNC)["event"]
        stats = schedule_stats(sched, N_MBS, fwd_time=FWD_T, bwd_time=BWD_T)
        makespans[name] = res.makespan
        # the discrete-event engine and the analytic recurrence must agree
        assert res.makespan == pytest.approx(stats["makespan"])
        rows.append(f"{name:20s} makespan={res.makespan:7.1f}  "
                    f"bubble={stats['bubble_fraction']:.3f}  "
                    f"peak_live={stats['peak_live_activations']}")
    assert makespans["ZB-H1"] < makespans["1F1B"]
    assert makespans["ZB-H2"] < makespans["ZB-H1"]
    assert makespans["1F1B"] <= makespans["GPipe"]
    # zero-bubble within the circular-repeat family too
    assert makespans["Interleaved-ZB(v=2)"] < makespans["Interleaved(v=2)"]
    emit(results_dir, "schedule_engine_makespans", "\n".join(rows))


def test_ir_emission_visit_counts_stay_linear(results_dir):
    """The O(n²) regression guard for the IR refactor: per schedule, the
    event engine's visit count divided by the instruction count must stay
    a small constant (<= 2: one visit per task, at most post + completion
    per comm op) as programs are now emitted from the ScheduleIR.  The
    round-robin reference's ratio is emitted alongside as the quadratic
    baseline the event engine is measured against."""
    rows = [f"{'schedule':20s} {'instrs':>7s} {'ev v/i':>7s} {'rr v/i':>7s}"]
    for name, sched in SCHEDULES:
        n_instr = sum(len(p) for p in build_programs(sched, N_MBS))
        res = run_engines(sched, N_MBS, CommMode.SYNC)
        ev, rr = res["event"], res["roundrobin"]
        assert ev.repolls == 0, name
        assert ev.visits <= 2 * n_instr, (name, ev.visits, n_instr)
        assert ev.visits <= rr.visits, name
        rows.append(f"{name:20s} {n_instr:7d} {ev.visits / n_instr:7.2f} "
                    f"{rr.visits / n_instr:7.2f}")
    emit(results_dir, "schedule_engine_ir_visits", "\n".join(rows))


def test_wait_profile_names_pipeline_channels(results_dir):
    """The wait-profile satellite, at benchmark scale: under SYNC 1F1B the
    resources actors park on longest are inter-stage channels, and the
    histogram says which."""
    res = run_engines(OneFOneB(8), N_MBS, CommMode.SYNC)["event"]
    assert res.wait_profile, "SYNC 1F1B must record parked time"
    top = res.top_waits(8)
    assert all(stat.total >= 0.0 and stat.count > 0 for _, stat in top)
    assert any(label.startswith("channel ") for label, _ in top)
    rows = [f"{label:28s} count={stat.count:4d} parked={stat.total:8.1f}"
            for label, stat in top]
    emit(results_dir, "schedule_engine_wait_profile", "\n".join(rows))
