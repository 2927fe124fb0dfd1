"""Deterministic fault injection: every FaultPlan kind does what it says.

These tests pin down the *injection* layer in isolation — plans are
matched to ranks and pool generations, a kill fires at exactly the
declared step boundary with the declared exit code, a wedge trips the
no-progress watchdog, a dropped channel surfaces as the standard
deadlock diagnostic naming the blocked transfer, a delay changes timing
and nothing else, and an injected death leaks no shared-memory segments.
Recovery from these faults is ``test_recovery.py``'s subject; here the
meshes have no policy, so each fault must fail fast with the same
diagnostics a *real* crash produces (the acceptance criterion's
"recovery disabled" half).

Every test runs under the hard SIGALRM cap of the other mp suites, and
every fault fires at a deterministic program point — no racy ``kill -9``
timing anywhere.
"""

import pickle
import signal

import numpy as np
import pytest

from repro import core
from repro.models.checkpoint import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime import (
    CorruptCheckpoint,
    DeadlockError,
    DelayMessage,
    DropMessage,
    FaultPlan,
    KillRank,
    WedgeRank,
    WorkerDiedError,
)
from repro.runtime.faults import KILL_EXIT_CODE
from tests.core.test_linear_backend import assert_bit_identical, make_problem
from tests.runtime.test_mp_pool_lifecycle import _settle_to, _shm_count

HARD_TIMEOUT_S = 300

WATCHDOG_S = 60.0

#: small watchdog for faults that surface *via* the watchdog (wedge,
#: dropped message) — big enough for healthy compute, small enough to
#: keep the battery fast.
TRIP_WATCHDOG_S = 3.0


@pytest.fixture(autouse=True)
def hard_timeout():
    def boom(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(
            f"fault-injection test exceeded the hard {HARD_TIMEOUT_S}s cap"
        )

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _fault_mesh(plan, n=2, watchdog_s=WATCHDOG_S, **kw):
    return core.RemoteMesh(
        (n,), engine="mp", mp_watchdog_s=watchdog_s, fault_plan=plan, **kw
    )


class TestFaultPlan:
    def test_kill_shorthand_matches_explicit_fault(self):
        plan = FaultPlan(kill_rank=1, at_step=7)
        assert plan.faults == (KillRank(rank=1, at_step=7),)
        after = FaultPlan(kill_rank=0, at_step=3, when="after")
        assert after.faults[0].when == "after"

    def test_shorthand_requires_at_step(self):
        with pytest.raises(ValueError, match="at_step"):
            FaultPlan(kill_rank=1)

    def test_rejects_unknown_fault_objects(self):
        with pytest.raises(TypeError, match="unknown fault"):
            FaultPlan(["kill rank 1"])

    def test_kill_when_validated(self):
        with pytest.raises(ValueError, match="before"):
            KillRank(rank=0, at_step=0, when="sometime")

    def test_corrupt_mode_validated(self):
        with pytest.raises(ValueError, match="truncate"):
            CorruptCheckpoint(at_snapshot=0, mode="shred")

    def test_for_rank_gates_on_rank_and_generation(self):
        plan = FaultPlan(
            [KillRank(rank=1, at_step=7), WedgeRank(rank=0, at_step=2, generation=1)]
        )
        assert plan.for_rank(1, 0) is not None  # the kill
        assert plan.for_rank(1, 1) is None  # wrong generation
        assert plan.for_rank(0, 0) is None  # wedge is generation 1
        assert plan.for_rank(0, 1) is not None
        assert plan.for_rank(2, 0) is None  # untargeted rank

    def test_checkpoint_faults_are_driver_side(self):
        plan = FaultPlan(
            [CorruptCheckpoint(at_snapshot=2), KillRank(rank=0, at_step=1)]
        )
        assert [f.at_snapshot for f in plan.checkpoint_faults] == [2]
        # never shipped to workers: no rank arms them
        state = plan.for_rank(0, 0)
        assert state is not None and not state.kill_after and state.kill_before

    def test_plan_pickles(self):
        plan = FaultPlan(
            [KillRank(1, 7), WedgeRank(0, 2), DropMessage(0, 1, 3),
             DelayMessage(0, 1, 0.01), CorruptCheckpoint(1)]
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults == plan.faults


class TestKill:
    def test_pool_kill_fires_at_declared_step(self):
        """Steps before ``at_step`` succeed; step ``at_step`` fails with
        the PR 6 crash diagnostic carrying the SIGKILL-style exit code."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _fault_mesh(FaultPlan(kill_rank=1, at_step=2))
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            for _ in range(2):  # steps 0 and 1 are healthy
                params, _ = step(params, batch)
            with pytest.raises(WorkerDiedError, match="died without reporting") as err:
                step(params, batch)
            assert "actor 1" in str(err.value)
            assert f"exitcode {KILL_EXIT_CODE}" in str(err.value)
        finally:
            mesh.close()

    def test_kill_after_loses_the_completed_step(self):
        """``when="after"`` executes the step worker-side, then dies
        before reporting — the driver must still see a crash, never a
        half-merged result."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _fault_mesh(FaultPlan(kill_rank=0, at_step=0, when="after"))
        try:
            # the one fault test kept on the linear VM; the rest of the
            # battery injects into the default back end's generated tasks
            step = mesh.distributed(
                ts, schedule=core.OneFOneB(2), task_backend="linear"
            )
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                step(params, batch)
        finally:
            mesh.close()

    def test_generation_gate_spares_the_respawned_pool(self):
        """After the mesh respawns (generation 1), a generation-0 kill
        plan is inert: the same step that died now succeeds."""
        ts, params, batch = make_problem(2, n_mbs=4)
        plain = core.RemoteMesh((2,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        want = plain.distributed(
            ts, schedule=core.OneFOneB(2), task_backend="linear"
        )(params, batch)
        plain.close()
        mesh = _fault_mesh(FaultPlan(kill_rank=1, at_step=0))
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                step(params, batch)
            got = step(params, batch)  # respawn -> generation 1 -> no fault
            assert_bit_identical(want, got)
            assert mesh._pool_generation == 2  # two pools spawned
        finally:
            mesh.close()


class TestWedge:
    def test_wedged_worker_trips_the_watchdog(self):
        """A wedged worker goes silent (no heartbeat, no error); the
        pool's no-progress watchdog must convert that into the standard
        deadlock diagnostic naming the quiet actor."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _fault_mesh(
            FaultPlan([WedgeRank(rank=1, at_step=1)]),
            watchdog_s=TRIP_WATCHDOG_S,
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            params, _ = step(params, batch)  # step 0 healthy
            with pytest.raises(DeadlockError) as err:
                step(params, batch)
            msg = str(err.value)
            assert "mp pool" in msg and "watchdog" in msg
            assert "actor 1" in msg
        finally:
            mesh.close()


class TestChannelFaults:
    def test_dropped_message_surfaces_as_deadlock(self):
        """A dead channel leaves the receiver blocked on a transfer that
        cannot arrive; the watchdog diagnostic names the blocked channel."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _fault_mesh(
            FaultPlan([DropMessage(rank=0, dst=1, at_step=0)]),
            watchdog_s=TRIP_WATCHDOG_S,
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            with pytest.raises(DeadlockError) as err:
                step(params, batch)
            assert "channel 0->1" in str(err.value)
        finally:
            mesh.close()

    def test_delayed_message_changes_timing_only(self):
        """Latency must never change results: a delayed channel still
        produces bit-identical values (the pairwise-FIFO contract absorbs
        reordering in wall-clock time)."""
        ts, params, batch = make_problem(2, n_mbs=4)
        want = core.RemoteMesh((2,)).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="linear"
        )(params, batch)
        mesh = _fault_mesh(
            FaultPlan([DelayMessage(rank=0, dst=1, delay_s=0.05)])
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            got = step(params, batch)
            assert_bit_identical(want, got)
        finally:
            mesh.close()


class TestCorruptCheckpointFault:
    def test_truncate_and_scribble_break_the_file(self, tmp_path):
        state = {"w": np.arange(64, dtype=np.float64)}
        for mode in ("truncate", "scribble"):
            path = save_checkpoint(tmp_path / f"snap-{mode}", state)
            load_checkpoint(path)  # healthy before the fault
            CorruptCheckpoint(at_snapshot=0, mode=mode).apply(path)
            with pytest.raises(CheckpointCorruptError):
                load_checkpoint(path)


class TestHygiene:
    def test_injected_kill_leaks_no_shm_segments(self):
        """An injected death discards the payloads it makes undeliverable:
        with every payload forced onto the shared-memory path, the system
        segment count returns to baseline after the crash is reported."""
        ts, params, batch = make_problem(2, n_mbs=4)
        baseline = _shm_count()
        for when in ("before", "after"):
            mesh = _fault_mesh(
                FaultPlan(kill_rank=1, at_step=1, when=when),
                mp_shm_threshold=1,
            )
            try:
                step = mesh.distributed(ts, schedule=core.OneFOneB(2))
                params2, _ = step(params, batch)
                with pytest.raises(WorkerDiedError, match="died without reporting"):
                    step(params2, batch)
            finally:
                mesh.close()
            assert _settle_to(baseline) <= baseline, (
                f"kill when={when!r} leaked shared-memory segments"
            )
