"""Differential recovery suite: every path through the fault-tolerance
state machine, driven deterministically by :mod:`repro.runtime.faults`.

The headline contract is the issue's acceptance criterion: a 20-step
pooled training loop with a rank killed mid-run — snapshot, respawn,
restore, replay — finishes **bit-identical** to the same loop on the
in-process event engine, with the failure recorded as a typed
:class:`RankFailure`.  Around it, every fault kind exercises its own
recovery path (kill before/after, wedge, dead channel, delayed channel,
corrupt snapshot), the retry/lifetime budgets degrade to the exact
fail-fast behavior of a policy-less mesh, and the snapshot machinery
(cadence, pruning, async writes, private-dir cleanup) is pinned down on
the cheap event engine where no processes are needed.

Batches differ per step throughout, so a replay that picked the wrong
window entry could never pass the bit-identical check.
"""

import pathlib
import signal

import numpy as np
import pytest

from repro import core
from repro.models.checkpoint import CheckpointCorruptError, load_checkpoint
from repro.runtime import (
    CommMismatchError,
    CorruptCheckpoint,
    DeadlockError,
    DropMessage,
    FaultPlan,
    KillRank,
    PoolClosedError,
    RankFailure,
    RecoveryPolicy,
    ResilientStepFunction,
    WedgeRank,
    WorkerDiedError,
    WorkerTaskError,
    is_recoverable,
)
from repro.runtime.recovery import classify_failure
from tests.core.test_linear_backend import GALLERY, assert_bit_identical, make_problem

HARD_TIMEOUT_S = 300

WATCHDOG_S = 60.0

#: small watchdog for the deadlock-mediated faults (wedge, dead channel).
TRIP_WATCHDOG_S = 3.0


@pytest.fixture(autouse=True)
def hard_timeout():
    def boom(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(
            f"recovery test exceeded the hard {HARD_TIMEOUT_S}s cap"
        )

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _batches(batch, n_steps):
    """Per-step batches (same shapes, different values): replay must pull
    the *right* batch from its window to stay bit-identical."""
    X, Y = batch
    return [(np.roll(X, s, axis=0), Y) for s in range(n_steps)]


def _loop(step, params, batches):
    losses = []
    for b in batches:
        params, loss = step(params, b)
        losses.append(loss)
    return params, losses


def _reference(ts, params, batches, schedule):
    """The uninterrupted event-engine run, on the linear VM, that every
    recovery (default back end: codegen) must match."""
    step = core.RemoteMesh((schedule.n_actors,)).distributed(
        ts, schedule=schedule, task_backend="linear"
    )
    return _loop(step, params, batches)


def _recovering_mesh(plan, policy, schedule, watchdog_s=WATCHDOG_S):
    return core.RemoteMesh(
        (schedule.n_actors,),
        engine="mp",
        mp_watchdog_s=watchdog_s,
        recovery=policy,
        fault_plan=plan,
    )


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"snapshot_every": 0},
            {"keep": 0},
            {"max_retries": -1},
            {"give_up_after": -1},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_rejects_bad_budgets(self, kw):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kw)


class TestClassification:
    def test_recoverable_infrastructure_failures(self):
        assert is_recoverable(DeadlockError("mp pool watchdog: no progress"))
        assert is_recoverable(
            WorkerDiedError(
                "mp pool worker for actor 1 died without reporting (exitcode 137)",
                1, 137,
            )
        )
        assert is_recoverable(PoolClosedError("ActorPool is dead"))
        assert is_recoverable(PoolClosedError("mp pool driver thread crashed: x"))

    def test_unrecoverable_program_failures(self):
        assert not is_recoverable(CommMismatchError("send/recv order mismatch"))
        assert not is_recoverable(RuntimeError("actor 0 raised ValueError: boom"))
        assert not is_recoverable(ValueError("boom"))
        assert not is_recoverable(WorkerTaskError("actor 0 failed at [3]", 0, 3))
        # the type decides, not the text
        assert not is_recoverable(RuntimeError("actor 1 died without reporting"))

    def test_classify_kinds_and_ranks(self):
        died = WorkerDiedError(
            "mp pool worker for actor 1 died without reporting (exitcode 137)",
            1, 137,
        )
        assert (died.rank, died.exitcode) == (1, 137)
        assert classify_failure(died) == ("crash", (1,))
        # a submission that raced the death carries it as its cause
        raced = PoolClosedError(f"ActorPool is dead ({died}); spawn a new pool")
        raced.__cause__ = died
        assert classify_failure(raced) == ("crash", (1,))
        kind, ranks = classify_failure(
            DeadlockError("mp pool watchdog: actor 0 and actor 1 made no progress")
        )
        assert (kind, ranks) == ("deadlock", (0, 1))
        kind, ranks = classify_failure(PoolClosedError("ActorPool is dead"))
        assert (kind, ranks) == ("pool", ())


class TestKillRecovery:
    def test_twenty_step_loop_survives_mid_run_kill(self):
        """The acceptance criterion: kill rank 1 before step 7 of a
        20-step pooled loop; the run recovers and stays bit-identical to
        the uninterrupted event-engine run."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 20)
        want = _reference(ts, params, batches, schedule)
        mesh = _recovering_mesh(
            FaultPlan(kill_rank=1, at_step=7),
            RecoveryPolicy(snapshot_every=2, keep=2),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            assert isinstance(step, ResilientStepFunction)
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 1
            assert [f for f in step.failures] == [
                RankFailure(
                    step=7, attempt=1, kind="crash", ranks=(1,),
                    message=step.failures[0].message,
                )
            ]
            assert "died without reporting" in step.failures[0].message
            assert mesh._pool_generation == 2  # original + respawn
            assert step.snapshots_written == 10  # every 2nd of 20 steps
        finally:
            step.close()
            mesh.close()

    def test_kill_after_replays_completed_work(self):
        """``when="after"`` loses a step that fully executed — recovery
        must replay it, and the replay must produce the same result."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 10)
        want = _reference(ts, params, batches, schedule)
        mesh = _recovering_mesh(
            FaultPlan(kill_rank=0, at_step=4, when="after"),
            RecoveryPolicy(snapshot_every=3, keep=2),
            schedule,
        )
        try:
            # the one recovery test kept on the linear VM: respawn, restore
            # and replay must not depend on generated task code
            step = mesh.distributed(ts, schedule=schedule, task_backend="linear")
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 1
            assert step.failures[0].kind == "crash"
            assert step.compiled.task_backend == "linear"
        finally:
            step.close()
            mesh.close()


class TestWatchdogRecovery:
    def test_wedged_worker_recovers(self):
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 8)
        want = _reference(ts, params, batches, schedule)
        mesh = _recovering_mesh(
            FaultPlan([WedgeRank(rank=1, at_step=3)]),
            RecoveryPolicy(snapshot_every=2, keep=2),
            schedule,
            watchdog_s=TRIP_WATCHDOG_S,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 1
            assert step.failures[0].kind == "deadlock"
        finally:
            step.close()
            mesh.close()

    def test_dead_channel_recovers(self):
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 8)
        want = _reference(ts, params, batches, schedule)
        mesh = _recovering_mesh(
            FaultPlan([DropMessage(rank=0, dst=1, at_step=3)]),
            RecoveryPolicy(snapshot_every=2, keep=2),
            schedule,
            watchdog_s=TRIP_WATCHDOG_S,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 1
            assert step.failures[0].kind == "deadlock"
        finally:
            step.close()
            mesh.close()


class TestSnapshotFaults:
    def test_restore_falls_back_past_corrupt_snapshot(self):
        """With ``snapshot_every=2`` the kill at step 5 restores from the
        step-4 snapshot (write #2) — which the plan corrupts.  Restore
        must fall back to the step-2 snapshot and replay three steps."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 10)
        want = _reference(ts, params, batches, schedule)
        mesh = _recovering_mesh(
            FaultPlan(
                [CorruptCheckpoint(at_snapshot=2, mode="scribble")],
                kill_rank=1,
                at_step=5,
            ),
            RecoveryPolicy(snapshot_every=2, keep=2),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 1
        finally:
            step.close()
            mesh.close()

    def test_no_loadable_snapshot_reraises_the_failure(self):
        """``keep=1`` plus a corrupt newest snapshot leaves nothing to
        restore from: the underlying crash re-raises."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _recovering_mesh(
            FaultPlan(
                [CorruptCheckpoint(at_snapshot=2, mode="truncate")],
                kill_rank=1,
                at_step=5,
            ),
            RecoveryPolicy(snapshot_every=2, keep=1),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                _loop(step, params, _batches(batch, 10))
            assert step.recoveries == 0
            assert len(step.failures) == 1
        finally:
            step.close()
            mesh.close()


class TestBudgets:
    def test_fail_fast_without_recovery(self):
        """The acceptance criterion's other half: the same plan on a mesh
        *without* a policy fails fast with the PR 6 crash diagnostic."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = core.RemoteMesh(
            (2,), engine="mp", mp_watchdog_s=WATCHDOG_S,
            fault_plan=FaultPlan(kill_rank=1, at_step=7),
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                _loop(step, params, _batches(batch, 20))
        finally:
            mesh.close()

    def test_give_up_after_zero_disables_recovery(self):
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _recovering_mesh(
            FaultPlan(kill_rank=1, at_step=2),
            RecoveryPolicy(give_up_after=0),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                _loop(step, params, _batches(batch, 5))
            assert step.recoveries == 0
            assert len(step.failures) == 1  # classified, then re-raised
        finally:
            step.close()
            mesh.close()

    def test_max_retries_exhaustion_reraises(self):
        """Kills armed in generations 0 and 1 make the same step fail
        twice; ``max_retries=1`` re-raises the second failure."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        plan = FaultPlan([
            KillRank(rank=1, at_step=2, generation=0),
            # after the respawn the retried step is the new pool's first
            # submission (snapshot_every=1: empty replay window)
            KillRank(rank=1, at_step=0, generation=1),
        ])
        mesh = _recovering_mesh(
            plan, RecoveryPolicy(snapshot_every=1, max_retries=1, give_up_after=10),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                _loop(step, params, _batches(batch, 5))
            assert [f.attempt for f in step.failures] == [1, 2]
            assert step.recoveries == 1  # first recovery completed, then died again
        finally:
            step.close()
            mesh.close()

    def test_lifetime_budget_spans_steps(self):
        """``give_up_after=1`` tolerates one failure across the whole run;
        a second failure at a later step re-raises even though its own
        per-step attempt budget is untouched."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        plan = FaultPlan([
            KillRank(rank=1, at_step=2, generation=0),
            # generation-1 submissions: retried step 2 is local 0, then
            # steps 3, 4, 5... — local 3 is driver step 5
            KillRank(rank=0, at_step=3, generation=1),
        ])
        mesh = _recovering_mesh(
            plan, RecoveryPolicy(snapshot_every=1, max_retries=2, give_up_after=1),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            with pytest.raises(WorkerDiedError, match="died without reporting"):
                _loop(step, params, _batches(batch, 8))
            assert [f.step for f in step.failures] == [2, 5]
            assert step.recoveries == 1
        finally:
            step.close()
            mesh.close()


class TestChaosBattery:
    def test_three_failures_three_recoveries(self):
        """Kill, kill-after, wedge in successive pool generations over a
        10-step loop — the loop survives all three and stays
        bit-identical (the ci ``recovery-chaos`` lane's core)."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 10)
        want = _reference(ts, params, batches, schedule)
        # snapshot_every=1 keeps the generation-local submission index
        # predictable: each respawned pool starts at the failed step
        plan = FaultPlan([
            KillRank(rank=1, at_step=3, generation=0),  # driver step 3
            KillRank(rank=0, at_step=2, generation=1, when="after"),  # step 5
            WedgeRank(rank=1, at_step=3, generation=2),  # driver step 8
        ])
        mesh = _recovering_mesh(
            plan,
            RecoveryPolicy(snapshot_every=1, keep=2, give_up_after=3),
            schedule,
            watchdog_s=TRIP_WATCHDOG_S,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 3
            assert [f.kind for f in step.failures] == ["crash", "crash", "deadlock"]
            assert [f.step for f in step.failures] == [3, 5, 8]
            assert mesh._pool_generation == 4
        finally:
            step.close()
            mesh.close()


class TestSnapshotMachinery:
    """Snapshot cadence/pruning/cleanup on the event engine — no
    processes, so these stay cheap even in the tier-1 lane."""

    def _event_step(self, policy, schedule=None, n=2):
        schedule = schedule or core.OneFOneB(n)
        ts, params, batch = make_problem(n, n_mbs=4)
        mesh = core.RemoteMesh((n,), recovery=policy)
        return mesh.distributed(ts, schedule=schedule), params, batch

    def test_recovery_is_transparent_on_a_healthy_run(self):
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        batches = _batches(batch, 6)
        want = _reference(ts, params, batches, schedule)
        step, params2, _ = self._event_step(RecoveryPolicy(snapshot_every=2))
        got = _loop(step, params2, batches)
        assert_bit_identical(want, got)
        assert step.failures == [] and step.recoveries == 0
        step.close()

    def test_cadence_and_pruning(self, tmp_path):
        policy = RecoveryPolicy(
            snapshot_every=1, keep=2, snapshot_dir=tmp_path, snapshot_async=False
        )
        step, params, batch = self._event_step(policy)
        for b in _batches(batch, 5):
            params, _ = step(params, b)
        assert step.snapshots_written == 5
        on_disk = sorted(p.name for p in tmp_path.glob("snap-*.npz"))
        assert on_disk == ["snap-00000003.npz", "snap-00000004.npz"]
        # retained snapshots restore to exactly the states they named
        state = load_checkpoint(tmp_path / "snap-00000004.npz")
        assert sorted(state) == sorted(params)  # step-4 *input* state keys
        step.close()
        assert tmp_path.exists()  # explicit snapshot_dir is left alone

    def test_async_snapshots_join_on_close(self, tmp_path):
        policy = RecoveryPolicy(snapshot_every=1, keep=8, snapshot_dir=tmp_path)
        step, params, batch = self._event_step(policy)
        for b in _batches(batch, 3):
            params, _ = step(params, b)
        step.close()  # joins the in-flight writer thread
        assert len(list(tmp_path.glob("snap-*.npz"))) == 3
        for p in tmp_path.glob("snap-*.npz"):
            load_checkpoint(p)  # every joined write is complete + loadable

    def test_private_snapshot_dir_removed_on_close(self):
        step, params, batch = self._event_step(RecoveryPolicy())
        params, _ = step(params, (batch[0], batch[1]))
        private = step._dir
        assert private.exists()
        step.close()
        assert not private.exists()


@pytest.mark.slow
class TestGalleryRecovery:
    """Full-gallery differential lane: a mid-run kill recovers
    bit-identically under every schedule family (benchmarks/slow lane)."""

    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_kill_mid_run_bit_identical(self, schedule):
        ts, params, batch = make_problem(4, n_mbs=8)
        batches = _batches(batch, 6)
        want = _reference(ts, params, batches, schedule)
        mesh = _recovering_mesh(
            FaultPlan(kill_rank=1, at_step=2),
            RecoveryPolicy(snapshot_every=2, keep=2),
            schedule,
        )
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got = _loop(step, params, batches)
            assert_bit_identical(want, got)
            assert step.recoveries == 1
        finally:
            step.close()
            mesh.close()
