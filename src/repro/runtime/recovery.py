"""Fault-tolerant step replay: training survives worker death.

The persistent pool (PR 6) already *detects* failure well — a killed
worker fails pending futures with a crash diagnostic, a wedged one trips
the no-progress watchdog, and :class:`~repro.core.api.RemoteMesh`
transparently respawns a dead pool.  But detection alone loses all
in-flight training state: the caller's loop dies at step 4217 of a
long-running job, which is precisely the workload the paper targets
(§6: "JaxPP focuses on long-running training jobs") and the PipeDream
lineage assumes survivable.

This module closes the loop with the classic recover-and-continue state
machine::

    run ──failure──▶ classify ──recoverable──▶ respawn ──▶ restore ──▶ replay ─┐
     ▲                   │                                                     │
     └───────────────────┼──────────────────────◀──────────────────────────────┘
                         └──unrecoverable / budget exhausted──▶ re-raise (fail fast)

- **Snapshot.**  Before step ``i`` (every ``snapshot_every`` steps) the
  program-owned state — the first argument of the functional step, by
  convention ``(state, batch) -> (state, loss)`` — is pulled home (an
  ``engine="mp"`` state is :class:`~repro.runtime.store.RemoteArray`
  handles whose values its ranks hold) and written through
  :func:`repro.models.checkpoint.save_checkpoint` (atomic: tmp +
  rename), optionally on a background thread so training does not stall
  on the disk.  The last ``keep`` snapshots are retained.
- **Classify.**  The failure is promoted into a typed
  :class:`RankFailure` event (kind ``"crash"`` / ``"deadlock"`` /
  ``"pool"``, implicated ranks parsed from the diagnostic) and appended
  to ``step_fn.failures``.  :func:`is_recoverable` draws the line:
  infrastructure failures (worker death, watchdog expiry, a dead pool)
  are retried; deterministic program bugs
  (:class:`~repro.runtime.executor.CommMismatchError`, a task raising)
  re-raise immediately — replaying a compiler bug can only fail again.
- **Respawn + re-ship.**  Nothing to do here beyond calling the step
  again: ``RemoteMesh._acquire_mp_pool`` notices the dead pool and
  spawns a fresh one (bumping the mesh's pool *generation*, which is
  what keeps a generation-0 :class:`~repro.runtime.faults.FaultPlan`
  from re-firing during replay), and the new pool re-ships the compiled
  program under its :attr:`~repro.core.compile.CompiledStep.program_key`
  on first submission.
- **Restore + replay.**  State reloads from the newest *loadable*
  snapshot — a corrupt file (torn write, scribbled bytes) raises the
  typed :class:`~repro.models.checkpoint.CheckpointCorruptError` and
  restore falls back to the next-older snapshot — then the failed step
  window replays: steps ``snap .. i-1`` re-run to regenerate state
  (bit-identical, because steps are functional and deterministic), and
  step ``i`` re-runs for real.  Bounded: ``max_retries`` attempts per
  step, ``give_up_after`` failures per run, optional exponential
  ``backoff_s`` — exhausting either budget re-raises the underlying
  exception, degrading gracefully to exactly the fail-fast behavior a
  policy-less mesh has.

Opt-in::

    mesh = RemoteMesh((4,), engine="mp",
                      recovery=RecoveryPolicy(snapshot_every=2, keep=2))
    step = mesh.distributed(train_step)      # a ResilientStepFunction
    for batch in data:
        state, loss = step(state, batch)     # survives rank death
    step.failures                            # typed RankFailure events

Every path through the state machine is exercised deterministically by
``tests/runtime/test_recovery.py`` via :mod:`repro.runtime.faults` —
no racy ``kill -9`` timing anywhere.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import shutil
import tempfile
import threading
import time
import weakref
from typing import Any

import numpy as np

from repro.ir.pytree import tree_flatten, tree_unflatten
from repro.models.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.executor import DeadlockError, PoolClosedError, WorkerDiedError
from repro.runtime.store import RemoteArray

__all__ = [
    "RecoveryPolicy",
    "RankFailure",
    "ResilientStepFunction",
    "is_recoverable",
    "classify_failure",
]


@dataclasses.dataclass(frozen=True)
class RecoveryPolicy:
    """How a :class:`ResilientStepFunction` snapshots and retries.

    Attributes:
        snapshot_every: snapshot the input state every this-many steps
            (1 = before every step; larger trades replay length for
            snapshot overhead).
        keep: snapshots retained on disk — more than one lets restore
            survive a corrupt newest snapshot.
        max_retries: recovery attempts per failing step before giving up.
        give_up_after: total failures tolerated over the run (a lifetime
            budget across steps); ``0`` disables recovery outright —
            the first failure re-raises, restoring fail-fast behavior.
        backoff_s: sleep before attempt ``k`` is ``backoff_s * 2**(k-1)``
            (0 disables; keeps chaos tests fast).
        snapshot_dir: where snapshots live; ``None`` creates a private
            temporary directory, removed when the step function is
            garbage-collected.
        snapshot_async: write snapshots on a background thread (joined
            before the next snapshot and before any restore), so the
            step stream does not stall on disk.  The functional-step
            convention makes this safe without copying: state pytrees
            are replaced, never mutated in place.
        state_arg: index of the program-owned state in the step's
            positional arguments.
        state_output: index of the updated state in the step's output
            tuple (ignored when the step returns the state bare).
    """

    snapshot_every: int = 1
    keep: int = 2
    max_retries: int = 2
    give_up_after: int = 3
    backoff_s: float = 0.0
    snapshot_dir: str | pathlib.Path | None = None
    snapshot_async: bool = True
    state_arg: int = 0
    state_output: int = 0

    def __post_init__(self):
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.give_up_after < 0:
            raise ValueError(f"give_up_after must be >= 0, got {self.give_up_after}")


@dataclasses.dataclass(frozen=True)
class RankFailure:
    """One detected infrastructure failure, promoted from a raw runtime
    exception into a typed event (``step_fn.failures`` accumulates them).

    Attributes:
        step: driver-side step index the failure interrupted.
        attempt: 1-based recovery attempt this failure triggered.
        kind: ``"crash"`` (worker died), ``"deadlock"`` (watchdog
            expired: wedged worker or lost message), or ``"pool"``
            (pool-level failure without a more specific diagnosis).
        ranks: actor ranks implicated by the diagnostic (may be empty).
        message: the underlying exception text.
    """

    step: int
    attempt: int
    kind: str
    ranks: tuple[int, ...]
    message: str


def classify_failure(exc: BaseException) -> tuple[str, tuple[int, ...]]:
    """Map a runtime exception to a :class:`RankFailure` kind plus the
    actor ranks its diagnostic implicates."""
    text = str(exc)
    ranks = tuple(dict.fromkeys(int(r) for r in re.findall(r"actor (\d+)", text)))
    if isinstance(exc, DeadlockError):
        return "deadlock", ranks
    # a submission that raced the pool's death carries the death as its cause
    if isinstance(exc, WorkerDiedError) or isinstance(exc.__cause__, WorkerDiedError):
        return "crash", ranks
    return "pool", ranks


def is_recoverable(exc: BaseException) -> bool:
    """True when respawn + restore + replay can plausibly cure ``exc``.

    Infrastructure failures qualify, by type: a killed worker
    (:class:`WorkerDiedError`), an expired watchdog
    (:class:`DeadlockError`: wedged worker, lost message), a pool that
    is dead, lost its driver thread or was shut down under the
    submission (:class:`PoolClosedError`).  Deterministic program
    failures do not — :class:`CommMismatchError` is a compiler bug and a
    worker *raising* (:class:`WorkerTaskError`) is a task bug; both would
    simply recur on replay, so they fail fast exactly as without recovery.
    """
    return isinstance(exc, (DeadlockError, WorkerDiedError, PoolClosedError))


class ResilientStepFunction:
    """Wraps a :class:`~repro.core.api.StepFunction` with the
    snapshot / restore / replay state machine described in the module
    docstring.  Built by ``mesh.distributed(...)`` when the mesh has a
    :class:`RecoveryPolicy` (``RemoteMesh(recovery=...)``); everything
    of the inner step function (``.compiled``, ``.last_result``, …) is
    reachable by delegation.

    Attributes:
        failures: typed :class:`RankFailure` events, oldest first.
        recoveries: completed restore-replay cycles.
        snapshots_written: state snapshots persisted so far.
    """

    def __init__(self, inner, policy: RecoveryPolicy):
        self._inner = inner
        self.policy = policy
        self.failures: list[RankFailure] = []
        self.recoveries = 0
        self.snapshots_written = 0
        self._step = 0
        self._snapshots: dict[int, pathlib.Path] = {}  # step -> file
        self._window: dict[int, tuple] = {}  # step -> full args tuple
        self._snap_thread: threading.Thread | None = None
        self._snap_error: BaseException | None = None
        if policy.snapshot_dir is None:
            self._dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-recovery-"))
            self._rmdir = weakref.finalize(
                self, shutil.rmtree, str(self._dir), ignore_errors=True
            )
        else:
            self._dir = pathlib.Path(policy.snapshot_dir)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._rmdir = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return (
            f"ResilientStepFunction({self._inner!r}, step={self._step}, "
            f"failures={len(self.failures)})"
        )

    # -- snapshotting ------------------------------------------------------
    def _join_snapshot(self) -> None:
        t = self._snap_thread
        if t is not None:
            t.join()
            self._snap_thread = None
        if self._snap_error is not None:
            exc, self._snap_error = self._snap_error, None
            raise exc

    def _checkpoint_faults(self):
        plan = getattr(getattr(self._inner, "mesh", None), "fault_plan", None)
        return plan.checkpoint_faults if plan is not None else []

    def _maybe_snapshot(self, step: int, state: Any) -> None:
        if step % self.policy.snapshot_every != 0:
            return
        if step in self._snapshots:  # retry of a step already snapshotted
            return
        self._join_snapshot()
        # an engine="mp" state comes home before the step is submitted:
        # should a rank die in it, what the rank held would be lost
        leaves, tree = tree_flatten(state)
        state = tree_unflatten(tree, [
            np.asarray(x) if isinstance(x, RemoteArray) else x for x in leaves
        ])
        path = self._dir / f"snap-{step:08d}.npz"
        seq = self.snapshots_written
        self.snapshots_written += 1
        faults = self._checkpoint_faults()

        def write() -> None:
            try:
                # fsync=False: snapshots outlive dead *workers*, not dead
                # hosts — a machine crash kills the replaying driver too,
                # so paying ~ms of stable-storage flush per step buys
                # nothing here
                final = save_checkpoint(path, state, fsync=False)
                for f in faults:
                    if f.at_snapshot == seq:
                        f.apply(final)  # injected torn write / bit rot
            except BaseException as e:  # surfaced at the next join
                self._snap_error = e

        self._snapshots[step] = path
        if self.policy.snapshot_async:
            self._snap_thread = threading.Thread(
                target=write, name="repro-snapshot", daemon=True
            )
            self._snap_thread.start()
        else:
            write()
        self._prune(step)

    def _prune(self, step: int) -> None:
        """Retain the ``keep`` newest snapshots; the replay window only
        needs batches back to the oldest snapshot still on disk."""
        steps = sorted(self._snapshots)
        for s in steps[: -self.policy.keep]:
            path = self._snapshots.pop(s)
            try:
                path.unlink()
            except OSError:
                pass
        horizon = min(self._snapshots, default=step)
        for s in [s for s in self._window if s < horizon]:
            del self._window[s]

    # -- restore + replay --------------------------------------------------
    def _restore(self, last_exc: BaseException) -> tuple[int, Any]:
        """State from the newest loadable snapshot, falling back past
        corrupt files; with none loadable, recovery is impossible and the
        underlying failure re-raises."""
        self._join_snapshot()
        for snap_step in sorted(self._snapshots, reverse=True):
            try:
                return snap_step, load_checkpoint(self._snapshots[snap_step])
            except CheckpointError:
                continue  # torn/scribbled snapshot: fall back one older
        raise last_exc

    def _replay(self, snap_step: int, state: Any, upto: int) -> Any:
        """Re-run steps ``snap_step .. upto-1`` from restored state.
        Functional, deterministic steps make the regenerated state
        bit-identical to the lost one."""
        idx = self.policy.state_arg
        for s in range(snap_step, upto):
            args = list(self._window[s])
            args[idx] = state
            out = self._inner(*args)
            state = (
                out[self.policy.state_output] if isinstance(out, tuple) else out
            )
        return state

    # -- the step ----------------------------------------------------------
    def __call__(self, *args: Any) -> Any:
        step = self._step
        self._window[step] = args
        self._maybe_snapshot(step, args[self.policy.state_arg])
        attempt = 0
        while True:
            try:
                out = self._inner(*args)
            except BaseException as e:
                if not is_recoverable(e):
                    raise
                attempt += 1
                kind, ranks = classify_failure(e)
                self.failures.append(
                    RankFailure(step, attempt, kind, ranks, str(e))
                )
                # both budgets degrade to fail-fast: the *underlying*
                # exception propagates, same as a policy-less mesh
                if len(self.failures) > self.policy.give_up_after:
                    raise
                if attempt > self.policy.max_retries:
                    raise
                if self.policy.backoff_s > 0.0:
                    time.sleep(self.policy.backoff_s * 2.0 ** (attempt - 1))
                # respawn happens inside the retried call: the mesh sees
                # the dead pool and spawns generation g+1, which re-ships
                # the compiled program on first submission
                snap_step, state = self._restore(e)
                state = self._replay(snap_step, state, step)
                new_args = list(args)
                new_args[self.policy.state_arg] = state
                args = tuple(new_args)
                self.recoveries += 1
                continue
            self._step = step + 1
            return out

    def close(self) -> None:
        """Join any in-flight snapshot write and delete a private
        snapshot directory (explicit ``snapshot_dir`` is left alone)."""
        try:
            self._join_snapshot()
        finally:
            if self._rmdir is not None:
                self._rmdir()

