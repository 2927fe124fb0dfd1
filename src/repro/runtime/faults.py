"""Deterministic fault injection for the multi-process runtime.

Chaos testing a distributed runtime with ``kill -9`` and ``sleep`` races
is inherently flaky: the signal lands wherever the scheduler happened to
put the worker, so every run exercises a *different* interleaving and a
recovery bug reproduces once a week.  This module replaces wall-clock
racing with a declarative :class:`FaultPlan` — *which* rank fails, at
*which* step, in *which* way — threaded through the pool's worker loop
(:mod:`repro.runtime.pool`) and the send path of :mod:`repro.runtime.mp`
behind a hook that costs nothing when no plan is armed (``self.faults is
None`` is the entire steady-state overhead).

Fault kinds
===========

- :class:`KillRank` — the worker process ``os._exit``\\ s at a step
  boundary (``when="before"``: the step never starts; ``"after"``: the
  step fully executed but its result report is lost).  Semantically a
  ``SIGKILL`` pinned to a deterministic program point.
- :class:`WedgeRank` — the worker goes silent (no heartbeats, no
  progress) at a step boundary, exactly what a livelocked or paging
  worker looks like; the driver's no-progress watchdog must fire.
- :class:`DropMessage` — one matched channel send is swallowed; the
  receiver blocks on a transfer that never arrives (a lost packet /
  dead NIC), which the watchdog reports as a deadlock.
- :class:`DelayMessage` — a matched channel send is delivered late.
  Latency must never change results, only timing.
- :class:`CorruptCheckpoint` — a recovery snapshot file is truncated or
  scribbled after it is written (torn disk write); restore must detect
  it and fall back to an older snapshot.  Applied driver-side by
  :mod:`repro.runtime.recovery`, not by workers.

Generations
===========

Worker-side faults are gated on the pool *generation* — the 0-based
count of pools a :class:`~repro.core.api.RemoteMesh` has spawned.  A
fault with ``generation=0`` (the default) fires in the first pool and is
inert in the respawned one, so "kill rank 1 at step 7, then recover" is
expressible without any shared mutable state between the dead pool and
its replacement.  A fault targeting the *replay* itself (testing
retry/backoff) simply names ``generation=1``.

Injected faults clean up after themselves: a kill or wedge discards the
shared-memory payloads it makes undeliverable, so chaos batteries keep
the pool's segment-baseline guarantee (``/dev/shm`` returns to baseline
even across kill/respawn cycles).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Iterable, Sequence

__all__ = [
    "FaultPlan",
    "KillRank",
    "WedgeRank",
    "DropMessage",
    "DelayMessage",
    "CorruptCheckpoint",
    "RankFaultState",
]

#: exit code of an injected kill — the conventional 128+SIGKILL, so the
#: crash diagnostic reads like a real ``kill -9``.
KILL_EXIT_CODE = 137

#: how long a wedged worker sleeps; far beyond any watchdog window, far
#: below forever (the driver terminates the process long before this).
_WEDGE_S = 3600.0


@dataclasses.dataclass(frozen=True)
class KillRank:
    """Kill one rank's worker process at a deterministic step boundary.

    Attributes:
        rank: pool actor index to kill.
        at_step: worker-local step index (the pool's submission counter;
            equal to the driver's loop step when one step is submitted
            per call, which is how ``RemoteMesh`` drives it).
        when: ``"before"`` — the step never starts; ``"after"`` — the
            step fully executed worker-side, but the worker dies before
            its result is reported (forcing a replay of completed work).
        generation: pool generation this fault arms in (see module docs).
    """

    rank: int
    at_step: int
    when: str = "before"
    generation: int = 0

    def __post_init__(self):
        if self.when not in ("before", "after"):
            raise ValueError(f"KillRank.when must be 'before'/'after', got {self.when!r}")


@dataclasses.dataclass(frozen=True)
class WedgeRank:
    """Wedge one rank at a step boundary: the worker stops reporting and
    stops progressing (no heartbeat, no error) until the driver's
    watchdog terminates it — the deterministic stand-in for a livelocked
    or swapped-out worker."""

    rank: int
    at_step: int
    generation: int = 0


@dataclasses.dataclass(frozen=True)
class DropMessage:
    """Kill a channel mid-step: the ``nth`` message ``rank`` sends to
    ``dst`` during ``at_step`` — and every later send on that channel for
    the rest of the step — is never enqueued (the dead-NIC semantics; a
    single swallowed mid-stream message would instead surface as a
    pairwise-FIFO key mismatch, i.e. a *protocol* error, because the
    receiver's posted recv would match the next send).  The receiver
    blocks on a transfer that cannot arrive and the watchdog reports the
    deadlock with the blocked resource named."""

    rank: int
    dst: int
    at_step: int
    nth: int = 0
    generation: int = 0


@dataclasses.dataclass(frozen=True)
class DelayMessage:
    """Deliver matched channel sends late by ``delay_s`` seconds.
    ``at_step``/``nth`` of ``None`` match every step / every send on the
    channel.  Latency reorders wall-clock timing but must never change
    results — the pairwise-FIFO matching contract absorbs it."""

    rank: int
    dst: int
    delay_s: float = 0.05
    at_step: int | None = None
    nth: int | None = None
    generation: int = 0


@dataclasses.dataclass(frozen=True)
class CorruptCheckpoint:
    """Corrupt the ``at_snapshot``-th recovery snapshot after it is
    written (0-based count of snapshot writes).  ``mode="truncate"``
    keeps the first half of the file (torn write); ``"scribble"``
    overwrites bytes in the middle (bit rot).  Driver-side: applied by
    :class:`repro.runtime.recovery.ResilientStepFunction`."""

    at_snapshot: int
    mode: str = "truncate"

    def __post_init__(self):
        if self.mode not in ("truncate", "scribble"):
            raise ValueError(
                f"CorruptCheckpoint.mode must be 'truncate'/'scribble', got {self.mode!r}"
            )

    def apply(self, path) -> None:
        """Corrupt the file at ``path`` in place."""
        size = os.path.getsize(path)
        if self.mode == "truncate":
            with open(path, "r+b") as f:
                f.truncate(max(1, size // 2))
        else:
            with open(path, "r+b") as f:
                f.seek(size // 2)
                f.write(b"\xde\xad\xbe\xef" * 8)


class FaultPlan:
    """An immutable, picklable set of faults to inject into a run.

    Build it from explicit fault objects::

        FaultPlan([KillRank(rank=1, at_step=7),
                   CorruptCheckpoint(at_snapshot=2)])

    or with the single-kill shorthand the common case reads best as::

        FaultPlan(kill_rank=1, at_step=7)            # kill before step 7
        FaultPlan(kill_rank=1, at_step=7, when="after")

    Hand the plan to :class:`~repro.core.api.RemoteMesh`
    (``fault_plan=``) or :class:`~repro.runtime.pool.ActorPool`
    (``fault_plan=``); workers receive it at spawn and arm only the
    faults naming their rank and pool generation — every other code path
    is untouched (``faults is None``).
    """

    def __init__(
        self,
        faults: Iterable[Any] = (),
        *,
        kill_rank: int | None = None,
        at_step: int | None = None,
        when: str = "before",
        generation: int = 0,
    ):
        faults = list(faults)
        if kill_rank is not None:
            if at_step is None:
                raise ValueError("FaultPlan(kill_rank=...) needs at_step=")
            faults.append(
                KillRank(rank=kill_rank, at_step=at_step, when=when, generation=generation)
            )
        kinds = (KillRank, WedgeRank, DropMessage, DelayMessage, CorruptCheckpoint)
        for f in faults:
            if not isinstance(f, kinds):
                raise TypeError(f"unknown fault {f!r}")
        self.faults: tuple = tuple(faults)

    @property
    def checkpoint_faults(self) -> list[CorruptCheckpoint]:
        """Driver-side snapshot corruptions, in plan order."""
        return [f for f in self.faults if isinstance(f, CorruptCheckpoint)]

    def for_rank(self, rank: int, generation: int) -> "RankFaultState | None":
        """Worker-side fault state for ``rank`` in pool ``generation`` —
        ``None`` when nothing in the plan targets it (the zero-cost
        common case: the worker keeps ``faults is None`` everywhere)."""
        mine = [
            f
            for f in self.faults
            if not isinstance(f, CorruptCheckpoint)
            and f.rank == rank
            and f.generation == generation
        ]
        return RankFaultState(mine) if mine else None

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r})"


class RankFaultState:
    """One rank's armed faults plus the step/send counters that match
    them — the object the pool's worker loop consults.  Hook points:

    - :meth:`begin_step` at the top of a step (kill-before / wedge),
    - :meth:`end_step` after execution, before the result report
      (kill-after),
    - :meth:`on_send` in the channel send path (drop / delay).
    """

    def __init__(self, faults: Sequence[Any]):
        self.kill_before = {
            f.at_step: f for f in faults
            if isinstance(f, KillRank) and f.when == "before"
        }
        self.kill_after = {
            f.at_step: f for f in faults
            if isinstance(f, KillRank) and f.when == "after"
        }
        self.wedges = {f.at_step: f for f in faults if isinstance(f, WedgeRank)}
        self.drops = [f for f in faults if isinstance(f, DropMessage)]
        self.delays = [f for f in faults if isinstance(f, DelayMessage)]
        self._step = -1
        self._sends: dict[int, int] = {}
        self._dead_channels: set[int] = set()

    # -- step-boundary hooks ----------------------------------------------
    def begin_step(self, step: int, payloads: Any = None) -> None:
        """Arm ``step``'s counters; kill or wedge if the plan says so.
        ``payloads`` (the step's encoded input buffers) are reclaimed
        first so an injected death never leaks shm segments the dead
        worker was responsible for consuming."""
        self._step = step
        self._sends = {}
        self._dead_channels = set()
        if step in self.kill_before:
            self._discard(payloads)
            os._exit(KILL_EXIT_CODE)
        if step in self.wedges:
            self._discard(payloads)
            time.sleep(_WEDGE_S)  # silent: between runs the status thread sends nothing

    def end_step(self, step: int, payloads: Any = None, flush: Any = ()) -> None:
        """Kill after execution but before the result report — the step's
        work is complete and lost.  ``payloads`` are the encoded result
        buffers (reclaimed, same hygiene as :meth:`begin_step`);
        ``flush`` are the channels the step's sends went out on — "fully
        executed" includes them, and a shared-memory payload still in a
        channel's backlog when the process exits can be reclaimed by no
        one."""
        if step in self.kill_after:
            self._discard(payloads)
            for chan in flush:
                chan.drain()  # returns once the backlog is in the pipe
            os._exit(KILL_EXIT_CODE)

    # -- channel hook ------------------------------------------------------
    def on_send(self, dst: int) -> str | None:
        """Called per send; counts the channel, applies drop/delay.
        Returns ``"drop"`` when the message must be swallowed."""
        n = self._sends.get(dst, 0)
        self._sends[dst] = n + 1
        if dst in self._dead_channels:
            return "drop"
        for f in self.drops:
            if f.dst == dst and f.at_step == self._step and f.nth == n:
                self._dead_channels.add(dst)  # dead for the rest of the step
                return "drop"
        for f in self.delays:
            if (
                f.dst == dst
                and (f.at_step is None or f.at_step == self._step)
                and (f.nth is None or f.nth == n)
            ):
                time.sleep(f.delay_s)
        return None

    @staticmethod
    def _discard(payloads: Any) -> None:
        if payloads is not None:
            from repro.runtime.mp import _discard_payload

            _discard_payload(payloads)
