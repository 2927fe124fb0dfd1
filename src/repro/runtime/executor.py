"""Event-driven dataflow executor for per-actor instruction streams.

This is the reproduction's stand-in for the paper's Ray+NCCL runtime (§4):
each actor owns an object store and a fused instruction stream; point-to-
point transfers use **pairwise-FIFO matching** (the k-th send from A to B
matches the k-th recv from A posted on B — NCCL's ordering contract from
§4.2), so a mis-ordered schedule genuinely deadlocks (Figure 5) and the
executor reports it instead of hanging.

Engine design
=============

Instruction *semantics* live in :class:`_RunState.step`, which executes one
instruction of one actor and either makes progress or returns a
:class:`_Wait` naming the exact resource the actor is blocked on.  Two
interchangeable scheduling loops drive ``step``:

- ``engine="event"`` (default) — an **event-driven engine**: a ready-queue
  keyed on virtual time (a heap of ``(actor.time, seq, actor)``) plus
  per-resource wait-lists.  A blocked actor parks on exactly one waiter
  entry — a buffer arrival ``(actor, uid)``, a posted send/recv awaiting
  its channel match, or an all-reduce rendezvous key — and is re-enqueued
  only when that resource changes (a ``put`` delivers the buffer, a match
  completes the transfer, the last rendezvous participant arrives).  Each
  instruction is therefore visited O(1) times: once to run or park, once
  per genuine dependency arrival.

- ``engine="roundrobin"`` — the original fixpoint loop, kept as the
  differential-testing reference: every pass re-polls every blocked actor
  until nothing progresses.  Correct, but blocked instructions are
  re-scanned on every pass (quadratic in the worst case), which made it
  the hot path of figure regeneration.

Both engines share ``step`` verbatim, so they are semantically identical
by construction; ``tests/runtime/test_engine_equivalence.py`` checks the
results are bit-identical anyway.  :class:`ExecutionResult` carries two
scheduling counters for the comparison:

- ``visits`` — total ``step`` invocations by the scheduling loop;
- ``repolls`` — visits that found an instruction still parked on the
  *unchanged* wait condition (pure wasted polls).  The event engine's
  precise wake-ups make this structurally zero; the round-robin reference
  accrues one per blocked actor per pass.

Deadlocks are reported deterministically with a wait-for-graph diagnostic:
each stuck actor's program counter, instruction, and the buffer / channel /
rendezvous it is blocked on, plus the actor-level wait-for cycle when one
exists.

Every run also produces a **wait profile**
(:attr:`ExecutionResult.wait_profile`): per resource, how often actors
newly parked on it and for how much virtual time, with the per-rank
split kept on each :class:`WaitStat`.  "Parked" means the interval from
an instruction first blocking to the virtual time it finally ran,
charged to the resource whose arrival released it — the runtime's
measurement of the schedule's bubble.  :meth:`ExecutionResult.top_waits`
ranks resources, :meth:`ExecutionResult.parked_by_rank` sums per actor;
:func:`repro.core.autotune.tune` feeds both back into schedule search,
and ``CostModel.from_result`` replays the timeline's per-``(stage,
kind)`` durations (busy time only — parked time belongs to the schedule
under search, not the workload).

Two communication modes:

- ``CommMode.SYNC`` — send/recv block their actor until the transfer
  completes (the "synchronous counterpart" the paper compares against, and
  the mode in which Figure 5's naive ordering deadlocks);
- ``CommMode.ASYNC`` — posts return immediately; consuming tasks wait for
  data arrival, and deletions of in-flight send buffers are deferred via
  the pending-deletions queue (§4.3). This is JaxPP's mode: transfers
  overlap compute, visible in the virtual-time timeline.

The executor advances a **virtual clock** from a pluggable
:class:`~repro.runtime.clock.CostModel`; with ``ZeroCost`` it is a pure
correctness interpreter, with a topology-backed model it is the discrete-
event simulator used to regenerate the paper's figures.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
from collections import deque
from typing import Any, Callable, Sequence

from repro.runtime.clock import CostModel, ZeroCost
from repro.runtime.instructions import (
    Accumulate,
    AllReduce,
    BufferRef,
    Delete,
    Instruction,
    Recv,
    RunTask,
    Send,
    brief,
)
from repro.runtime.store import ObjectStore, fold_contributions

__all__ = [
    "CommMode",
    "DeadlockError",
    "CommMismatchError",
    "WorkerTaskError",
    "TimelineEvent",
    "ExecutionResult",
    "WaitStat",
    "MpmdExecutor",
    "ENGINES",
]

ENGINES = ("event", "roundrobin", "mp")


class CommMode(enum.Enum):
    """Point-to-point communication semantics (see module docstring)."""

    SYNC = "sync"
    ASYNC = "async"


class DeadlockError(RuntimeError):
    """No actor can make progress and the program is not finished."""


class CommMismatchError(RuntimeError):
    """Matched send/recv pair disagrees on the logical value (the data
    corruption NCCL would silently produce with mis-ordered P2P ops)."""


class WorkerTaskError(RuntimeError):
    """An instruction raised, or broke the worker protocol, inside a
    process-per-rank worker (:mod:`repro.runtime.pool`).  A deterministic
    program failure: replaying the step would fail the same way, so
    recovery does not retry it.

    Attributes:
        rank: the actor whose worker failed.
        pc: index of the failing instruction in that actor's program
            (``-1``: before the first one).
        task: the task's name when the instruction is a ``RunTask``,
            else ``None``.
        instruction: the instruction in short
            (:func:`~repro.runtime.instructions.brief`); ``None`` when
            ``pc`` names no instruction.
    """

    def __init__(
        self, message: str, rank: int = -1, pc: int = -1,
        task: str | None = None, instruction: str | None = None,
    ):
        super().__init__(message)
        self.rank = rank
        self.pc = pc
        self.task = task
        self.instruction = instruction


class WorkerDiedError(RuntimeError):
    """A process-per-rank worker exited without reporting (``kill -9``,
    OOM, an injected :class:`~repro.runtime.faults.KillRank`).  An
    infrastructure failure: a respawned pool can replay the step.

    Attributes:
        rank: the actor whose process died.
        exitcode: its exit code (negative: killed by that signal).
    """

    def __init__(self, message: str, rank: int = -1, exitcode: int | None = None):
        super().__init__(message)
        self.rank = rank
        self.exitcode = exitcode


class PoolClosedError(RuntimeError):
    """The :class:`~repro.runtime.pool.ActorPool` cannot run this
    submission: it already died, its driver thread crashed, or it was
    shut down before the submission completed.  Spawn a new pool."""


@dataclasses.dataclass
class TimelineEvent:
    """One interval on an actor's device or communication lane."""

    actor: int
    kind: str  # "task" | "send" | "recv" | "allreduce" | "accum"
    name: str
    start: float
    end: float
    nbytes: int = 0
    meta: dict = dataclasses.field(default_factory=dict)

    def __reduce__(self):
        # positional: an mp worker's report carries hundreds of events,
        # and the default per-instance state dict doubles their pickle cost
        return (
            TimelineEvent,
            (self.actor, self.kind, self.name, self.start, self.end,
             self.nbytes, self.meta),
        )


@dataclasses.dataclass
class WaitStat:
    """Accumulated parking on one resource.

    "Parked time" is *virtual device-idle* time: the interval between the
    moment an actor's current instruction first blocked and the virtual
    time at which it finally ran, charged to the resource whose arrival
    released it (the wait the actor was last recorded in).  It is the
    schedule's bubble as the runtime experiences it — the quantity the
    autotuner's wait-profile feedback minimises.

    Attributes:
        count: distinct parks (an instruction newly blocking on the
            resource; re-polls of an unchanged wait are not counted).
        total: total virtual time actors spent parked, charged to the
            resource whose arrival released the instruction.
        by_rank: the same parked time split by the *waiting* actor — who
            sat idle on this resource, and for how long (feeds
            :meth:`ExecutionResult.parked_by_rank` and, through it,
            ``CostModel.from_result`` / warmup-shift proposals in
            :mod:`repro.core.autotune`).
    """

    count: int = 0
    total: float = 0.0
    by_rank: dict[int, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one program execution.

    Attributes:
        makespan: virtual completion time (max over actors).
        timeline: all recorded events (sorted by start).
        actor_finish: per-actor completion times.
        p2p_bytes: total bytes moved point-to-point.
        p2p_count: number of point-to-point transfers.
        engine: which scheduling loop produced this result.
        visits: total instruction visits by the scheduling loop.
        repolls: visits that re-examined an instruction still blocked on an
            unchanged wait condition (pure scheduler waste; zero under the
            event engine).
        wait_profile: per-resource parked-time histogram — label
            (``"buffer a0:uid"``, ``"channel 0->1"``,
            ``"allreduce 'key'"``) to :class:`WaitStat`.  Virtual parked
            time is charged to the resource that released the instruction,
            so the histogram answers "which channels/buffers do actors
            block on longest" for schedule tuning.
    """

    makespan: float
    timeline: list[TimelineEvent]
    actor_finish: list[float]
    p2p_bytes: int
    p2p_count: int
    engine: str = "event"
    visits: int = 0
    repolls: int = 0
    wait_profile: dict[str, WaitStat] = dataclasses.field(default_factory=dict)

    def top_waits(self, n: int = 5) -> list[tuple[str, WaitStat]]:
        """The ``n`` resources actors spent longest parked on."""
        return sorted(
            self.wait_profile.items(), key=lambda kv: (-kv[1].total, kv[0])
        )[:n]

    def to_json(self) -> str:
        """Serialize to a JSON string (schema version 1).

        Everything :meth:`CostModel.from_result
        <repro.core.autotune.CostModel.from_result>` replays — the
        timeline with per-event ``meta`` (stage / unit annotations) — plus
        the wait profile and scheduler counters survives the trip, so a
        measured run (e.g. a real ``engine="mp"`` execution) can be
        persisted and replay-tuned later.  Event ``meta`` values are
        coerced to JSON-native types (NumPy scalars become Python
        numbers); payload-free fields only, never buffer contents.
        """
        import json

        import numpy as np

        def jsonable(v):
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            if isinstance(v, (list, tuple)):
                return [jsonable(x) for x in v]
            if isinstance(v, dict):
                return {str(k): jsonable(x) for k, x in v.items()}
            return v

        return json.dumps(
            {
                "version": 1,
                "makespan": self.makespan,
                "engine": self.engine,
                "visits": self.visits,
                "repolls": self.repolls,
                "actor_finish": list(self.actor_finish),
                "p2p_bytes": self.p2p_bytes,
                "p2p_count": self.p2p_count,
                "timeline": [
                    {
                        "actor": e.actor,
                        "kind": e.kind,
                        "name": e.name,
                        "start": e.start,
                        "end": e.end,
                        "nbytes": e.nbytes,
                        "meta": jsonable(e.meta),
                    }
                    for e in self.timeline
                ],
                "wait_profile": {
                    label: {
                        "count": stat.count,
                        "total": stat.total,
                        "by_rank": {str(r): t for r, t in stat.by_rank.items()},
                    }
                    for label, stat in self.wait_profile.items()
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ExecutionResult":
        """Rebuild an :class:`ExecutionResult` from :meth:`to_json` output."""
        import json

        d = json.loads(text)
        version = d.get("version")
        if version != 1:
            raise ValueError(f"unsupported ExecutionResult JSON version {version!r}")
        return cls(
            makespan=d["makespan"],
            timeline=[
                TimelineEvent(
                    actor=e["actor"],
                    kind=e["kind"],
                    name=e["name"],
                    start=e["start"],
                    end=e["end"],
                    nbytes=e["nbytes"],
                    meta=dict(e["meta"]),
                )
                for e in d["timeline"]
            ],
            actor_finish=list(d["actor_finish"]),
            p2p_bytes=d["p2p_bytes"],
            p2p_count=d["p2p_count"],
            engine=d["engine"],
            visits=d["visits"],
            repolls=d["repolls"],
            wait_profile={
                label: WaitStat(
                    count=s["count"],
                    total=s["total"],
                    by_rank={int(r): t for r, t in s["by_rank"].items()},
                )
                for label, s in d["wait_profile"].items()
            },
        )

    def parked_by_rank(self) -> list[float]:
        """Total virtual time each actor spent parked, summed over every
        resource in :attr:`wait_profile`.

        This is the per-rank bubble as measured by the engine (idle time
        between an instruction blocking and the blocking resource
        arriving) — the signal :func:`repro.core.autotune.tune` uses to
        shift warmup toward the longest-parked rank.
        """
        out = [0.0] * len(self.actor_finish)
        for stat in self.wait_profile.values():
            for rank, t in stat.by_rank.items():
                if 0 <= rank < len(out):
                    out[rank] += t
        return out


@dataclasses.dataclass
class _PostedSend:
    ref: BufferRef
    key: str
    value: Any
    nbytes: int
    post_time: float
    src: int
    # filled at match time:
    end_time: float | None = None
    # actor id parked on this post's completion (event engine, SYNC mode)
    waiter: int | None = None


@dataclasses.dataclass
class _PostedRecv:
    ref: BufferRef
    key: str
    nbytes: int
    post_time: float
    dst: int
    end_time: float | None = None
    waiter: int | None = None


@dataclasses.dataclass
class _Wait:
    """Why an actor's current instruction cannot run.

    Attributes:
        kind: ``"buffer"`` (a store put on ``key = (actor, uid)``),
            ``"match"`` (a posted send/recv awaiting its channel match), or
            ``"allreduce"`` (rendezvous on ``key = group_key``).
        key: the resource identity the engine parks the actor on.
        note: human-readable description for deadlock diagnostics.
        post: the posted comm op (``kind == "match"`` only).
        peers: actors this wait depends on, for the wait-for graph
            (unknown peers — e.g. a buffer nobody has promised — are
            resolved at diagnostic time from posted recvs).
    """

    kind: str
    key: Any
    note: str
    post: Any = None
    peers: tuple[int, ...] = ()


class _Actor:
    def __init__(self, actor_id: int, program: Sequence[Instruction], store: ObjectStore):
        self.id = actor_id
        self.program = list(program)
        self.store = store
        self.pc = 0
        self.time = 0.0  # device lane availability
        # uid -> posted send (None end_time until matched) for outstanding sends
        self.outstanding_sends: dict[str, _PostedSend] = {}
        self.posted: set[int] = set()  # pcs whose comm op has been posted
        self.posted_ops: dict[int, Any] = {}  # pc -> posted send/recv
        # last wait signature, for repoll accounting and diagnostics
        self.last_wait_sig: tuple | None = None
        self.wait: _Wait | None = None
        # wait-profile bookkeeping: pc and virtual time of the current park
        self.park_pc: int | None = None
        self.park_time = 0.0

    @property
    def done(self) -> bool:
        return self.pc >= len(self.program)

    def current(self) -> Instruction | None:
        return None if self.done else self.program[self.pc]


def _wait_label(wait: _Wait) -> str:
    """Stable resource label for the wait-profile histogram: buffers keep
    their uid (per-buffer attribution), posted sends/recvs aggregate per
    channel, all-reduces per rendezvous key."""
    if wait.kind == "buffer":
        aid, uid = wait.key
        return f"buffer a{aid}:{uid}"
    if wait.kind == "match":
        _, src, dst, _ = wait.key
        return f"channel {src}->{dst}"
    return f"allreduce {wait.key!r}"


def _noop_put(actor_id: int, uid: str) -> None:
    return None


def _noop_match(post: Any) -> None:
    return None


def _noop_allreduce(group_key: str) -> None:
    return None


class _RunState:
    """Mutable state of one :meth:`MpmdExecutor.execute` call.

    Holds the channels, arrival clocks, rendezvous state, timeline, and the
    shared single-instruction interpreter (:meth:`step`).  The scheduling
    loops plug into the ``on_put`` / ``on_match`` / ``on_allreduce`` hooks
    to learn when a blocked actor's resource changed; the round-robin
    reference leaves them as no-ops and simply re-polls.
    """

    def __init__(
        self,
        actors: list[_Actor],
        stores: list[ObjectStore],
        cost: CostModel,
        comm_mode: CommMode,
    ):
        self.actors = actors
        self.stores = stores
        self.cost = cost
        self.comm_mode = comm_mode
        self.channels: dict[tuple[int, int], tuple[deque, deque]] = {}
        self.arrivals: dict[tuple[int, str], float] = {}
        self.allreduce_posts: dict[str, dict[int, tuple[float, BufferRef]]] = {}
        self.allreduce_done: set[str] = set()
        self.timeline: list[TimelineEvent] = []
        self.p2p_bytes = 0
        self.p2p_count = 0
        self.visits = 0
        self.repolls = 0
        self.wait_profile: dict[str, WaitStat] = {}
        # virtual start of the instruction the current step() executed —
        # used to price how long a previously parked actor sat idle
        self._exec_start = 0.0
        # engine hooks (event engine overrides these)
        self.on_put: Callable[[int, str], None] = _noop_put
        self.on_match: Callable[[Any], None] = _noop_match
        self.on_allreduce: Callable[[str], None] = _noop_allreduce

    # -- shared helpers ---------------------------------------------------------
    def channel(self, src: int, dst: int) -> tuple[deque, deque]:
        return self.channels.setdefault((src, dst), (deque(), deque()))

    def ready_time(self, actor: _Actor, refs: Sequence[BufferRef]) -> float:
        t = actor.time
        for r in refs:
            t = max(t, self.arrivals.get((actor.id, r.uid), 0.0))
        return t

    def try_match(self, src: int, dst: int) -> None:
        sends, recvs = self.channel(src, dst)
        while sends and recvs:
            s: _PostedSend = sends.popleft()
            r: _PostedRecv = recvs.popleft()
            if s.key != r.key:
                raise CommMismatchError(
                    f"send/recv order mismatch on channel {src}->{dst}: "
                    f"send key {s.key!r} met recv key {r.key!r} "
                    "(NCCL would deadlock or corrupt data here)"
                )
            nbytes = s.nbytes
            start = max(s.post_time, r.post_time)
            dur = self.cost.transfer_time(nbytes, src, dst)
            end = start + dur
            s.end_time = end
            r.end_time = end
            self.actors[dst].store.put(r.ref, s.value, nbytes)
            self.arrivals[(dst, r.ref.uid)] = end
            self.p2p_bytes += nbytes
            self.p2p_count += 1
            self.timeline.append(TimelineEvent(src, "send", s.key, start, end, nbytes))
            self.timeline.append(TimelineEvent(dst, "recv", r.key, start, end, nbytes))
            self.on_put(dst, r.ref.uid)
            self.on_match(s)
            self.on_match(r)

    def flush_pending_deletes(self, actor: _Actor) -> None:
        still = []
        for ref in actor.store.pending_deletions:
            posted = actor.outstanding_sends.get(ref.uid)
            if posted is not None and posted.end_time is None:
                still.append(ref)
            else:
                actor.outstanding_sends.pop(ref.uid, None)
                actor.store.delete(ref)
        actor.store.pending_deletions = still

    # -- the instruction interpreter -------------------------------------------
    def step(self, actor: _Actor) -> _Wait | None:
        """Execute the actor's current instruction.

        Returns ``None`` on progress (pc advanced, possibly after posting a
        comm op) or a :class:`_Wait` naming the blocking resource.

        Also maintains the per-resource wait profile: when an instruction
        that previously parked finally runs, the virtual time between the
        park and the instruction's start is charged to the resource whose
        arrival released it (the last recorded wait).
        """
        self.visits += 1
        pc_before = actor.pc
        prev_wait = actor.wait
        self._exec_start = actor.time
        wait = self._step_instr(actor)
        if wait is None:
            if prev_wait is not None and actor.park_pc == pc_before:
                stat = self.wait_profile.setdefault(_wait_label(prev_wait), WaitStat())
                parked = max(0.0, self._exec_start - actor.park_time)
                stat.total += parked
                stat.by_rank[actor.id] = stat.by_rank.get(actor.id, 0.0) + parked
            actor.park_pc = None
            actor.last_wait_sig = None
            actor.wait = None
        else:
            sig = (actor.pc, wait.kind, wait.key)
            if actor.last_wait_sig == sig:
                self.repolls += 1
            else:
                # a fresh park: the first block of this instruction keeps
                # its park time; moving on to the next missing resource of
                # the same instruction re-labels but not re-clocks it
                if actor.park_pc != actor.pc:
                    actor.park_pc = actor.pc
                    actor.park_time = actor.time
                self.wait_profile.setdefault(_wait_label(wait), WaitStat()).count += 1
            actor.last_wait_sig = sig
            actor.wait = wait
        return wait

    def _step_instr(self, actor: _Actor) -> _Wait | None:
        instr = actor.current()
        assert instr is not None

        if isinstance(instr, RunTask):
            for r in instr.in_refs:
                if r not in actor.store:
                    return _Wait(
                        "buffer", (actor.id, r.uid),
                        f"buffer {r.uid!r} on actor {actor.id}",
                    )
            start = self.ready_time(actor, instr.in_refs)
            self._exec_start = start
            overhead = self.cost.dispatch_overhead()
            dur = self.cost.task_time(instr.cost, instr.meta)
            end = start + overhead + dur
            if instr.fn is not None:
                invals = [actor.store.get(r).value for r in instr.in_refs]
                outvals = instr.fn(invals)
                if len(outvals) != len(instr.out_refs):
                    raise RuntimeError(
                        f"task {instr.name} returned {len(outvals)} values "
                        f"for {len(instr.out_refs)} out_refs"
                    )
                out_nbytes = instr.meta.get("out_nbytes", [0] * len(instr.out_refs))
                for ref, val, nb in zip(instr.out_refs, outvals, out_nbytes):
                    actor.store.put(ref, val, nb if nb else getattr(val, "nbytes", 0))
                    self.arrivals[(actor.id, ref.uid)] = end
                    self.on_put(actor.id, ref.uid)
            else:
                out_nbytes = instr.meta.get("out_nbytes", [0] * len(instr.out_refs))
                for ref, nb in zip(instr.out_refs, out_nbytes):
                    actor.store.put(ref, None, nb)
                    self.arrivals[(actor.id, ref.uid)] = end
                    self.on_put(actor.id, ref.uid)
            actor.time = end
            self.timeline.append(
                TimelineEvent(actor.id, "task", instr.name, start, end, meta=dict(instr.meta))
            )
            actor.pc += 1
            return None

        if isinstance(instr, Send):
            if actor.pc not in actor.posted:
                if instr.ref not in actor.store:
                    # value not produced yet (compiler bug upstream)
                    return _Wait(
                        "buffer", (actor.id, instr.ref.uid),
                        f"buffer {instr.ref.uid!r} on actor {actor.id} (send operand)",
                    )
                buf = actor.store.get(instr.ref)
                post = _PostedSend(
                    instr.ref, instr.key, buf.value, buf.nbytes,
                    self.ready_time(actor, [instr.ref]), actor.id,
                )
                self.channel(actor.id, instr.dst)[0].append(post)
                actor.outstanding_sends[instr.ref.uid] = post
                actor.posted.add(actor.pc)
                actor.posted_ops[actor.pc] = post
                self.try_match(actor.id, instr.dst)
                if self.comm_mode is CommMode.ASYNC:
                    actor.pc += 1
                    return None
            # SYNC: posted, block until the pairwise match completes
            post = actor.posted_ops[actor.pc]
            if post.end_time is None:
                return _Wait(
                    "match", ("send", actor.id, instr.dst, post.key),
                    f"recv of {post.key!r} on channel {actor.id}->{instr.dst}",
                    post=post, peers=(instr.dst,),
                )
            self._exec_start = post.end_time
            actor.time = max(actor.time, post.end_time)
            actor.pc += 1
            return None

        if isinstance(instr, Recv):
            if actor.pc not in actor.posted:
                post = _PostedRecv(instr.ref, instr.key, instr.nbytes, actor.time, actor.id)
                self.channel(instr.src, actor.id)[1].append(post)
                actor.posted.add(actor.pc)
                actor.posted_ops[actor.pc] = post
                self.try_match(instr.src, actor.id)
                if self.comm_mode is CommMode.ASYNC:
                    actor.pc += 1
                    return None
            post = actor.posted_ops[actor.pc]
            if post.end_time is None:
                return _Wait(
                    "match", ("recv", instr.src, actor.id, post.key),
                    f"send of {post.key!r} on channel {instr.src}->{actor.id}",
                    post=post, peers=(instr.src,),
                )
            self._exec_start = post.end_time
            actor.time = max(actor.time, post.end_time)
            actor.pc += 1
            return None

        if isinstance(instr, Delete):
            self.flush_pending_deletes(actor)
            for ref in instr.refs:
                posted = actor.outstanding_sends.get(ref.uid)
                if posted is not None and posted.end_time is None:
                    actor.store.pending_deletions.append(ref)
                else:
                    actor.outstanding_sends.pop(ref.uid, None)
                    actor.store.delete(ref)
            actor.pc += 1
            return None

        if isinstance(instr, Accumulate):
            store = actor.store
            for _, value in instr.pairs:
                if value not in store:
                    return _Wait(
                        "buffer", (actor.id, value.uid),
                        f"buffer {value.uid!r} on actor {actor.id} (accumulate operand)",
                    )
            start = self.ready_time(
                actor, [r for pair in instr.pairs for r in pair if r in store]
            )
            self._exec_start = start
            for acc, value in instr.pairs:
                if store.accumulate(acc, value, instr.delete_value):
                    self.on_put(actor.id, acc.uid)
                self.arrivals[(actor.id, acc.uid)] = start
            self.timeline.append(
                TimelineEvent(actor.id, "accum", instr.name, start, start)
            )
            actor.pc += 1
            return None

        if isinstance(instr, AllReduce):
            posts = self.allreduce_posts.setdefault(instr.group_key, {})
            if actor.id not in posts:
                if instr.ref not in actor.store:
                    return _Wait(
                        "buffer", (actor.id, instr.ref.uid),
                        f"buffer {instr.ref.uid!r} on actor {actor.id} (all-reduce operand)",
                    )
                posts[actor.id] = (self.ready_time(actor, [instr.ref]), instr.ref)
                if set(posts) == set(instr.group):
                    # rendezvous complete: release the parked participants
                    self.on_allreduce(instr.group_key)
            if set(posts) != set(instr.group):
                missing = tuple(sorted(set(instr.group) - set(posts)))
                return _Wait(
                    "allreduce", instr.group_key,
                    f"all-reduce rendezvous {instr.group_key!r} "
                    f"(missing actors {list(missing)})",
                    peers=missing,
                )
            start = max(t for t, _ in posts.values())
            self._exec_start = start
            buf0 = actor.store.get(instr.ref)
            dur = self.cost.collective_time(buf0.nbytes, instr.group)
            end = start + dur
            # First actor to observe completion computes the reduction for
            # the whole group (deterministic order); the collective's
            # timeline event is attributed to the lowest-id participant so
            # both engines record identical timelines.
            if instr.group_key not in self.allreduce_done:
                total = fold_contributions([
                    self.stores[a].get(ref).value for a, (_, ref) in sorted(posts.items())
                ])
                for a, (_, ref) in posts.items():
                    if total is not None:
                        self.stores[a].update(ref, total)
                    self.arrivals[(a, ref.uid)] = end
                self.allreduce_done.add(instr.group_key)
                self.timeline.append(
                    TimelineEvent(
                        min(instr.group), "allreduce", instr.group_key, start, end, buf0.nbytes
                    )
                )
            actor.time = max(actor.time, end)
            actor.pc += 1
            return None

        raise TypeError(f"unknown instruction {instr!r}")

    # -- deadlock diagnostics ---------------------------------------------------
    def raise_deadlock(self) -> None:
        """Build the wait-for-graph diagnostic and raise DeadlockError."""
        stuck = [a for a in self.actors if not a.done]
        edges: dict[int, tuple[int, ...]] = {}
        lines = []
        for a in stuck:
            wait = a.wait
            if wait is None:  # blocked without a recorded wait (defensive)
                lines.append(f"  actor {a.id} stuck at [{a.pc}] {brief(a.current())}")
                continue
            peers = wait.peers
            if wait.kind == "buffer" and not peers:
                # a buffer nobody delivered: if this actor has an unmatched
                # posted recv for the uid, the sender is the missing peer
                _, uid = wait.key
                found = []
                for (src, dst), (_, recvs) in self.channels.items():
                    if dst != a.id:
                        continue
                    for r in recvs:
                        if r.ref.uid == uid:
                            found.append(src)
                peers = tuple(sorted(set(found)))
            edges[a.id] = peers
            via = f" (via actor{'s' if len(peers) > 1 else ''} {sorted(peers)})" if peers else ""
            lines.append(
                f"  actor {a.id} stuck at [{a.pc}] {brief(a.current())}: "
                f"waiting for {wait.note}{via}"
            )
        cycle = _find_cycle(edges)
        graph = ", ".join(
            f"{a}->{{{','.join(map(str, ps))}}}" for a, ps in sorted(edges.items()) if ps
        )
        msg = "no actor can make progress:\n" + "\n".join(lines)
        if graph:
            msg += f"\nwait-for graph: {graph}"
        if cycle:
            msg += f"\nwait-for cycle: {' -> '.join(map(str, cycle))}"
        raise DeadlockError(msg)


def _find_cycle(edges: dict[int, tuple[int, ...]]) -> list[int] | None:
    """First wait-for cycle among stuck actors (deterministic DFS order)."""
    finished: set[int] = set()
    for root in sorted(edges):
        if root in finished:
            continue
        path = [root]
        on_path = {root: 0}
        stack = [iter(sorted(edges.get(root, ())))]
        while stack:
            advanced = False
            for nxt in stack[-1]:
                if nxt in on_path:
                    return path[on_path[nxt]:] + [nxt]
                if nxt not in finished and nxt in edges:
                    on_path[nxt] = len(path)
                    path.append(nxt)
                    stack.append(iter(sorted(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                node = path.pop()
                on_path.pop(node, None)
                finished.add(node)
    return None


class MpmdExecutor:
    """Executes per-actor instruction streams over persistent object stores.

    The object stores persist across :meth:`execute` calls, so weights live
    on their actors between training steps (the paper's "long-lived SPMD
    actors").

    Args:
        n_actors: number of actors (one program per actor).
        cost_model: virtual-time provider (default ``ZeroCost``).
        comm_mode: point-to-point semantics.
        engine: ``"event"`` (default, O(1) visits per instruction),
            ``"roundrobin"`` (the polling-fixpoint reference; identical
            results, kept for differential testing), or ``"mp"`` (the
            process-per-rank runtime of :mod:`repro.runtime.pool`: real
            OS processes, real wall-clock timing; requires pickle-clean
            programs and accepts no virtual cost model).
        mp_pool: ``engine="mp"`` only — the warm
            :class:`~repro.runtime.pool.ActorPool` to submit steps to
            (its watchdog / shm settings apply).  Without one, every
            :meth:`execute` runs on a default pool of its own that lives
            for that call — a cold start each time.
        mp_program_key: advisory cache-key prefix for the pool's
            worker-side program cache (diagnostics only).
    """

    def __init__(
        self,
        n_actors: int,
        cost_model: CostModel | None = None,
        comm_mode: CommMode = CommMode.ASYNC,
        engine: str = "event",
        mp_pool: Any = None,
        mp_program_key: str | None = None,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if engine == "mp" and cost_model is not None:
            raise ValueError(
                "engine='mp' measures real wall-clock time; virtual cost "
                "models only apply to the in-process engines"
            )
        if mp_pool is not None:
            if engine != "mp":
                raise ValueError("mp_pool requires engine='mp'")
            if mp_pool.n_actors != n_actors:
                raise ValueError(
                    f"mp_pool has {mp_pool.n_actors} actors, executor needs "
                    f"{n_actors}"
                )
        self.n_actors = n_actors
        self.cost = cost_model or ZeroCost()
        self.comm_mode = comm_mode
        self.engine = engine
        self.mp_pool = mp_pool
        self.mp_program_key = mp_program_key
        self.stores = [ObjectStore(i) for i in range(n_actors)]

    # -- store management (driver-facing) -------------------------------------
    def place(
        self, actor: int, ref: BufferRef, value: Any, nbytes: int,
        pinned: bool = False, constant: bool = False,
    ) -> None:
        """Put an input buffer on an actor before execution.  ``constant``
        marks a compile-time constant of the programs (see
        :class:`~repro.runtime.store.Buffer`)."""
        self.stores[actor].put(ref, value, nbytes, pinned=pinned, constant=constant)

    def fetch(self, actor: int, ref: BufferRef) -> Any:
        """Read a buffer's payload from an actor."""
        return self.stores[actor].get(ref).value

    def delete(self, actor: int, ref: BufferRef) -> None:
        """Driver-side delete (used between steps for retired state)."""
        store = self.stores[actor]
        buf = store.get(ref)
        buf.pinned = False
        store.delete(ref)

    def rename(self, actor: int, src: BufferRef, dst: BufferRef) -> None:
        """Move a buffer to a new uid without copying (state hand-over
        between training steps)."""
        store = self.stores[actor]
        buf = store.get(src)
        pinned = buf.pinned
        buf.pinned = False
        value, nbytes = buf.value, buf.nbytes
        store.delete(src)
        store.put(dst, value, nbytes, pinned=pinned)

    # -- execution --------------------------------------------------------------
    def execute(
        self,
        programs: Sequence[Sequence[Instruction]],
        wake_order: Sequence[int] | None = None,
    ) -> ExecutionResult:
        """Run one fused program per actor to completion.

        Args:
            programs: one instruction stream per actor.
            wake_order: optional initial ready-queue seeding order for the
                event engine — typically
                :meth:`ScheduleIR.initial_ready_ranks`, so actors whose
                first slot has no unmet dependency are polled first.
                Results are identical either way (dataflow determinism);
                ignored by the round-robin reference.

        Raises:
            DeadlockError: if no actor can progress (mis-ordered send/recv
                under SYNC mode, or a genuine scheduling bug). The message
                includes each stuck actor's blocking resource and the
                wait-for cycle.
            CommMismatchError: if a matched send/recv pair disagrees on keys.
        """
        if len(programs) != self.n_actors:
            raise ValueError(f"expected {self.n_actors} programs, got {len(programs)}")
        if self.engine == "mp":
            if self.mp_pool is not None:
                return self._execute_on(self.mp_pool, programs)
            from repro.runtime.pool import ActorPool

            with ActorPool(self.n_actors) as pool:
                return self._execute_on(pool, programs)
        actors = [_Actor(i, prog, self.stores[i]) for i, prog in enumerate(programs)]
        state = _RunState(actors, self.stores, self.cost, self.comm_mode)

        if self.engine == "event":
            self._drive_event(state, wake_order)
        else:
            self._drive_roundrobin(state)

        if not all(a.done for a in actors):
            state.raise_deadlock()

        # final pending deletions (sends all matched by now or program bug)
        for actor in actors:
            state.flush_pending_deletes(actor)

        # fully deterministic order so both engines emit identical timelines
        state.timeline.sort(key=lambda e: (e.start, e.actor, e.end, e.kind, e.name))
        finish = [a.time for a in actors]
        return ExecutionResult(
            makespan=max(finish) if finish else 0.0,
            timeline=state.timeline,
            actor_finish=finish,
            p2p_bytes=state.p2p_bytes,
            p2p_count=state.p2p_count,
            engine=self.engine,
            visits=state.visits,
            repolls=state.repolls,
            wait_profile=state.wait_profile,
        )

    def _execute_on(self, pool, programs) -> ExecutionResult:
        """Submit to the process mesh and wait: the one-step one-result
        contract of :meth:`execute` on a runtime that streams steps."""
        future = pool.submit(
            programs,
            self.stores,
            comm_mode=self.comm_mode,
            program_key=self.mp_program_key,
        )
        return future.result()

    # -- scheduling loops --------------------------------------------------------
    def _drive_event(
        self, state: _RunState, wake_order: Sequence[int] | None = None
    ) -> None:
        """Ready-queue + wait-list scheduler (see module docstring)."""
        actors = state.actors
        # heap entries are (virtual time, wake sequence, actor id): actors
        # runnable at the same virtual time run in the order they woke
        ready: list[tuple[float, int, int]] = []
        seq = 0
        scheduled = [False] * len(actors)
        buffer_waiters: dict[tuple[int, str], list[int]] = {}
        allreduce_waiters: dict[str, list[int]] = {}

        def wake(aid: int) -> None:
            nonlocal seq
            if scheduled[aid] or actors[aid].done:
                return
            scheduled[aid] = True
            heapq.heappush(ready, (actors[aid].time, seq, aid))
            seq += 1

        def on_put(aid: int, uid: str) -> None:
            for waiter in buffer_waiters.pop((aid, uid), ()):
                wake(waiter)

        def on_match(post: Any) -> None:
            if post.waiter is not None:
                waiter, post.waiter = post.waiter, None
                wake(waiter)

        def on_allreduce(group_key: str) -> None:
            for waiter in allreduce_waiters.pop(group_key, ()):
                wake(waiter)

        state.on_put = on_put
        state.on_match = on_match
        state.on_allreduce = on_allreduce

        # seed the ready-queue — from the schedule IR's hint when given
        # (ranks with a dependency-free first slot first), else actor order
        if wake_order is not None:
            seeded = [aid for aid in wake_order if 0 <= aid < len(actors)]
            known = set(seeded)
            seeded += [a.id for a in actors if a.id not in known]
        else:
            seeded = [a.id for a in actors]
        for aid in seeded:
            wake(aid)
        while ready:
            _, _, aid = heapq.heappop(ready)
            scheduled[aid] = False
            actor = actors[aid]
            while not actor.done:
                wait = state.step(actor)
                if wait is None:
                    continue
                if wait.kind == "buffer":
                    buffer_waiters.setdefault(wait.key, []).append(aid)
                elif wait.kind == "match":
                    wait.post.waiter = aid
                else:  # allreduce
                    allreduce_waiters.setdefault(wait.key, []).append(aid)
                break

    def _drive_roundrobin(self, state: _RunState) -> None:
        """The original polling fixpoint, kept as the reference engine."""
        actors = state.actors
        while True:
            progress = False
            for actor in actors:
                while not actor.done and state.step(actor) is None:
                    progress = True
            if all(a.done for a in actors):
                break
            if not progress:
                return  # caller raises with diagnostics
