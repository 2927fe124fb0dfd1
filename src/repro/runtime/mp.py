"""Process-per-rank MPMD runtime, worker side: one OS process per rank.

Everything upstream of this module executes the paper's design inside a
single Python process on virtual time.  ``engine="mp"`` is the real
thing — the reproduction of JaxPP's Ray+NCCL runtime (§4): each pipeline
rank is an independent, long-lived **actor process**
(``multiprocessing`` *spawn* context) that owns its object store and
asynchronously executes its fused instruction program; timing is real
wall-clock, not simulated.  :class:`repro.runtime.pool.ActorPool` is the
driver: it spawns the processes, streams step submissions to them and
enforces the watchdog.  This module is what runs inside a process —
:class:`_Worker` and the transport under it — plus the report helpers
the driver shares.

Design
======

Channels (§4.2's ordering contract)
    Each rank owns ONE inbox queue for its whole life, so a pool can run
    programs it has never seen.  Every message carries a route key —
    ``("data", src)``, ``("ack", dst)``, ``("gather", group)``,
    ``("collres", group)``, the barrier's pair, the pool's command
    route — and :class:`_Inbox` buffers out-of-route arrivals until
    their consumer asks.  Per-route FIFO order holds because each
    producer's puts are FIFO and routes never share a producer stream,
    so the k-th message a worker takes from ``("data", src)`` is matched
    against the k-th receive it posted on channel ``src->dst`` — the same
    pairwise-FIFO contract the in-process engine implements and NCCL
    imposes on P2P ops, across steps as within one.  Matched keys are
    cross-checked; a mismatch surfaces as
    :class:`~repro.runtime.executor.CommMismatchError` at the driver
    instead of silent data corruption.  Under
    :attr:`CommMode.SYNC <repro.runtime.executor.CommMode>` every send
    additionally blocks on an ack from its destination (the
    NCCL-rendezvous semantics under which Figure 5's naive ordering
    genuinely deadlocks); under ``ASYNC`` (JaxPP's mode) sends return
    immediately and posted receives are drained lazily by the first
    consuming instruction.

Shared-memory transport
    ndarray payloads at or above ``shm_threshold`` bytes travel through
    ``multiprocessing.shared_memory`` segments: the sender copies into a
    fresh segment and passes only its name through the queue; the
    receiver attaches, copies out, and unlinks.  Everything smaller is
    pickled inline.  Ownership is handed over explicitly (the sender
    unregisters the segment from its resource tracker), so the normal
    path neither leaks nor double-frees; on an abnormal stop the driver
    drains the queues and unlinks whatever was still in flight.

Collectives
    Data-parallel all-reduce is a **barrier-backed reduce**: every
    participant enters the group's :class:`_QueueBarrier` (a rendezvous
    funnelled through the lowest rank's inbox), members then send their
    contribution to that rank, which reduces in sorted-rank order —
    bit-identical to the in-process engine — and sends the result back.
    The barrier serialises successive collectives of the same group, so
    gather/result traffic can never interleave across ``group_key``\\ s.

Watchdog reports
    A worker reports to the control queue, every message tagged with its
    submission id: a state message immediately before every
    potentially-unbounded block (channel drain, ack wait, barrier), a
    coarse heartbeat while computing, and a final done/error message.
    The pool raises :class:`~repro.runtime.executor.DeadlockError` when
    no worker has reported progress for ``watchdog_s`` seconds,
    terminating the processes and aggregating each actor's last program
    counter and blocking resource into the diagnostic
    (:func:`_deadlock_error`) — a hung schedule reports, it never hangs
    the test suite.

The merged :class:`~repro.runtime.executor.ExecutionResult`
(:func:`_merge_results`) carries the real wall-clock timeline
(per-instruction intervals with their stage / unit ``meta``), the
per-resource wait profile, per-actor finish times, and summed scheduler
counters — exactly the shape
:meth:`CostModel.from_result <repro.core.autotune.CostModel.from_result>`
replays, which is what closes the measure → retune loop on a *real*
concurrent execution.

Requirements: per-actor programs must be pickle-clean (the compiler's
payload contract, ``tests/core/test_pickle.py``); virtual cost models do
not apply (time is measured, not simulated).
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import deque
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.runtime.executor import (
    CommMode,
    DeadlockError,
    ExecutionResult,
    TimelineEvent,
    WaitStat,
)
from repro.runtime.instructions import (
    Accumulate,
    AllReduce,
    BufferRef,
    Delete,
    Recv,
    RunTask,
    Send,
    brief,
)
from repro.runtime.store import ObjectStore, fold_contributions

__all__ = ["DEFAULT_SHM_THRESHOLD", "DEFAULT_WATCHDOG_S"]

#: ndarray payloads at or above this many bytes use shared-memory segments
#: instead of inline pickling through the channel queue.
DEFAULT_SHM_THRESHOLD = 1 << 16

#: driver-side no-progress window before a run is declared deadlocked.
DEFAULT_WATCHDOG_S = 30.0

#: extra patience while spawn-context workers import and report in —
#: interpreter start-up must not count against the deadlock watchdog.
_SPAWN_GRACE_S = 120.0

#: minimum interval between worker heartbeats during long compute phases.
_HEARTBEAT_S = 1.0


# ---------------------------------------------------------------------------
# payload transport
# ---------------------------------------------------------------------------


def _encode_payload(value: Any, shm_threshold: int) -> tuple:
    """``("inline", value)`` or ``("shm", name, shape, dtype, nbytes)``."""
    if (
        isinstance(value, np.ndarray)
        and value.nbytes >= shm_threshold
        and value.nbytes > 0
    ):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=value.nbytes)
        view = np.ndarray(value.shape, value.dtype, buffer=shm.buf)
        view[...] = value
        _hand_over(shm)
        return ("shm", shm.name, value.shape, value.dtype.str, value.nbytes)
    return ("inline", value)


def _decode_payload(payload: tuple) -> Any:
    """Materialise a transported payload (copy + unlink for shm)."""
    if payload[0] == "inline":
        return payload[1]
    from multiprocessing import shared_memory

    _, name, shape, dtype, _ = payload
    shm = shared_memory.SharedMemory(name=name)
    try:
        return np.array(np.ndarray(shape, np.dtype(dtype), buffer=shm.buf))
    finally:
        _unlink(shm)


#: byte alignment of every array inside a slab.
_SLAB_ALIGN = 64


class _Resident(np.ndarray):
    """Private owner of one pool output's bytes (see :func:`_resident`)."""

    origin = None


def _resident(view, origin: tuple):
    """A read-only copy of ``view`` that remembers where a pool worker
    still holds the same value.

    The array handed to the user is a plain ``ndarray`` over a private
    owner whose ``origin`` is ``(pool token, submission id, rank, uid)``:
    the worker keeps the value under ``uid`` until its next run starts,
    so :meth:`ActorPool.submit` can send a reference instead of the
    bytes.  Nothing can write through the user's array, so what the
    worker holds and what the user sees never diverge; any view or copy
    the user derives has another ``base`` and travels by value."""
    owner = _Resident(view.shape, view.dtype)
    owner[...] = view
    owner.flags.writeable = False
    owner.origin = origin
    return np.ndarray(view.shape, view.dtype, buffer=owner)


class _Slab(NamedTuple):
    """The buffers of one ``run`` / ``done`` message, arrays packed back
    to back in one shared-memory segment (``name``) or one inline
    ``blob``; exactly one of the two is set."""

    name: str | None
    blob: bytearray | None
    nbytes: int  # array bytes carried (alignment padding not counted)
    table: list  # (uid, offset, shape, dtype, logical nbytes, pinned) per array
    other: dict  # uid -> (value, nbytes, pinned) for values that are not arrays


def _encode_buffers(buffers: dict[str, tuple[Any, int, bool]], shm_threshold: int) -> _Slab:
    """Many-buffers form of :func:`_encode_payload` for ``run`` / ``done``
    messages: every ndarray of ``uid -> (value, nbytes, pinned)`` is packed
    into ONE slab — a shared-memory segment when the slab reaches
    ``shm_threshold`` bytes, an inline blob below it."""
    table, other, total, payload = [], {}, 0, 0
    for uid, (value, nbytes, pinned) in buffers.items():
        if isinstance(value, np.ndarray) and not value.dtype.hasobject:
            table.append((uid, total, value.shape, value.dtype.str, nbytes, pinned))
            total += value.nbytes + -value.nbytes % _SLAB_ALIGN
            payload += value.nbytes
        else:
            other[uid] = (value, nbytes, pinned)
    shm = None
    if total >= shm_threshold and total > 0:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=total)
        slab = shm.buf
    else:
        slab = bytearray(total)
    for uid, offset, shape, dtype, _, _ in table:
        np.ndarray(shape, dtype, buffer=slab, offset=offset)[...] = buffers[uid][0]
    if shm is None:
        return _Slab(None, slab, payload, table, other)
    _hand_over(shm)
    return _Slab(shm.name, None, payload, table, other)


def _decode_buffers(enc: _Slab, origin: tuple | None = None) -> dict[str, tuple[Any, int, bool]]:
    """Inverse of :func:`_encode_buffers` (one map, one unlink).  Arrays
    are private copies; with ``origin`` (a pool's ``(token, sid, rank)``)
    each is instead read-only and tagged, see :func:`_resident`."""
    if enc.name is None:
        return {**enc.other, **_unpack(enc.blob, enc.table, origin)}
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=enc.name)
    try:
        return {**enc.other, **_unpack(shm.buf, enc.table, origin)}
    finally:
        _unlink(shm)


def _unpack(slab, table, origin) -> dict[str, tuple[Any, int, bool]]:
    out = {}
    for uid, offset, shape, dtype, nbytes, pinned in table:
        view = np.ndarray(shape, dtype, buffer=slab, offset=offset)
        if origin is None or view.nbytes == 0:
            value = np.array(view)
        else:
            value = _resident(view, (*origin, uid))
        out[uid] = (value, nbytes, pinned)
    return out


def _hand_over(shm) -> None:
    """Close a freshly written segment and give it to the receiver:
    without the unregister, the sender's resource tracker would warn
    about (and destroy) a segment the receiver is responsible for
    unlinking."""
    tracked = shm._name  # registered form ("/name" on POSIX)
    shm.close()
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(tracked, "shared_memory")
    except Exception:  # pragma: no cover - tracker impl detail
        pass


def _unlink(shm) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


def _discard_payload(obj) -> None:
    """Reclaim every shm payload or slab nested in ``obj`` — a message
    that will never be consumed (mismatch bail-out, abnormal stop)."""
    if isinstance(obj, _Slab):
        name = obj.name  # None: an inline slab owns no segment
    elif isinstance(obj, tuple) and len(obj) == 5 and obj[0] == "shm":
        name = obj[1]
    else:
        if isinstance(obj, (tuple, list, deque)):
            for item in obj:
                _discard_payload(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                _discard_payload(item)
        return
    if name is not None:
        from multiprocessing import shared_memory

        try:
            _unlink(shared_memory.SharedMemory(name=name))
        except Exception:
            pass


# ---------------------------------------------------------------------------
# channels: one inbox per rank, route keys, queue barrier
# ---------------------------------------------------------------------------


class _Inbox:
    """Demultiplexes one worker's inbox queue into per-route streams.

    ``get(route)`` blocks for the next message on ``route``; anything
    else that arrives meanwhile is buffered (per route, FIFO) until its
    consumer asks.  This is what lets one queue per rank carry every
    directed pair's channel without losing the pairwise-FIFO contract.
    """

    def __init__(self, q):
        self.q = q
        self.buf: dict[tuple, deque] = {}

    def get(self, route: tuple):
        d = self.buf.get(route)
        if d:
            return d.popleft()
        while True:
            r, msg = self.q.get()
            if r == route:
                return msg
            self.buf.setdefault(r, deque()).append(msg)


class _QueueBarrier:
    """``Barrier.wait`` over the inbox queues, for one collective group.

    A pool learns its groups from programs that arrive after spawn, so
    no OS barrier can be allocated for them up front.  Rendezvous
    instead funnels through the group root: members send an arrive
    message (tagged with a generation counter), the root releases them
    once all have arrived.  The generation stash keeps back-to-back
    barriers of the same group from stealing each other's arrivals; the
    serialising property the collective protocol relies on is preserved
    because no member can reach barrier ``g+1`` before the root finished
    collective ``g``.  One instance per (rank, group) lives as long as
    the worker process: the generation counts across runs.
    """

    def __init__(self, rank: int, group: tuple, inbox: _Inbox, peers):
        self.rank = rank
        self.group = group
        self.root = group[0]
        self.inbox = inbox
        self.peers = peers
        self.gen = 0
        self._early: dict[int, int] = {}  # root: arrivals for future gens

    def wait(self) -> None:
        gen = self.gen
        self.gen += 1
        arrive = ("barrier", self.group)
        release = ("barrier-go", self.group)
        if self.rank == self.root:
            need = len(self.group) - 1
            have = self._early.pop(gen, 0)
            while have < need:
                g = self.inbox.get(arrive)
                if g == gen:
                    have += 1
                else:
                    self._early[g] = self._early.get(g, 0) + 1
            for r in self.group:
                if r != self.root:
                    self.peers[r].put((release, gen))
        else:
            self.peers[self.root].put((arrive, gen))
            g = self.inbox.get(release)
            if g != gen:  # pragma: no cover - releases are FIFO from root
                raise RuntimeError(
                    f"barrier generation skew in group {self.group}: "
                    f"rank {self.rank} at {gen} got release {g}"
                )


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------


class _WorkerStop(Exception):
    """Internal: abort the worker after an error was reported."""


class _Worker:
    """Single-threaded interpreter for one run of one actor's program.

    Semantically the numeric-mode subset of the in-process engine's
    ``step``; the differential suite (``tests/runtime/test_mp_equivalence``)
    asserts bit-identical results across the whole schedule gallery.

    The pool's worker loop builds one per ``run`` command (fresh
    posted-receive state, an object store seeded with ``buffers``) over
    the plumbing that lives as long as the process: the rank's
    :class:`_Inbox`, the peer inbox queues by rank, the control queue
    and the per-group :class:`_QueueBarrier` table.  ``cmd`` is the
    command being served (:class:`repro.runtime.pool._Run`): its ``sid``
    tags every report, its ``epoch`` is the driver's monotonic base
    (``CLOCK_MONOTONIC`` is system-wide).
    """

    def __init__(self, rank, program, buffers, cmd, inbox, peers, ctrl, barriers, faults):
        self.rank = rank
        self.program = program
        self.sid = cmd.sid
        self.comm_mode = cmd.comm_mode
        self.shm_threshold = cmd.shm_threshold
        self.epoch = cmd.epoch
        self.codegen_actor = cmd.codegen_actor  # fuse the loop (runtime.actorgen)
        self.faults = faults  # RankFaultState for injected chaos (runtime.faults)
        self.inbox = inbox
        self.peers = peers  # rank -> that rank's inbox queue
        self.ctrl = ctrl
        self.barriers = barriers  # sorted group tuple -> _QueueBarrier

        self.store = ObjectStore(rank)
        #: uid -> (value, nbytes, pinned) of what the program produced;
        #: filled by :meth:`_finish_report`
        self.outputs: dict[str, tuple[Any, int, bool]] = {}
        self.initial_uids = set(buffers)
        for uid, (value, nbytes, pinned) in buffers.items():
            self.store.put(BufferRef(uid), value, nbytes, pinned=pinned)

        self.pending_by_src: dict[int, deque[Recv]] = {}
        self.pending_uid_src: dict[str, int] = {}
        self.timeline: list[TimelineEvent] = []
        self.wait_profile: dict[str, WaitStat] = {}
        self.visits = 0
        self.p2p_bytes = 0
        self.p2p_count = 0
        self.pc = 0
        # the heartbeat thread posts "hb" only while this flag is set —
        # during compute (an instr.fn may legitimately run longer than
        # the watchdog window), never while blocked on a channel / ack /
        # barrier, so genuine deadlocks still go silent and trip the
        # driver's watchdog
        self._busy = True
        self._stop_heartbeat = threading.Event()

    # -- clocks & control --------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self.epoch

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(_HEARTBEAT_S):
            if self._busy:
                self.ctrl.put(("sub", self.sid, ("hb", self.rank, self.pc)))

    def blocking(self, label: str, note: str):
        """Context manager: report the imminent block, time it, charge the
        parked interval to ``label`` in the wait profile."""
        return _BlockScope(self, label, note)

    def fail(self, kind: str, message: str) -> None:
        self.ctrl.put(
            ("sub", self.sid,
             ("error", self.rank, self.pc, kind, message, *self.where()))
        )
        raise _WorkerStop

    def where(self) -> tuple[str | None, str | None]:
        """``(task name, instruction in short)`` at the current ``pc``,
        for an error report; ``None`` where there is none to name."""
        if not 0 <= self.pc < len(self.program):
            return None, None
        instr = self.program[self.pc]
        return (instr.name if isinstance(instr, RunTask) else None), brief(instr)

    # -- channel plumbing --------------------------------------------------
    def drain(self, src: int, until_uid: str | None = None) -> None:
        """Match messages from channel ``src -> self`` against posted
        receives, in FIFO order, until ``until_uid`` is delivered (or one
        message when ``None``)."""
        posted = self.pending_by_src.get(src)
        while True:
            if not posted:
                self.fail(
                    "protocol",
                    f"message available on channel {src}->{self.rank} "
                    "but no receive is posted (compiler bug)",
                )
            rec = posted[0]
            with self.blocking(
                f"channel {src}->{self.rank}",
                f"send of {rec.key!r} on channel {src}->{self.rank}",
            ) as t0:
                key, nbytes, payload = self.inbox.get(("data", src))
            posted.popleft()
            if key != rec.key:
                _discard_payload(payload)
                self.fail(
                    "mismatch",
                    f"send/recv order mismatch on channel {src}->{self.rank}: "
                    f"send key {key!r} met recv key {rec.key!r} "
                    "(NCCL would deadlock or corrupt data here)",
                )
            value = _decode_payload(payload)
            self.store.put(rec.ref, value, nbytes)
            self.pending_uid_src.pop(rec.ref.uid, None)
            self.p2p_bytes += nbytes
            self.p2p_count += 1
            end = self.now()
            self.timeline.append(
                TimelineEvent(self.rank, "recv", key, t0, end, nbytes)
            )
            if self.comm_mode is CommMode.SYNC:
                self.peers[src].put((("ack", self.rank), key))
            if until_uid is None or rec.ref.uid == until_uid:
                return

    def require(self, ref: BufferRef) -> None:
        """Ensure ``ref`` is live locally, draining its channel if a
        posted receive is still outstanding."""
        if ref in self.store:
            return
        src = self.pending_uid_src.get(ref.uid)
        if src is None:
            self.fail(
                "protocol",
                f"buffer {ref.uid!r} is neither live nor awaited from any "
                "channel (deleted too early or never produced)",
            )
        self.drain(src, until_uid=ref.uid)

    # -- instruction handlers ---------------------------------------------
    def run(self) -> dict:
        hb = threading.Thread(target=self._heartbeat_loop, daemon=True)
        hb.start()
        try:
            return self._run_program()
        finally:
            self._stop_heartbeat.set()

    def _run_program(self) -> dict:
        if self.codegen_actor and self.program:
            # whole-actor fusion: the shipped program is regenerated into
            # one straight-line driver (cached per program identity, so
            # the persistent pool compiles it once per ship)
            from repro.runtime.actorgen import worker_driver

            worker_driver(self.program)(self)
            return self._finish_report()
        for self.pc, instr in enumerate(self.program):
            self.visits += 1
            if isinstance(instr, RunTask):
                self.exec_task(instr)
            elif isinstance(instr, Send):
                self.exec_send(instr)
            elif isinstance(instr, Recv):
                self.exec_recv(instr)
            elif isinstance(instr, Delete):
                for ref in instr.refs:
                    self.store.delete(ref)
            elif isinstance(instr, Accumulate):
                self.exec_accumulate(instr)
            elif isinstance(instr, AllReduce):
                self.exec_allreduce(instr)
            else:
                self.fail("protocol", f"unknown instruction {instr!r}")
        return self._finish_report()

    def _finish_report(self) -> dict:
        self.pc = len(self.program)
        finish = self.now()
        # the driver already holds every placed input; what the program
        # produced goes home as one slab and stays here as ``outputs``
        # (the pool worker keeps it as its resident generation)
        self.outputs = {
            uid: (buf.value, buf.nbytes, buf.pinned)
            for uid in self.store.live_refs()
            if uid not in self.initial_uids
            for buf in [self.store.get(BufferRef(uid))]
        }
        return {
            "rank": self.rank,
            "pc": self.pc,
            "finish": finish,
            "timeline": self.timeline,
            "wait_profile": self.wait_profile,
            "visits": self.visits,
            "p2p_bytes": self.p2p_bytes,
            "p2p_count": self.p2p_count,
            "peak_bytes": self.store.peak_bytes,
            "buffers": _encode_buffers(self.outputs, self.shm_threshold),
        }

    def exec_task(self, instr: RunTask) -> None:
        for r in instr.in_refs:
            self.require(r)
        start = self.now()
        out_nbytes = instr.meta.get("out_nbytes", [0] * len(instr.out_refs))
        if instr.fn is not None:
            invals = [self.store.get(r).value for r in instr.in_refs]
            outvals = instr.fn(invals)
            if len(outvals) != len(instr.out_refs):
                self.fail(
                    "protocol",
                    f"task {instr.name} returned {len(outvals)} values "
                    f"for {len(instr.out_refs)} out_refs",
                )
            for ref, val, nb in zip(instr.out_refs, outvals, out_nbytes):
                self.store.put(ref, val, nb if nb else getattr(val, "nbytes", 0))
        else:
            for ref, nb in zip(instr.out_refs, out_nbytes):
                self.store.put(ref, None, nb)
        end = self.now()
        self.timeline.append(
            TimelineEvent(
                self.rank, "task", instr.name, start, end, meta=dict(instr.meta)
            )
        )

    def exec_send(self, instr: Send) -> None:
        self.require(instr.ref)
        # injected channel faults: a dropped send is swallowed before any
        # segment is created (nothing to leak); a delayed send sleeps here
        if self.faults is not None and self.faults.on_send(instr.dst) == "drop":
            return
        buf = self.store.get(instr.ref)
        start = self.now()
        payload = _encode_payload(buf.value, self.shm_threshold)
        self.peers[instr.dst].put(
            (("data", self.rank), (instr.key, buf.nbytes, payload))
        )
        self.timeline.append(
            TimelineEvent(
                self.rank, "send", instr.key, start, self.now(), buf.nbytes
            )
        )
        if self.comm_mode is CommMode.SYNC:
            with self.blocking(
                f"channel {self.rank}->{instr.dst}",
                f"recv of {instr.key!r} on channel {self.rank}->{instr.dst}",
            ):
                ack = self.inbox.get(("ack", instr.dst))
            if ack != instr.key:  # pragma: no cover - FIFO acks
                self.fail(
                    "mismatch",
                    f"out-of-order ack on channel {self.rank}->{instr.dst}: "
                    f"expected {instr.key!r}, got {ack!r}",
                )

    def exec_recv(self, instr: Recv) -> None:
        self.pending_by_src.setdefault(instr.src, deque()).append(instr)
        self.pending_uid_src[instr.ref.uid] = instr.src
        if self.comm_mode is CommMode.SYNC:
            # rendezvous semantics: block until this transfer completes
            self.drain(instr.src, until_uid=instr.ref.uid)

    def exec_accumulate(self, instr: Accumulate) -> None:
        for _, value in instr.pairs:
            self.require(value)
        start = self.now()
        for acc, value in instr.pairs:
            self.store.accumulate(acc, value, instr.delete_value)
        self.timeline.append(
            TimelineEvent(self.rank, "accum", instr.name, start, start)
        )

    def exec_allreduce(self, instr: AllReduce) -> None:
        group = tuple(sorted(instr.group))
        barrier = self.barriers.get(group)
        if barrier is None:
            barrier = self.barriers[group] = _QueueBarrier(
                self.rank, group, self.inbox, self.peers
            )
        root = group[0]
        gather, collres = ("gather", group), ("collres", group)
        key = instr.group_key
        self.require(instr.ref)
        with self.blocking(
            f"allreduce {key!r}",
            f"all-reduce rendezvous {key!r} (group {list(group)})",
        ):
            barrier.wait()
        start = self.now()
        buf = self.store.get(instr.ref)
        if self.rank == root:
            contribs = {self.rank: buf.value}
            while len(contribs) < len(group):
                with self.blocking(
                    f"allreduce {key!r}",
                    f"all-reduce contributions for {key!r} "
                    f"(have {sorted(contribs)})",
                ):
                    gk, r, payload = self.inbox.get(gather)
                if gk != key:  # pragma: no cover - barrier serialises groups
                    self.fail(
                        "protocol",
                        f"all-reduce contribution for {gk!r} arrived during "
                        f"{key!r}",
                    )
                contribs[r] = _decode_payload(payload)
            total = fold_contributions([contribs[r] for r in sorted(contribs)])
            for r in group:
                if r != root:
                    # one payload per member: a shm segment is consumed
                    # (copied + unlinked) by exactly one receiver
                    self.peers[r].put(
                        (collres, (key, _encode_payload(total, self.shm_threshold)))
                    )
            if total is not None:
                self.store.update(instr.ref, total)
            self.timeline.append(
                TimelineEvent(
                    root, "allreduce", key, start, self.now(), buf.nbytes
                )
            )
        else:
            self.peers[root].put(
                (gather,
                 (key, self.rank, _encode_payload(buf.value, self.shm_threshold)))
            )
            with self.blocking(
                f"allreduce {key!r}", f"all-reduce result for {key!r}"
            ):
                gk, payload = self.inbox.get(collres)
            if gk != key:  # pragma: no cover - barrier serialises groups
                self.fail(
                    "protocol",
                    f"all-reduce result for {gk!r} arrived during {key!r}",
                )
            total = _decode_payload(payload)
            if total is not None:
                self.store.update(instr.ref, total)


class _BlockScope:
    """Times one blocking wait and charges it to the wait profile."""

    def __init__(self, worker: _Worker, label: str, note: str):
        self.worker = worker
        self.label = label
        self.note = note
        self.start = 0.0

    def __enter__(self) -> float:
        w = self.worker
        w._busy = False  # silence the heartbeat: a block is not progress
        w.ctrl.put(("sub", w.sid, ("wait", w.rank, w.pc, self.note, self.label)))
        self.start = w.now()
        return self.start

    def __exit__(self, exc_type, exc, tb) -> None:
        w = self.worker
        w._busy = True
        if exc_type is not None:
            return
        parked = max(0.0, w.now() - self.start)
        stat = w.wait_profile.setdefault(self.label, WaitStat())
        stat.count += 1
        stat.total += parked
        stat.by_rank[w.rank] = stat.by_rank.get(w.rank, 0.0) + parked


# ---------------------------------------------------------------------------
# driver-side helpers (used by runtime.pool)
# ---------------------------------------------------------------------------


def _reclaim_in_flight(queues: Sequence[Any]) -> None:
    """Unlink shared-memory segments still sitting in any queue."""
    for q in queues:
        while True:
            try:
                msg = q.get_nowait()
            except (_queue.Empty, OSError, ValueError):
                break
            _discard_payload(msg)


def _merge_results(
    results: dict[int, dict], stores: Sequence[ObjectStore], n: int
) -> ExecutionResult:
    """Merge per-worker reports into one :class:`ExecutionResult`.

    New live buffers (each report's ``"buffers"``, already decoded by
    the driver loop that received it) and the peak-memory statistic land
    back in the driver-side ``stores``; the wall-clock timeline is
    rebased to the first executed instruction.
    :class:`~repro.runtime.pool.ActorPool` calls this once per completed
    submission.
    """
    timeline: list[TimelineEvent] = []
    wait_profile: dict[str, WaitStat] = {}
    actor_finish = [0.0] * n
    visits = p2p_bytes = p2p_count = 0
    for rank in range(n):
        res = results[rank]
        timeline.extend(res["timeline"])
        actor_finish[rank] = res["finish"]
        visits += res["visits"]
        p2p_bytes += res["p2p_bytes"]
        p2p_count += res["p2p_count"]
        for label, stat in res["wait_profile"].items():
            agg = wait_profile.setdefault(label, WaitStat())
            agg.count += stat.count
            agg.total += stat.total
            for r, t in stat.by_rank.items():
                agg.by_rank[r] = agg.by_rank.get(r, 0.0) + t
        store = stores[rank]
        for uid, (value, nbytes, pinned) in res["buffers"].items():
            ref = BufferRef(uid)
            if ref not in store:
                store.put(ref, value, nbytes, pinned=pinned)
        store.peak_bytes = max(store.peak_bytes, res["peak_bytes"])

    # rebase to the first executed instruction: what precedes it (the
    # command's queue hop and decode; on a fresh pool spawn + import,
    # hundreds of ms per worker) is driver overhead, not part of the
    # program's measured makespan — callers timing the whole dispatch
    # still see it on their own wall clock
    t0 = min((e.start for e in timeline), default=0.0)
    if t0 > 0.0:
        for e in timeline:
            e.start -= t0
            e.end -= t0
        actor_finish = [max(0.0, t - t0) for t in actor_finish]

    timeline.sort(key=lambda e: (e.start, e.actor, e.end, e.kind, e.name))
    return ExecutionResult(
        makespan=max(actor_finish) if actor_finish else 0.0,
        timeline=timeline,
        actor_finish=actor_finish,
        p2p_bytes=p2p_bytes,
        p2p_count=p2p_count,
        engine="mp",
        visits=visits,
        repolls=0,
        wait_profile=wait_profile,
    )


def _deadlock_error(stuck_ranks, all_ranks, states, pcs, watchdog_s) -> DeadlockError:
    """Build the watchdog diagnostic: one line per stuck actor (its last
    program counter and blocked resource) plus the aggregated counters."""
    lines = []
    for rank in stuck_ranks:
        pc = pcs.get(rank, "?")
        if rank in states:
            _, note, label = states[rank]
            lines.append(
                f"  actor {rank} stuck at [{pc}]: waiting for {note} "
                f"[{label}]"
            )
        else:
            lines.append(f"  actor {rank} stuck at [{pc}]: no wait reported")
    counters = ", ".join(
        f"{rank}: pc={pcs.get(rank, '?')}" for rank in all_ranks
    )
    return DeadlockError(
        f"mp pool made no progress for {watchdog_s:.1f}s "
        "(watchdog expired; workers terminated):\n"
        + "\n".join(lines)
        + f"\naggregated per-actor program counters: {{{counters}}}"
    )
