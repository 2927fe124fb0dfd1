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
    One ``Pipe(duplex=False)`` per *directed pair* — rank → rank,
    driver → rank (commands), rank → driver (reports) — created at
    spawn, each worker handed only its own ends.  A pipe has one writing
    process, so the data path shares no lock, semaphore or feeder thread
    between processes.  **The sender writes its own message**:
    :meth:`_Channel.put` pickles, frames (the 4-byte length header of
    ``multiprocessing.connection``) and ``write``\\ s in the calling
    thread — the instruction thread for a transfer, an ack or the
    ``done`` report, the submitting thread for a ``run`` command.  **The
    receiver reads its own message**: :meth:`_Inbox.get` takes the route
    *and its source* — ``("data", src)`` and ``("ack", dst)`` name it,
    commands come from the driver, a gather root asks each member in
    turn — and reads that pipe in the waiting thread, buffering what
    arrives for the source's other routes until their consumer asks.  A
    pipe is FIFO and has one writer, so the k-th message a worker takes
    from ``("data", src)`` is matched against the k-th receive it posted
    on channel ``src->dst`` — the pairwise-FIFO contract the in-process
    engine implements and NCCL imposes on P2P ops, across steps as
    within one.  Matched keys are cross-checked; a mismatch surfaces as
    :class:`~repro.runtime.executor.CommMismatchError` at the driver
    instead of silent data corruption.  Under
    :attr:`CommMode.SYNC <repro.runtime.executor.CommMode>` every send
    additionally blocks on an ack from its destination (the
    NCCL-rendezvous semantics under which Figure 5's naive ordering
    genuinely deadlocks); under ``ASYNC`` (JaxPP's mode) sends return
    immediately and posted receives are drained lazily by the first
    consuming instruction.

    *A write never blocks because a peer is computing.*  A blocking
    write would: two ranks that each send more than a pipe holds and
    then wait for the other's message both sit in ``write`` with nobody
    reading (no wait was recorded, so the watchdog names nothing), and
    any sender stalls for as long as its receiver's current task runs.
    So every write end is non-blocking.  What the pipe has no room for
    *now* — the whole frame on ``EAGAIN``, the tail of a partial write —
    goes to the channel's FIFO backlog, later ``put``\\ s on that channel
    queue behind it until it is empty, and one flusher thread per
    process, started by the first backlog, writes backlogs out as their
    pipes drain: ``put`` returns in bounded time whatever its reader is
    doing.  The fast path (a message that fits the pipe's free space,
    64 KiB when empty) touches no thread; the slow path is the unbounded
    sender-side buffer a queue's feeder thread kept for *every* message.
    Only a worker about to exit writes blocking (:meth:`_Channel.drain`).
    ``tests/runtime/test_mp_channel.py`` floods a computing rank to pin
    the property down.

Shared-memory transport
    Every message that carries values — a ``run`` command, a ``done``
    report, a transfer, an all-reduce contribution or result — packs its
    arrays into one :class:`_Slab` (:func:`_encode_buffers`).  A slab of
    at least ``shm_threshold`` bytes is a ``multiprocessing.shared_memory``
    segment: the sender copies into a fresh segment and passes only its
    name through the channel; the receiver attaches, copies out, and
    unlinks.  A smaller slab is one inline blob.  Ownership is handed
    over explicitly (the sender unregisters the segment from its
    resource tracker), so the normal path neither leaks nor
    double-frees; on an abnormal stop the driver drains the pipes and
    unlinks whatever was still in flight.  A pool's processes name their
    segments under the pool's tag, so the driver also unlinks, by name,
    what a killed process was still writing or had read but not
    consumed.

Collectives
    Data-parallel all-reduce is a reduce at the group's lowest rank, its
    own rendezvous as NCCL's is: every member sends its contribution on
    route ``("gather", group_key)`` and blocks on ``("collres",
    group_key)``; the root reads one contribution from each member's
    pipe, folds them in sorted-rank order — bit-identical to the
    in-process engine — and sends each member the result.  A member
    cannot start its next collective before it has this one's result,
    so per-pair FIFO keeps successive collectives of a group apart.

Watchdog reports
    A worker reports over its control pipe, every message tagged with
    its submission id; a healthy run sends one, the final ``done``.
    Status rides the heartbeat: entering a potentially-unbounded block
    (channel drain, ack wait, all-reduce) only records ``(pc, note,
    label)`` on the worker, and the process's one :class:`_Status`
    thread looks every :data:`_HEARTBEAT_S` — a rank that computes, or
    is in another wait than at the last tick, sends a heartbeat with its
    program counter; a rank still in the *same* wait sends that wait,
    once, then goes silent.  Heartbeats and results are progress, a wait
    line is not: the pool raises
    :class:`~repro.runtime.executor.DeadlockError` when nothing
    progressed for ``watchdog_s`` seconds (at least two ticks, so every
    stuck rank's wait line is in), terminating the processes and
    aggregating each actor's last program counter and blocking resource
    into the diagnostic (:func:`_deadlock_error`) — a hung schedule
    reports, it never hangs the test suite.

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

import itertools
import os
import pickle
import select
import struct
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

#: a message's slab at or above this many bytes is a shared-memory segment
#: instead of an inline blob pickled through the channel.
DEFAULT_SHM_THRESHOLD = 1 << 16

#: driver-side no-progress window before a run is declared deadlocked.
DEFAULT_WATCHDOG_S = 30.0

#: extra patience while spawn-context workers import and report in —
#: interpreter start-up must not count against the deadlock watchdog.
_SPAWN_GRACE_S = 120.0

#: tick of a worker's status thread: a heartbeat while it progresses, its
#: wait once it has sat in the same one for a whole tick.
_HEARTBEAT_S = 1.0

#: who a worker's command pipe comes from and its control pipe goes to,
#: where a rank would name a peer.
_DRIVER = -1


# ---------------------------------------------------------------------------
# payload transport
# ---------------------------------------------------------------------------


#: serial part of the segment names this process creates under a prefix.
_SEGMENT_IDS = itertools.count()


def _new_segment(size: int, prefix: str | None):
    """A fresh segment named ``{prefix}_{n}`` (``prefix`` is a pool
    process's, ``{pool tag}_{rank or "d"}``), or at random without one."""
    from multiprocessing import shared_memory

    name = None if prefix is None else f"{prefix}_{next(_SEGMENT_IDS)}"
    return shared_memory.SharedMemory(name=name, create=True, size=size)


def _reclaim_segments(pool_tag: str) -> None:
    """Unlink every segment left under ``pool_tag`` once the pool's
    processes are gone (Linux, where a segment is a file in /dev/shm)."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    for name in names:
        if name.startswith(pool_tag + "_"):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:  # pragma: no cover - consumed meanwhile
                pass


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
    """The buffers of one message — a ``run`` command, a ``done``
    report, one transfer, one all-reduce contribution or result —
    arrays packed back to back in one shared-memory segment (``name``)
    or one inline ``blob``; exactly one of the two is set."""

    name: str | None
    blob: bytearray | None
    nbytes: int  # array bytes carried (alignment padding not counted)
    table: list  # (uid, offset, shape, dtype, logical nbytes, pinned) per array
    other: dict  # uid -> (value, nbytes, pinned) for values that are not arrays


def _encode_buffers(
    buffers: dict[str, tuple[Any, int, bool]], shm_threshold: int,
    prefix: str | None = None,
) -> _Slab:
    """Every ndarray of ``uid -> (value, nbytes, pinned)`` packed into
    ONE slab — a shared-memory segment when the slab reaches
    ``shm_threshold`` bytes, an inline blob below it.  The one codec of
    the runtime: a transfer is a one-entry slab under its key."""
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
        shm = _new_segment(total, prefix)
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
    """Reclaim every slab nested in ``obj`` — a message that will never
    be consumed (mismatch bail-out, abnormal stop)."""
    if isinstance(obj, _Slab):
        if obj.name is not None:  # None: an inline slab owns no segment
            from multiprocessing import shared_memory

            try:
                _unlink(shared_memory.SharedMemory(name=obj.name))
            except Exception:
                pass
    elif isinstance(obj, (tuple, list, deque)):
        for item in obj:
            _discard_payload(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _discard_payload(item)


# ---------------------------------------------------------------------------
# channels: one pipe per directed pair, route keys
# ---------------------------------------------------------------------------


class _Channel:
    """The write end of one directed pair's pipe: ``put`` writes in the
    calling thread and never blocks (module docstring, "Channels")."""

    def __init__(self, conn):
        self.conn = conn  # a write-only, non-blocking Connection
        self._fd = conn.fileno()
        self._lock = threading.Lock()  # among this process's threads only
        self._backlog: deque = deque()  # frame tails the pipe had no room for

    def put(self, obj) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        frame = struct.pack("!i", len(data)) + data  # one frame is < 2 GiB
        with self._lock:
            self._backlog.append(memoryview(frame))
            written = self._write()
        if not written:
            _Flusher.get().watch(self)

    def _write(self) -> bool:
        """Write what fits now, oldest first; True once the backlog is
        empty.  Called with the lock held."""
        backlog = self._backlog
        while backlog:
            try:
                n = os.write(self._fd, backlog[0])
            except BlockingIOError:
                return False
            if n < len(backlog[0]):
                backlog[0] = backlog[0][n:]
                return False
            backlog.popleft()
        return True

    def flush(self) -> bool:
        """:meth:`_write` for a thread that does not hold the lock."""
        with self._lock:
            return self._write()

    def drain(self) -> None:
        """Block until the backlog is in the pipe — for a worker about to
        exit, whose flusher thread would die with what it still held."""
        while not self.flush():
            select.select([], [self._fd], [])

    def close(self) -> None:
        with self._lock:  # not under a flush; an empty backlog is never written
            self._backlog.clear()
            self.conn.close()
        if _Flusher.instance is not None:
            _Flusher.instance.watched.discard(self)


class _Flusher(threading.Thread):
    """The process's backlog writer: sleeps until the pipe of a channel
    with a backlog takes more, or :meth:`watch` names another channel."""

    instance: "_Flusher | None" = None
    _create = threading.Lock()

    @classmethod
    def get(cls) -> "_Flusher":
        with cls._create:
            if cls.instance is None:
                cls.instance = cls()
            return cls.instance

    def __init__(self):
        super().__init__(name="mpmd-channel-flusher", daemon=True)
        self.watched: set[_Channel] = set()  # every channel that ever backed up
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self.start()

    def watch(self, chan: _Channel) -> None:
        """``chan`` has a backlog (appended before this call, so the loop
        that reads the wake byte finds it)."""
        self.watched.add(chan)
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:  # 64 Ki wakes unread: it will look anyway
            pass

    def run(self) -> None:
        while True:
            poll = select.poll()
            poll.register(self._wake_r, select.POLLIN)
            chans = {c._fd: c for c in list(self.watched) if c._backlog}
            for fd in chans:
                poll.register(fd, select.POLLOUT)
            for fd, _ in poll.poll():
                if fd == self._wake_r:
                    os.read(fd, 4096)
                    continue
                try:
                    chans[fd].flush()
                except OSError:  # nobody will ever read it: the pool is gone
                    self.watched.discard(chans[fd])


class _Inbox:
    """One worker's read ends, demultiplexed into per-source, per-route
    streams.

    ``get(route, src)`` blocks for the next message on ``route`` from
    ``src`` (a rank, or :data:`_DRIVER`), reading ``src``'s pipe in the
    calling thread; anything else that arrives there meanwhile is
    buffered (per source and route, FIFO) until its consumer asks.  This
    is what lets one pipe per directed pair carry every route of that
    pair without losing the pairwise-FIFO contract.
    """

    def __init__(self, conns: dict):
        self.conns = conns  # source -> read-only Connection
        self.buf: dict[tuple, deque] = {}  # (source, route) -> messages

    def get(self, route: tuple, src):
        d = self.buf.get((src, route))
        if d:
            return d.popleft()
        conn = self.conns[src]
        while True:
            try:
                r, msg = pickle.loads(conn.recv_bytes())
            except EOFError:  # only the driver's death closes a write end
                raise _WorkerStop from None
            if r == route:
                return msg
            self.buf.setdefault((src, r), deque()).append(msg)


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------


class _WorkerStop(Exception):
    """Internal: abort the worker after an error was reported."""


class _Worker:
    """Single-threaded interpreter for one run of one actor's program.

    :meth:`_run_program` is the one instruction loop of an ``engine="mp"``
    rank: the watchdog's :meth:`where` and ``WorkerTaskError.pc`` read its
    ``pc``, the fault plan's send hook runs inside it.  Semantically the numeric-mode
    subset of the in-process engine's ``step``; the differential suite
    (``tests/runtime/test_mp_equivalence``) asserts bit-identical results
    across the whole schedule gallery.

    The pool's worker loop builds one per ``run`` command (fresh
    posted-receive state, an object store seeded with ``buffers``) over
    the plumbing that lives as long as the process: the rank's
    :class:`_Inbox`, the :class:`_Channel` to each peer by rank and the
    control channel.  ``cmd`` is the command being served
    (:class:`repro.runtime.pool._Run`): its ``sid`` tags every report,
    its ``epoch`` is the driver's monotonic base (``CLOCK_MONOTONIC`` is
    system-wide).  ``shm_prefix`` names the
    segments this rank creates (:func:`_new_segment`).
    """

    def __init__(self, rank, program, buffers, cmd, inbox, peers, ctrl, faults,
                 shm_prefix):
        self.rank = rank
        self.program = program
        self.sid = cmd.sid
        self.comm_mode = cmd.comm_mode
        self.shm_threshold = cmd.shm_threshold
        self.shm_prefix = shm_prefix
        self.epoch = cmd.epoch
        self.faults = faults  # RankFaultState for injected chaos (runtime.faults)
        self.inbox = inbox
        self.peers = peers  # rank -> the _Channel to that rank
        self.ctrl = ctrl

        self.store = ObjectStore(rank)
        #: uid -> (value, nbytes, pinned) of what the program produced;
        #: filled at the end of :meth:`_run_program`
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
        #: ``(pc, note, label)`` of the block this rank is in, ``None``
        #: while it computes; read by the process's :class:`_Status`
        self._wait: tuple | None = None

    # -- clocks & control --------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self.epoch

    def blocking(self, label: str, note: str):
        """Context manager: record the imminent block, time it, charge the
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
    def slab(self, key, value, nbytes: int) -> _Slab:
        """One transfer, contribution or result: a one-entry slab."""
        return _encode_buffers(
            {key: (value, nbytes, False)}, self.shm_threshold, self.shm_prefix
        )

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
                key, payload = self.inbox.get(("data", src), src)
            posted.popleft()
            if key != rec.key:
                _discard_payload(payload)
                self.fail(
                    "mismatch",
                    f"send/recv order mismatch on channel {src}->{self.rank}: "
                    f"send key {key!r} met recv key {rec.key!r} "
                    "(NCCL would deadlock or corrupt data here)",
                )
            value, nbytes, _ = _decode_buffers(payload)[key]
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
    def _run_program(self) -> dict:
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
            "buffers": _encode_buffers(self.outputs, self.shm_threshold, self.shm_prefix),
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
        self.peers[instr.dst].put(
            (("data", self.rank),
             (instr.key, self.slab(instr.key, buf.value, buf.nbytes)))
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
                ack = self.inbox.get(("ack", instr.dst), instr.dst)
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
        """A reduce at the group's lowest rank, its own rendezvous
        (module docstring, "Collectives")."""
        group = tuple(sorted(instr.group))
        root, members = group[0], group[1:]
        key = instr.group_key
        gather, collres = ("gather", key), ("collres", key)
        self.require(instr.ref)
        buf = self.store.get(instr.ref)
        if self.rank == root:
            start = self.now()
            contribs = [buf.value]
            for r in members:
                with self.blocking(
                    f"allreduce {key!r}",
                    f"all-reduce contribution of actor {r} for {key!r} "
                    f"(group {list(group)})",
                ):
                    payload = self.inbox.get(gather, r)
                contribs.append(_decode_buffers(payload)[key][0])
            total = fold_contributions(contribs)
            for r in members:
                # one slab per member: a shm segment is consumed (copied +
                # unlinked) by exactly one receiver
                self.peers[r].put((collres, self.slab(key, total, buf.nbytes)))
            self.timeline.append(
                TimelineEvent(
                    root, "allreduce", key, start, self.now(), buf.nbytes
                )
            )
        else:
            self.peers[root].put((gather, self.slab(key, buf.value, buf.nbytes)))
            with self.blocking(
                f"allreduce {key!r}", f"all-reduce result for {key!r}"
            ):
                payload = self.inbox.get(collres, root)
            total = _decode_buffers(payload)[key][0]
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
        w._wait = (w.pc, self.note, self.label)  # a fresh tuple per block
        self.start = w.now()
        return self.start

    def __exit__(self, exc_type, exc, tb) -> None:
        w = self.worker
        w._wait = None
        if exc_type is not None:
            return
        parked = max(0.0, w.now() - self.start)
        stat = w.wait_profile.setdefault(self.label, WaitStat())
        stat.count += 1
        stat.total += parked
        stat.by_rank[w.rank] = stat.by_rank.get(w.rank, 0.0) + parked


class _Status(threading.Thread):
    """A worker process's one status thread ("Watchdog reports" in the
    module docstring): every :data:`_HEARTBEAT_S` it reports the run in
    progress — a heartbeat while the rank moves, its wait once it has sat
    in the same one since the last tick — and nothing between runs, so a
    wedged or deadlocked rank goes silent and trips the driver's watchdog.
    """

    def __init__(self, rank: int, ctrl: _Channel):
        super().__init__(name=f"mpmd-status-{rank}", daemon=True)
        self.rank = rank
        self.ctrl = ctrl
        self.worker: _Worker | None = None  # set around each run by the worker loop
        self._seen = None  # the wait found at the last tick (None: computing)
        self._sent = None  # the last wait reported

    def run(self) -> None:
        while True:
            time.sleep(_HEARTBEAT_S)
            self._tick()  # its own frame: no finished run's worker stays referenced

    def _tick(self) -> None:
        w = self.worker
        if w is None:
            return
        wait = w._wait
        if wait is None or wait is not self._seen:
            self._seen = wait
            line = ("hb", self.rank, w.pc)
        elif wait is not self._sent:
            self._sent = wait
            line = ("wait", self.rank, *wait)
        else:
            return
        self.ctrl.put(("sub", w.sid, line))


# ---------------------------------------------------------------------------
# driver-side helpers (used by runtime.pool)
# ---------------------------------------------------------------------------


def _reclaim_in_flight(conns: Sequence[Any]) -> None:
    """Unlink the shared-memory segments named by messages still sitting
    in any of these pipes (read ends of a pool whose workers are gone).
    Reads raw and non-blocking, so a frame cut short by ``terminate()``
    is dropped instead of waited for."""
    for conn in conns:
        data = bytearray()
        try:
            os.set_blocking(conn.fileno(), False)
            while chunk := os.read(conn.fileno(), 1 << 16):
                data += chunk
        except (OSError, ValueError):  # drained (EAGAIN), or already closed
            pass
        pos = 0
        while pos + 4 <= len(data):
            (n,) = struct.unpack_from("!i", data, pos)
            pos += 4
            if not 0 <= n <= len(data) - pos:
                break
            try:
                _discard_payload(pickle.loads(memoryview(data)[pos:pos + n]))
            except Exception:  # the tail of a frame its reader died inside
                pass
            pos += n


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
    # command's pipe hop and decode; on a fresh pool spawn + import,
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
