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
    arrays into one :class:`_Slab` (:func:`_encode_buffers`).  A slab
    below ``shm_threshold`` bytes is one inline blob pickled through the
    channel.  A larger one is written into a *slot*: a POSIX
    shared-memory segment owned by the channel's sender
    (:class:`_Slots`, one per :class:`_Channel`), whose name, size and
    sequence number go through the pipe instead of the bytes.

    *Lifetime.*  The receiver maps a slot at its first message and
    unlinks the name at once, so ``/dev/shm`` holds a segment only while
    a message naming it is in flight; neither side keeps a file
    descriptor (:class:`_Map`).  It copies out (``np.array``) and then
    stores the message's sequence number in the slot's 64-byte header.
    The sender writes a slot again only when the header holds the
    number it last wrote there; it never waits for that — a busy slot
    means another slot of the size, created on first need.  The
    protocol assumes a store-ordered CPU (x86-64 TSO): the receiver's
    header store cannot become visible before the loads of its
    copy-out, and the pipe write (a system call) orders the sender's
    payload stores before the receiver's loads.  A weakly ordered CPU would need a release fence
    before the header store, which CPython does not expose.

    *RSS rule: only repeating traffic stays warm.*  A size class
    (page-rounded bytes) gets a *kept* slot once it appears on the
    channel in two consecutive submissions (a run on a worker, a
    ``submit`` at the driver) — the training loop's activations,
    gradients and what its reports still carry.  Anything else — a
    first step's by-value state and its report, a resident miss, a
    fetch of held values, a ship, any slab sent without a channel —
    takes a *one-off* slot: the sender unmaps it after writing, the
    receiver after its copy-out, as for a plain temporary segment.
    Kept slots are written least recently used first, so only a slot
    beyond the in-flight high-water idles; one left idle for a whole
    submission is retired: the sender unmaps it and names it in the
    channel's next slab, whose receiver then unmaps it too.  So a
    slot's pages are allocated and zeroed once, not once per message,
    and what stays mapped is each channel's in-flight high-water of its
    repeating sizes — one message per channel and size under ``SYNC``,
    learned as sends outrun receives under ``ASYNC`` — its pages
    counted in both processes that map it.  The state a warm step feeds
    back stays on its rank (:mod:`repro.runtime.pool`, "Step state
    stays on the ranks"), so reports are small (0 / 64 KiB a warm
    ``gpt_mid_mp2`` step) and the kept slots are transfer-sized.

    *Abnormal stop.*  A pool's processes name their slots under the
    pool's tag.  The driver drains the pipes and unlinks what the
    messages in them name, unlinks by name what a killed process was
    still writing or had read but not attached, and unmaps every slot it
    holds itself — as sender of commands and as receiver of reports
    (:func:`_release_slots`); a worker's mappings go with its process.

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
(per-instruction intervals with their stage / unit ``meta``; a rank
reports plain tuples and the driver builds the events on first read), the
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

import ctypes
import functools
import itertools
import os
import pickle
import secrets
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


#: serial part of the segment names this process creates.
_SEGMENT_IDS = itertools.count()

#: bytes in front of a slot's arrays; the first 8 hold the receiver's
#: acknowledgement, the sequence number of the last message it copied out.
_HEADER = 64

#: segments are sized in whole pages.
_PAGE = os.sysconf("SC_PAGE_SIZE")

_MAP_FAILED = ctypes.c_void_p(-1).value


@functools.cache
def _libc():
    """libc's ``mmap`` / ``munmap``, bound when the first segment is
    mapped — an in-process run never loads them."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                          ctypes.c_int, ctypes.c_int, ctypes.c_long)
    libc.munmap.restype = ctypes.c_int
    libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    return libc


class _Map:
    """One shared-memory segment mapped into this process, holding no
    file descriptor: ``mmap.mmap`` would keep a duplicate of the one
    ``shm_open`` returns, so the mapping is made with ``mmap(2)`` and the
    descriptor closed at once.  ``create`` sizes a new segment; otherwise
    the name is unlinked as soon as it is mapped.

    ``buf`` is the bytes, ``ack`` the header word.  Nothing may hold a
    view of ``buf`` past :meth:`close`: the transport only makes views
    to copy in and out.  ``seq`` / ``used`` are the sender's."""

    __slots__ = ("name", "size", "addr", "buf", "ack", "seq", "used")

    def __init__(self, name: str, size: int, create: bool):
        import _posixshmem
        import mmap

        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, 0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            addr = _libc().mmap(None, size, mmap.PROT_READ | mmap.PROT_WRITE,
                              mmap.MAP_SHARED, fd, 0)
        finally:
            os.close(fd)
        if addr in (None, _MAP_FAILED):
            err = ctypes.get_errno()
            raise OSError(err, f"mmap of shared memory {name!r}: {os.strerror(err)}")
        if not create:
            _posixshmem.shm_unlink("/" + name)
        self.name, self.size, self.addr = name, size, addr
        self.buf = np.ctypeslib.as_array((ctypes.c_ubyte * size).from_address(addr))
        self.ack = self.buf[:8].view(np.uint64)
        self.seq = self.used = 0

    def free(self) -> bool:
        """The receiver has copied out the last message written here."""
        return int(self.ack[0]) == self.seq

    def close(self) -> None:
        if self.addr is not None:
            self.buf = self.ack = None
            _libc().munmap(self.addr, self.size)
            self.addr = None


def _new_segment(size: int, prefix: str | None) -> _Map:
    """A fresh segment named ``{prefix}_{n}`` (``prefix`` is a pool
    process's, ``{pool tag}_{rank or "d"}``), or under a random
    ``psm_`` prefix without one."""
    n = next(_SEGMENT_IDS)
    return _Map(f"{prefix or 'psm_' + secrets.token_hex(4)}_{n}", size, create=True)


class _Slots:
    """The slots one channel's sender owns (module docstring,
    "Shared-memory transport"): kept slots by size class, the sizes seen
    in this and the previous submission, and the retired names the
    channel's next slab tells the receiver about.  ``created`` counts
    segments made; ``begin`` marks a submission."""

    def __init__(self, prefix: str | None = None):
        self.prefix = prefix
        self.created = 0
        self.lock = threading.Lock()  # submitters vs. a closing pool
        self._sub = 0
        self._seen: dict[int, int] = {}  # size -> last submission it appeared in
        self._kept: dict[int, list[_Map]] = {}
        self._retired: list[str] = []

    def begin(self) -> None:
        """A submission starts: retire the kept slots the last one left
        idle (only acknowledged ones — a message may still name a busy
        slot, and the receiver would unmap it under that message)."""
        with self.lock:
            self._sub += 1
            last = self._sub - 1
            self._seen = {s: k for s, k in self._seen.items() if k >= last}
            for size, kept in list(self._kept.items()):
                for m in [m for m in kept if m.used < last and m.free()]:
                    kept.remove(m)
                    self._retired.append(m.name)
                    m.close()
                if not kept:
                    del self._kept[size]

    def acquire(self, need: int) -> _Map:
        """A slot of at least ``need`` bytes to write the next message
        into (``seq`` 0: one-off).  Called with the lock held."""
        size = -(-need // _PAGE) * _PAGE
        last = self._seen.get(size)
        self._seen[size] = self._sub
        kept = self._kept.get(size)
        if kept is None:
            if last != self._sub - 1:
                return self._create(size)
            kept = self._kept[size] = []
        # least recently written first: every kept slot of a size is
        # written each submission that sends at least as many of it, so
        # only a slot beyond the high-water idles and retires
        m = next((m for m in kept if m.free()), None)
        if m is None:
            m = self._create(size)
        else:
            kept.remove(m)
        kept.append(m)
        m.seq += 1
        m.used = self._sub
        return m

    def take_retired(self) -> tuple:
        retired, self._retired = tuple(self._retired), []
        return retired

    def _create(self, size: int) -> _Map:
        self.created += 1
        return _new_segment(size, self.prefix)

    def close(self) -> None:
        with self.lock:
            for kept in self._kept.values():
                for m in kept:
                    m.close()
            self._kept.clear()


#: kept slots this process receives on, by name, mapped at their first
#: message.  Per process, as mappings are: names are unique across
#: processes and pools, and the driver's report decoding has no channel
#: object to hang them on.  The lock keeps a closing pool off a mapping
#: being copied out.
_ATTACHED: dict[str, _Map] = {}
_ATTACHED_LOCK = threading.Lock()


def _release_slots(pool_tag: str) -> None:
    """Unmap every slot under ``pool_tag`` this process receives on."""
    with _ATTACHED_LOCK:
        for name in [n for n in _ATTACHED if n.startswith(pool_tag + "_")]:
            _ATTACHED.pop(name).close()


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


class _Slab(NamedTuple):
    """The buffers of one message — a ``run`` command, a ``done``
    report, one transfer, one all-reduce contribution or result —
    arrays packed back to back in one shared-memory slot (``name``, its
    ``size`` and the message's ``seq`` in it, 0 for a one-off slot) or
    one inline ``blob``; exactly one of ``name`` and ``blob`` is set.
    ``retired`` names the kept slots of the same channel the sender has
    given up since its previous slab."""

    name: str | None
    blob: bytearray | None
    nbytes: int  # array bytes carried (alignment padding not counted)
    table: list  # (uid, offset, shape, dtype, logical nbytes, pinned) per array
    other: dict  # uid -> (value, nbytes, pinned) for values that are not arrays
    size: int = 0
    seq: int = 0
    retired: tuple = ()


def _encode_buffers(
    buffers: dict[str, tuple[Any, int, bool]], shm_threshold: int,
    slots: _Slots | None = None,
) -> _Slab:
    """Every ndarray of ``uid -> (value, nbytes, pinned)`` packed into
    ONE slab — a slot of ``slots`` (the channel's; a one-off slot
    without) when the slab reaches ``shm_threshold`` bytes, an inline
    blob below it.  The one codec of the runtime: a transfer is a
    one-entry slab under its key."""
    table, other, total, payload = [], {}, 0, 0
    for uid, (value, nbytes, pinned) in buffers.items():
        if isinstance(value, np.ndarray) and not value.dtype.hasobject:
            table.append((uid, total, value.shape, value.dtype.str, nbytes, pinned))
            total += value.nbytes + -value.nbytes % _SLAB_ALIGN
            payload += value.nbytes
        else:
            other[uid] = (value, nbytes, pinned)
    if slots is None:
        slots = _Slots()
    with slots.lock:
        retired = slots.take_retired()
        if total < shm_threshold or total == 0:
            blob = bytearray(total)
            _pack(blob, 0, table, buffers)
            return _Slab(None, blob, payload, table, other, retired=retired)
        m = slots.acquire(_HEADER + total)
        _pack(m.buf, _HEADER, table, buffers)
        slab = _Slab(m.name, None, payload, table, other, m.size, m.seq, retired)
        if not m.seq:
            m.close()
        return slab


def _pack(slab, base: int, table, buffers) -> None:
    for uid, offset, shape, dtype, _, _ in table:
        np.ndarray(shape, dtype, buffer=slab, offset=base + offset)[...] = buffers[uid][0]


def _decode_buffers(enc: _Slab) -> dict[str, tuple[Any, int, bool]]:
    """Inverse of :func:`_encode_buffers`: copy out into private arrays,
    then acknowledge a kept slot or unmap a one-off one."""
    if enc.name is None:
        out = _unpack(enc.blob, 0, enc.table)
    else:
        with _ATTACHED_LOCK:
            m = _ATTACHED.get(enc.name) or _Map(enc.name, enc.size, create=False)
            try:
                out = _unpack(m.buf, _HEADER, enc.table)
            finally:
                if enc.seq:
                    _ATTACHED[enc.name] = m
                    m.ack[0] = enc.seq  # after the copy-out (docstring: TSO)
                else:
                    m.close()
    if enc.retired:
        with _ATTACHED_LOCK:
            for name in enc.retired:
                m = _ATTACHED.pop(name, None)
                if m is not None:
                    m.close()
    return {**enc.other, **out}


def _unpack(slab, base: int, table) -> dict[str, tuple[Any, int, bool]]:
    return {
        uid: (np.array(np.ndarray(shape, dtype, buffer=slab, offset=base + offset)),
              nbytes, pinned)
        for uid, offset, shape, dtype, nbytes, pinned in table
    }


def _discard_payload(obj) -> None:
    """Unlink every slot named by a slab nested in ``obj`` — a message
    that will never be consumed (mismatch bail-out, abnormal stop).  A
    slot its receiver already attached has no name left to unlink."""
    if isinstance(obj, _Slab):
        if obj.name is not None:  # None: an inline slab owns no segment
            import _posixshmem

            try:
                _posixshmem.shm_unlink("/" + obj.name)
            except OSError:
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
    calling thread and never blocks (module docstring, "Channels").
    ``slots`` are the shared-memory slots its slabs travel in, named
    under ``prefix``."""

    def __init__(self, conn, prefix: str | None = None):
        self.conn = conn  # a write-only, non-blocking Connection
        self.slots = _Slots(prefix)
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
        self.slots.close()
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
    system-wide).  Each channel carries its own shared-memory slots
    (:class:`_Slots`).
    """

    def __init__(self, rank, program, buffers, cmd, inbox, peers, ctrl, faults):
        self.rank = rank
        self.program = program
        self.sid = cmd.sid
        self.comm_mode = cmd.comm_mode
        self.shm_threshold = cmd.shm_threshold
        self.epoch = cmd.epoch
        self.keep = cmd.keep  # outputs that stay here instead of going home
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
        #: ``(actor, kind, name, start, end, nbytes, pc)`` per event, in
        #: start order; the driver makes the events (:class:`_PackedResult`)
        self.timeline: list[tuple] = []
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
    def slab(self, dst: int, key, value, nbytes: int) -> _Slab:
        """One transfer, contribution or result for rank ``dst``: a
        one-entry slab in that channel's slots."""
        return _encode_buffers(
            {key: (value, nbytes, False)}, self.shm_threshold, self.peers[dst].slots
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
            self.timeline.append((self.rank, "recv", key, t0, end, nbytes, self.pc))
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
        # produced stays here as ``outputs`` (the pool worker holds it for
        # the driver), and what the command did not ask to keep also goes
        # home as one slab; a kept array sends only its shape and dtype
        self.outputs = {
            uid: (buf.value, buf.nbytes, buf.pinned)
            for uid in self.store.live_refs()
            if uid not in self.initial_uids
            for buf in [self.store.get(BufferRef(uid))]
        }
        kept, home = [], {}
        for uid, (value, nbytes, pinned) in self.outputs.items():
            if uid in self.keep and isinstance(value, np.ndarray):
                kept.append((uid, value.shape, value.dtype.str, nbytes, pinned))
            else:
                home[uid] = (value, nbytes, pinned)
        buffers = _encode_buffers(home, self.shm_threshold, self.ctrl.slots)
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
            "buffers": buffers,
            "kept": kept,
            # every segment this process has made so far, this report's included
            "segments": sum(c.slots.created for c in (self.ctrl, *self.peers.values())),
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
        self.timeline.append((self.rank, "task", instr.name, start, self.now(), 0, self.pc))

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
             (instr.key, self.slab(instr.dst, instr.key, buf.value, buf.nbytes)))
        )
        self.timeline.append(
            (self.rank, "send", instr.key, start, self.now(), buf.nbytes, self.pc)
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
        self.timeline.append((self.rank, "accum", instr.name, start, start, 0, self.pc))

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
                # one slab per member: a slot belongs to one channel
                self.peers[r].put((collres, self.slab(r, key, total, buf.nbytes)))
            self.timeline.append(
                (root, "allreduce", key, start, self.now(), buf.nbytes, self.pc)
            )
        else:
            self.peers[root].put((gather, self.slab(root, key, buf.value, buf.nbytes)))
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


def _merge_results(results: dict[int, dict], programs, n: int) -> ExecutionResult:
    """Merge one submission's per-worker reports: counters and wait
    profiles summed, each rank's packed events kept for
    :class:`_PackedResult`."""
    events, wait_profile = [], {}
    actor_finish = [0.0] * n
    visits = p2p_bytes = p2p_count = 0
    for rank in range(n):
        res = results[rank]
        events.append(res["timeline"])
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

    # rebase to the first executed instruction: what precedes it (the
    # command's pipe hop and decode; on a fresh pool spawn + import,
    # hundreds of ms per worker) is driver overhead, not part of the
    # program's measured makespan — callers timing the whole dispatch
    # still see it on their own wall clock.  A rank records in start order
    t0 = max(0.0, min((ev[0][3] for ev in events if ev), default=0.0))
    actor_finish = [max(0.0, t - t0) for t in actor_finish] if t0 else actor_finish
    result = _PackedResult(
        makespan=max(actor_finish) if actor_finish else 0.0,
        timeline=None,
        actor_finish=actor_finish,
        p2p_bytes=p2p_bytes,
        p2p_count=p2p_count,
        engine="mp",
        visits=visits,
        repolls=0,
        wait_profile=wait_profile,
    )
    result._packed = (events, programs, t0)
    return result


class _PackedResult(ExecutionResult):
    """An ``engine="mp"`` result whose :attr:`timeline` is built on first
    read: rebased, a task's ``meta`` copied from its instruction, sorted
    as the in-process engines sort."""

    @property
    def timeline(self) -> list[TimelineEvent]:
        if self._timeline is None:
            events, programs, t0 = self._packed
            self._timeline = [
                TimelineEvent(actor, kind, name, start - t0, end - t0, nbytes,
                              dict(program[pc].meta) if kind == "task" else {})
                for program, packed in zip(programs, events)
                for actor, kind, name, start, end, nbytes, pc in packed
            ]
            self._timeline.sort(key=lambda e: (e.start, e.actor, e.end, e.kind, e.name))
        return self._timeline

    @timeline.setter
    def timeline(self, events) -> None:
        self._timeline = events


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
