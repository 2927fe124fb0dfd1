"""True multi-process MPMD backend: one OS process per rank.

Everything upstream of this module executes the paper's design inside a
single Python process on virtual time.  This backend is the real thing —
the reproduction of JaxPP's Ray+NCCL runtime (§4): each pipeline rank is
an independent **actor process** (``multiprocessing`` *spawn* context)
that owns its object store and asynchronously executes its fused
instruction program; timing is real wall-clock, not simulated.

Design
======

Channels (§4.2's ordering contract)
    One FIFO queue per *directed* rank pair that the programs actually
    use.  The k-th message a worker takes from channel ``src->dst`` is
    matched against the k-th receive it posted on that channel — the same
    pairwise-FIFO contract the in-process engine implements and NCCL
    imposes on P2P ops.  Matched keys are cross-checked; a mismatch
    surfaces as :class:`~repro.runtime.executor.CommMismatchError` at the
    driver instead of silent data corruption.  Under
    :attr:`CommMode.SYNC <repro.runtime.executor.CommMode>` every send
    additionally blocks on a per-channel ack (the NCCL-rendezvous
    semantics under which Figure 5's naive ordering genuinely deadlocks);
    under ``ASYNC`` (JaxPP's mode) sends return immediately and posted
    receives are drained lazily by the first consuming instruction.

Shared-memory transport
    ndarray payloads at or above ``shm_threshold`` bytes travel through
    ``multiprocessing.shared_memory`` segments: the sender copies into a
    fresh segment and passes only its name through the queue; the
    receiver attaches, copies out, and unlinks.  Everything smaller is
    pickled inline.  Ownership is handed over explicitly (the sender
    unregisters the segment from its resource tracker), so the normal
    path neither leaks nor double-frees; on an abnormal stop the driver
    drains the channels and unlinks whatever was still in flight.

Collectives
    Data-parallel all-reduce is a **barrier-backed reduce**: every
    participant enters a per-group ``Barrier`` (the rendezvous), members
    then funnel their contribution to the lowest rank, which reduces in
    sorted-rank order — bit-identical to the in-process engine — and
    broadcasts the result back.  The barrier serialises successive
    collectives of the same group, so gather/result traffic can never
    interleave across ``group_key``\\ s.

Deadlock watchdog
    Workers report to a control queue: a state message immediately
    before every potentially-unbounded block (channel drain, ack wait,
    barrier), a coarse heartbeat while computing, and a final
    done/error message.  The driver raises
    :class:`~repro.runtime.executor.DeadlockError` when no worker has
    reported progress for ``watchdog_s`` seconds, terminating the
    processes and aggregating each actor's last program counter and
    blocking resource into the diagnostic — a hung schedule reports,
    it never hangs the test suite.

The merged :class:`~repro.runtime.executor.ExecutionResult` carries the
real wall-clock timeline (per-instruction intervals with their stage /
unit ``meta``), the per-resource wait profile, per-actor finish times,
and summed scheduler counters — exactly the shape
:meth:`CostModel.from_result <repro.core.autotune.CostModel.from_result>`
replays, which is what closes the measure → retune loop on a *real*
concurrent execution.

Requirements: per-actor programs must be pickle-clean (the compiler's
payload contract, ``tests/core/test_pickle.py``); virtual cost models do
not apply (time is measured, not simulated).

This module is the *one-shot* driver: :func:`execute_mp` spawns the
mesh, runs a single step, and tears everything down — correct, but ~139×
per-step overhead on small workloads.  The persistent sibling,
:class:`repro.runtime.pool.ActorPool`, keeps the same worker loop
(:class:`_Worker` is reused verbatim through queue-routing shims) alive
across a *stream* of step submissions; shared-memory segments are
accounted per submission there, not per process death.
"""

from __future__ import annotations

import dataclasses
import queue as _queue
import threading
import time
import traceback
from collections import deque
from typing import Any, NamedTuple, Sequence

import multiprocessing as _mp

import numpy as np

from repro.runtime.executor import (
    CommMismatchError,
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
    Instruction,
    Recv,
    RunTask,
    Send,
)
from repro.runtime.store import ObjectStore

__all__ = ["execute_mp", "DEFAULT_SHM_THRESHOLD", "DEFAULT_WATCHDOG_S"]

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
# worker
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _WorkerSpec:
    """Everything one actor process needs, shipped by pickle at spawn."""

    rank: int
    program: list[Instruction]
    buffers: dict[str, tuple[Any, int, bool]]  # uid -> (value, nbytes, pinned)
    comm_mode: CommMode
    shm_threshold: int
    epoch: float  # driver's monotonic base; CLOCK_MONOTONIC is system-wide
    codegen_actor: bool = False  # fuse the instruction loop (runtime.actorgen)
    faults: Any = None  # RankFaultState for injected chaos (runtime.faults)


class _WorkerStop(Exception):
    """Internal: abort the worker after an error was reported."""


class _Worker:
    """Single-threaded interpreter for one actor's instruction stream.

    Semantically the numeric-mode subset of the in-process engine's
    ``step``; the differential suite (``tests/runtime/test_mp_equivalence``)
    asserts bit-identical results across the whole schedule gallery.
    """

    def __init__(self, spec, send_qs, recv_qs, ack_wait, ack_send, coll, ctrl):
        self.rank = spec.rank
        self.program = spec.program
        self.codegen_actor = getattr(spec, "codegen_actor", False)
        self.faults = getattr(spec, "faults", None)
        self.comm_mode = spec.comm_mode
        self.shm_threshold = spec.shm_threshold
        self.epoch = spec.epoch
        self.send_qs = send_qs  # dst -> data queue (self -> dst)
        self.recv_qs = recv_qs  # src -> data queue (src -> self)
        self.ack_wait = ack_wait  # dst -> ack queue (dst -> self)
        self.ack_send = ack_send  # src -> ack queue (self -> src)
        self.coll = coll  # group tuple -> (barrier, gather_q, result_qs)
        self.ctrl = ctrl

        self.store = ObjectStore(spec.rank)
        #: uid -> (value, nbytes, pinned) of what the program produced;
        #: filled by :meth:`_finish_report`
        self.outputs: dict[str, tuple[Any, int, bool]] = {}
        self.initial_uids = set(spec.buffers)
        for uid, (value, nbytes, pinned) in spec.buffers.items():
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
                self.ctrl.put(("hb", self.rank, self.pc))

    def blocking(self, label: str, note: str):
        """Context manager: report the imminent block, time it, charge the
        parked interval to ``label`` in the wait profile."""
        return _BlockScope(self, label, note)

    def fail(self, kind: str, message: str) -> None:
        self.ctrl.put(("error", self.rank, self.pc, kind, message))
        raise _WorkerStop

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
                msg = self.recv_qs[src].get()
            tag, key, nbytes, payload = msg
            assert tag == "data"
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
                self.ack_send[src].put(key)
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
                self.store.delete(instr.ref)
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
        self.send_qs[instr.dst].put(("data", instr.key, buf.nbytes, payload))
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
                ack = self.ack_wait[instr.dst].get()
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
        self.require(instr.value)
        start = self.now()
        vbuf = self.store.get(instr.value)
        if instr.acc in self.store:
            abuf = self.store.get(instr.acc)
            if abuf.value is not None and vbuf.value is not None:
                self.store.update(instr.acc, abuf.value + vbuf.value)
        else:
            self.store.put(instr.acc, vbuf.value, vbuf.nbytes)
        if instr.delete_value:
            self.store.delete(instr.value)
        self.timeline.append(
            TimelineEvent(self.rank, "accum", instr.acc.uid, start, start)
        )

    def exec_allreduce(self, instr: AllReduce) -> None:
        group = tuple(sorted(instr.group))
        barrier, gather_q, result_qs = self.coll[group]
        root = group[0]
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
                    gk, r, payload = gather_q.get()
                if gk != key:  # pragma: no cover - barrier serialises groups
                    self.fail(
                        "protocol",
                        f"all-reduce contribution for {gk!r} arrived during "
                        f"{key!r}",
                    )
                contribs[r] = _decode_payload(payload)
            vals = [contribs[r] for r in sorted(contribs)]
            total = None
            if all(v is not None for v in vals):
                total = vals[0]
                for v in vals[1:]:
                    total = total + v
            for r in group:
                if r != root:
                    # one payload per member: a shm segment is consumed
                    # (copied + unlinked) by exactly one receiver
                    result_qs[r].put(
                        (key, _encode_payload(total, self.shm_threshold))
                    )
            if total is not None:
                self.store.update(instr.ref, total)
            self.timeline.append(
                TimelineEvent(
                    root, "allreduce", key, start, self.now(), buf.nbytes
                )
            )
        else:
            gather_q.put(
                (key, self.rank, _encode_payload(buf.value, self.shm_threshold))
            )
            with self.blocking(
                f"allreduce {key!r}", f"all-reduce result for {key!r}"
            ):
                gk, payload = result_qs[self.rank].get()
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
        w.ctrl.put(("wait", w.rank, w.pc, self.note, self.label))
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


def _worker_main(spec, send_qs, recv_qs, ack_wait, ack_send, coll, ctrl) -> None:
    """Spawn entry point: build the worker, announce, run, report."""
    try:
        worker = _Worker(spec, send_qs, recv_qs, ack_wait, ack_send, coll, ctrl)
        ctrl.put(("hello", spec.rank))
        # a one-shot run is step 0 of a one-step stream; the fault hooks
        # mirror the pool worker loop's boundaries exactly
        if worker.faults is not None:
            worker.faults.begin_step(0)
        result = worker.run()
        if worker.faults is not None:
            worker.faults.end_step(0, payloads=result["buffers"])
        ctrl.put(("done", spec.rank, result))
    except _WorkerStop:
        pass  # error already reported
    except BaseException:
        try:
            ctrl.put(
                ("error", spec.rank, -1, "exception", traceback.format_exc())
            )
        except Exception:  # pragma: no cover - ctrl queue gone
            pass


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _scan_programs(
    programs: Sequence[Sequence[Instruction]],
) -> tuple[set[tuple[int, int]], set[tuple[int, ...]]]:
    """Directed channels and collective groups the programs use."""
    pairs: set[tuple[int, int]] = set()
    groups: set[tuple[int, ...]] = set()
    for rank, prog in enumerate(programs):
        for instr in prog:
            if isinstance(instr, Send):
                pairs.add((rank, instr.dst))
            elif isinstance(instr, Recv):
                pairs.add((instr.src, rank))
            elif isinstance(instr, AllReduce):
                groups.add(tuple(sorted(instr.group)))
    return pairs, groups


def execute_mp(
    programs: Sequence[Sequence[Instruction]],
    stores: Sequence[ObjectStore],
    comm_mode: CommMode = CommMode.ASYNC,
    *,
    watchdog_s: float = DEFAULT_WATCHDOG_S,
    shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    codegen_actor: bool = False,
    fault_plan: Any = None,
    generation: int = 0,
) -> ExecutionResult:
    """Run one fused program per actor, each in its own OS process.

    ``stores`` are the driver-side object stores holding the placed
    inputs; each worker starts from a copy of its store's buffers and the
    driver merges every *new* live buffer (and the worker's peak-memory
    statistic) back afterwards, so
    :meth:`~repro.runtime.executor.MpmdExecutor.fetch` works unchanged.

    Raises:
        DeadlockError: when no worker reports progress for ``watchdog_s``
            seconds — the message aggregates each stuck actor's program
            counter and the resource it last blocked on.
        CommMismatchError: when pairwise-FIFO matching pairs a send and a
            recv that disagree on the logical value.
        RuntimeError: when a worker raises (the traceback is embedded) or
            dies without reporting.
    """
    n = len(programs)
    if len(stores) != n:
        raise ValueError(f"expected {n} stores, got {len(stores)}")
    # a window shorter than two heartbeat periods would flag healthy
    # compute-bound workers (first "hb" arrives after _HEARTBEAT_S)
    watchdog_s = max(watchdog_s, 2.0 * _HEARTBEAT_S)

    ctx = _mp.get_context("spawn")
    pairs, groups = _scan_programs(programs)
    data_qs = {pair: ctx.Queue() for pair in pairs}
    ack_qs = {pair: ctx.Queue() for pair in pairs} if comm_mode is CommMode.SYNC else {}
    coll: dict[tuple[int, ...], tuple] = {}
    for group in groups:
        barrier = ctx.Barrier(len(group))
        gather_q = ctx.Queue()
        result_qs = {r: ctx.Queue() for r in group if r != group[0]}
        coll[group] = (barrier, gather_q, result_qs)
    ctrl = ctx.Queue()
    epoch = time.monotonic()

    procs: list = []
    try:
        for rank in range(n):
            spec = _WorkerSpec(
                rank=rank,
                program=list(programs[rank]),
                buffers={
                    uid: (buf.value, buf.nbytes, buf.pinned)
                    for uid in stores[rank].live_refs()
                    for buf in [stores[rank].get(BufferRef(uid))]
                },
                comm_mode=comm_mode,
                shm_threshold=shm_threshold,
                epoch=epoch,
                codegen_actor=codegen_actor,
                faults=(
                    fault_plan.for_rank(rank, generation)
                    if fault_plan is not None
                    else None
                ),
            )
            send_qs = {d: q for (s, d), q in data_qs.items() if s == rank}
            recv_qs = {s: q for (s, d), q in data_qs.items() if d == rank}
            ack_wait = {d: q for (s, d), q in ack_qs.items() if s == rank}
            ack_send = {s: q for (s, d), q in ack_qs.items() if d == rank}
            my_coll = {g: c for g, c in coll.items() if rank in g}
            p = ctx.Process(
                target=_worker_main,
                args=(spec, send_qs, recv_qs, ack_wait, ack_send, my_coll, ctrl),
                name=f"mpmd-actor-{rank}",
                daemon=True,
            )
            try:
                p.start()
            except Exception as e:
                raise TypeError(
                    f"engine='mp' could not ship actor {rank}'s program to a "
                    "spawn-context worker; task payloads must be pickle-clean "
                    f"(offender: {e})"
                ) from e
            procs.append(p)

        return _drive(procs, ctrl, data_qs, stores, watchdog_s, n)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - stubborn child
                p.kill()
                p.join(timeout=5.0)
        coll_qs = [
            q
            for _, gather_q, result_qs in coll.values()
            for q in (gather_q, *result_qs.values())
        ]
        all_qs = [*data_qs.values(), *coll_qs, ctrl]
        # drain in a bounded daemon thread: a message truncated by
        # terminate() can make a queue read block forever, and cleanup
        # must never convert a reported failure into a hang.  Closing the
        # queues below unsticks (OSError) a drain still in flight.
        drain = threading.Thread(
            target=_reclaim_in_flight, args=(all_qs,), daemon=True
        )
        drain.start()
        drain.join(timeout=5.0)
        # drop queue feeder threads promptly
        for q in all_qs:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - already closed
                pass


def _reclaim_in_flight(queues: Sequence[Any]) -> None:
    """Unlink shared-memory segments still sitting in any queue."""
    for q in queues:
        while True:
            try:
                msg = q.get_nowait()
            except (_queue.Empty, OSError, ValueError):
                break
            _discard_payload(msg)


def _drive(procs, ctrl, data_qs, stores, watchdog_s, n) -> ExecutionResult:
    """Collect worker reports; enforce the no-progress watchdog."""
    states: dict[int, tuple[int, str, str]] = {}  # rank -> (pc, note, label)
    pcs: dict[int, int] = {}
    hello: set[int] = set()
    results: dict[int, dict] = {}
    last_progress = time.monotonic()

    while len(results) < n:
        grace = watchdog_s if len(hello) == n else max(watchdog_s, _SPAWN_GRACE_S)
        try:
            msg = ctrl.get(timeout=0.2)
        except _queue.Empty:
            dead = [
                rank
                for rank, p in enumerate(procs)
                if rank not in results and not p.is_alive()
            ]
            if dead:
                # the final done/error report may still be in the pipe
                # (the worker can flush and exit between our poll and the
                # liveness check) — give it one beat before declaring a
                # silent death
                try:
                    msg = ctrl.get(timeout=1.0)
                except _queue.Empty:
                    p = procs[dead[0]]
                    raise RuntimeError(
                        f"mp worker for actor {dead[0]} died without "
                        f"reporting (exitcode {p.exitcode})"
                    ) from None
            elif time.monotonic() - last_progress > grace:
                _raise_deadlock(procs, states, pcs, results, watchdog_s)
                continue  # pragma: no cover - _raise_deadlock raises
            else:
                continue
        last_progress = time.monotonic()
        kind = msg[0]
        if kind == "hello":
            hello.add(msg[1])
        elif kind == "hb":
            _, rank, pc = msg
            pcs[rank] = pc
            # clear a recorded wait only when the worker demonstrably
            # moved past it — the heartbeat thread can race a block and
            # emit one stale "hb" carrying the same pc as the "wait"
            if rank in states and states[rank][0] != pc:
                states.pop(rank)
        elif kind == "wait":
            _, rank, pc, note, label = msg
            pcs[rank] = pc
            states[rank] = (pc, note, label)
        elif kind == "done":
            msg[2]["buffers"] = _decode_buffers(msg[2]["buffers"])
            results[msg[1]] = msg[2]
            pcs[msg[1]] = msg[2]["pc"]  # fully retired
        elif kind == "error":
            _, rank, pc, err_kind, text = msg
            if err_kind == "mismatch":
                raise CommMismatchError(text)
            raise RuntimeError(
                f"mp worker for actor {rank} failed at [{pc}]:\n{text}"
            )
        else:  # pragma: no cover - future-proofing
            raise RuntimeError(f"unknown control message {msg!r}")

    return _merge_results(results, stores, n)


def _merge_results(
    results: dict[int, dict], stores: Sequence[ObjectStore], n: int
) -> ExecutionResult:
    """Merge per-worker reports into one :class:`ExecutionResult`.

    New live buffers (each report's ``"buffers"``, already decoded by
    the driver loop that received it) and the peak-memory statistic land
    back in the driver-side ``stores``; the wall-clock timeline is
    rebased to the first executed instruction.  Shared by the one-shot
    driver above and the persistent
    :class:`~repro.runtime.pool.ActorPool`, which calls this once per
    completed submission.
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

    # rebase to the first executed instruction: interpreter start-up
    # (spawn + import, hundreds of ms per worker) is driver overhead, not
    # part of the program's measured makespan — callers timing the whole
    # dispatch still see it on their own wall clock
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


def _raise_deadlock(procs, states, pcs, results, watchdog_s) -> None:
    stuck = [rank for rank in range(len(procs)) if rank not in results]
    raise _deadlock_error(stuck, range(len(procs)), states, pcs, watchdog_s)


def _deadlock_error(
    stuck_ranks, all_ranks, states, pcs, watchdog_s, context: str = "mp run"
) -> DeadlockError:
    """Build the watchdog diagnostic: one line per stuck actor (its last
    program counter and blocked resource) plus the aggregated counters.
    Shared by the one-shot driver and the persistent pool."""
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
        f"{context} made no progress for {watchdog_s:.1f}s "
        "(watchdog expired; workers terminated):\n"
        + "\n".join(lines)
        + f"\naggregated per-actor program counters: {{{counters}}}"
    )
