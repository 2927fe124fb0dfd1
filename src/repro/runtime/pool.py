"""The process-per-rank runtime's driver: a mesh of actor processes
serving step streams.

The paper's runtime (and its PipeDream-style lineage) assumes
*long-lived* actors that amortise spawn and program shipping across
thousands of steps.  :class:`ActorPool` is that runtime, and the only
driver ``engine="mp"`` has — a cold start is a pool that lives for one
step.  What runs inside each process (the instruction interpreter, the
inbox routing, the shared-memory transport) is :mod:`repro.runtime.mp`.

- **Spawn once.**  ``ActorPool(n)`` starts one spawn-context OS process
  per rank at construction and keeps it alive until :meth:`shutdown`.
  All IPC plumbing — one pipe per directed pair: rank → rank, driver →
  rank for commands, rank → driver for reports — is created up front and
  lives for the pool's lifetime; a worker is handed only its own ends,
  each message is written by the thread that sends it and read by the
  thread that waits for it (:class:`repro.runtime.mp._Channel`), and the
  pool owns no lock or semaphore that crosses a process boundary.

- **Spawn defaults.**  Each rank starts with a BLAS/OpenMP thread
  budget of ``cpu_count // n_actors`` and a glibc heap that keeps the
  pages its warm steps' numpy temporaries reuse instead of trimming and
  re-faulting them every task (:func:`_spawn_defaults`; a variable the
  user set wins, and the driver keeps the user's allocator).

- **Ship once.**  A program set — with its compile-time constants, the
  inputs its first :meth:`submit` marks ``constant`` — is pickled to the
  workers a single time and cached worker-side under a program key;
  every later submission of the same programs sends only the key and
  none of those inputs (:attr:`ship_count` counts actual shipments, so
  tests can assert the cache hit).  Many independent compiled steps multiplex one
  warm mesh.  The pickling happens inside the first :meth:`submit`, so a
  program that is not pickle-clean raises there and the pool lives on.

- **Step state stays on the ranks.**  Every array output of a
  submission comes back as a read-only
  :class:`~repro.runtime.store.RemoteArray` handle (shape, dtype and
  aval without a fetch; ``np.asarray`` reads it).  A rank keeps an
  output instead of sending it home when the traffic says it will be
  fed back: its previous generation — the same output of the previous
  submission — came back to this rank by reference and to no rank by
  value.  That is the loop-carried weights and Adam moments of
  ``state, loss = step(state, batch)``; the losses, anything another
  rank reads (a tied embedding), and the whole first step still come
  home in the ``done`` report.  The rank holds a kept value until the
  driver drops its handle — the release rides the next command to the
  rank — and an output that went home until its next run starts.
  Reading an unread handle pulls it, with every other unread handle of
  its rank and submission, in one round trip (``_Fetch``);
  :meth:`shutdown` pulls all of them first, so they stay readable
  after the pool; a handle lost unread with its pool raises
  :class:`~repro.runtime.executor.PoolClosedError` naming its rank and
  uid (``RemoteMesh(recovery=...)`` snapshots pull the state first).
  :meth:`submit` sends an input as a *reference* (a key, no bytes)
  whenever its rank holds the value; by value otherwise — fresh data,
  another rank's or another pool's output (pulled first), a value that
  went home more than one submission ago.  :attr:`resident_hits`,
  :attr:`resident_misses`, :attr:`input_bytes` and :attr:`held` count
  what the cache did.

- **Step stream.**  :meth:`submit` enqueues a step — one mapping of
  placed inputs per rank, walked once (no driver-side object store),
  the program key and the run's ``comm_mode`` — and returns a
  :class:`PoolFuture` immediately; the finished future holds each
  rank's outputs.  Workers execute submissions in FIFO
  order but are not barrier-synchronised across ranks: rank 0 can start
  step N+1's program (warmup) while rank P-1 is still finishing step N
  (cooldown), because cross-step messages queue behind cross-rank FIFO
  order exactly like cross-microbatch messages do within a step.

- **Pool-lifetime watchdog.**  The no-progress watchdog only arms while
  submissions are outstanding — an *idle* pool never trips it, however
  long it sits warm.  A genuinely stuck submission fails every pending
  future with a ``DeadlockError`` naming each actor's program counter
  and the resource it last blocked on.

- **Crash detection.**  The driver thread waits on every worker's
  control pipe and process sentinel at once, so a worker that dies
  (``kill -9``, OOM, a bug) is seen when it dies: what it wrote before
  dying is read first, then end-of-file fails all pending futures with
  a :class:`~repro.runtime.executor.WorkerDiedError` naming the actor
  and exit code instead of hanging the driver; the pool is then dead
  and a fresh one must be spawned (``RemoteMesh`` does this
  automatically).

- **One slab per message, in warm slots.**  The arrays of a ``run``
  command or a ``done`` report travel as one slab with an
  offset/shape/dtype table (:func:`repro.runtime.mp._encode_buffers`):
  one inline blob below ``shm_threshold`` bytes, else a shared-memory
  *slot* owned by the sending side of that channel — the driver's per
  rank for commands, each rank's for its reports (see "Shared-memory
  transport" in :mod:`repro.runtime.mp`).  A size that recurs from one
  submission to the next keeps its slot, mapped once on both sides and
  reused once the receiver has acknowledged its copy-out, so a steady
  training loop creates no segment (:attr:`segment_count` stays put);
  a one-off slab — the first step's state, a resident miss, a fetch — is
  unmapped on both sides after its copy-out, and a kept slot idle for a
  whole submission is retired, so the pool holds only what repeats.
  The receiver unlinks a slot's name when it first maps it, so a
  long-lived pool returns to its ``/dev/shm`` baseline after every step.
  An abnormal stop (crash, deadlock, forced shutdown) drains the pipes
  and unlinks what they name, unlinks by name every segment left under
  the pool's tag — those a terminated process was writing, or had read
  and not yet attached — and every stop unmaps the driver's slots.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing.connection import wait as _wait
from typing import Any, Mapping, NamedTuple, Sequence

import multiprocessing as _mp

import numpy as np

from repro.runtime.executor import (
    CommMismatchError,
    CommMode,
    ExecutionResult,
    PoolClosedError,
    WorkerDiedError,
    WorkerTaskError,
)
from repro.runtime.instructions import Instruction
from repro.runtime.mp import (
    DEFAULT_SHM_THRESHOLD,
    DEFAULT_WATCHDOG_S,
    _DRIVER,
    _HEARTBEAT_S,
    _SPAWN_GRACE_S,
    _Channel,
    _Inbox,
    _Slab,
    _Status,
    _Worker,
    _WorkerStop,
    _deadlock_error,
    _decode_buffers,
    _encode_buffers,
    _merge_results,
    _reclaim_in_flight,
    _reclaim_segments,
    _release_slots,
)
from repro.runtime.store import RemoteArray

__all__ = ["ActorPool", "PoolFuture"]

#: longest the driver thread sleeps with nothing to read (watchdog cadence).
_POLL_S = 0.2

#: route key for driver -> worker commands.  A command is a pickled
#: :class:`_Ship` (bytes), a :class:`_Run`, or ``None`` (shut down).
_CMD = ("cmd",)


class _Ship(NamedTuple):
    """One rank's program and compile-time constants, cached under ``key``."""

    key: str
    program: list
    constants: dict  # uid -> (value, nbytes); pinned inputs of every run


class _Run(NamedTuple):
    """One submission's work for one rank."""

    sid: int
    key: str
    buffers: _Slab  # the inputs sent by value
    refs: dict  # uid -> ((sid, uid) the worker holds, nbytes, pinned)
    comm_mode: CommMode
    shm_threshold: int
    epoch: float
    keep: frozenset = frozenset()  # output uids that stay on the rank
    release: tuple = ()  # (sid, uid) of held values whose handles are gone


class _Fetch(NamedTuple):
    """Send home the held values ``keys``; answered by a ``fetched`` report."""

    fid: int
    keys: tuple  # (sid, uid) per value
    release: tuple
    shm_threshold: int


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _pool_worker_main(
    rank: int, readers, writers, fault_plan=None, generation: int = 0,
    pool_tag: str | None = None,
) -> None:
    """Spawn entry point: serve ship/run commands until shutdown.

    ``readers`` / ``writers`` are this rank's ends of its pipes, by the
    rank at the other end (:data:`~repro.runtime.mp._DRIVER` for the
    command and control pipes); ``pool_tag`` prefixes the names of the
    shared-memory slots its channels own.  One
    :class:`~repro.runtime.mp._Worker` is built per *run* (fresh
    posted-receive state; an object store seeded with the command's
    by-value inputs, the values it references among those this rank
    holds, and the program's shipped constants)
    over the inbox, peer channels and status thread that live as long
    as this process, so cross-step channel order is exactly the
    concatenation of the per-step orders.

    ``fault_plan``/``generation`` arm deterministic chaos
    (:mod:`repro.runtime.faults`): faults match against this worker's
    0-based *run counter* — the pool's submission stream index — at the
    run's boundaries.  ``faults is None`` (no plan, or nothing targeting
    this rank+generation) is the entire steady-state cost.
    """
    sid = -1
    faults = (
        fault_plan.for_rank(rank, generation) if fault_plan is not None else None
    )
    step_idx = -1
    worker = None  # the run in progress: an exception report reads its pc
    shm_prefix = None if pool_tag is None else f"{pool_tag}_{rank}"
    peers = {dst: _Channel(conn, shm_prefix) for dst, conn in writers.items()}
    ctrl = peers.pop(_DRIVER)
    try:
        inbox = _Inbox(readers)
        status = _Status(rank, ctrl)
        status.start()
        programs: dict[str, _Ship] = {}
        # what this rank holds for the driver, (sid, uid) -> (value, nbytes,
        # pinned), so a later command can name it instead of carrying its
        # bytes: a kept output until the driver drops its handle, and an
        # output that went home until the next run starts
        held: dict[tuple, tuple] = {}
        home: list[tuple] = []  # the keys of the latter
        ctrl.put(("hello", rank))
        while True:
            cmd = inbox.get(_CMD, _DRIVER)
            if cmd is None:
                return
            if isinstance(cmd, bytes):  # a _Ship, pickled by _ensure_shipped
                ship = pickle.loads(cmd)
                programs[ship.key] = ship
                continue
            for key in cmd.release:
                held.pop(key, None)
            if isinstance(cmd, _Fetch):
                values = {key: held[key] for key in cmd.keys}
                ctrl.put(("fetched", cmd.fid,
                          _encode_buffers(values, cmd.shm_threshold, ctrl.slots)))
                del values
                continue
            sid = cmd.sid
            shipped = programs.get(cmd.key)
            if shipped is None:
                ctrl.put(
                    ("sub", sid, ("error", rank, -1, "protocol",
                     f"program {cmd.key!r} was never shipped to actor {rank}",
                     None, None))
                )
                return
            step_idx += 1
            if faults is not None:
                # kill-before / wedge fire here, with the step's encoded
                # inputs — and the transfers of a peer that started first,
                # already parked in the demultiplexer — discarded so an
                # injected death leaks no segments
                faults.begin_step(step_idx, payloads=(cmd.buffers, inbox.buf))
            buffers = _decode_buffers(cmd.buffers)
            for chan in (ctrl, *peers.values()):
                chan.slots.begin()
            for uid, (key, nbytes, pinned) in cmd.refs.items():
                buffers[uid] = (held[key][0], nbytes, pinned)
            for uid, (value, nbytes) in shipped.constants.items():
                buffers[uid] = (value, nbytes, True)
            # what went home and the command did not reference goes before
            # the run starts: the high-water mark stays inputs + outputs
            for key in home:
                held.pop(key, None)
            worker = status.worker = _Worker(
                rank, shipped.program, buffers, cmd, inbox, peers, ctrl, faults
            )
            del buffers
            result = worker._run_program()
            status.worker = None
            if faults is not None:
                # kill-after: the step fully executed but its report is
                # lost — recovery must replay work that already happened
                faults.end_step(
                    step_idx, payloads=(result["buffers"], inbox.buf),
                    flush=peers.values(),
                )
            kept = {uid for uid, *_ in result["kept"]}
            home = [(sid, uid) for uid in worker.outputs if uid not in kept]
            held.update(((sid, uid), v) for uid, v in worker.outputs.items())
            result["held"] = len(held)
            ctrl.put(("sub", sid, ("done", rank, result)))
            worker = result = None  # the run's inputs and its report
    except _WorkerStop:
        pass  # error already reported, or the driver is gone; so is the pool
    except BaseException:
        pc, text, task, instruction = -1, traceback.format_exc(), None, None
        if worker is not None:
            pc = worker.pc
            task, instruction = worker.where()
            if instruction is not None:  # else: past the last instruction
                what = instruction if task is None else f"task {task!r}"
                text = f"in {what}\n{text}"
        ctrl.put(
            ("sub", sid, ("error", rank, pc, "exception", text, task, instruction))
        )
    finally:
        ctrl.drain()  # the last report leaves with this thread, not the flusher


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class PoolFuture:
    """Handle to one submitted step.

    ``result()`` blocks for the merged
    :class:`~repro.runtime.executor.ExecutionResult` (or re-raises the
    submission's failure).  Once it succeeded, ``outputs[rank]`` is what
    rank produced, ``uid -> (value, nbytes, pinned)`` with every array a
    :class:`~repro.runtime.store.RemoteArray`, and ``peak_bytes[rank]``
    its store's peak (``None`` before).
    """

    def __init__(self, sub_id: int):
        self.sub_id = sub_id
        self.outputs: list[dict] | None = None
        self.peak_bytes: list[int] | None = None
        self._event = threading.Event()
        self._result: ExecutionResult | None = None
        self._exc: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ExecutionResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"pool submission {self.sub_id} not done after {timeout}s"
            )
        if self._exc is not None:
            raise self._exc
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"pool submission {self.sub_id} not done after {timeout}s"
            )
        return self._exc

    def _finish(self, result=None, exc=None) -> None:
        if self._event.is_set():  # pragma: no cover - double completion
            return
        self._result = result
        self._exc = exc
        self._event.set()


class _Submission:
    __slots__ = ("sid", "programs", "future", "results")

    def __init__(self, sid: int, programs, future: PoolFuture):
        self.sid = sid
        self.programs = programs
        self.future = future
        self.results: dict[int, dict] = {}


class _Generation:
    """What one rank produced in one submission, as the driver sees it:
    the :attr:`RemoteArray._source <repro.runtime.store.RemoteArray>` of
    each of its output handles.  ``unread`` are the handles whose value
    the rank still holds and nobody has pulled yet."""

    __slots__ = ("pool", "rank", "sid", "unread", "__weakref__")

    def __init__(self, pool: "ActorPool", rank: int, sid: int):
        self.pool = weakref.ref(pool)
        self.rank = rank
        self.sid = sid
        self.unread: dict[str, weakref.ref] = {}

    def pull(self, handle: RemoteArray):
        pool = self.pool()
        if pool is None:
            raise _lost(self, handle.uid, "its pool was dropped unclosed")
        pool._pull([self])
        return handle._value

    def release(self, uid: str) -> None:
        """``uid``'s handle is gone: the rank may drop the value (called
        from ``RemoteArray.__del__``, on any thread, so it takes no lock)."""
        self.unread.pop(uid, None)
        pool = self.pool()
        if pool is not None:
            pool._released[self.rank].append((self.sid, uid))


def _read_only(value: np.ndarray) -> np.ndarray:
    """A view nothing can write through: its owner is read-only, so the
    view's flag cannot be set back."""
    value.flags.writeable = False
    return value.view()


def _lost(gen: _Generation, uid: str, why) -> PoolClosedError:
    return PoolClosedError(
        f"engine='mp' output {uid!r} of actor {gen.rank} (submission "
        f"{gen.sid}) was never pulled and is lost with its pool ({why}); "
        "np.asarray it before the pool closes, or set a RecoveryPolicy"
    )


class _Fetching:
    """One outstanding :class:`_Fetch`: the handles it fills."""

    __slots__ = ("gen", "handles", "event", "exc")

    def __init__(self, gen: _Generation, handles: list):
        self.gen = gen
        self.handles = handles
        self.event = threading.Event()
        self.exc: BaseException | None = None


def _terminate_procs(procs) -> None:
    for p in procs:
        try:
            if p.is_alive():
                p.terminate()
        except Exception:  # pragma: no cover - already reaped
            pass
    for p in procs:
        try:
            p.join(timeout=5.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
        except Exception:  # pragma: no cover - already reaped
            pass


def _cleanup_pipes(read_ends, write_ends, pool_tag: str) -> None:
    """Reclaim the shm payloads still in flight and every segment the
    dead processes left under ``pool_tag``, unmap the report slots, then
    close every pipe end the driver holds (a command channel unmaps its
    slots)."""
    _reclaim_in_flight(read_ends)
    _reclaim_segments(pool_tag)
    _release_slots(pool_tag)
    for end in (*read_ends, *write_ends):
        try:
            end.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _pool_drive(pool_ref) -> None:
    """Driver-thread loop, holding the pool only weakly so an abandoned
    pool can be garbage-collected (its finalizer then reaps the worker
    processes and this loop exits)."""
    while True:
        pool = pool_ref()
        if pool is None or pool._stop.is_set():
            return
        try:
            fatal = pool._drive_once()
        except Exception:  # pragma: no cover - defensive: never kill silently
            fatal = True
            try:
                pool._fail(PoolClosedError(
                    "mp pool driver thread crashed:\n" + traceback.format_exc()
                ))
            except Exception:
                pass
        if fatal:
            return
        del pool  # drop the strong ref before the next wait


#: held while a pool's spawn defaults are in this process's environment, so
#: one pool's restore cannot strip another's before its ranks start
_SPAWN_LOCK = threading.Lock()


def _spawn_defaults(n_actors: int) -> dict[str, str]:
    """What a rank's environment gets unless the user set it; see :class:`ActorPool`."""
    budget = str(max(1, (os.cpu_count() or 1) // n_actors))
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {**dict.fromkeys(threads, budget), "MALLOC_MMAP_THRESHOLD_": str(4 << 20),
            "MALLOC_TRIM_THRESHOLD_": str(16 << 20)}


class ActorPool:
    """A warm mesh of per-rank actor processes serving step submissions.

    Args:
        n_actors: ranks in the mesh (one OS process each, spawned now).
        watchdog_s: no-progress window while submissions are outstanding
            (an idle pool never trips it); clamped to at least two worker
            status ticks, below which healthy compute-bound workers would
            be flagged (the first "hb" arrives after one tick) and a
            stuck one's wait (sent at its second) would miss the report.
        shm_threshold: ndarray bytes at which payloads (inputs, transfers
            and results) switch to shared-memory segments.
        fault_plan: optional :class:`repro.runtime.faults.FaultPlan`
            armed in the workers at spawn (deterministic chaos testing).
        generation: which pool generation this is (0-based spawn count of
            the owning mesh) — faults fire only in the generation they
            name, so a respawned pool does not re-trip the fault that
            killed its predecessor.

    A pool that failed (deadlock, worker death, protocol error) is dead:
    every pending future carries the failure and later ``submit`` calls
    raise.  Spawn a new pool to continue —
    :class:`~repro.core.api.RemoteMesh` does so automatically.

    Each rank is spawned with ``OPENBLAS`` / ``OMP`` / ``MKL_NUM_THREADS``
    = ``max(1, cpu_count // n_actors)``, so the ranks' BLAS pools do not
    oversubscribe the cores, and glibc's ``MALLOC_MMAP_THRESHOLD_`` = 4 MiB
    and ``MALLOC_TRIM_THRESHOLD_`` = 16 MiB, so its heap keeps the pages
    of the numpy temporaries a warm step frees and takes again instead of
    page-faulting them in every task (arrays of 4 MiB or more still go
    back to the OS).  A variable set in the parent's environment wins,
    and the parent's own environment and allocator are left as they were.

    Counters (cumulative over the pool's lifetime):

    - ``ship_count``: program sets actually pickled to the workers.
    - ``submit_count``: submissions accepted.
    - ``resident_hits``: input buffers sent as a reference to a value the
      worker held: one it kept, or one of its previous run's outputs.
    - ``resident_misses``: output handles that travelled by value — one
      that went home more than a submission ago, another rank's or
      another pool's output.  Fresh data (a batch, the first step's
      state) is neither a hit nor a miss.
    - ``input_bytes``: ndarray bytes ``submit`` put into ``run``
      commands; the once-per-program ship is not counted.
    - ``segment_count``: shared-memory segments the driver and the ranks
      created (a rank's count arrives with its ``done`` report).  A
      training loop stops adding to it once its slots are warm.
    """

    def __init__(
        self,
        n_actors: int,
        *,
        watchdog_s: float | None = None,
        shm_threshold: int | None = None,
        fault_plan: Any = None,
        generation: int = 0,
    ):
        n_actors = int(n_actors)
        if n_actors < 1:
            raise ValueError(f"n_actors must be >= 1, got {n_actors}")
        self.n_actors = n_actors
        self.watchdog_s = max(
            DEFAULT_WATCHDOG_S if watchdog_s is None else float(watchdog_s),
            2.0 * _HEARTBEAT_S,
        )
        self.shm_threshold = int(
            DEFAULT_SHM_THRESHOLD if shm_threshold is None else shm_threshold
        )

        # -- submission state (driver + submitter threads, under _lock) --
        self._lock = threading.RLock()
        self._subs: dict[int, _Submission] = {}
        self._next_sid = 0
        self._failure: BaseException | None = None
        self._closing = False
        self._stopping = False  # the ranks were told to exit: an exit is no death
        self._closed = False
        self._stop = threading.Event()

        # -- program cache bookkeeping (driver side) --
        # id(programs) -> (key, strong ref, per-rank uids of the shipped constants);
        # the strong ref pins the list so a recycled id can never alias a
        # different program set
        self._program_keys: dict[int, tuple[str, Any, list[frozenset]]] = {}
        #: distinct program sets actually pickled to the workers — a
        #: resubmission that hits the worker-side cache does not bump it.
        self.ship_count = 0
        #: total submissions accepted over the pool's lifetime.
        self.submit_count = 0
        # residency counters, see the class docstring
        self.resident_hits = 0
        self.resident_misses = 0
        self.input_bytes = 0
        # segments each rank has made, as of its latest report
        self._rank_segments = [0] * n_actors
        # values each rank holds for the driver, as of its latest report
        self._rank_held = [0] * n_actors
        # per rank, (sid, uid) of kept values whose handles are gone; they
        # ride the next command to the rank (appended from any thread)
        self._released = [deque() for _ in range(n_actors)]
        # generations with kept outputs, for close() to pull what is unread
        self._generations: weakref.WeakSet = weakref.WeakSet()
        self._fetches: dict[int, _Fetching] = {}
        self._next_fid = 0
        # prefixes the name of every segment this pool's processes create
        # (``mp._new_segment``), so an abnormal stop unlinks them by name
        self._pool_tag = f"psm_{secrets.token_hex(4)}"

        # -- watchdog / diagnostics (driver thread only) --
        self._hello: set[int] = set()
        self._states: dict[int, tuple[int, str, str]] = {}
        self._pcs: dict[int, int] = {}
        self._last_progress = time.monotonic()

        # -- processes & pipes: one per directed pair; see mp's "Channels" --
        ctx = _mp.get_context("spawn")
        readers = [{} for _ in range(n_actors)]  # rank -> {source: read end}
        writers = [{} for _ in range(n_actors)]  # rank -> {destination: write end}
        self._cmd = []  # rank -> the _Channel its commands go out on
        self._ctrl = []  # rank -> read end of its control pipe
        for rank in range(n_actors):
            readers[rank][_DRIVER], w = _pipe(ctx)
            self._cmd.append(_Channel(w, f"{self._pool_tag}_d"))
            r, writers[rank][_DRIVER] = _pipe(ctx)
            self._ctrl.append(r)
            for dst in range(n_actors):
                if dst != rank:
                    readers[dst][rank], writers[rank][dst] = _pipe(ctx)
        self._procs = []
        # each unset default is in this process's environment only around the
        # spawns: a child copies it at start, before its allocator and the
        # BLAS (which unpickling its arguments loads) read it
        with _SPAWN_LOCK:
            unset = {k: v for k, v in _spawn_defaults(n_actors).items()
                     if k not in os.environ}
            os.environ.update(unset)
            try:
                for rank in range(n_actors):
                    p = ctx.Process(
                        target=_pool_worker_main,
                        args=(rank, readers[rank], writers[rank], fault_plan,
                              generation, self._pool_tag),
                        name=f"mpmd-pool-actor-{rank}",
                        daemon=True,
                    )
                    p.start()
                    self._procs.append(p)
            finally:
                for k in unset:
                    os.environ.pop(k, None)
        # only a worker may hold the write end of its control pipe: its
        # death is then an end-of-file here.  Every other end stays open
        # in the driver too — the read ends to reclaim what a dead pool
        # left in flight, the peer write ends so that a rank whose peer
        # died blocks (and is reaped with the pool) instead of reading
        # end-of-file and racing the diagnosis
        for ends in writers:
            ends.pop(_DRIVER).close()
        self._pipe_ends = (
            [*self._ctrl, *(c for ends in readers for c in ends.values())],
            [*self._cmd, *(c for ends in writers for c in ends.values())],
        )
        #: what the driver thread waits on -> the rank it belongs to
        self._waiting = {
            **{conn: rank for rank, conn in enumerate(self._ctrl)},
            **{p.sentinel: rank for rank, p in enumerate(self._procs)},
        }

        self._driver = threading.Thread(
            target=_pool_drive, args=(weakref.ref(self),),
            name="mpmd-pool-driver", daemon=True,
        )
        self._driver.start()
        # reap the workers if the pool is dropped without shutdown()
        self._finalizer = weakref.finalize(
            self, _pool_finalize, list(self._procs), *self._pipe_ends,
            self._pool_tag,
        )

    # -- introspection -----------------------------------------------------
    @property
    def pids(self) -> list[int]:
        """Worker process ids, by rank (chaos tests kill these)."""
        return [p.pid for p in self._procs]

    @property
    def segment_count(self) -> int:
        """Shared-memory segments the pool's processes have created —
        the driver's command slots plus each rank's as of its latest
        report.  Flat once a training loop's slots are warm."""
        return sum(c.slots.created for c in self._cmd) + sum(self._rank_segments)

    @property
    def held(self) -> list[int]:
        """Values each rank holds for the driver, as of its latest report:
        every output the rank kept whose handle is still alive (or whose
        release has not reached it yet), plus its last run's outputs
        that went home."""
        return list(self._rank_held)

    @property
    def inflight(self) -> int:
        """Submissions accepted but not yet completed."""
        with self._lock:
            return len(self._subs)

    @property
    def closed(self) -> bool:
        """True once the pool can no longer accept submissions."""
        return self._closed or self._closing or self._failure is not None

    def alive(self) -> bool:
        """All workers running and the pool accepting submissions."""
        return not self.closed and all(p.is_alive() for p in self._procs)

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.inflight} in flight"
        return f"ActorPool(n_actors={self.n_actors}, {state})"

    # -- submission --------------------------------------------------------
    def submit(
        self,
        programs: Sequence[Sequence[Instruction]],
        inputs: Sequence[Mapping[str, tuple]],
        *,
        comm_mode: CommMode = CommMode.ASYNC,
        program_key: str | None = None,
    ) -> PoolFuture:
        """Enqueue one step on the warm mesh; returns immediately.

        Args:
            programs: one instruction stream per rank.  The same *object*
                submitted again hits the worker-side program cache (no
                re-pickle); distinct objects are shipped under fresh keys.
            inputs: per rank, ``uid -> (value, nbytes, pinned, constant)``
                of the buffers placed there (the run's outputs come back
                in ``future.outputs``).  A ``constant`` belongs to the
                programs, not the step: those present the first time this
                ``programs`` object is submitted travel with the ship
                message, and no ``run`` command carries those uids again.
            comm_mode: point-to-point semantics of this step's run.
            program_key: readable prefix for the program's cache key
                (diagnostics only; identity still keys the cache).

        Raises:
            RuntimeError: the pool is shut down or died (worker crash,
                deadlock, protocol error — the cause is embedded).
        """
        n = self.n_actors
        if len(programs) != n or len(inputs) != n:
            raise ValueError(f"expected {n} programs and input mappings, got "
                             f"{len(programs)} and {len(inputs)}")
        entry = self._program_keys.get(id(programs))
        shipped = None if entry is None else entry[2]
        # one walk over the inputs, outside the lock: a value held by
        # another rank or pool is pulled here (the driver thread reads the
        # answer and takes the lock to finish a submission).  Whether a
        # handle that came home is still held depends on the sid below
        plans, consts = [], [{} for _ in range(n)]
        for rank, placed in enumerate(inputs):
            values, refs, home, pulled = {}, {}, [], []
            for uid, (value, nbytes, pinned, constant) in placed.items():
                if constant:
                    if shipped is None:
                        consts[rank][uid] = (value, nbytes)
                        continue
                    if uid in shipped[rank]:
                        continue  # the worker has it since the ship
                if type(value) is RemoteArray:
                    gen = value._source
                    if gen.rank == rank and gen.pool() is self:
                        if value._kept:
                            refs[uid] = ((gen.sid, value.uid), nbytes, pinned)
                        else:
                            home.append((uid, value, nbytes, pinned))
                        continue
                    pulled.append((gen, value.uid))
                    value = np.asarray(value)
                values[uid] = (value, nbytes, pinned)
            plans.append((values, refs, home, pulled))
        with self._lock:
            self._check_accepting()
            key, shipped = self._ensure_shipped(programs, program_key, consts)
            sid = self._next_sid
            self._next_sid += 1
            future = PoolFuture(sid)
            self._subs[sid] = _Submission(sid, programs, future)
            self.submit_count += 1
            self._last_progress = time.monotonic()
            epoch = time.monotonic()
            # each worker runs submissions in sid order, so when it reaches
            # this command it holds its kept outputs and what went home from
            # submission sid - 1 (that one's outputs are the "previous
            # generation": what the traffic below says about them decides
            # which of this run's outputs stay on the rank)
            prev = sid - 1
            by_value = {(gen.rank, uid) for plan in plans for gen, uid in plan[3]
                        if gen.sid == prev and gen.pool() is self}
            for rank, (values, refs, home, pulled) in enumerate(plans):
                for uid in consts[rank].keys() - shipped[rank]:  # shipped by another thread
                    values[uid] = (*consts[rank][uid], True)
                misses = len(pulled)
                for uid, value, nbytes, pinned in home:
                    if value._source.sid == prev:
                        refs[uid] = ((prev, value.uid), nbytes, pinned)
                    else:
                        misses += 1
                        values[uid] = (value._value, nbytes, pinned)
                chan = self._cmd[rank]
                chan.slots.begin()
                enc = _encode_buffers(values, self.shm_threshold, chan.slots)
                self.resident_hits += len(refs)
                self.resident_misses += misses
                self.input_bytes += enc.nbytes
                # an output stays on the rank when its previous generation
                # came back to this rank by reference and to no rank by value
                keep = frozenset(u for (s, u), _, _ in refs.values()
                                 if s == prev and (rank, u) not in by_value)
                chan.put(
                    (_CMD,
                     _Run(sid, key, enc, refs, comm_mode, self.shm_threshold, epoch,
                          keep, self._take_released(rank)))
                )
        return future

    def _take_released(self, rank: int) -> tuple:
        released, out = self._released[rank], []
        while released:
            out.append(released.popleft())
        return tuple(out)

    def _check_accepting(self) -> None:
        if self._failure is not None:
            raise PoolClosedError(
                f"ActorPool is dead ({self._failure}); spawn a new pool"
            ) from self._failure
        if self._closing or self._closed:
            raise RuntimeError("ActorPool is shut down; spawn a new pool")

    def _ensure_shipped(self, programs, program_key: str | None, consts):
        """Ship ``programs`` — with the constants ``consts[rank]``, uid ->
        (value, nbytes) — to every worker unless already cached there.
        Returns the cache key and, per rank, the uids that went with the
        ship.

        Every rank's :class:`_Ship` is pickled before any of them is
        sent: a program that is not pickle-clean raises here with no
        worker holding part of the set, and the pool lives on."""
        pid = id(programs)
        entry = self._program_keys.get(pid)
        if entry is not None:
            return entry[0], entry[2]
        base = "prog" if program_key is None else str(program_key)
        key = f"{base}#{self.ship_count}"
        blobs = []
        for rank, mine in enumerate(consts):
            try:
                blobs.append(pickle.dumps(_Ship(key, list(programs[rank]), mine)))
            except Exception as e:
                raise TypeError(
                    f"engine='mp' could not ship actor {rank}'s program to a "
                    "spawn-context worker; task payloads must be pickle-clean "
                    f"(offender: {e})"
                ) from e
        for chan, blob in zip(self._cmd, blobs):
            chan.put((_CMD, blob))
        shipped = [frozenset(mine) for mine in consts]
        # the strong reference pins the object so its id stays unique
        self._program_keys[pid] = (key, programs, shipped)
        self.ship_count += 1
        return key, shipped

    # -- driver thread -----------------------------------------------------
    def _drive_once(self) -> bool:
        """One wait on the control pipes and process sentinels; returns
        True when the pool is finished (failed or stopped) and the driver
        thread should exit."""
        try:
            ready = _wait(list(self._waiting), timeout=_POLL_S)
        except (OSError, ValueError):  # pipes closed under us: shutdown
            return True
        for obj in ready:
            rank = self._waiting.get(obj)
            # a sentinel says the process is gone: everything it wrote is
            # in the pipe, so read to end-of-file before calling it dead
            if rank is not None and self._read_ctrl(rank, obj is not self._ctrl[rank]):
                return True
        return not ready and self._maybe_fail_watchdog()

    def _read_ctrl(self, rank: int, to_eof: bool) -> bool:
        """Dispatch the next report on ``rank``'s control pipe — every
        report up to end-of-file with ``to_eof``.  End-of-file is the
        worker's exit: fatal for the pool unless it is shutting down."""
        conn = self._ctrl[rank]
        while True:
            try:
                msg = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):  # OSError: it died inside a write
                break
            if self._dispatch(msg):
                return True
            if not to_eof:
                return False
        proc = self._procs[rank]
        self._waiting.pop(conn, None)
        self._waiting.pop(proc.sentinel, None)
        if self._stopping or self._closed or self._failure is not None:
            return False
        proc.join(timeout=5.0)
        self._fail(WorkerDiedError(
            f"mp pool worker for actor {rank} died without reporting "
            f"(exitcode {proc.exitcode}); pending submissions failed",
            rank, proc.exitcode,
        ))
        return True

    def _dispatch(self, msg) -> bool:
        kind = msg[0]
        if kind == "hello":
            self._last_progress = time.monotonic()
            self._hello.add(msg[1])
        elif kind == "sub":
            _, sid, inner = msg
            return self._handle_sub(sid, inner)
        elif kind == "fetched":
            _, fid, slab = msg
            values = _decode_buffers(slab)
            with self._lock:
                fetch = self._fetches.pop(fid, None)
            if fetch is None:  # failed already: its waiter has been told
                return False
            for handle in fetch.handles:
                handle._value = _read_only(values[(fetch.gen.sid, handle.uid)][0])
                fetch.gen.unread.pop(handle.uid, None)
            fetch.event.set()
        else:  # pragma: no cover - future-proofing
            self._fail(RuntimeError(f"unknown pool control message {msg!r}"))
            return True
        return False

    def _handle_sub(self, sid: int, inner) -> bool:
        kind = inner[0]
        if kind == "wait":
            # not progress: the rank has sat in this block for a whole tick
            _, rank, pc, note, label = inner
            self._pcs[rank] = pc
            self._states[rank] = (pc, note, label)
            return False
        self._last_progress = time.monotonic()
        if kind == "hb":
            # the same thread sends both, in order: a heartbeat after a
            # wait means the rank moved past it
            _, rank, pc = inner
            self._pcs[rank] = pc
            self._states.pop(rank, None)
        elif kind == "done":
            _, rank, result = inner
            # decoded as each report lands, not at merge: rank 0's slab
            # is copied out while rank 1 is still finishing
            result["buffers"] = self._outputs(rank, sid, result)
            self._pcs[rank] = result["pc"]
            self._rank_segments[rank] = result["segments"]
            self._rank_held[rank] = result["held"]
            self._states.pop(rank, None)
            completed = None
            with self._lock:
                sub = self._subs.get(sid)
                if sub is not None:
                    sub.results[rank] = result
                    if len(sub.results) == self.n_actors:
                        completed = self._subs.pop(sid)
            if completed is not None:
                results, future = completed.results, completed.future
                try:
                    merged = _merge_results(results, completed.programs, self.n_actors)
                except BaseException as e:
                    self._fail(e)
                    # out of ``_subs`` already, so ``_fail`` did not finish it
                    future._finish(exc=e)
                    return True
                reports = [results[r] for r in range(self.n_actors)]
                future.outputs = [r["buffers"] for r in reports]
                future.peak_bytes = [r["peak_bytes"] for r in reports]
                future._finish(result=merged)
        elif kind == "error":
            _, rank, pc, err_kind, text, task, instruction = inner
            if err_kind == "mismatch":
                exc: BaseException = CommMismatchError(text)
            else:
                exc = WorkerTaskError(
                    f"mp pool worker for actor {rank} failed at [{pc}]:\n{text}",
                    rank, pc, task, instruction,
                )
            self._fail(exc)
            return True
        return False

    def _outputs(self, rank: int, sid: int, result: dict) -> dict:
        """A ``done`` report's outputs, uid -> (value, nbytes, pinned), with
        every array a :class:`RemoteArray`: a read-only copy of what came
        home, or a handle to what the rank kept."""
        gen = _Generation(self, rank, sid)
        out = _decode_buffers(result["buffers"])
        for uid, (value, nbytes, pinned) in out.items():
            if isinstance(value, np.ndarray):
                value = RemoteArray(value.shape, value.dtype, uid, gen, _read_only(value))
                out[uid] = (value, nbytes, pinned)
        for uid, shape, dtype, nbytes, pinned in result["kept"]:
            handle = RemoteArray(shape, np.dtype(dtype), uid, gen)
            gen.unread[uid] = weakref.ref(handle)
            out[uid] = (handle, nbytes, pinned)
        if result["kept"]:
            self._generations.add(gen)
        return out

    def _pull(self, generations, deadline: float | None = None) -> None:
        """Bring home every unread handle of ``generations``: one fetch per
        generation, all sent before any is waited for (until ``deadline``,
        a ``time.monotonic()`` value, when given)."""
        pending = []
        with self._lock:
            for gen in generations:
                handles = [h for h in (r() for r in list(gen.unread.values()))
                           if h is not None and h._value is None]
                if not handles:
                    continue
                if self._failure is not None or self._closed:
                    raise _lost(gen, handles[0].uid, self._failure or "it was shut down")
                fid = self._next_fid
                self._next_fid += 1
                fetch = self._fetches[fid] = _Fetching(gen, handles)
                self._cmd[gen.rank].put((_CMD, _Fetch(
                    fid, tuple((gen.sid, h.uid) for h in handles),
                    self._take_released(gen.rank), self.shm_threshold,
                )))
                pending.append(fetch)
        for fetch in pending:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not fetch.event.wait(wait):
                raise _lost(fetch.gen, fetch.handles[0].uid, "no answer before shutdown")
            if fetch.exc is not None:
                raise fetch.exc

    def _maybe_fail_watchdog(self) -> bool:
        with self._lock:
            outstanding = list(self._subs.values())
        if not outstanding or self._closing or self._failure is not None:
            return False
        grace = (
            self.watchdog_s
            if len(self._hello) == self.n_actors
            else max(self.watchdog_s, _SPAWN_GRACE_S)
        )
        if time.monotonic() - self._last_progress <= grace:
            return False
        stuck = [
            r for r in range(self.n_actors)
            if any(r not in s.results for s in outstanding)
        ]
        self._fail(_deadlock_error(
            stuck, range(self.n_actors), self._states, self._pcs,
            self.watchdog_s,
        ))
        return True

    # -- failure & shutdown ------------------------------------------------
    def _fail(self, exc: BaseException) -> None:
        """Pool-fatal: fail every pending future, reap the workers,
        reclaim in-flight shared memory.  Idempotent."""
        with self._lock:
            if self._failure is not None or self._closed:
                return
            self._failure = exc
            pending = list(self._subs.values())
            self._subs.clear()
        for sub in pending:
            sub.future._finish(exc=exc)
        self._fail_fetches(exc)
        _terminate_procs(self._procs)
        _cleanup_pipes(*self._pipe_ends, self._pool_tag)
        self._stop.set()

    def _fail_fetches(self, why) -> None:
        with self._lock:
            fetches = list(self._fetches.values())
            self._fetches.clear()
        for fetch in fetches:
            fetch.exc = _lost(fetch.gen, fetch.handles[0].uid, why)
            fetch.event.set()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Gracefully stop the pool.

        Pending submissions run to completion first, then every output
        handle still unread is pulled home (so it stays readable after
        the pool is gone); workers then exit, processes are joined
        (terminated past ``timeout``), and the pipes are drained and
        closed.  Idempotent, and safe to call on a pool that already died
        — its unread handles raise :class:`PoolClosedError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closing = True
            pending = [sub.future for sub in self._subs.values()]
        deadline = time.monotonic() + timeout
        if threading.current_thread() is not self._driver:
            for future in pending:
                future._event.wait(max(0.0, deadline - time.monotonic()))
            try:
                self._pull(list(self._generations), deadline)
            except PoolClosedError:
                pass  # died meanwhile, or too slow: the handles say so
        with self._lock:
            already_dead = self._failure is not None
            if not already_dead:
                self._stopping = True
                for chan in self._cmd:
                    chan.put((_CMD, None))
        if not already_dead:
            for p in self._procs:
                p.join(timeout=max(0.0, deadline - time.monotonic()))
            _terminate_procs(self._procs)
            # let the driver thread finish merging any final done reports
            quiet = time.monotonic() + 5.0
            while time.monotonic() < quiet:
                with self._lock:
                    if not self._subs:
                        break
                time.sleep(0.05)
        self._stop.set()
        if threading.current_thread() is not self._driver:
            self._driver.join(timeout=5.0)
        with self._lock:
            leftover = list(self._subs.values())
            self._subs.clear()
            self._closed = True
        if leftover:  # pragma: no cover - workers wedged during shutdown
            exc = PoolClosedError("ActorPool was shut down before completion")
            for sub in leftover:
                sub.future._finish(exc=exc)
        self._fail_fetches("it was shut down")
        _cleanup_pipes(*self._pipe_ends, self._pool_tag)
        self._finalizer.detach()

    close = shutdown

    def __enter__(self) -> "ActorPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def _pool_finalize(procs, read_ends, write_ends, pool_tag) -> None:
    """GC fallback for a pool dropped without shutdown(): reap the
    workers and reclaim whatever shared memory was still in flight."""
    _terminate_procs(procs)
    _cleanup_pipes(read_ends, write_ends, pool_tag)


def _pipe(ctx):
    """One directed pair's pipe, ``(read end, write end)``; the write end
    non-blocking (an open-file flag, so it holds in the worker too)."""
    r, w = ctx.Pipe(duplex=False)
    os.set_blocking(w.fileno(), False)
    return r, w
