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

- **Ship once.**  A program set — with its compile-time constants — is
  pickled to the workers a single time and cached worker-side under a
  program key; every later submission of the same programs sends only
  the key (:attr:`ship_count` counts actual shipments, so tests can
  assert the cache hit).  Many independent compiled steps multiplex one
  warm mesh.  The pickling happens inside the first :meth:`submit`, so a
  program that is not pickle-clean raises there and the pool lives on.

- **Resident step state.**  A worker keeps what its previous run
  produced until its next run starts.  :meth:`submit` sends an input as
  a *reference* (a uid, no bytes) when the value is an output the same
  rank produced in the immediately preceding submission of this pool —
  the training loop ``state, loss = step(state, batch)`` — and by value
  otherwise: the first step, a state object kept from an older step, a
  value another rank or another pool produced, a submission that raced a
  concurrent submitter, a respawned pool.  Outputs come back read-only,
  each over a private owner that records where it is resident
  (:func:`repro.runtime.mp._resident`), so a reference can never stand
  for bytes the user has since changed.  :attr:`resident_hits`,
  :attr:`resident_misses` and :attr:`input_bytes` count what the cache
  did.

- **Step stream.**  :meth:`submit` enqueues a step — per-rank input
  buffers, the program key and the run's ``comm_mode`` — and returns a
  :class:`PoolFuture` immediately.  Workers execute submissions in FIFO
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

- **One slab per message, per-submission shm accounting.**  The arrays
  of a ``run`` command or a ``done`` report travel as one slab with an
  offset/shape/dtype table (:func:`repro.runtime.mp._encode_buffers`):
  one ``multiprocessing.shared_memory`` segment at or above
  ``shm_threshold`` bytes, one inline blob below.  Every segment is
  consumed within its own submission — inputs when the worker starts
  the step, in-flight transfers by the pairwise-matching drain, results
  when the driver receives the report — so a long-lived pool returns to
  its segment baseline after every step.  Only an abnormal stop (crash,
  deadlock, forced shutdown) runs the bulk drain-and-unlink reclaim,
  then unlinks by name every segment left under the pool's tag — those
  a terminated process was writing, or had read and not yet consumed.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import time
import traceback
import weakref
from multiprocessing.connection import wait as _wait
from typing import Any, NamedTuple, Sequence

import multiprocessing as _mp

from repro.runtime.executor import (
    CommMismatchError,
    CommMode,
    ExecutionResult,
    PoolClosedError,
    WorkerDiedError,
    WorkerTaskError,
)
from repro.runtime.instructions import BufferRef, Instruction
from repro.runtime.mp import (
    DEFAULT_SHM_THRESHOLD,
    DEFAULT_WATCHDOG_S,
    _DRIVER,
    _HEARTBEAT_S,
    _SPAWN_GRACE_S,
    _Channel,
    _Inbox,
    _Resident,
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
)
from repro.runtime.store import ObjectStore

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
    refs: dict  # uid -> (uid in the worker's resident generation, nbytes, pinned)
    comm_mode: CommMode
    shm_threshold: int
    epoch: float


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
    segments it creates.  One :class:`~repro.runtime.mp._Worker`
    is built per *run* (fresh posted-receive state; an object store
    seeded with the command's by-value inputs, the values it references
    in the previous run's outputs, and the program's shipped constants)
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
    peers = {dst: _Channel(conn) for dst, conn in writers.items()}
    ctrl = peers.pop(_DRIVER)
    shm_prefix = None if pool_tag is None else f"{pool_tag}_{rank}"
    try:
        inbox = _Inbox(readers)
        status = _Status(rank, ctrl)
        status.start()
        programs: dict[str, _Ship] = {}
        # what the previous run produced, uid -> (value, nbytes, pinned):
        # the one generation a later command may reference instead of
        # carrying the bytes again
        resident: dict[str, tuple] = {}
        ctrl.put(("hello", rank))
        while True:
            cmd = inbox.get(_CMD, _DRIVER)
            if cmd is None:
                return
            if isinstance(cmd, bytes):  # a _Ship, pickled by _ensure_shipped
                ship = pickle.loads(cmd)
                programs[ship.key] = ship
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
            for uid, (held, nbytes, pinned) in cmd.refs.items():
                buffers[uid] = (resident[held][0], nbytes, pinned)
            for uid, (value, nbytes) in shipped.constants.items():
                buffers[uid] = (value, nbytes, True)
            # what the command did not reference goes before the run
            # starts: the high-water mark stays inputs + outputs
            resident = {}
            worker = status.worker = _Worker(
                rank, shipped.program, buffers, cmd, inbox, peers, ctrl,
                faults, shm_prefix,
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
            ctrl.put(("sub", sid, ("done", rank, result)))
            resident = worker.outputs
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
    submission's failure).  ``stores`` are the driver-side object stores
    the result's new buffers were merged into.
    """

    def __init__(self, sub_id: int, stores: Sequence[ObjectStore]):
        self.sub_id = sub_id
        self.stores = stores
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
    __slots__ = ("sid", "stores", "future", "results")

    def __init__(self, sid: int, stores, future: PoolFuture):
        self.sid = sid
        self.stores = stores
        self.future = future
        self.results: dict[int, dict] = {}


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
    dead processes left under ``pool_tag``, then close every pipe end
    the driver holds."""
    _reclaim_in_flight(read_ends)
    _reclaim_segments(pool_tag)
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

    Counters (cumulative over the pool's lifetime):

    - ``ship_count``: program sets actually pickled to the workers.
    - ``submit_count``: submissions accepted.
    - ``resident_hits``: input buffers sent as a reference to a value the
      worker still held from its previous run.
    - ``resident_misses``: input buffers that a pool had returned earlier
      but that travelled by value again — a stale generation, another
      rank's or another pool's output.  Fresh data (a batch, the first
      step's state) is neither a hit nor a miss.
    - ``input_bytes``: ndarray bytes ``submit`` put into ``run``
      commands; the once-per-program ship is not counted.
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
        # stamped into every output this pool returns (``_Resident.origin``)
        self._token = object()
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
            self._cmd.append(_Channel(w))
            r, writers[rank][_DRIVER] = _pipe(ctx)
            self._ctrl.append(r)
            for dst in range(n_actors):
                if dst != rank:
                    readers[dst][rank], writers[rank][dst] = _pipe(ctx)
        self._procs = []
        for rank in range(n_actors):
            p = ctx.Process(
                target=_pool_worker_main,
                args=(rank, readers[rank], writers[rank], fault_plan, generation,
                      self._pool_tag),
                name=f"mpmd-pool-actor-{rank}",
                daemon=True,
            )
            p.start()
            self._procs.append(p)
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
        stores: Sequence[ObjectStore] | None = None,
        *,
        comm_mode: CommMode = CommMode.ASYNC,
        program_key: str | None = None,
    ) -> PoolFuture:
        """Enqueue one step on the warm mesh; returns immediately.

        Args:
            programs: one instruction stream per rank.  The same *object*
                submitted again hits the worker-side program cache (no
                re-pickle); distinct objects are shipped under fresh keys.
            stores: driver-side object stores holding the placed inputs
                (fresh ones are created when omitted — read them back via
                ``future.stores``).  New live buffers merge into them when
                the step completes.
                Buffers placed as ``constant`` belong to the programs,
                not the step: the values present the first time this
                ``programs`` object is submitted travel with the ship
                message, and no ``run`` command carries those uids again.
            comm_mode: point-to-point semantics of this step's run.
            program_key: readable prefix for the program's cache key
                (diagnostics only; identity still keys the cache).

        Raises:
            RuntimeError: the pool is shut down or died (worker crash,
                deadlock, protocol error — the cause is embedded).
        """
        if len(programs) != self.n_actors:
            raise ValueError(
                f"expected {self.n_actors} programs, got {len(programs)}"
            )
        with self._lock:
            self._check_accepting()
            if stores is None:
                stores = [ObjectStore(i) for i in range(self.n_actors)]
            elif len(stores) != self.n_actors:
                raise ValueError(
                    f"expected {self.n_actors} stores, got {len(stores)}"
                )
            key, constants = self._ensure_shipped(programs, program_key, stores)
            sid = self._next_sid
            self._next_sid += 1
            future = PoolFuture(sid, stores)
            self._subs[sid] = _Submission(sid, stores, future)
            self.submit_count += 1
            self._last_progress = time.monotonic()
            epoch = time.monotonic()
            # the generation each worker holds when it reaches this
            # command: submissions run in sid order on every rank
            for rank in range(self.n_actors):
                held = (self._token, sid - 1, rank)
                store = stores[rank]
                values, refs = {}, {}
                for uid in store.live_refs():
                    if uid in constants[rank]:
                        continue  # the worker has it since the ship
                    buf = store.get(BufferRef(uid))
                    owner = getattr(buf.value, "base", None)
                    if isinstance(owner, _Resident):
                        if owner.origin[:3] == held:
                            refs[uid] = (owner.origin[3], buf.nbytes, buf.pinned)
                            continue
                        self.resident_misses += 1
                    values[uid] = (buf.value, buf.nbytes, buf.pinned)
                enc = _encode_buffers(values, self.shm_threshold, f"{self._pool_tag}_d")
                self.resident_hits += len(refs)
                self.input_bytes += enc.nbytes
                self._cmd[rank].put(
                    (_CMD,
                     _Run(sid, key, enc, refs, comm_mode, self.shm_threshold, epoch))
                )
        return future

    def _check_accepting(self) -> None:
        if self._failure is not None:
            raise PoolClosedError(
                f"ActorPool is dead ({self._failure}); spawn a new pool"
            ) from self._failure
        if self._closing or self._closed:
            raise RuntimeError("ActorPool is shut down; spawn a new pool")

    def _ensure_shipped(self, programs, program_key: str | None, stores):
        """Ship ``programs`` — with the constants placed in ``stores`` —
        to every worker unless already cached there.  Returns the cache
        key and, per rank, the uids that went with the ship.

        Every rank's :class:`_Ship` is pickled before any of them is
        sent: a program that is not pickle-clean raises here with no
        worker holding part of the set, and the pool lives on."""
        pid = id(programs)
        entry = self._program_keys.get(pid)
        if entry is not None:
            return entry[0], entry[2]
        base = "prog" if program_key is None else str(program_key)
        key = f"{base}#{self.ship_count}"
        shipped, blobs = [], []
        for rank, store in enumerate(stores):
            held = ((uid, store.get(BufferRef(uid))) for uid in store.live_refs())
            consts = {uid: (b.value, b.nbytes) for uid, b in held if b.constant}
            shipped.append(frozenset(consts))
            try:
                blobs.append(pickle.dumps(_Ship(key, list(programs[rank]), consts)))
            except Exception as e:
                raise TypeError(
                    f"engine='mp' could not ship actor {rank}'s program to a "
                    "spawn-context worker; task payloads must be pickle-clean "
                    f"(offender: {e})"
                ) from e
        for chan, blob in zip(self._cmd, blobs):
            chan.put((_CMD, blob))
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
        if self._closing or self._closed or self._failure is not None:
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
            result["buffers"] = _decode_buffers(
                result["buffers"], origin=(self._token, sid, rank)
            )
            self._pcs[rank] = result["pc"]
            self._states.pop(rank, None)
            completed = None
            with self._lock:
                sub = self._subs.get(sid)
                if sub is not None:
                    sub.results[rank] = result
                    if len(sub.results) == self.n_actors:
                        completed = self._subs.pop(sid)
            if completed is not None:
                try:
                    merged = _merge_results(
                        completed.results, completed.stores, self.n_actors
                    )
                except BaseException as e:
                    self._fail(e)
                    # out of ``_subs`` already, so ``_fail`` did not finish it
                    completed.future._finish(exc=e)
                    return True
                completed.future._finish(result=merged)
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
        _terminate_procs(self._procs)
        _cleanup_pipes(*self._pipe_ends, self._pool_tag)
        self._stop.set()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Gracefully stop the pool.

        Pending submissions run to completion first (the shutdown command
        queues behind them on each worker's command pipe); workers then
        exit, processes are joined (terminated past ``timeout``), and the
        pipes are drained and closed.  Idempotent, and safe to call on a
        pool that already died.
        """
        with self._lock:
            if self._closed:
                return
            already_dead = self._failure is not None
            self._closing = True
            if not already_dead:
                for chan in self._cmd:
                    chan.put((_CMD, None))
        if not already_dead:
            deadline = time.monotonic() + timeout
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
