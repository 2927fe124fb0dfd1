"""The process-per-rank transport: per-pair direct-write channels.

``test_mp_equivalence.py`` pins down what ``engine="mp"`` computes and
``test_mp_pool_lifecycle.py`` how a pool lives; this file pins down the
layer under both (``repro.runtime.mp._Channel`` / ``_Inbox`` / ``_Status``
and the driver thread of ``repro.runtime.pool``):

(a) a write never blocks because its reader is computing — the flood
    tests hang on a transport whose sender waits for pipe space;
(b) a dead rank or a closed pool leaves nothing behind — no blocked
    ``submit``, no semaphore, shm segment, child process or open fd;
(c) the watchdog still names every stuck actor's program counter and
    blocked channel although a wait is no longer announced when it
    starts, and a healthy loop sends the driver no status at all;
(d) what a worker wrote before dying is read before its death is acted on.

Every test runs under a hard SIGALRM cap: a transport test that hangs
must fail by its own cap, not by the CI job's.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import core
from repro.runtime import (
    ActorPool,
    BufferRef,
    CommMode,
    DeadlockError,
    DropMessage,
    FaultPlan,
    PoolClosedError,
    Recv,
    RunTask,
    Send,
    WorkerDiedError,
)
from repro.runtime.faults import KILL_EXIT_CODE
from repro.runtime.mp import (
    _HEARTBEAT_S,
    _Channel,
    _encode_buffers,
    _reclaim_in_flight,
)
from repro.runtime.pool import _pipe
from repro.runtime.store import ObjectStore
from tests.core.test_linear_backend import assert_bit_identical, make_problem
from tests.runtime.test_mp_pool_lifecycle import _settle_to, _shm_count

HARD_TIMEOUT_S = 120

WATCHDOG_S = 60.0

#: small watchdog for the tests that must trip it.
TRIP_WATCHDOG_S = 3.0


@pytest.fixture(autouse=True)
def hard_timeout():
    def boom(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(
            f"mp channel test exceeded the hard {HARD_TIMEOUT_S}s cap"
        )

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _nonblocking_pipe():
    r, w = _pipe(multiprocessing)  # as the pool makes them
    return r, _Channel(w)


# -- module-level task payloads (spawn needs pickles) ------------------------

FRAME = 1 << 16  # bytes per flood message
N_FLOOD = 64  # 64 x 64 KiB = 4 MiB


def _busy_half_second(vals):
    time.sleep(0.5)
    return [vals[0] + 1.0]


def _checksum(vals):
    # message i is filled with i (the two small ones with -1 and -2)
    return [np.array([float(v.flat[0]) for v in vals], np.float64)]


def _add_one(vals):
    return [vals[0] + 1.0]


def _flood_programs():
    """Rank 0 sends a small message, 4 MiB in 64 KiB messages and another
    small one to rank 1, which spends its first half second inside a task;
    then rank 0 needs a reply that rank 1 computes from all of them."""
    names = ["head", *(f"m{i}" for i in range(N_FLOOD)), "tail"]
    sizes = [64, *([FRAME] * N_FLOOD), 64]
    p0 = [Send(BufferRef(n), dst=1, key=n) for n in names]
    p0 += [
        Recv(BufferRef("reply"), src=1, key="reply", nbytes=8 * len(names)),
        RunTask("use", [BufferRef("reply")], [BufferRef("out")], fn=_add_one,
                meta={"out_nbytes": [8 * len(names)]}),
    ]
    p1 = [
        RunTask("busy", [BufferRef("x")], [BufferRef("y")], fn=_busy_half_second,
                meta={"out_nbytes": [16]}),
        *(Recv(BufferRef(n), src=0, key=n, nbytes=s) for n, s in zip(names, sizes)),
        RunTask("sum", [BufferRef(n) for n in names], [BufferRef("reply")],
                fn=_checksum, meta={"out_nbytes": [8 * len(names)]}),
        Send(BufferRef("reply"), dst=0, key="reply"),
    ]
    stores = [ObjectStore(0), ObjectStore(1)]
    fills = [-1.0, *map(float, range(N_FLOOD)), -2.0]
    for n, s, fill in zip(names, sizes, fills):
        stores[0].put(BufferRef(n), np.full(s // 4, fill, np.float32), s)
    stores[1].put(BufferRef("x"), np.zeros(4, np.float32), 16)
    return [p0, p1], stores, np.array(fills)


class TestNeverBlocks:
    def test_channel_put_returns_with_nobody_reading(self):
        """4 MiB into a 64 KiB pipe nobody reads: every ``put`` returns at
        once, and what is read afterwards is in the order it was put —
        across the fast path / backlog boundary in both directions."""
        r, chan = _nonblocking_pipe()
        try:
            sent = [("small", 0)]
            chan.put(sent[0])
            assert not chan._backlog  # fits: written by this thread, no flusher
            t0 = time.monotonic()
            for i in range(N_FLOOD):
                sent.append(("big", i, np.full(FRAME // 4, i, np.float32)))
                chan.put(sent[-1])
                sent.append(("small", i + 1))  # must queue behind the backlog
                chan.put(sent[-1])
            assert time.monotonic() - t0 < 5.0
            assert chan._backlog
            for want in sent:
                got = pickle.loads(r.recv_bytes())
                assert got[:2] == want[:2]
                if want[0] == "big":
                    np.testing.assert_array_equal(got[2], want[2])
            deadline = time.monotonic() + 5.0
            while chan._backlog and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not chan._backlog
            chan.put(("small", "again"))  # an empty backlog: the fast path again
            assert not chan._backlog
            assert pickle.loads(r.recv_bytes()) == ("small", "again")
        finally:
            chan.close()
            r.close()

    def test_concurrent_puts_keep_frames_whole_and_ordered(self):
        """A channel has one writing *process* but several writing threads
        (instruction thread and status thread on a control pipe,
        concurrent submitters on a command pipe) plus the flusher: more
        writers than cores, a tiny switch interval and a slow reader —
        every frame arrives whole and each writer's in its own order."""
        r, chan = _nonblocking_pipe()
        n_writers, n_each = 6, 120
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def writer(w):
                for i in range(n_each):
                    # every eighth message is larger than the pipe
                    size = (FRAME + 4096) // 4 if i % 8 == 0 else 16
                    chan.put((w, i, np.full(size, w * 1000 + i, np.int32)))

            threads = [threading.Thread(target=writer, args=(w,)) for w in range(n_writers)]
            for t in threads:
                t.start()
            nxt = [0] * n_writers
            for k in range(n_writers * n_each):
                w, i, arr = pickle.loads(r.recv_bytes())
                assert i == nxt[w]
                nxt[w] += 1
                assert arr.min() == arr.max() == w * 1000 + i
                if k % 50 == 0:
                    time.sleep(0.002)  # let backlogs build
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert nxt == [n_each] * n_writers and not chan._backlog
        finally:
            sys.setswitchinterval(old)
            chan.close()
            r.close()

    def test_channel_drain_blocks_until_the_backlog_is_written(self):
        r, chan = _nonblocking_pipe()
        try:
            for i in range(8):
                chan.put(np.full(FRAME // 4, i, np.float32))
            got = []
            reader = threading.Thread(
                target=lambda: got.extend(pickle.loads(r.recv_bytes()) for _ in range(8))
            )
            reader.start()
            chan.drain()
            assert not chan._backlog
            reader.join(timeout=30)
            assert [int(a[0]) for a in got] == list(range(8))
        finally:
            chan.close()
            r.close()

    @pytest.mark.parametrize("mode", [CommMode.ASYNC, CommMode.SYNC], ids=lambda m: m.name)
    def test_flooding_a_computing_rank(self, mode):
        """A rank inside a 0.5 s task is sent 4 MiB inline by a peer that
        then needs its reply.  In ASYNC the sender is through all 66 sends
        before the receiver's task ends (it did not wait for pipe space);
        in both modes the step completes and every message arrives in
        order (the pairwise key check would raise otherwise)."""
        programs, stores, fills = _flood_programs()
        pool = ActorPool(2, watchdog_s=WATCHDOG_S, shm_threshold=1 << 30)
        try:
            res = pool.submit(programs, stores, comm_mode=mode).result(timeout=60)
            np.testing.assert_array_equal(stores[0].get(BufferRef("out")).value, fills + 1.0)
            sends = [e for e in res.timeline if e.kind == "send" and e.actor == 0]
            busy = next(e for e in res.timeline if e.name == "busy")
            assert len(sends) == N_FLOOD + 2
            assert res.p2p_bytes == N_FLOOD * FRAME + 128 + 8 * (N_FLOOD + 2)
            if mode is CommMode.ASYNC:
                assert max(e.end for e in sends) < busy.end
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("mode", [CommMode.ASYNC, CommMode.SYNC], ids=lambda m: m.name)
    def test_mid_shaped_step_inline_through_the_pipes(self, mode):
        """The ``gpt_mid_mp2`` shape — ``Interleaved1F1B(2, 2)`` on
        ``engine="mp"`` with ``codegen_actor=True`` (accepted, no effect
        there), 128 KiB activations crossing in both directions — with
        shared memory switched off, so every activation is twice the size
        of the pipe it travels through.  Bit-identical to the event
        engine; a sender that waits for pipe space hangs here."""
        ts, params, batch = make_problem(4, n_mbs=4, mbsz=128, d=256)
        schedule = core.Interleaved1F1B(2, 2)
        want = core.RemoteMesh((2,), comm_mode=mode).distributed(
            ts, schedule=schedule
        )(params, batch)
        mesh = core.RemoteMesh(
            (2,), engine="mp", comm_mode=mode, codegen_actor=True,
            mp_watchdog_s=WATCHDOG_S, mp_shm_threshold=1 << 30,
        )
        baseline = _shm_count()
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got = None
            for _ in range(3):
                got = step(params, batch)
            assert_bit_identical(want, got)
            assert step.last_result.p2p_bytes >= 6 * 128 * 256 * 4
            assert _shm_count() <= baseline  # nothing went through a segment
        finally:
            mesh.close()


# -- (b) no orphaned state ----------------------------------------------------


def _long_sleep(vals):  # pragma: no cover - killed mid-sleep
    time.sleep(30.0)
    return [vals[0]]


def _one_rank(fn, nbytes=1 << 20):
    program = [[RunTask("t", [BufferRef("x")], [BufferRef("y")], fn=fn,
                        meta={"out_nbytes": [nbytes]})]]

    def stores():
        s = ObjectStore(0)
        s.put(BufferRef("x"), np.zeros(nbytes // 4, np.float32), nbytes)
        return [s]

    return program, stores


_CYCLES_SCRIPT = '''
import json, multiprocessing, os, sys
import multiprocessing.resource_tracker as rt

registered = []
_register = rt.register
def register(name, rtype):
    registered.append(rtype)
    _register(name, rtype)
rt.register = register

from repro import core
from repro.runtime import CommMode
from tests.core.test_linear_backend import make_problem

def fds():
    return len(os.listdir("/proc/self/fd"))

def shm():
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith("psm_"))

if __name__ == "__main__":
    ts, params, batch = make_problem(2, n_mbs=4)
    mesh = core.RemoteMesh((2, 2), engine="mp", comm_mode=CommMode[sys.argv[1]])
    step = mesh.distributed(ts, schedule=core.OneFOneB(2))
    shm_before = shm()
    step(params, batch)
    mesh.close()  # cycle 0 also starts the once-per-process helpers
    baseline = fds()
    for _ in range(int(sys.argv[2])):
        step(params, batch)  # the mesh respawns its pool
        mesh.close()
    print(json.dumps({
        "fds": [baseline, fds()],
        "children": [p.name for p in multiprocessing.active_children()],
        "shm": [s for s in shm() if s not in shm_before],
        "semaphores": registered.count("semaphore"),
        "generations": mesh._pool_generation,
    }))
'''


class TestNoOrphanedState:
    def test_submit_to_a_rank_that_just_died_never_blocks(self):
        """``kill -9`` mid-step, then ``submit`` 1 MiB of inline inputs
        before the driver thread could act on the death: the call returns
        (the dead rank's pipe takes what fits, the backlog the rest) and
        the future fails with the typed error; once the death is known,
        ``submit`` raises instead."""
        program, stores = _one_rank(_long_sleep)
        pool = ActorPool(1, watchdog_s=WATCHDOG_S, shm_threshold=1 << 30)
        try:
            first = pool.submit(program, stores())
            time.sleep(0.5)  # the step is inside its sleep
            with pool._lock:  # the driver thread cannot fail the pool yet
                os.kill(pool.pids[0], signal.SIGKILL)
                time.sleep(0.3)  # it has read end-of-file and wants the lock
                assert not pool.closed
                t0 = time.monotonic()
                raced = [pool.submit(program, stores()) for _ in range(2)]
                assert time.monotonic() - t0 < 5.0
            for fut in (first, *raced):
                exc = fut.exception(timeout=30)
                assert isinstance(exc, WorkerDiedError)
                assert (exc.rank, exc.exitcode) == (0, -signal.SIGKILL)
                assert "died without reporting" in str(exc)
            with pytest.raises(PoolClosedError, match="ActorPool is dead") as err:
                pool.submit(program, stores())
            assert isinstance(err.value.__cause__, WorkerDiedError)
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("mode", ["ASYNC", "SYNC"])
    def test_close_cycles_leave_nothing_behind(self, tmp_path, mode):
        """Spawn → one ``OneFOneB(2)`` step → ``close()``, twenty times in
        a fresh process: nothing on stderr (the ``resource_tracker: leaked
        semaphore`` warning cannot occur — the pool creates no semaphore),
        no shm segment, no child process, and the driver's open-fd count
        back where it was after the first cycle."""
        cycles = 20 if mode == "ASYNC" else 5
        script = tmp_path / "cycles.py"
        script.write_text(_CYCLES_SCRIPT)
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, str(script), mode, str(cycles)],
            capture_output=True, text=True, env=env, timeout=HARD_TIMEOUT_S - 10,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["generations"] == cycles + 1
        assert report["semaphores"] == 0
        assert report["children"] == []
        assert report["shm"] == []
        assert report["fds"][1] == report["fds"][0]

    def test_reclaim_reads_what_is_there_and_never_waits(self):
        """The abnormal-stop drain: a whole frame naming a segment is
        unlinked, the frame cut short behind it is dropped, and the read
        returns although the write end is still open."""
        r, chan = _nonblocking_pipe()
        try:
            payload = _encode_buffers({"k": (np.ones(64, np.float32), 256, False)}, 1)
            assert os.path.exists(f"/dev/shm/{payload.name}")
            chan.put((("data", 0), ("k", payload)))
            os.write(chan._fd, b"\x00\x00\x10\x00half a frame")
            _reclaim_in_flight([r])
            assert not os.path.exists(f"/dev/shm/{payload.name}")
        finally:
            chan.close()
            r.close()


# -- (c) diagnostics survive the lazy status ---------------------------------


class TestLazyStatus:
    def test_figure5_deadlock_names_every_actor_and_channel(self):
        """Figure 5's naive ordering under SYNC sends: nobody announced a
        wait when it started, yet the diagnostic has every stuck actor's
        program counter and ``channel a->b`` — and arrives within the
        watchdog window plus one status tick (and scheduling slack)."""
        ts, params, batch = make_problem(3, n_mbs=4)
        mesh = core.RemoteMesh(
            (3,), engine="mp", comm_mode=CommMode.SYNC, mp_watchdog_s=TRIP_WATCHDOG_S
        )
        try:
            # a healthy ordering first: the clock below then covers the
            # deadlock and not three interpreters starting up
            mesh.distributed(ts, schedule=core.OneFOneB(3))(params, batch)
            step = mesh.distributed(ts, schedule=core.OneFOneB(3), comm_strategy="naive")
            t0 = time.monotonic()
            with pytest.raises(DeadlockError) as err:
                step(params, batch)
            elapsed = time.monotonic() - t0
        finally:
            mesh.close()
        msg = str(err.value)
        for actor in range(3):
            line = next(l for l in msg.splitlines() if l.startswith(f"  actor {actor} "))
            assert "stuck at [" in line and "waiting for" in line
            assert "[channel " in line and "->" in line
            assert "no wait reported" not in line
        assert "program counters" in msg
        assert TRIP_WATCHDOG_S <= elapsed < TRIP_WATCHDOG_S + _HEARTBEAT_S + 2.0

    def test_dropped_message_names_the_blocked_channel(self):
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = core.RemoteMesh(
            (2,), engine="mp", mp_watchdog_s=TRIP_WATCHDOG_S,
            fault_plan=FaultPlan([DropMessage(rank=0, dst=1, at_step=1)]),
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            params, _ = step(params, batch)  # step 0: spawn, ship, healthy
            t0 = time.monotonic()
            with pytest.raises(DeadlockError) as err:
                step(params, batch)
            elapsed = time.monotonic() - t0
        finally:
            mesh.close()
        msg = str(err.value)
        assert "actor 1 stuck at [" in msg and "[channel 0->1]" in msg
        # the window, one tick for the heartbeat that precedes a wait line,
        # the driver's poll and scheduling slack
        assert TRIP_WATCHDOG_S <= elapsed < TRIP_WATCHDOG_S + _HEARTBEAT_S + 2.0

    def test_healthy_loop_sends_the_driver_no_wait_lines(self):
        """Twenty healthy steps: every block was recorded worker-side (the
        wait profile has them) and none was reported — a step's control
        traffic is its ``done`` reports."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = core.RemoteMesh((2,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            params, _ = step(params, batch)
            pool = mesh._mp_pool
            kinds = []
            handle = pool._handle_sub

            def counting(sid, inner):
                kinds.append(inner[0])
                return handle(sid, inner)

            pool._handle_sub = counting
            for _ in range(20):
                params, _ = step(params, batch)
            assert kinds.count("done") == 2 * 20
            assert kinds.count("wait") == 0
            assert set(kinds) <= {"done", "hb"}
            assert sum(s.count for s in step.last_result.wait_profile.values()) > 0
        finally:
            mesh.close()


# -- (d) the last words of a dying worker --------------------------------------


class TestReportThenDie:
    def test_done_written_before_death_is_merged(self):
        """A worker that dies right after writing a ``done`` report (here:
        killed at the top of the next, already queued step) still has that
        report merged — end-of-file is acted on only after the pipe is
        drained — and the step it never ran fails with the typed error."""
        program, stores = _one_rank(_add_one, nbytes=1 << 10)
        pool = ActorPool(
            1, watchdog_s=WATCHDOG_S, fault_plan=FaultPlan(kill_rank=0, at_step=1)
        )
        baseline = _shm_count()
        try:
            first, second = stores(), stores()
            done = pool.submit(program, first)
            lost = pool.submit(program, second)
            done.result(timeout=60)
            np.testing.assert_array_equal(
                first[0].get(BufferRef("y")).value, np.ones(256, np.float32)
            )
            exc = lost.exception(timeout=60)
            assert isinstance(exc, WorkerDiedError)
            assert (exc.rank, exc.exitcode) == (0, KILL_EXIT_CODE)
            assert BufferRef("y") not in second[0]
        finally:
            pool.shutdown()
        assert _settle_to(baseline) <= baseline
