"""Reuse / soak / chaos battery for the persistent mp actor pool.

The differential suite (``test_mp_pool.py``) pins down *what* the pool
computes; this one pins down how it *lives*: programs ship once and are
cached worker-side, independent compiled steps interleave on one warm
mesh, a failed result merge fails its own future, an idle pool never
trips the watchdog, shared-memory segments return to baseline after
every submission, and a ``kill -9``'d worker fails pending futures with
a diagnostic instead of hanging the driver.  Every test runs under the
same hard SIGALRM cap as ``test_mp_equivalence.py`` — the chaos paths
are exactly the ones whose regressions wedge a suite.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import core
from repro.runtime import (
    ActorPool,
    BufferRef,
    CommMode,
    DeadlockError,
    PoolClosedError,
    Recv,
    RunTask,
    Send,
    WorkerTaskError,
    is_recoverable,
)
from repro.runtime.instructions import brief
from tests.core.test_linear_backend import assert_bit_identical, make_problem

HARD_TIMEOUT_S = 300

WATCHDOG_S = 60.0


@pytest.fixture(autouse=True)
def hard_timeout():
    def boom(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(
            f"mp pool lifecycle test exceeded the hard {HARD_TIMEOUT_S}s cap"
        )

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# -- tiny hand-written programs (module-level fns: spawn needs pickles) ----


def _double(vals):
    return [vals[0] * 2.0]


def _sleepy(vals):
    time.sleep(0.8)
    return [vals[0] + 1.0]


def _long_sleep(vals):  # pragma: no cover - killed mid-sleep by chaos tests
    time.sleep(30.0)
    return [vals[0]]


def _one_rank_program(fn):
    return [
        [RunTask("t", [BufferRef("x")], [BufferRef("y")], fn=fn,
                 meta={"out_nbytes": [32]})],
    ]


def _one_rank_inputs(value=None):
    if value is None:
        value = np.arange(8, dtype=np.float32)
    return [{"x": (value, 32, False, False)}]


def _shm_count() -> int:
    """Live shared-memory segments this boot (multiprocessing names all
    of its segments ``psm_*`` on Linux)."""
    try:
        return sum(1 for f in os.listdir("/dev/shm") if f.startswith("psm_"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return 0


def _settle_to(baseline: int, deadline_s: float = 5.0) -> int:
    """Segment count once it settles back to ``baseline`` (unlinks of
    just-consumed payloads can trail ``result()`` by a scheduler tick)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        n = _shm_count()
        if n <= baseline:
            return n
        time.sleep(0.05)
    return _shm_count()


class TestReuse:
    def test_program_cache_hit_on_resubmission(self):
        """The same program object re-submitted N times is pickled to the
        workers exactly once — the ship counter stays at 1."""
        with ActorPool(1, watchdog_s=WATCHDOG_S) as pool:
            progs = _one_rank_program(_double)
            for i in range(5):
                fut = pool.submit(progs, _one_rank_inputs(np.full(8, float(i), np.float32)))
                fut.result(timeout=60)
                got = fut.outputs[0]["y"][0]
                np.testing.assert_array_equal(got, np.full(8, 2.0 * i))
            assert pool.ship_count == 1
            assert pool.submit_count == 5

    def test_two_compiled_steps_interleave_on_one_pool(self):
        """Two independently compiled step functions multiplex one warm
        mesh: two ships, interleaved submissions, results bit-identical
        to the event engine throughout."""
        ts_a, params_a, batch_a = make_problem(2, n_mbs=4)
        ts_b, params_b, batch_b = make_problem(2, n_mbs=4, d=16, seed=7)
        ev = core.RemoteMesh((2,))
        want_a = ev.distributed(
            ts_a, schedule=core.OneFOneB(2), task_backend="linear"
        )(params_a, batch_a)
        want_b = ev.distributed(
            ts_b, schedule=core.GPipe(2), task_backend="linear"
        )(params_b, batch_b)
        mesh = core.RemoteMesh((2,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            step_a = mesh.distributed(ts_a, schedule=core.OneFOneB(2))
            step_b = mesh.distributed(ts_b, schedule=core.GPipe(2))
            for _ in range(2):  # A, B, A, B on the same pool
                assert_bit_identical(want_a, step_a(params_a, batch_a))
                assert_bit_identical(want_b, step_b(params_b, batch_b))
            pool = mesh._mp_pool
            assert pool.ship_count == 2
            assert pool.submit_count == 4
            assert len({p for p in pool.pids}) == 2  # same two processes
        finally:
            mesh.close()

    def test_pipelined_submissions_overlap(self):
        """Futures return immediately: step N+1 is accepted (shipped,
        inputs staged) while step N is still executing."""
        with ActorPool(1, watchdog_s=WATCHDOG_S) as pool:
            progs = _one_rank_program(_sleepy)
            t0 = time.monotonic()
            futs = [pool.submit(progs, _one_rank_inputs()) for _ in range(3)]
            submit_elapsed = time.monotonic() - t0
            assert submit_elapsed < 0.5  # submission never waits on execution
            assert pool.inflight == 3
            for f in futs:
                f.result(timeout=60)
            assert pool.inflight == 0


class TestWatchdog:
    def test_idle_pool_survives_past_watchdog(self):
        """The no-progress watchdog only arms while submissions are
        outstanding: a pool idling far past ``watchdog_s`` still serves
        the next step."""
        with ActorPool(1, watchdog_s=2.0) as pool:
            progs = _one_rank_program(_double)
            pool.submit(progs, _one_rank_inputs()).result(timeout=60)
            time.sleep(3.0)  # > watchdog_s, zero control traffic
            assert pool.alive()
            pool.submit(progs, _one_rank_inputs()).result(timeout=60)
            assert pool.alive()

    def test_stuck_submission_fails_pending_futures(self):
        """A genuinely stuck step trips the watchdog with the standard
        per-actor diagnostic, and *every* pending future carries it."""
        progs = [
            [Send(BufferRef("x"), 1, "never")],  # SYNC send, no recv posted
            [],
        ]
        pool = ActorPool(2, watchdog_s=3.0)
        try:
            inputs = [{"x": (np.zeros(4, np.float32), 16, False, False)}, {}]
            fut = pool.submit(progs, inputs, comm_mode=CommMode.SYNC)
            with pytest.raises(DeadlockError) as err:
                fut.result(timeout=120)
            msg = str(err.value)
            assert "mp pool" in msg
            assert "watchdog" in msg
            assert "stuck at" in msg
            assert "program counters" in msg
            assert pool.closed
            with pytest.raises(RuntimeError, match="dead"):
                pool.submit(progs, [{}, {}])
        finally:
            pool.shutdown()


class TestSoak:
    def test_soak_shm_segments_return_to_baseline(self):
        """20 steps through one pool with every payload forced onto the
        shared-memory path: the system segment count returns to its
        baseline after *each* step — per-submission accounting, no leak
        however long the pool lives."""
        ts, params, batch = make_problem(2, n_mbs=4)
        baseline = _shm_count()
        mesh = core.RemoteMesh(
            (2,), engine="mp", mp_watchdog_s=WATCHDOG_S, mp_shm_threshold=1
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            for i in range(20):
                params, _ = step(params, batch)
                n = _settle_to(baseline)
                assert n <= baseline, (
                    f"step {i}: {n - baseline} shared-memory segments leaked "
                    f"(baseline {baseline})"
                )
            pool = mesh._mp_pool
            assert pool.submit_count == 20 and pool.ship_count == 1
        finally:
            mesh.close()
        assert _settle_to(baseline) <= baseline

    @pytest.mark.slow
    def test_soak_interleaved_steps_and_idle_gaps(self):
        """Longer soak: two step functions, idle gaps past the watchdog,
        segment baseline held throughout."""
        ts, params, batch = make_problem(2, n_mbs=4)
        baseline = _shm_count()
        mesh = core.RemoteMesh(
            (2,), engine="mp", mp_watchdog_s=2.0, mp_shm_threshold=1
        )
        try:
            step_a = mesh.distributed(ts, schedule=core.OneFOneB(2))
            step_b = mesh.distributed(ts, schedule=core.GPipe(2))
            for i in range(10):
                params, _ = step_a(params, batch)
                params, _ = step_b(params, batch)
                if i % 4 == 3:
                    time.sleep(2.5)  # idle past the watchdog window
                assert _settle_to(baseline) <= baseline
            assert mesh._mp_pool.alive()
        finally:
            mesh.close()


class TestChaos:
    def test_killed_worker_fails_pending_futures(self):
        """``kill -9`` of one worker mid-step: every pending future fails
        promptly with a diagnostic naming the actor and exit code — the
        driver never hangs, and the pool refuses further submissions."""
        pool = ActorPool(1, watchdog_s=WATCHDOG_S)
        try:
            progs = _one_rank_program(_long_sleep)
            fut1 = pool.submit(progs, _one_rank_inputs())
            fut2 = pool.submit(progs, _one_rank_inputs())
            time.sleep(0.5)  # let the first step start its sleep
            os.kill(pool.pids[0], signal.SIGKILL)
            with pytest.raises(RuntimeError, match="died without reporting"):
                fut1.result(timeout=60)
            exc = fut2.exception(timeout=60)
            assert exc is not None and "actor 0" in str(exc)
            assert "exitcode" in str(exc)
            assert pool.closed and not pool.alive()
            with pytest.raises(RuntimeError, match="dead"):
                pool.submit(progs, _one_rank_inputs())
        finally:
            pool.shutdown()

    def test_failed_merge_fails_its_own_future(self, monkeypatch):
        """A result merge that raises fails the submission it was merging
        — no longer pending, so failing the pending ones alone would
        leave its caller blocked for good — and the pool is closed by
        the time that caller sees the error."""
        import repro.runtime.pool as pool_module

        def broken_merge(*args):
            raise RuntimeError("merge exploded")

        monkeypatch.setattr(pool_module, "_merge_results", broken_merge)
        pool = ActorPool(1, watchdog_s=WATCHDOG_S)
        try:
            progs = _one_rank_program(_double)
            fut = pool.submit(progs, _one_rank_inputs())
            with pytest.raises(RuntimeError, match="merge exploded"):
                fut.result(timeout=30)
            with pytest.raises(PoolClosedError):
                pool.submit(progs, _one_rank_inputs())
        finally:
            pool.shutdown()

    def test_mesh_respawns_pool_after_crash(self):
        """A ``RemoteMesh`` whose pool died serves the next step from a
        fresh pool — crash recovery needs no user-visible plumbing."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = core.RemoteMesh((2,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            want = step(params, batch)
            dead_pool = mesh._mp_pool
            os.kill(dead_pool.pids[1], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while dead_pool.alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            got = step(params, batch)  # transparently respawns
            assert_bit_identical(want, got)
            assert mesh._mp_pool is not dead_pool
        finally:
            mesh.close()

    def test_worker_exception_fails_submission(self):
        """A raising task payload surfaces as the driver-side error with
        the worker traceback embedded, not a hang."""

        pool = ActorPool(1, watchdog_s=WATCHDOG_S)
        try:
            progs = _one_rank_program(_raise_boom)
            fut = pool.submit(progs, _one_rank_inputs())
            with pytest.raises(RuntimeError, match="boom") as err:
                fut.result(timeout=60)
            assert "actor 0 failed at [0]" in str(err.value)
            assert "in task 't'" in str(err.value)
            assert pool.closed
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("task_backend", ["linear", "codegen"])
    def test_compiled_task_exception_names_rank_instruction_and_task(
        self, task_backend
    ):
        """A compiled task that raises inside a pool worker (a token id
        past the embedding table, on a step after a healthy one) reports
        the rank, the instruction index and the task's name — and, under
        codegen, the generated line — then tears down with no worker and
        no ``/dev/shm`` segment left."""
        import multiprocessing

        from repro import ir
        from repro.ir import ops, pipeline_yield

        r = np.random.RandomState(0)
        params = {
            "emb": r.randn(8, 4).astype(np.float32),
            "w": r.randn(4, 4).astype(np.float32),
        }
        tokens = r.randint(0, 8, size=(2, 3)).astype(np.int32)

        def loss_fn(p, toks):
            h = pipeline_yield(ops.take(p["emb"], toks))
            return ops.mean(ops.matmul(h, p["w"]) ** 2.0)

        def train_step(p, batch):
            def mg(mb):
                loss, grads = ir.value_and_grad(loss_fn)(p, mb)
                return grads, loss

            grads, loss = core.accumulate_grads(mg, None)(batch)
            return ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), p, grads), loss

        baseline = _shm_count()
        mesh = core.RemoteMesh((2,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            step = mesh.distributed(
                train_step, schedule=core.OneFOneB(2), task_backend=task_backend
            )
            params, _ = step(params, tokens)
            bad = tokens.copy()
            bad[1, 2] = 99  # second microbatch: out of the table's range
            with pytest.raises(RuntimeError, match="out of bounds") as err:
                step(params, bad)
            msg = str(err.value)
            pc = int(msg.split("actor 0 failed at [")[1].split("]")[0])
            failed = step.compiled.programs[0][pc]
            assert isinstance(failed, RunTask) and failed.name == "f0(1)"
            assert "in task 'f0(1)'" in msg
            # ... and as a typed error, which recovery does not retry
            exc = err.value
            assert type(exc) is WorkerTaskError
            assert (exc.rank, exc.pc, exc.task) == (0, pc, "f0(1)")
            assert exc.instruction == brief(failed)
            assert exc.instruction.startswith("RunTask('f0(1)', ") and len(exc.instruction) < 60
            assert not is_recoverable(exc)
            if task_backend == "codegen":
                assert ".take(" in msg  # the generated source line
            assert mesh._mp_pool.closed
        finally:
            mesh.close()
        assert not multiprocessing.active_children()
        assert _settle_to(baseline) <= baseline

    def test_unpicklable_program_raises_in_submit_and_pool_survives(self):
        """A task payload that cannot be pickled is diagnosed by the
        ``submit`` that would have shipped it — nothing is enqueued, no
        key is recorded — and the pool keeps serving."""
        with ActorPool(1, watchdog_s=WATCHDOG_S) as pool:
            bad = _one_rank_program(lambda vals: [vals[0] * 2.0])
            with pytest.raises(TypeError, match="pickle-clean") as err:
                pool.submit(bad, _one_rank_inputs())
            assert "actor 0" in str(err.value)
            assert pool.alive() and pool.inflight == 0 and pool.ship_count == 0
            fut = pool.submit(_one_rank_program(_double), _one_rank_inputs())
            fut.result(timeout=60)
            np.testing.assert_array_equal(
                fut.outputs[0]["y"][0],
                np.arange(8, dtype=np.float32) * 2.0,
            )
            assert pool.ship_count == 1


def _raise_boom(vals):
    raise ValueError("boom")


class TestShutdown:
    def test_shutdown_drains_pending_work(self):
        """``shutdown()`` is graceful: submissions already accepted run
        to completion before the workers exit."""
        pool = ActorPool(1, watchdog_s=WATCHDOG_S)
        progs = _one_rank_program(_sleepy)
        fut = pool.submit(progs, _one_rank_inputs())
        pool.shutdown()
        res = fut.result(timeout=1.0)  # already merged during shutdown
        assert res.engine == "mp"
        np.testing.assert_array_equal(
            fut.outputs[0]["y"][0],
            np.arange(8, dtype=np.float32) + 1.0,
        )

    def test_shutdown_idempotent_and_context_manager(self):
        pool = ActorPool(1, watchdog_s=WATCHDOG_S)
        with pool:
            pool.submit(_one_rank_program(_double), _one_rank_inputs()).result(
                timeout=60
            )
        pool.shutdown()  # second call is a no-op
        assert pool.closed


def _assert_reaped(pids, deadline_s=10.0):
    """Every pid is fully gone — not running and not a zombie (``/proc``
    keeps an entry for a dead child until its parent reaps it)."""
    deadline = time.monotonic() + deadline_s
    alive = list(pids)
    while time.monotonic() < deadline:
        alive = [p for p in alive if os.path.exists(f"/proc/{p}")]
        if not alive:
            return
        time.sleep(0.05)
    raise AssertionError(f"unreaped pool worker pids: {alive}")


class TestRespawnHygiene:
    """Deterministic kill/respawn cycles leak nothing: every dead pool's
    shared-memory segments return to baseline, every worker process is
    reaped (no zombies), and the mesh that survived N generations of
    chaos still computes bit-identical results."""

    N_CYCLES = 4

    def test_kill_respawn_cycles_leak_nothing(self):
        from repro.runtime import FaultPlan, KillRank

        ts, params, batch = make_problem(2, n_mbs=4)
        baseline = _shm_count()
        # one kill armed per pool generation; each respawned pool's
        # worker-local step counter restarts at 0, so every cycle is one
        # healthy step followed by one injected death
        plan = FaultPlan([
            KillRank(rank=g % 2, at_step=1, generation=g)
            for g in range(self.N_CYCLES)
        ])
        mesh = core.RemoteMesh(
            (2,), engine="mp", mp_watchdog_s=WATCHDOG_S,
            mp_shm_threshold=1, fault_plan=plan,
        )
        want = None
        dead_pids: list[int] = []
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            for cycle in range(self.N_CYCLES):
                out = step(params, batch)  # generation-local step 0
                if want is None:
                    want = out
                else:
                    assert_bit_identical(want, out)
                pids = list(mesh._mp_pool.pids)
                with pytest.raises(RuntimeError, match="died without reporting"):
                    step(params, batch)  # generation-local step 1
                dead_pids.extend(pids)
                assert _settle_to(baseline) <= baseline, (
                    f"kill/respawn cycle {cycle} leaked shm segments"
                )
            # generation N arms nothing: the mesh is healthy again
            got = step(params, batch)
            assert_bit_identical(want, got)
            assert mesh._pool_generation == self.N_CYCLES + 1
        finally:
            mesh.close()
        _assert_reaped(dead_pids)
        assert _settle_to(baseline) <= baseline

    def test_segments_no_message_names_are_reclaimed(self):
        """What a terminated process leaves outside every pipe — a
        segment written for a message it never sent, or named by one it
        had read but not consumed — carries the pool's tag, and the
        failure reclaim unlinks it by name."""
        from repro.runtime.mp import _new_segment

        baseline = _shm_count()
        pool = ActorPool(1, watchdog_s=WATCHDOG_S)
        try:
            fut = pool.submit(_one_rank_program(_long_sleep), _one_rank_inputs())
            # the worker's own unsent transfer, and a driver slab it holds
            for who in ("0", "d"):
                _new_segment(64, f"{pool._pool_tag}_{who}").close()
            assert _shm_count() == baseline + 2
            os.kill(pool.pids[0], signal.SIGKILL)
            with pytest.raises(RuntimeError, match="died without reporting"):
                fut.result(timeout=60)
            assert _settle_to(baseline) <= baseline
        finally:
            pool.shutdown()
        assert _settle_to(baseline) <= baseline


class TestResidencyLifecycle:
    """References and slabs under failure: nothing a dead worker held is
    needed to continue, and nothing undelivered stays in ``/dev/shm``."""

    def test_kill_while_next_command_holds_references(self):
        """Rank 1 dies on receiving step 2's command, which refers to the
        step-1 outputs only that worker held.  Pulled home before the
        kill, the user's arrays are ordinary driver memory: the respawned
        pool's first step ships them by value and matches the event
        engine; the step after it is all references again."""
        from repro.runtime import FaultPlan

        ts, params, batch = make_problem(2, n_mbs=4)
        ev = core.RemoteMesh((2,)).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="linear"
        )
        want = [params]
        for _ in range(4):
            want.append(ev(want[-1], batch)[0])
        baseline = _shm_count()
        mesh = core.RemoteMesh(
            (2,), engine="mp", mp_watchdog_s=WATCHDOG_S, mp_shm_threshold=1,
            fault_plan=FaultPlan(kill_rank=1, at_step=2),
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            got = params
            for _ in range(2):
                got, _ = step(got, batch)
            dead = mesh._mp_pool
            assert dead.resident_hits == len(params)
            for handle in got.values():  # a host copy of what the ranks hold
                np.asarray(handle)
            with pytest.raises(RuntimeError, match="died without reporting"):
                step(got, batch)
            assert dead.resident_hits == 2 * len(params)  # the lost command
            assert _settle_to(baseline) <= baseline

            got, _ = step(got, batch)  # generation 1, its step 0
            pool = mesh._mp_pool
            assert pool is not dead
            assert (pool.resident_hits, pool.resident_misses) == (0, len(params))
            assert pool.input_bytes >= sum(v.nbytes for v in params.values())
            assert_bit_identical(want[3], got)
            got, _ = step(got, batch)
            assert pool.resident_hits == len(params)
            assert_bit_identical(want[4], got)
        finally:
            mesh.close()
        assert _settle_to(baseline) <= baseline

    def test_undelivered_slab_is_reclaimed(self):
        """A slab descriptor nested in a command nobody will consume —
        a drained inbox, a fault-injected death — is found and unlinked."""
        from repro.runtime.faults import RankFaultState
        from collections import deque

        from repro.runtime.mp import _discard_payload, _encode_buffers
        from repro.runtime.pool import _CMD, _Run

        def slab():
            buffers = {
                "a": (np.arange(6, dtype=np.float32).reshape(2, 3), 24, True),
                "b": (np.ones(5, np.int64), 40, False),
                "n": (None, 0, False),
            }
            enc = _encode_buffers(buffers, 1)
            assert os.path.exists(f"/dev/shm/{enc.name}")
            return enc

        enc = slab()
        cmd = _Run(3, "k", enc, {"w": ("v9", 4, True)}, CommMode.ASYNC, 1, 0.0)
        _discard_payload([(_CMD, cmd)])
        assert not os.path.exists(f"/dev/shm/{enc.name}")

        # what an injected kill hands over: the command's slab plus the
        # transfers parked in the inbox demultiplexer ((source, route) ->
        # deque), each a one-entry slab under its key
        enc = slab()
        parked = _encode_buffers({"k": (np.ones(4, np.float32), 16, False)}, 1)
        assert os.path.exists(f"/dev/shm/{parked.name}")
        RankFaultState._discard(
            (enc, {(0, ("data", 0)): deque([("k", parked)])})
        )
        assert not os.path.exists(f"/dev/shm/{enc.name}")
        assert not os.path.exists(f"/dev/shm/{parked.name}")

        # below the threshold the slab is an inline blob: nothing to reclaim
        inline = _encode_buffers({"a": (np.zeros(3), 24, False)}, 1 << 20)
        assert inline.name is None
        _discard_payload(inline)

    @pytest.mark.parametrize("threshold", [1, 1 << 30], ids=["shm", "inline"])
    def test_slab_round_trip(self, threshold):
        """Every value of a message comes back as it went in, whichever
        form the slab takes: mixed dtypes, a non-contiguous view, a 0-d
        and an empty array, and non-array values riding beside the slab."""
        from repro.runtime.mp import _decode_buffers, _encode_buffers

        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        buffers = {
            "f32": (np.linspace(0, 1, 7, dtype=np.float32), 28, True),
            "strided": (base[::2, 1::2], 48, False),
            "i8": (np.array([-3, 5], np.int8), 2, False),
            "scalar": (np.array(2.5), 8, False),
            "empty": (np.zeros((0, 3), np.float32), 0, False),
            "none": (None, 16, False),
            "pyint": (7, 0, True),
        }
        baseline = _shm_count()
        enc = _encode_buffers(buffers, threshold)
        assert enc.nbytes == sum(
            v.nbytes for v, _, _ in buffers.values() if isinstance(v, np.ndarray)
        )
        out = _decode_buffers(enc)
        assert _shm_count() <= baseline
        assert set(out) == set(buffers)
        for uid, (value, nbytes, pinned) in buffers.items():
            got, got_nbytes, got_pinned = out[uid]
            assert (got_nbytes, got_pinned) == (nbytes, pinned)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.flags.writeable
                np.testing.assert_array_equal(got, value)
            else:
                assert got == value


def _slot_maps(pid: int, pool_tag: str) -> list[str]:
    """Names of the shared-memory segments under ``pool_tag`` that
    process ``pid`` has mapped.  Each is ``(deleted)``: a receiver
    unlinks a slot's name when it first maps it."""
    with open(f"/proc/{pid}/maps") as f:
        lines = [l.rstrip() for l in f if f"/dev/shm/{pool_tag}_" in l]
    assert all(l.endswith(" (deleted)") for l in lines), lines
    return sorted(l.split()[-2].rsplit("/", 1)[1] for l in lines)


class TestSlotMappings:
    def test_mappings_stay_flat_and_go_with_the_pool(self, monkeypatch):
        """``gpt_mid_mp2``'s shape under ``SYNC`` (a deterministic
        in-flight high-water, see ``test_mp_channel.py``): the first
        step's by-value state rides one-off slots that no process maps
        once it is copied out; from the third step on every process
        maps the same number of slots; a ``kill -9`` leaves the driver
        mapping nothing of the dead pool, and ``close()`` nothing of the
        respawned one."""
        from repro.runtime import FaultPlan
        import repro.runtime.pool as pool_mod

        sent = []
        encode = pool_mod._encode_buffers

        def recording(*args):
            sent.append(encode(*args))
            return sent[-1]

        monkeypatch.setattr(pool_mod, "_encode_buffers", recording)
        ts, params, batch = make_problem(4, n_mbs=4, mbsz=128, d=256)
        params = {k: v * 0.1 for k, v in params.items()}
        baseline = _shm_count()
        mesh = core.RemoteMesh(
            (2,), engine="mp", comm_mode=CommMode.SYNC, codegen_actor=True,
            mp_watchdog_s=WATCHDOG_S, fault_plan=FaultPlan(kill_rank=1, at_step=6),
        )
        me = os.getpid()
        try:
            step = mesh.distributed(ts, schedule=core.Interleaved1F1B(2, 2))
            got, counts = params, []
            for i in range(6):
                got, _ = step(got, batch)
                pool = mesh._mp_pool
                maps = {pid: _slot_maps(pid, pool._pool_tag) for pid in (me, *pool.pids)}
                if i == 0:
                    by_value = [e for e in sent if e.name is not None]
                    assert len(by_value) == 2 and all(e.seq == 0 for e in by_value)
                    by_value = {e.name for e in by_value}
                assert not by_value & set().union(*maps.values())
                counts.append({pid: len(names) for pid, names in maps.items()})
            assert counts[2:] == [counts[2]] * 4
            assert all(counts[2].values())
            dead = mesh._mp_pool
            for handle in got.values():  # a host copy of what the ranks hold
                np.asarray(handle)
            with pytest.raises(RuntimeError, match="died without reporting"):
                step(got, batch)
            for _ in range(3):  # the respawned pool warms its own slots
                got, _ = step(got, batch)
            pool = mesh._mp_pool
            assert pool is not dead and _slot_maps(me, pool._pool_tag)
            assert dead._stop.wait(timeout=30)  # set once the failure is cleaned up
            assert _slot_maps(me, dead._pool_tag) == []
        finally:
            mesh.close()
        assert _slot_maps(me, pool._pool_tag) == []
        assert _settle_to(baseline) <= baseline


def _minor_faults(pid: int) -> int:
    """Minor page faults of process ``pid`` so far (``/proc/<pid>/stat``
    field 10, counted after the parenthesised command name)."""
    with open(f"/proc/{pid}/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[7])


def _rss_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmRSS:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>")
class TestWarmHeap:
    #: minor faults a warm rank-step may take.  The spawn-time heap
    #: defaults measured 990–1 050 (nearly all of them the kept report
    #: slot's page drop and re-populate); glibc's dynamic thresholds,
    #: which trim and re-fault the numpy temporaries inside every task,
    #: 3 400–3 800.
    FAULT_BOUND = 2000
    #: VmRSS a rank may gain over 200 warm steps: a heap that no longer
    #: trims keeps its high-water mark, it does not grow past it.
    RSS_GROWTH_KIB = 2048

    def test_warm_steps_stop_faulting_and_rss_stays_flat(self):
        """The benchmark's ``gpt_mid_mp2`` after 3 warm steps: each rank
        takes fewer than ``FAULT_BOUND`` minor faults a step over the
        next 20, and its VmRSS over 200 steps grows by less than
        ``RSS_GROWTH_KIB``."""
        from benchmarks.e2e.workloads import WORKLOADS, build

        built = build(WORKLOADS["gpt_mid_mp2"], seed=0)
        state, batches = built.state, built.batches
        try:
            for i in range(3):
                state, _ = built.step_fn(state, batches[i % len(batches)])
            pids = built.mesh._mp_pool.pids
            rss = [_rss_kib(pid) for pid in pids]
            faults = [_minor_faults(pid) for pid in pids]
            for i in range(3, 203):
                state, _ = built.step_fn(state, batches[i % len(batches)])
                if i == 22:
                    per_step = [(_minor_faults(pid) - f) / 20 for pid, f in zip(pids, faults)]
                    assert max(per_step) < self.FAULT_BOUND, per_step
            assert built.mesh._mp_pool.pids == pids  # one pool throughout
            growth = [_rss_kib(pid) - r for pid, r in zip(pids, rss)]
            assert max(growth) < self.RSS_GROWTH_KIB, growth
        finally:
            built.mesh.close()
