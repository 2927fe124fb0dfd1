"""Differential suite: the mp actor pool vs the event engine.

A warm pool must change *performance only*: results stay bit-identical
to the in-process event engine for every schedule, for one step and for
a multi-step training loop through one pool.  Every test runs under a
hard SIGALRM timeout so a pool regression can never wedge CI (the same
guard as ``test_mp_equivalence.py``; pytest-timeout is not in the
image).

The tier-1 lane runs the small gallery subset and the 20-step loop; the
full 10-schedule sweep carries the ``slow`` marker and runs with the
benchmarks lane.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import core, ir
from repro.ir import nn, ops, pipeline_yield
from repro.runtime import CommMode, RemoteArray
from repro.runtime.pool import _spawn_defaults
from tests.core.test_linear_backend import GALLERY, assert_bit_identical, make_problem
from tests.helpers import count_constructions

HARD_TIMEOUT_S = 300

#: far above any healthy schedule's silence, far below the SIGALRM cap.
WATCHDOG_S = 60.0

SUBSET = [s for s in GALLERY if s.name in ("OneFOneB", "ZB-H1", "Interleaved1F1B(v=2)")]


@pytest.fixture(autouse=True)
def hard_timeout():
    def boom(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(
            f"mp pool differential test exceeded the hard {HARD_TIMEOUT_S}s cap"
        )

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _mesh(schedule, engine, **kw):
    if engine == "mp":
        kw.setdefault("mp_watchdog_s", WATCHDOG_S)
    return core.RemoteMesh((schedule.n_actors,), engine=engine, **kw)


class TestGalleryEquivalence:
    @pytest.mark.parametrize("schedule", SUBSET, ids=lambda s: s.name)
    def test_subset_bit_identical(self, schedule):
        ts, params, batch = make_problem(4, n_mbs=8)
        want = _mesh(schedule, "event").distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = _mesh(schedule, "mp")
        step = mesh.distributed(ts, schedule=schedule)
        got = step(params, batch)
        try:
            assert_bit_identical(want, got)
            assert step.last_result.engine == "mp"
            assert mesh._mp_pool is not None and mesh._mp_pool.alive()
        finally:
            mesh.close()

    @pytest.mark.slow
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_full_gallery_bit_identical(self, schedule):
        ts, params, batch = make_problem(4, n_mbs=8)
        want = _mesh(schedule, "event").distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = _mesh(schedule, "mp")
        try:
            got = mesh.distributed(ts, schedule=schedule)(params, batch)
            assert_bit_identical(want, got)
        finally:
            mesh.close()

    def test_shared_memory_transport_bit_identical(self):
        """Forcing every payload — inputs, transfers, results — through
        shared-memory segments changes the pool's transport, never the
        data."""
        schedule = core.OneFOneB(4)
        ts, params, batch = make_problem(4, n_mbs=8)
        want = _mesh(schedule, "event").distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = _mesh(schedule, "mp", mp_shm_threshold=1)
        try:
            got = mesh.distributed(ts, schedule=schedule)(params, batch)
            assert_bit_identical(want, got)
        finally:
            mesh.close()

    def test_data_parallel_bit_identical(self):
        """ASYNC dp=2 on one pool: every all-reduce contribution goes to
        the group root on the gather route and its result comes back on
        the collres route, both routed by group key."""
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        want = core.RemoteMesh((2, 2)).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh((2, 2), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            # twice through the same pool: the second step's collectives
            # meet nothing the first one left on those routes
            got = step(params, batch)
            again = step(params, batch)
            assert_bit_identical(want, got)
            assert_bit_identical(want, again)
        finally:
            mesh.close()

    def test_sync_data_parallel_bit_identical(self):
        """SYNC dp=2: acks and the gather/collres routes (by group key)
        share each rank's one inbox in a single run — and again in
        a second run on the same workers."""
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        want = core.RemoteMesh((2, 2), comm_mode=CommMode.SYNC).distributed(
            ts, schedule=core.OneFOneB(2), task_backend="linear"
        )(params, batch)
        mesh = core.RemoteMesh(
            (2, 2), engine="mp", comm_mode=CommMode.SYNC, mp_watchdog_s=WATCHDOG_S
        )
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            assert_bit_identical(want, step(params, batch))
            assert_bit_identical(want, step(params, batch))
            assert step.last_result.wait_profile  # acks really blocked
        finally:
            mesh.close()

    @pytest.mark.slow
    def test_sync_mode_bit_identical(self):
        schedule = core.OneFOneB(4)
        ts, params, batch = make_problem(4, n_mbs=8)
        want = _mesh(schedule, "event", comm_mode=CommMode.SYNC).distributed(
            ts, schedule=schedule, task_backend="linear"
        )(params, batch)
        mesh = _mesh(schedule, "mp", comm_mode=CommMode.SYNC)
        try:
            got = mesh.distributed(ts, schedule=schedule)(params, batch)
            assert_bit_identical(want, got)
        finally:
            mesh.close()


def _loop(mesh, ts, params, batch, n_steps, schedule, **kw):
    """A training loop: feed updated params back in, collect every loss.
    The reference side passes ``task_backend="linear"``."""
    step = mesh.distributed(ts, schedule=schedule, **kw)
    losses = []
    for _ in range(n_steps):
        params, loss = step(params, batch)
        losses.append(loss)
    return params, losses


class TestTrainingLoop:
    def test_20_step_loop_matches_event(self):
        """20 steps through one pool — one spawn, one ship, 20 warm
        submissions — match the event engine's loop exactly, and after
        step 0 only the batch travels: every weight is a reference to
        what its worker already holds."""
        schedule = core.OneFOneB(4)
        ts, params, batch = make_problem(4, n_mbs=8)
        want_p, want_l = _loop(
            core.RemoteMesh((4,)), ts, params, batch, 20, schedule,
            task_backend="linear",
        )
        batch_bytes = sum(a.nbytes for a in batch)
        mesh = core.RemoteMesh((4,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            step = mesh.distributed(ts, schedule=schedule)
            got_p, got_l, sent = params, [], []
            for _ in range(20):
                before = mesh._mp_pool.input_bytes if mesh._mp_pool else 0
                got_p, loss = step(got_p, batch)
                got_l.append(loss)
                sent.append(mesh._mp_pool.input_bytes - before)
            pool = mesh._mp_pool
            assert pool.submit_count == 20
            assert pool.ship_count == 1
            assert_bit_identical(want_p, got_p)
            assert_bit_identical(want_l, got_l)
            # step 0 ships the weights; 19 steps reference all 4 of them
            assert sent[0] > batch_bytes
            assert pool.resident_hits == 19 * len(params)
            assert pool.resident_misses == 0
            # X feeds the first stage and Y the last; nothing else moves
            assert set(sent[1:]) == {batch_bytes}
        finally:
            mesh.close()


class TestWiring:
    def test_executor_rejects_pool_mismatches(self):
        from repro.runtime import ActorPool, MpmdExecutor

        pool = ActorPool(2, watchdog_s=WATCHDOG_S)
        try:
            with pytest.raises(ValueError, match="engine='mp'"):
                MpmdExecutor(2, engine="event", mp_pool=pool)
            with pytest.raises(ValueError, match="actors"):
                MpmdExecutor(3, engine="mp", mp_pool=pool)
        finally:
            pool.shutdown()

    def test_mesh_close_is_idempotent_and_respawns(self):
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = core.RemoteMesh((2,), engine="mp", mp_watchdog_s=WATCHDOG_S)
        step = mesh.distributed(ts, schedule=core.OneFOneB(2))
        want = step(params, batch)
        first_pool = mesh._mp_pool
        mesh.close()
        mesh.close()
        assert mesh._mp_pool is None and first_pool.closed
        # the mesh stays usable: the next call spawns a fresh pool
        got = step(params, batch)
        assert_bit_identical(want, got)
        assert mesh._mp_pool is not None and mesh._mp_pool is not first_pool
        mesh.close()


def _rank_environs(pids):
    """Each rank's environment as it started.  A spawn-context child is
    forked, then execs the interpreter, and until the exec its
    ``/proc/<pid>/environ`` is the parent's initial one: wait for the
    exec (its command line carries ``--multiprocessing-fork``) first."""
    envs = []
    for pid in pids:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if b"--multiprocessing-fork" in f.read():
                    break
            time.sleep(0.01)
        with open(f"/proc/{pid}/environ", "rb") as f:
            items = f.read().decode().split("\0")
        envs.append(dict(i.split("=", 1) for i in items if "=" in i))
    return envs


@pytest.mark.skipif(
    not os.path.exists("/proc/self/environ"), reason="reads /proc/<pid>/environ"
)
class TestSpawnDefaults:
    """Each rank is spawned with the pool's environment defaults — the
    BLAS/OpenMP thread budget and glibc's heap thresholds — read back
    from the worker's environment; a value the user set wins, and the
    parent's environment is as it was after every spawn."""

    @pytest.fixture
    def defaults(self, monkeypatch):
        table = _spawn_defaults(2)
        for var in table:
            monkeypatch.delenv(var, raising=False)
        return table

    def test_the_table(self, defaults):
        budget = str(max(1, os.cpu_count() // 2))
        assert defaults == {
            "OPENBLAS_NUM_THREADS": budget, "OMP_NUM_THREADS": budget,
            "MKL_NUM_THREADS": budget, "MALLOC_MMAP_THRESHOLD_": str(4 << 20),
            "MALLOC_TRIM_THRESHOLD_": str(16 << 20),
        }

    @pytest.mark.parametrize("user_var", [None, *sorted(_spawn_defaults(2))])
    def test_ranks_get_the_defaults_unless_the_user_set_one(
        self, defaults, monkeypatch, user_var
    ):
        from repro.runtime import ActorPool

        want = dict(defaults)
        if user_var is not None:
            monkeypatch.setenv(user_var, "3")
            want[user_var] = "3"
        before = dict(os.environ)
        with ActorPool(2, watchdog_s=WATCHDOG_S) as pool:
            assert dict(os.environ) == before
            for env in _rank_environs(pool.pids):
                assert {v: env.get(v) for v in want} == want
        assert dict(os.environ) == before

    def test_a_respawn_after_kill_gets_the_defaults(self, defaults):
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _mesh(core.OneFOneB(2), "mp")
        try:
            step = mesh.distributed(ts, schedule=core.OneFOneB(2))
            step(params, batch)
            dead = mesh._mp_pool
            os.kill(dead.pids[1], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while dead.alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            step(params, batch)  # transparently respawns
            assert mesh._mp_pool is not dead
            for env in _rank_environs(mesh._mp_pool.pids):
                assert {v: env.get(v) for v in defaults} == defaults
        finally:
            mesh.close()
        assert not any(var in os.environ for var in defaults)

    def test_concurrent_spawns_do_not_strip_each_others_defaults(
        self, defaults, monkeypatch
    ):
        """Pool B starts spawning while pool A's defaults are in the
        environment, and its ranks start only after A has restored it:
        without one lock over edit, spawn and restore, B finds A's
        values, sets none of its own, and its ranks start without them."""
        import multiprocessing.context as mpc

        from repro.runtime import ActorPool

        real_start = mpc.SpawnProcess.start
        a_spawning, b_spawning, a_done = (threading.Event() for _ in range(3))

        def start(proc):
            if threading.current_thread().name == "pool-b":
                b_spawning.set()
                a_done.wait(timeout=30)
            elif not a_spawning.is_set():
                a_spawning.set()
                b_spawning.wait(timeout=2)  # B blocks on the lock instead
            real_start(proc)

        monkeypatch.setattr(mpc.SpawnProcess, "start", start)
        pools, errors = {}, []

        def spawn(name, after=None):
            try:
                pools[name] = ActorPool(2, watchdog_s=WATCHDOG_S)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                if after is not None:
                    after.set()

        a = threading.Thread(target=spawn, args=("a", a_done), name="pool-a")
        b = threading.Thread(target=spawn, args=("b",), name="pool-b")
        a.start()
        try:
            assert a_spawning.wait(timeout=30)
            b.start()
            a.join(timeout=60)
            b.join(timeout=60)
            assert not errors and set(pools) == {"a", "b"}
            for name, pool in sorted(pools.items()):
                for rank, env in enumerate(_rank_environs(pool.pids)):
                    got = {v: env.get(v) for v in defaults}
                    assert got == defaults, (name, rank)
        finally:
            for pool in pools.values():
                pool.shutdown()
        assert not any(var in os.environ for var in defaults)


class TestOptLevelMultiplex:
    def test_two_opt_levels_share_one_warm_pool(self):
        """The same train step compiled at ``optimize=False`` and
        ``optimize=True`` multiplexes through one warm pool: the worker
        program caches key the two variants separately (distinct
        ``.L0`` / ``.L1`` program keys, one ship each), and every interleaved
        submission stays bit-identical to its own event-engine reference.
        A collision — a worker running the L0 programs for an L1 submit
        or vice versa — would show up as the optimized result (pruned
        boundaries, deduped outputs) leaking into the baseline lane."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        want = {}
        for lvl in (False, True):
            want[lvl] = _mesh(schedule, "event").distributed(
                ts, schedule=schedule, optimize=lvl, task_backend="linear"
            )(params, batch)
        assert_bit_identical(want[False], want[True])  # L1 is exact

        mesh = _mesh(schedule, "mp")
        try:
            steps = {
                lvl: mesh.distributed(ts, schedule=schedule, optimize=lvl)
                for lvl in (False, True)
            }
            keys = {lvl: None for lvl in steps}
            for _ in range(3):  # interleave: L0, L1, L0, L1, ...
                for lvl, step in steps.items():
                    assert_bit_identical(want[lvl], step(params, batch))
                    keys[lvl] = step.compiled.program_key
            assert ".L0" in keys[False] and ".L1" in keys[True]
            assert keys[False] != keys[True]
            pool = mesh._mp_pool
            assert pool.submit_count == 6
            # each variant pickled to the workers exactly once; the four
            # re-submissions hit the worker-side cache
            assert pool.ship_count == 2
        finally:
            mesh.close()


class TestResidency:
    """Step state stays on its worker: what is a reference, what falls
    back to by-value, and that neither changes a bit."""

    def test_outputs_are_read_only_handles(self):
        """Every output is a :class:`RemoteArray`: its shape, dtype and
        aval need no fetch, and the array it yields cannot be written."""
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _mesh(core.OneFOneB(2), "mp")
        try:
            new, loss = mesh.distributed(ts, schedule=core.OneFOneB(2))(params, batch)
            for handle in [*new.values(), loss]:
                assert type(handle) is RemoteArray
                arr = np.asarray(handle)
                assert type(arr) is np.ndarray
                assert (handle.shape, handle.dtype) == (arr.shape, arr.dtype)
                assert handle.aval == ir.abstractify(arr)
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
                with pytest.raises(TypeError):
                    handle[...] = 0
        finally:
            mesh.close()
        # ordinary driver-side memory: still readable after the pool is gone
        assert all(np.isfinite(v).all() for v in new.values())

    def test_derived_and_stale_state(self):
        """A kept state is a reference however old it is; what came home
        is one only for the very next submission.  A state kept from step
        k and passed again at step k+5 is a hit; the first step's state,
        which came home, is a miss six steps later; views and copies are
        fresh data — and every one gives the event engine's bits."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        ev = core.RemoteMesh((2,)).distributed(
            ts, schedule=schedule, task_backend="linear"
        )
        mesh = _mesh(schedule, "mp")
        try:
            step = mesh.distributed(ts, schedule=schedule)
            want = got = params
            kept = {}
            for k in range(7):
                kept[k] = (want, got)
                want, got = ev(want, batch)[0], step(got, batch)[0]
            pool = mesh._mp_pool
            assert (pool.resident_hits, pool.resident_misses) == (6 * len(params), 0)

            want_old, got_old = kept[2]  # produced by step 1, kept on its ranks
            assert all(v._kept for v in got_old.values())
            assert_bit_identical(ev(want_old, batch), step(got_old, batch))
            assert (pool.resident_hits, pool.resident_misses) == (7 * len(params), 0)

            want_old, got_old = kept[1]  # produced by step 0: it came home
            assert not any(v._kept for v in got_old.values())
            assert_bit_identical(ev(want_old, batch), step(got_old, batch))
            assert (pool.resident_hits, pool.resident_misses) == (7 * len(params), len(params))

            # the current state: still held, still a reference
            want, got = ev(want, batch)[0], step(got, batch)[0]
            assert_bit_identical(want, got)
            assert pool.resident_hits == 8 * len(params)

            # views and copies are plain arrays: fresh data, not misses
            hits = pool.resident_hits
            derived = {k: (np.asarray(v)[:] if k == "w0" else np.array(v))
                       for k, v in got.items()}
            assert all(type(v) is np.ndarray for v in derived.values())
            direct = step(got, batch)
            assert_bit_identical(direct, step(derived, batch))
            assert_bit_identical(ev(want, batch), direct)
            assert pool.resident_hits == hits + len(params)
            assert pool.resident_misses == len(params)
        finally:
            mesh.close()

    def test_interleaved_loops_fall_back_to_by_value(self):
        """Two training loops alternating on one pool: each loop's state
        is one submission too old when it comes back, so every weight
        travels by value — bit-identical to the event engine's loops."""
        ts_a, params_a, batch_a = make_problem(2, n_mbs=4)
        ts_b, params_b, batch_b = make_problem(2, n_mbs=4, d=16, seed=7)
        ev = core.RemoteMesh((2,))
        want_a, _ = _loop(
            ev, ts_a, params_a, batch_a, 3, core.OneFOneB(2), task_backend="linear"
        )
        want_b, _ = _loop(
            ev, ts_b, params_b, batch_b, 3, core.GPipe(2), task_backend="linear"
        )
        mesh = _mesh(core.OneFOneB(2), "mp")
        try:
            step_a = mesh.distributed(ts_a, schedule=core.OneFOneB(2))
            step_b = mesh.distributed(ts_b, schedule=core.GPipe(2))
            for _ in range(3):
                params_a, _ = step_a(params_a, batch_a)
                params_b, _ = step_b(params_b, batch_b)
            assert_bit_identical(want_a, params_a)
            assert_bit_identical(want_b, params_b)
            pool = mesh._mp_pool
            assert pool.resident_hits == 0
            assert pool.resident_misses == 2 * (len(params_a) + len(params_b))
        finally:
            mesh.close()

    def test_references_cross_programs(self):
        """Residency belongs to the worker, not to a program: the output
        of one compiled step is a reference for another compiled step
        submitted right after it."""
        ts, params, batch = make_problem(2, n_mbs=4)
        ev = core.RemoteMesh((2,))
        ev_a = ev.distributed(ts, schedule=core.OneFOneB(2), task_backend="linear")
        ev_b = ev.distributed(ts, schedule=core.GPipe(2), task_backend="linear")
        mesh = _mesh(core.OneFOneB(2), "mp")
        try:
            step_a = mesh.distributed(ts, schedule=core.OneFOneB(2))
            step_b = mesh.distributed(ts, schedule=core.GPipe(2))
            want = got = params
            for _ in range(2):
                want, got = ev_a(want, batch)[0], step_a(got, batch)[0]
                want, got = ev_b(want, batch)[0], step_b(got, batch)[0]
            assert_bit_identical(want, got)
            pool = mesh._mp_pool
            assert (pool.resident_hits, pool.resident_misses) == (3 * len(params), 0)
        finally:
            mesh.close()

    def test_constant_loop_output_is_returned_by_the_plan(self):
        """The gradient of a weight the loss never reads is a compile-time
        constant that is also a step output.  It ships once with the
        program — no ``run`` command carries it — yet the step still
        returns it, every time: the placement plan hands it back as a
        literal instead of looking for it among the ranks' outputs."""
        r = np.random.RandomState(3)
        batch = tuple(r.randn(4, 6, 8).astype(np.float32) for _ in range(2))
        params = {f"w{i}": (r.randn(8, 8) * 0.3).astype(np.float32) for i in range(2)}
        params["unused"] = r.randn(3, 5).astype(np.float32)

        def loss_fn(p, mb):
            x, y = mb
            h = pipeline_yield(nn.relu(ops.matmul(x, p["w0"])))
            return ops.mean((ops.matmul(h, p["w1"]) - y) ** 2.0)

        def train_step(params, batch):
            def microbatch_grads(mb):
                loss, grads = ir.value_and_grad(loss_fn)(params, mb)
                return grads, loss

            return core.accumulate_grads(microbatch_grads, None)(batch)

        schedule = core.OneFOneB(2)
        ev_step = core.RemoteMesh((2,)).distributed(
            train_step, schedule=schedule, task_backend="linear"
        )
        want = ev_step(params, batch)
        assert any(
            src[0] == "buffer" and src[2].startswith("loopconst.")
            for src in ev_step.compiled.output_sources
        )
        mesh = _mesh(schedule, "mp")
        try:
            step = mesh.distributed(train_step, schedule=schedule)
            sent = []
            for _ in range(3):
                before = mesh._mp_pool.input_bytes if mesh._mp_pool else 0
                assert_bit_identical(want, step(params, batch))
                sent.append(mesh._mp_pool.input_bytes - before)
            # every step sends the batch and the two weights the program
            # reads; the constants are in none of the commands
            used = (*batch, params["w0"], params["w1"])
            assert sent == [sum(a.nbytes for a in used)] * 3
        finally:
            mesh.close()

    def test_data_parallel_replicas_receive_values(self):
        """dp=2: replica 1's ranks are handed replica 0's arrays, which
        they never produced — by value, every step."""
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        want, _ = _loop(
            core.RemoteMesh((2, 2)), ts, params, batch, 3, core.OneFOneB(2),
            task_backend="linear",
        )
        mesh = core.RemoteMesh((2, 2), engine="mp", mp_watchdog_s=WATCHDOG_S)
        try:
            got, _ = _loop(mesh, ts, params, batch, 3, core.OneFOneB(2))
            assert_bit_identical(want, got)
            pool = mesh._mp_pool
            assert pool.resident_hits == 2 * len(params)
            assert pool.resident_misses == 2 * len(params)
        finally:
            mesh.close()

    def test_four_concurrent_submitters(self):
        """4 threads, each with its own training loop, share one pool.
        Whether a thread's state is still resident when it comes back
        depends on the interleaving; the result never does."""
        schedule = core.OneFOneB(2)
        n_threads, n_steps = 4, 5
        problems = [make_problem(2, n_mbs=4, seed=10 + i) for i in range(n_threads)]
        ev = core.RemoteMesh((2,))
        want = [
            _loop(ev, ts, params, batch, n_steps, schedule, task_backend="linear")
            for ts, params, batch in problems
        ]
        mesh = _mesh(schedule, "mp")
        got: list = [None] * n_threads
        errors: list = []
        try:
            steps = [mesh.distributed(ts, schedule=schedule) for ts, _, _ in problems]
            steps[0](problems[0][1], problems[0][2])  # spawn the pool once

            def run(i):
                try:
                    _, params, batch = problems[i]
                    losses = []
                    for _ in range(n_steps):
                        params, loss = steps[i](params, batch)
                        losses.append(loss)
                    got[i] = (params, losses)
                except BaseException as e:  # surfaced by the main thread
                    errors.append(e)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=HARD_TIMEOUT_S)
            assert not errors, errors
            assert not any(t.is_alive() for t in threads)
            for w, g in zip(want, got):
                assert_bit_identical(w, g)
            pool = mesh._mp_pool
            # every fed-back weight was one or the other
            fed_back = n_threads * (n_steps - 1) * 2
            assert pool.resident_hits + pool.resident_misses == fed_back
        finally:
            mesh.close()


class TestHandles:
    """The output handle's contract: what a rank holds for the driver,
    when it lets go, and what a read costs."""

    def _loop(self, n_steps, **mesh_kw):
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _mesh(schedule, "mp", **mesh_kw)
        return mesh, mesh.distributed(ts, schedule=schedule), params, batch

    def test_held_values_return_to_baseline(self):
        """Over 50 steps each rank holds two generations — the state the
        step read and the state it wrote — and once the driver drops its
        handles the rank is back to what the first step left."""
        mesh, step, params, batch = self._loop(50)
        try:
            state, _ = step(params, batch)
            pool = mesh._mp_pool
            baseline = pool.held  # the first step's outputs, all sent home
            counts = []
            for _ in range(50):
                state, loss = step(state, batch)
                counts.append(pool.held)
            assert counts[1:] == [counts[1]] * 49
            assert all(c > b for c, b in zip(counts[1], baseline))
            host = {k: np.array(v) for k, v in state.items()}
            del state, loss
            step(host, batch)  # carries the releases; nothing to keep
            assert pool.held == baseline
        finally:
            mesh.close()

    def test_every_live_handle_is_readable_after_close(self):
        """``close()`` pulls what nobody read: handles of every step,
        unread until after the pool is gone, hold the event engine's
        bits."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        ev = core.RemoteMesh((2,)).distributed(ts, schedule=schedule, task_backend="linear")
        mesh, step, _, _ = self._loop(4)
        want, got = [(params, None)], [(params, None)]
        try:
            for _ in range(4):
                want.append(ev(want[-1][0], batch))
                got.append(step(got[-1][0], batch))
            assert all(v._value is None for v in got[-1][0].values())
        finally:
            mesh.close()
        for w, g in zip(want[1:], got[1:]):
            assert_bit_identical(w, g)

    def test_handle_lost_with_its_pool_names_rank_and_uid(self):
        """A rank killed before anyone read what it held: each handle
        raises :class:`PoolClosedError` naming its rank and uid."""
        from repro.runtime import PoolClosedError

        mesh, step, params, batch = self._loop(2)
        try:
            state = params
            for _ in range(2):
                state, _ = step(state, batch)
            pool = mesh._mp_pool
            assert all(v._value is None for v in state.values())
            os.kill(pool.pids[1], signal.SIGKILL)
            assert pool._stop.wait(timeout=30)
            for handle in state.values():
                rank = handle._source.rank
                with pytest.raises(PoolClosedError, match=rf"{handle.uid!r} of actor {rank}"):
                    np.asarray(handle)
        finally:
            mesh.close()

    def test_one_fetch_pulls_its_rank_and_submission(self):
        """Reading one handle brings home every unread handle of the same
        rank and submission in one round trip, and no other."""
        mesh, step, params, batch = self._loop(2)
        try:
            state = params
            for _ in range(2):
                state, _ = step(state, batch)
            pool = mesh._mp_pool
            by_rank = {}
            for handle in state.values():
                by_rank.setdefault(handle._source.rank, []).append(handle)
            assert sorted(by_rank) == [0, 1]
            first, *rest = by_rank[0]
            fetches = pool._next_fid
            np.asarray(first)
            assert pool._next_fid == fetches + 1
            assert all(h._value is not None for h in by_rank[0])
            assert all(h._value is None for h in by_rank[1])
            for h in rest:
                np.asarray(h)
            assert pool._next_fid == fetches + 1
            for h in by_rank[1]:
                np.asarray(h)
            assert pool._next_fid == fetches + 2
        finally:
            mesh.close()

    def test_state_from_step_k_is_a_reference_at_k_plus_5(self):
        """A state kept from step k and passed again at step k+5 is still
        on its ranks: a reference, only the batch travels."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        ev = core.RemoteMesh((2,)).distributed(ts, schedule=schedule, task_backend="linear")
        mesh, step, _, _ = self._loop(7)
        try:
            want = got = params
            for k in range(7):
                if k == 2:
                    kept = (want, got)
                want, got = ev(want, batch)[0], step(got, batch)[0]
            pool = mesh._mp_pool
            hits, misses, sent = pool.resident_hits, pool.resident_misses, pool.input_bytes
            assert_bit_identical(ev(kept[0], batch), step(kept[1], batch))
            assert pool.resident_hits == hits + len(params)
            assert pool.resident_misses == misses
            assert pool.input_bytes - sent == sum(a.nbytes for a in batch)
        finally:
            mesh.close()

    def test_in_process_step_loads_no_pool(self):
        """The handle type and the lazy pool import: ``import repro`` and
        an in-process step load neither ``multiprocessing`` nor the pool."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro\n"
            "from repro import core\n"
            "from tests.core.test_linear_backend import make_problem\n"
            "ts, params, batch = make_problem(2, n_mbs=4)\n"
            "core.RemoteMesh((2,)).distributed(ts, schedule=core.OneFOneB(2))(params, batch)\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')"
            " or m == 'repro.runtime.pool'))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root])}
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_gpt_mid_mp2_sends_only_the_tied_embedding_by_value(self):
        """The benchmark's ``gpt_mid_mp2``: each warm step has exactly one
        by-value state input, the tied embedding, which rank 1 updates
        and both ranks read, so it comes home; every other state output
        stays on its rank, and the losses come home."""
        from benchmarks.e2e.workloads import WORKLOADS, build

        built = build(WORKLOADS["gpt_mid_mp2"], seed=0)
        state, batches = built.state, built.batches
        try:
            for i in range(2):
                state, _ = built.step_fn(state, batches[i])
            pool = built.mesh._mp_pool
            for i in range(2, 5):
                misses = pool.resident_misses
                state, losses = built.step_fn(state, batches[i % len(batches)])
                assert pool.resident_misses == misses + 1
                leaves = [x for x in ir.tree_flatten(state)[0] if type(x) is RemoteArray]
                home = [x for x in leaves if not x._kept]
                assert [x.shape for x in home] == [state.params["wte"].shape]
                assert home[0] is state.params["wte"] and home[0]._source.rank == 1
                assert len(leaves) - len(home) > 100
                assert type(losses) is RemoteArray and not losses._kept
        finally:
            built.mesh.close()


class _Counted(tuple):
    """A placed-input entry that counts how often it is unpacked."""

    def __iter__(self):
        self.reads = getattr(self, "reads", 0) + 1
        return super().__iter__()


class TestDriverPath:
    """A warm ``engine="mp"`` step goes from the caller's leaves to the
    run commands and back with no driver-side store or executor, and
    holds on to nothing of the call it served.  (dp = 2 on this path:
    ``TestResidency::test_data_parallel_replicas_receive_values``.)"""

    def _step(self):
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _mesh(schedule, "mp")
        return mesh, mesh.distributed(ts, schedule=schedule), params, batch

    def test_warm_step_builds_no_store_or_executor(self, monkeypatch):
        mesh, step, params, batch = self._step()
        try:
            state, _ = step(params, batch)
            built = count_constructions(monkeypatch)
            for _ in range(3):
                state, loss = step(state, batch)
            assert built == []
            assert np.isfinite(np.asarray(loss)).all()
        finally:
            mesh.close()

    def test_dropped_output_handle_dies_after_the_next_call(self):
        """Neither the step function, its ``last_result`` nor the pool
        keeps a call's outputs or inputs alive once the caller let go."""
        import weakref

        mesh, step, params, batch = self._step()
        try:
            state, loss = step(params, batch)
            state, loss = step(state, batch)
            dropped = [weakref.ref(loss), *(weakref.ref(v) for v in state.values())]
            assert all(type(r()) is RemoteArray for r in dropped)
            state, loss = step(state, batch)
            assert [r() for r in dropped] == [None] * len(dropped)
        finally:
            mesh.close()

    def test_submit_reads_each_placed_input_once(self, monkeypatch):
        """Every entry of the caller's mappings — constants, batch, state
        by value or as a reference — is unpacked exactly once a step."""
        from repro.runtime.pool import ActorPool

        submit, seen = ActorPool.submit, []

        def counting(pool, programs, inputs, **kw):
            inputs = [{uid: _Counted(e) for uid, e in mine.items()} for mine in inputs]
            seen.append(inputs)
            return submit(pool, programs, inputs, **kw)

        monkeypatch.setattr(ActorPool, "submit", counting)
        mesh, step, params, batch = self._step()
        try:
            state = params
            for _ in range(3):  # the ship, state that came home, kept state
                state, _ = step(state, batch)
        finally:
            mesh.close()
        reads = [[getattr(e, "reads", 0) for mine in inputs for e in mine.values()] for inputs in seen]
        assert len(reads) == 3 and all(r == [1] * len(r) for r in reads)
        assert {type(e[0]) for e in seen[-1][0].values()} >= {RemoteArray, np.ndarray}


class TestPackedTimeline:
    """An mp result's timeline, built on first read from the ranks'
    packed tuples, is the event engine's: the same events, the same
    order rule, the same replay table and JSON."""

    @pytest.mark.parametrize("schedule", SUBSET, ids=lambda s: s.name)
    def test_same_events_as_the_event_engine(self, schedule):
        import json

        from repro.runtime import ExecutionResult

        ts, params, batch = make_problem(4, n_mbs=8)
        ev = _mesh(schedule, "event").distributed(ts, schedule=schedule, task_backend="linear")
        ev(params, batch)
        mesh = _mesh(schedule, "mp")
        try:
            step = mesh.distributed(ts, schedule=schedule)
            step(params, batch)
            got = step.last_result
        finally:
            mesh.close()
        want = ev.last_result

        def events(result):
            return sorted(
                (e.actor, e.kind, e.name, e.nbytes, json.dumps(e.meta, sort_keys=True, default=str))
                for e in result.timeline
            )

        timeline = got.timeline
        assert timeline is got.timeline  # built once
        assert events(got) == events(want)
        order = [(e.start, e.actor, e.end, e.kind, e.name) for e in timeline]
        assert order == sorted(order) and order[0][0] == 0.0
        assert got.makespan == max(got.actor_finish) >= max(e.end for e in timeline)

        text = got.to_json()
        assert ExecutionResult.from_json(text).to_json() == text

        def voted(result):
            return sorted({
                (e.meta["stage"], e.meta.get("unit", e.meta.get("kind")))
                for e in result.timeline
                if e.kind == "task" and "stage" in e.meta
                and e.meta.get("phase", "loop") == "loop"
            })

        assert voted(got) == voted(want) != []
        cost = core.CostModel.from_result(got, schedule.n_stages)
        assert len(cost.fwd) == len(cost.bwd) == schedule.n_stages
        assert all(t > 0 for t in (*cost.fwd, *cost.bwd))
