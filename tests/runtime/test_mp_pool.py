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

import signal
import threading

import numpy as np
import pytest

from repro import core, ir
from repro.ir import nn, ops, pipeline_yield
from repro.runtime import CommMode
from tests.core.test_linear_backend import GALLERY, assert_bit_identical, make_problem

HARD_TIMEOUT_S = 300

#: far above any healthy schedule's silence, far below the SIGALRM cap.
WATCHDOG_S = 60.0

SUBSET = [s for s in GALLERY if s.name in ("1F1B", "ZB-H1", "Interleaved(v=2)")]


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


class TestOptLevelMultiplex:
    def test_two_opt_levels_share_one_warm_pool(self):
        """The same train step compiled at ``optimize=False`` and
        ``optimize=True`` multiplexes through one warm pool: the worker
        program caches key the two variants separately (distinct
        ``.L0`` / ``.L1`` program keys, one ship each), and every interleaved
        submission stays bit-identical to its own event-engine reference.
        A collision — a worker running the L0 programs for an L1 submit
        or vice versa — would show up as the optimized result (memo
        prologues, pruned boundaries) leaking into the baseline lane."""
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

    def test_returned_arrays_are_read_only(self):
        ts, params, batch = make_problem(2, n_mbs=4)
        mesh = _mesh(core.OneFOneB(2), "mp")
        try:
            new, loss = mesh.distributed(ts, schedule=core.OneFOneB(2))(params, batch)
            for arr in [*new.values(), loss]:
                assert type(arr) is np.ndarray
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
        finally:
            mesh.close()
        # ordinary driver-side memory: still readable after the pool is gone
        assert all(np.isfinite(v).all() for v in new.values())

    def test_derived_and_stale_state_travels_by_value(self):
        """Only the array the pool returned, fed to the very next
        submission, is a reference.  A state kept from step k and passed
        again at step k+5, and views or copies of the current state, go
        by value — and give the event engine's bits."""
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

            want_old, got_old = kept[1]  # produced by step 0, now 6 steps stale
            assert_bit_identical(ev(want_old, batch), step(got_old, batch))
            assert (pool.resident_hits, pool.resident_misses) == (12, len(params))

            # the current state: a miss too, the worker has since moved on
            want, got = ev(want, batch)[0], step(got, batch)[0]
            assert_bit_identical(want, got)
            assert pool.resident_misses == 2 * len(params)

            # views and copies carry no stamp: fresh data, not misses
            hits = pool.resident_hits
            derived = {k: (v[:] if k == "w0" else v.copy()) for k, v in got.items()}
            direct = step(got, batch)
            assert_bit_identical(direct, step(derived, batch))
            assert_bit_identical(ev(want, batch), direct)
            assert pool.resident_hits == hits + len(params)
            assert pool.resident_misses == 2 * len(params)
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

    def test_constant_loop_output_is_fetched_from_the_driver_store(self):
        """The gradient of a weight the loss never reads is a compile-time
        constant that is also a step output.  It ships once with the
        program — no ``run`` command carries it — yet the step still
        returns it, every time."""
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
