"""Recovery benchmark: what does fault tolerance cost when nothing fails,
and how long does recovering from a killed rank take?

Persisted to ``BENCH_recovery.json``:

1. **Snapshot overhead** — the pp=4 transformer step through one warm
   pool, bare vs wrapped in ``RecoveryPolicy(snapshot_every=2, keep=2)``
   (the differential recovery suite's policy).  Both step functions
   share the *same* pool and compiled program, and samples interleave
   A/B, so pool-to-pool and drift noise cancel out of the ratio.
   Acceptance (ISSUE 9): the async-snapshot cost on the median warm step
   is ≤ 10% — or, when the bare step's own spread is wider than that
   (the ratio of the two medians reads 0.96×–1.16× on identical code on
   a noisy box), ≤ 1.5 × the interquartile range of the bare series.

2. **Recovery latency** — the same loop with rank 1 killed before one
   step via a deterministic :class:`~repro.runtime.faults.FaultPlan`.
   The interrupted step's wall time *is* the end-to-end recovery cost:
   death detection, respawning the mesh, re-shipping the program,
   restoring the snapshot, replaying the window, and re-running the
   step.  Recorded both raw and with the healthy warm step subtracted.

3. **Detection latency** (``detect_s``) — the first term of that sum on
   its own: a policy-less mesh, rank 1 killed as it reads its command,
   timed from the call to the :class:`WorkerDiedError` the caller sees
   (the moment a resilient step records its ``RankFailure``).  One
   sample per pool generation; median and samples recorded.
"""

import json
import statistics
import time

from repro import core
from repro.runtime import (
    FaultPlan,
    KillRank,
    RecoveryPolicy,
    ResilientStepFunction,
    WorkerDiedError,
)
from tests.core.test_linear_backend import assert_bit_identical

from .conftest import emit
from .test_mp_runtime import _transformer_problem

WATCHDOG_S = 120.0

#: warm-step sample size (median over these, after the cold call).
N_WARM = 20

#: which step the injected kill interrupts in the latency measurement.
KILL_STEP = 3

#: pool generations killed for the detection-latency reading.
N_DETECT = 5


def test_recovery_overhead_and_latency(results_dir):
    record = {}
    # mbsz=8 (vs the 2 of BENCH_mp): snapshot cost is fixed per step —
    # state size, not batch size — so a realistically-sized step is the
    # honest denominator for a relative-overhead bound
    train_step, params, batch = _transformer_problem(mbsz=8)
    schedule = core.OneFOneB(4)

    # ---- 1. snapshot overhead, A/B on one warm pool ----------------------
    mesh = core.RemoteMesh((4,), engine="mp", mp_watchdog_s=WATCHDOG_S)
    try:
        plain_step = mesh.distributed(train_step, schedule=schedule)
        r_step = ResilientStepFunction(
            plain_step, RecoveryPolicy(snapshot_every=2, keep=2)
        )
        want = plain_step(params, batch)  # spawn + ship + cold step
        got = r_step(params, batch)
        assert_bit_identical(want, got)

        # at snapshot_every=2 the wrapped series is bimodal (alternate
        # steps snapshot), so a single median would sit on the knife edge
        # between the modes — bucket by whether the step snapshotted and
        # amortize the two stable per-mode medians instead
        plain_times, snap_on, snap_off = [], [], []
        for _ in range(N_WARM):
            t0 = time.perf_counter()
            got_a = plain_step(params, batch)
            plain_times.append(time.perf_counter() - t0)
            before = r_step.snapshots_written
            t0 = time.perf_counter()
            got_b = r_step(params, batch)
            dt = time.perf_counter() - t0
            (snap_on if r_step.snapshots_written > before else snap_off).append(dt)
        assert_bit_identical(got_a, got_b)
        plain_s = statistics.median(plain_times)
        on_s = statistics.median(snap_on)
        off_s = statistics.median(snap_off)
        snap_s = (on_s + off_s) / 2  # amortized per-step cost at cadence 2
        assert r_step.snapshots_written >= N_WARM // 2
        assert r_step.failures == []
        overhead_x = snap_s / plain_s if plain_s > 0 else float("inf")
        q1, _, q3 = statistics.quantiles(plain_times, n=4)
        plain_iqr_s = q3 - q1
        record["snapshot_overhead"] = {
            "workload": "pp=4 transformer (4 layers, d=16), n_mbs=4, mbsz=8",
            "plain_warm_step_s": plain_s,
            "plain_warm_step_iqr_s": plain_iqr_s,
            "snapshotting_step_s": on_s,
            "skipping_step_s": off_s,
            "amortized_warm_step_s": snap_s,
            "snapshot_overhead_x": overhead_x,
            "snapshot_every": 2,
            "snapshot_async": True,
            "n_warm_samples": N_WARM,
        }
        # ISSUE 9 acceptance: per-step snapshot cost ≤ 10% (async writes
        # overlap the step; only the state hand-off and snapshot pruning
        # are synchronous, ~1.5ms on this workload) — a margin the bare
        # series must itself be able to resolve, hence the IQR floor
        margin_s = max(0.10 * plain_s, 1.5 * plain_iqr_s)
        assert snap_s - plain_s <= margin_s, (
            f"snapshot cost {(snap_s - plain_s) * 1e3:.1f}ms per step exceeds "
            f"{margin_s * 1e3:.1f}ms (snap {snap_s * 1e3:.1f}ms vs plain "
            f"{plain_s * 1e3:.1f}ms, plain IQR {plain_iqr_s * 1e3:.1f}ms)"
        )
        r_step.close()
    finally:
        mesh.close()

    # ---- 2. end-to-end recovery latency for one killed rank --------------
    mesh = core.RemoteMesh(
        (4,), engine="mp", mp_watchdog_s=WATCHDOG_S,
        recovery=RecoveryPolicy(snapshot_every=1, keep=2),
        fault_plan=FaultPlan(kill_rank=1, at_step=KILL_STEP),
    )
    try:
        step = mesh.distributed(train_step, schedule=schedule)
        state = params
        step_times = []
        for _ in range(KILL_STEP + 3):
            t0 = time.perf_counter()
            state, _ = step(state, batch)
            step_times.append(time.perf_counter() - t0)
        assert step.recoveries == 1
        assert [f.step for f in step.failures] == [KILL_STEP]
        # skip the cold spawn step; the interrupted one is the latency
        healthy = [t for i, t in enumerate(step_times) if i not in (0, KILL_STEP)]
        healthy_s = statistics.median(healthy)
        recovery_s = step_times[KILL_STEP]
        record["recovery_latency"] = {
            "killed_rank": 1,
            "killed_step": KILL_STEP,
            "interrupted_step_s": recovery_s,
            "healthy_step_s": healthy_s,
            "recovery_cost_s": recovery_s - healthy_s,
            "failures": [f.kind for f in step.failures],
        }
        # detection, respawn, re-ship, restore and replay — well under a
        # minute
        assert recovery_s < 60.0
        step.close()
    finally:
        mesh.close()

    # ---- 3. detection alone: kill -> the failure reaches the caller ------
    mesh = core.RemoteMesh(
        (4,), engine="mp", mp_watchdog_s=WATCHDOG_S,
        fault_plan=FaultPlan(
            [KillRank(rank=1, at_step=1, generation=g) for g in range(N_DETECT)]
        ),
    )
    try:
        step = mesh.distributed(train_step, schedule=schedule)
        detect = []
        for _ in range(N_DETECT):
            state, _ = step(params, batch)  # this generation's step 0: spawn
            t0 = time.perf_counter()
            try:
                step(state, batch)
            except WorkerDiedError:
                detect.append(time.perf_counter() - t0)
        assert len(detect) == N_DETECT
        record["detection"] = {
            "detect_s": statistics.median(detect),
            "samples_s": detect,
            "n_samples": N_DETECT,
        }
    finally:
        mesh.close()

    (results_dir / "BENCH_recovery.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    emit(results_dir, "recovery", json.dumps(record, indent=2))
