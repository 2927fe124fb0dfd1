"""Multi-process runtime guard: real-process overhead + replay-tuning.

Two measurements, both persisted to ``BENCH_mp.json``:

1. **Overhead** — one pp=4 transformer training step executed by the
   in-process event engine vs a *cold* process-per-rank ``engine="mp"``
   step: fresh mesh, one step, ``close()`` (spawn, program shipping,
   channels and teardown included), results asserted bit-identical.
   The mp wall-clock is dominated by process start-up at this scale;
   the record tracks the trajectory across PRs rather than enforcing a
   ratio.

2. **Replay-tune acceptance (ISSUE 5)** — a *measured* mp run of a
   skewed pp=8 workload feeds ``CostModel.from_result``; ``tune()`` on
   the measured table must select a schedule at least as good (under
   that measured model) as the analytic pick from FLOP-estimated stage
   costs.  This is the measure → ``from_result`` → recompile loop
   closed end-to-end on a genuinely parallel execution.
"""

import json
import statistics
import time

import numpy as np

from repro import core, ir
from repro.core.autotune import CostModel, default_candidates, tune
from repro.ir import nn, ops, pipeline_yield
from repro.models import TransformerConfig, init_transformer, transformer_loss
from tests.core.test_linear_backend import assert_bit_identical

from .conftest import emit

WATCHDOG_S = 120.0


def _transformer_problem(n_stages=4, n_mbs=4, mbsz=2):
    cfg = TransformerConfig(
        vocab=32, seq=8, d_model=16, n_heads=2, d_ff=32,
        n_layers=n_stages, n_stages=n_stages,
    )
    params = init_transformer(np.random.RandomState(0), cfg)

    def train_step(params, batch):
        def mg(mb):
            loss, grads = ir.value_and_grad(
                lambda p, m: transformer_loss(p, m, cfg)
            )(params, mb)
            return grads, loss

        grads, losses = core.accumulate_grads(mg, core.OneFOneB(n_stages))(batch)
        new = ir.tree_map(lambda w, g: w - 0.05 * g, params, grads)
        return new, losses

    r = np.random.RandomState(1)
    batch = (
        r.randint(0, cfg.vocab, (n_mbs, mbsz, cfg.seq)).astype(np.int32),
        r.randint(0, cfg.vocab, (n_mbs, mbsz, cfg.seq)).astype(np.int32),
    )
    return train_step, params, batch


def _skewed_problem(n_stages=8, n_mbs=8, mbsz=4, d=8, heavy_stage=0, repeats=6):
    """MLP pipeline with one deliberately expensive stage (extra matmul
    passes), so the measured cost table is genuinely skewed."""
    r = np.random.RandomState(2)
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    params = {
        f"w{i}": (r.randn(d, d) * 0.3).astype(np.float32) for i in range(n_stages)
    }

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages):
            n_mm = repeats if i == heavy_stage else 1
            for _ in range(n_mm):
                h = nn.relu(ops.matmul(h, p[f"w{i}"]))
            if i < n_stages - 1:
                h = pipeline_yield(h)
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        def mg(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(mg, None)(batch)
        new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads)
        return new, loss

    return train_step, params, (X, Y)


def test_mp_overhead_and_replay_tune(results_dir):
    record = {}

    # ---- 1. pp=4 transformer step: mp overhead vs in-process ------------
    train_step, params, batch = _transformer_problem()
    event_step = core.RemoteMesh((4,)).distributed(
        train_step, schedule=core.OneFOneB(4)
    )
    want = event_step(params, batch)  # compile + reference run
    t0 = time.perf_counter()
    want = event_step(params, batch)
    event_s = time.perf_counter() - t0

    # a fresh mesh, one step, close(): this record tracks the *cold*
    # trajectory; the warm-pool numbers live in BENCH_mp_pool.json
    # (benchmarks/test_mp_pool.py)
    mesh = core.RemoteMesh((4,), engine="mp", mp_watchdog_s=WATCHDOG_S)
    mp_step = mesh.distributed(train_step, schedule=core.OneFOneB(4))
    t0 = time.perf_counter()
    try:
        got = mp_step(params, batch)
    finally:
        mesh.close()
    mp_s = time.perf_counter() - t0
    assert_bit_identical(want, got)

    res = mp_step.last_result
    record["overhead"] = {
        "workload": "pp=4 transformer (4 layers, d=16), n_mbs=4",
        "event_step_s": event_s,
        "mp_step_s": mp_s,
        "mp_overhead_x": mp_s / event_s if event_s > 0 else float("inf"),
        "mp_makespan_s": res.makespan,
        "p2p_count": res.p2p_count,
        "p2p_bytes": res.p2p_bytes,
        "visits": res.visits,
    }
    assert res.engine == "mp" and res.makespan > 0.0

    # ---- 2. skewed pp=8: measured mp run replay-tunes end-to-end --------
    PP, N_MBS = 8, 8
    # 16 matmul passes on stage 0: at 6 the heavy stage measures 1.1-1.9x
    # the median one (d=8 tasks are mostly call overhead), too close to
    # any threshold that says "visible"
    train_step, params, batch = _skewed_problem(PP, N_MBS, repeats=16)

    # analytic pick: FLOP-estimated stage costs at compile time
    jaxpr, _, _ = ir.trace(train_step, params, batch)
    from repro.core.stage_split import split_stages
    from repro.core.accumulate import pipeline_loop_p

    loop = next(e for e in jaxpr.eqns if e.prim is pipeline_loop_p)
    split = split_stages(loop.params["body_jaxpr"])
    analytic_cm = CostModel.from_tasks(split)
    analytic = tune(analytic_cm, PP, N_MBS).best

    # measured table: one real mp run of the baseline schedule
    mesh = core.RemoteMesh((PP,), engine="mp", mp_watchdog_s=WATCHDOG_S)
    mp_step = mesh.distributed(train_step, schedule=core.OneFOneB(PP))
    try:
        mp_step(params, batch)
    finally:
        mesh.close()
    measured_res = mp_step.last_result
    measured_cm = CostModel.from_result(measured_res, n_stages=PP)
    # the heavy stage itself, not just any spread: max/min over noisy
    # per-stage medians exceeds 1.5 on a uniform pipeline too
    totals = [f + b for f, b in zip(measured_cm.fwd, measured_cm.bwd)]
    heavy_x = totals[0] / statistics.median(totals)
    assert heavy_x > 1.5, (
        f"heavy stage not visible in measured table ({heavy_x:.2f}x the "
        f"median stage, skew {measured_cm.skew:.2f})"
    )

    # retune on the measured table, with the analytic pick in the field
    candidates = default_candidates(PP)
    if all(type(s) is not type(analytic.schedule) for s in candidates):
        candidates.append(analytic.schedule)
    measured_report = tune(measured_cm, PP, N_MBS, candidates=candidates)
    replay_best = measured_report.best

    # the analytic pick priced under the *measured* model
    analytic_under_measured = next(
        (e for e in measured_report.entries if e.name == analytic.schedule.name),
        None,
    )
    if analytic_under_measured is None:
        analytic_report = tune(
            measured_cm, PP, N_MBS, candidates=[analytic.schedule], rounds=1
        )
        analytic_under_measured = analytic_report.best

    record["replay_tune"] = {
        "workload": f"pp={PP} skewed MLP (stage 0 heavy), n_mbs={N_MBS}",
        "measured_skew": measured_cm.skew,
        "heavy_stage_x_median": heavy_x,
        "analytic_pick": analytic.schedule.name,
        "replay_pick": replay_best.schedule.name,
        "analytic_pick_makespan_measured": analytic_under_measured.makespan,
        "replay_pick_makespan_measured": replay_best.makespan,
        "mp_run_makespan_s": measured_res.makespan,
        "mp_run_json_bytes": len(measured_res.to_json()),
    }

    # acceptance: replay-tuned at least as good as the analytic pick
    assert replay_best.makespan <= analytic_under_measured.makespan + 1e-12

    (results_dir / "BENCH_mp.json").write_text(json.dumps(record, indent=2) + "\n")
    emit(
        results_dir,
        "mp_runtime",
        json.dumps(record, indent=2),
    )
