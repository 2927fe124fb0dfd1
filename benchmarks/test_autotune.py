"""Autotuner guard: the ISSUE-4 acceptance criterion, measured.

On a skewed-cost transformer workload (GPT-3 175B stage costs through
the §5.1 kernel model, where the head stage pays the logits projection),
``tune()`` searched over both chunk granularities (one stage per rank,
and the two-chunk circular/v-shape placements) must select a schedule
that

- beats **GPipe's makespan by >= 20%** in the pipeline pricing engine, and
- respects a **1F1B-level activation-memory budget** per rank (which
  GPipe itself, holding every microbatch's activation, cannot).

A ``BENCH_autotune.json`` perf record tracks the margin across PRs.
"""

import json

from repro.cluster.specs import DGX_H100
from repro.core.autotune import CostModel, tune
from repro.perf import GPT3_175B, JAX_KERNELS
from repro.viz import render_tune_report

from .conftest import emit

PP = 8          # pipeline ranks
N_MBS = 12      # microbatches per step
LAYERS = 96     # GPT-3 blocks: 12 per rank -> v=1: 12/stage, v=2: 6/chunk


def _cost(n_stages: int, layers_per_stage: int) -> CostModel:
    return CostModel.from_kernels(
        GPT3_175B, DGX_H100.gpu, JAX_KERNELS,
        n_stages=n_stages, layers_per_stage=layers_per_stage, mbs=1, tp=8,
    )


def test_tuned_schedule_beats_gpipe_within_memory_budget(results_dir):
    cm_v1 = _cost(PP, LAYERS // PP)
    cm_v2 = _cost(2 * PP, LAYERS // (2 * PP))
    assert cm_v1.skew > 1.0  # the head stage genuinely skews the table

    # unbudgeted baseline run: GPipe's event-engine makespan
    base = tune(cm_v1, PP, N_MBS, rounds=1)
    gpipe = next(e for e in base.entries if e.name == "GPipe")
    assert gpipe.feasible

    # the budget: 1F1B's activation bytes (+5% slack), per rank
    one_f1b = next(e for e in base.entries if e.name == "OneFOneB")
    budget = one_f1b.peak_act_bytes * 1.05

    r1 = tune(cm_v1, PP, N_MBS, memory_budget=budget)
    r2 = tune(cm_v2, PP, N_MBS, memory_budget=budget)
    tuned = min([r1.best, r2.best], key=lambda e: e.makespan)

    # GPipe (all 12 microbatches live) and ZB-H2 (2p - 1 live) are over
    # the 1F1B budget; the winner fits it
    assert not next(e for e in r1.entries if e.name == "GPipe").feasible
    assert not next(e for e in r1.entries if e.name == "ZB-H2").feasible
    assert tuned.peak_act_bytes <= budget

    improvement = 1.0 - tuned.makespan / gpipe.makespan
    assert improvement >= 0.20, (
        f"tuned {tuned.name} at {tuned.makespan:.4f}s only "
        f"{improvement:.1%} better than GPipe's {gpipe.makespan:.4f}s"
    )

    lines = [
        f"workload: GPT-3 175B over pp={PP}, tp=8, mbs=1, n_mbs={N_MBS} "
        f"(head-stage skew {cm_v1.skew:.2f}x)",
        f"memory budget: {budget:.3e} activation bytes/rank (1F1B level)",
        f"GPipe makespan:  {gpipe.makespan:.4f}s",
        f"tuned makespan:  {tuned.makespan:.4f}s  ({tuned.name}, "
        f"round {tuned.round})",
        f"improvement:     {improvement:.1%}  (acceptance floor: 20%)",
        "",
        "one-stage-per-rank search (budgeted):",
        render_tune_report(r1),
        "",
        "two-chunk search (budgeted):",
        render_tune_report(r2),
    ]
    emit(results_dir, "autotune_vs_gpipe", "\n".join(lines))

    record = {
        "workload": {
            "model": GPT3_175B.name, "pp": PP, "tp": 8, "mbs": 1,
            "n_mbs": N_MBS, "kernels": JAX_KERNELS.name,
            "head_skew": cm_v1.skew,
        },
        "memory_budget_bytes": budget,
        "gpipe_makespan_s": gpipe.makespan,
        "tuned_makespan_s": tuned.makespan,
        "tuned_schedule": tuned.name,
        "tuned_peak_act_bytes": tuned.peak_act_bytes,
        "improvement_fraction": improvement,
    }
    (results_dir / "BENCH_autotune.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


def test_wait_profile_round_improves_latency_bound_search(results_dir):
    """The round-2 guard: on a skewed table with visible transfer
    latency, the wait-profile-driven warmup proposals must strictly beat
    the best gallery 1F1B-family candidate of round 1."""
    from repro import core

    cm = CostModel(fwd=(2.0, 1.0, 1.0, 1.0), bwd=(4.0, 2.0, 2.0, 2.0))
    cands = lambda: [core.GPipe(4), core.OneFOneB(4)]
    r1 = tune(cm, 4, 8, candidates=cands(), rounds=1, p2p_latency_s=0.5)
    r2 = tune(cm, 4, 8, candidates=cands(), rounds=2, p2p_latency_s=0.5)
    assert r2.best.makespan < r1.best.makespan
    emit(
        results_dir,
        "autotune_wait_profile_round",
        f"round 1: {r1.best.name} {r1.best.makespan:.2f}\n"
        f"round 2: {r2.best.name} {r2.best.makespan:.2f} "
        f"({(1 - r2.best.makespan / r1.best.makespan):.1%} faster)\n"
        f"parked by rank (round 1 winner): "
        f"{[round(t, 1) for t in r1.best.result.parked_by_rank()]}",
    )
