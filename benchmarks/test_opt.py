"""Algebraic-optimizer differential benchmark (the PR 10 acceptance run).

Compiles the mini-GPT pipeline step with and without the optimizer and
reports what the rewrite pipeline (:mod:`repro.ir.opt`) buys on a real
transformer:

- exact rewrite accounting: every stage task's removed equations are
  exactly its CSE + identity-elision + DCE counts, and the three totals
  are pinned for this model (a pass that starts or stops firing moves
  them);
- per-stage equation counts and boundary bytes (informational);
- end-to-end bit-identity of the optimized step, plus wall-clock columns
  for both (informational — the step is compile-bound at this scale).

Writes ``BENCH_opt.json``.
"""

import json
import time

import numpy as np

from repro import core, ir
from repro.core.compile import compile_train_step
from repro.data import token_batches
from repro.models import TransformerConfig, init_transformer, transformer_loss

from .conftest import emit

CFG = TransformerConfig(
    vocab=32, seq=12, d_model=32, n_heads=4, d_ff=64,
    n_layers=4, n_stages=4, tie_embeddings=False,
)
N_MBS, MBSZ = 4, 8

#: pinned rewrite totals on this model: (CSE, identity elision, DCE)
REWRITE_TOTALS = (18, 45, 0)


def _transformer_step():
    params = init_transformer(np.random.RandomState(0), CFG)
    batch = next(token_batches(CFG.vocab, CFG.seq, N_MBS, MBSZ, 1, seed=2))

    def train_step(params, batch):
        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(
                lambda p, mb: transformer_loss(p, mb, CFG)
            )(params, mb)
            return grads, loss

        grads, losses = core.accumulate_grads(
            microbatch_grads, core.OneFOneB(CFG.n_stages)
        )(batch)
        new = ir.tree_map(lambda w, g: ir.ops.sub(w, ir.ops.mul(0.01, g)), params, grads)
        return new, losses

    return train_step, params, batch


def _best_of(fn, repeats=7):
    fn()  # warm
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_opt_differential_and_floors(results_dir):
    train_step, params, batch = _transformer_step()
    jaxpr, _, _ = ir.trace(train_step, params, batch)

    compiled = {
        lvl: compile_train_step(jaxpr, core.OneFOneB(CFG.n_stages), optimize=lvl)
        for lvl in (0, 1)
    }
    rep1 = compiled[1].opt_report

    # ---- acceptance: exact rewrite accounting --------------------------
    for t in rep1.tasks:
        assert t.eqns_before - t.eqns_after == (
            t.cse_removed + t.identity_elided + t.dce_removed
        ), t
    totals = (
        sum(t.cse_removed for t in rep1.tasks),
        sum(t.identity_elided for t in rep1.tasks),
        sum(t.dce_removed for t in rep1.tasks),
    )
    assert totals == REWRITE_TOTALS, (totals, REWRITE_TOTALS)
    assert rep1.eqns_after < rep1.eqns_before
    reduction = rep1.stage_eqn_reduction()
    best_stage = max(reduction, key=reduction.get)

    # ---- end-to-end: L1 bit-identical to L0 -----------------------------
    steps, outs = {}, {}
    for lvl in (0, 1):
        mesh = core.RemoteMesh((CFG.n_stages,))
        steps[lvl] = mesh.distributed(train_step, optimize=lvl)
        outs[lvl] = steps[lvl](params, batch)
    f0, t0 = ir.tree_flatten(outs[0])
    f1, t1 = ir.tree_flatten(outs[1])
    assert repr(t0) == repr(t1)
    for a, b in zip(f0, f1):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)

    # ---- wall-clock columns (informational) -----------------------------
    wall = {
        lvl: _best_of(lambda s=steps[lvl]: s(params, batch), repeats=9)
        for lvl in (0, 1)
    }

    per_stage = {
        str(s): round(r, 4) for s, r in sorted(reduction.items())
    }
    record = {
        "model": "mini-GPT 4L/4stages d=32",
        "opt_levels": {
            str(lvl): {
                # level 0 carries no report (the optimizer never ran):
                # count the shipped split directly
                "eqns_per_microbatch": sum(
                    t.jaxpr.n_eqns for t in compiled[lvl].split.tasks
                ),
                "boundary_bytes": sum(
                    v.aval.nbytes
                    for t in compiled[lvl].split.tasks
                    for v in t.out_vars
                ),
                "program_key": compiled[lvl].program_key,
            }
            for lvl in (0, 1)
        },
        "level1": {
            "eqns_before": rep1.eqns_before,
            "eqns_after": rep1.eqns_after,
            "stage_eqn_reduction": per_stage,
            "best_stage": best_stage,
            "boundary_bytes_before": rep1.boundary_bytes_before,
            "boundary_bytes_after": rep1.boundary_bytes_after,
            "cse_removed": totals[0],
            "identity_elided": totals[1],
            "dce_removed": totals[2],
            "outputs_deduped": sum(t.outputs_deduped for t in rep1.tasks),
        },
        "step_wallclock_s": {str(lvl): round(t, 6) for lvl, t in wall.items()},
    }
    (results_dir / "BENCH_opt.json").write_text(json.dumps(record, indent=2) + "\n")

    lines = [
        "algebraic optimizer on the mini-GPT pipeline step (pp=4, 1F1B)",
        "",
        f"eqns/microbatch     : {rep1.eqns_before} -> {rep1.eqns_after}",
        f"per-stage reduction : "
        + ", ".join(f"s{s}: {r:.1%}" for s, r in sorted(reduction.items())),
        f"boundary bytes      : {rep1.boundary_bytes_before} -> "
        f"{rep1.boundary_bytes_after} "
        f"({sum(t.outputs_deduped for t in rep1.tasks)} deduped outputs)",
        f"rewrites            : cse {totals[0]}, identity {totals[1]}, "
        f"dce {totals[2]}",
        f"step wall-clock     : "
        + ", ".join(f"L{lvl} {t * 1e3:.2f} ms" for lvl, t in wall.items()),
        "",
        rep1.summary(),
    ]
    emit(results_dir, "opt_differential", "\n".join(lines))
