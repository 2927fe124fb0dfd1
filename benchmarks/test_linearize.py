"""Task-backend benchmark: interpret vs linear VM vs codegen (PR 3 + PR 7).

Three execution tiers for the same lowered stage tasks:

- ``interpret``: tree-walking reference (one Python dispatch per eqn);
- ``linear``: slot-indexed VM over a ``LinearProgram`` (PR 3 — one
  dispatch per *instruction*, with folding/aliasing/fusion);
- ``codegen``: each program exec-compiled into straight-line Python
  source (PR 7 — dispatch only at guaranteed impl-call sites).

The acceptance gate rides on the *deployed* steady state: a full
pipeline step with ``task_backend="codegen"`` under whole-actor fusion
(``codegen_actor=True`` merges every actor's instruction stream into one
generated driver) must be faster wall-clock than the ``"linear"``
reference backend on the stock event engine by more than the run's own
spread, bit-identical outputs included.  The two steps are sampled
alternately and compared pair by pair: ``median(fused) + 1.5 * IQR <
median(linear_event)`` in units of the fused step, i.e. ``median(r) -
1.5 * IQR(r) > 1`` over the paired ratios ``r = linear_event / fused``,
so a machine-speed plateau that hits both halves of a pair cancels (the
raw series' own IQRs carry that drift: one run read 8.5 ms of IQR on a
20 ms median).  The ratio of the medians is recorded, not gated: it read
1.98x-2.30x on identical code against the fixed 2.0x floor this
replaces.  Task-level columns are reported alongside (they share the
same C-kernel floor, so their ratio saturates below the step-level one).

Writes ``BENCH_linearize.json`` with the three-column matrix,
per-backend Python-call counts, and the step-level measure.
"""

import json
import statistics
import time

import numpy as np

from repro import core, ir
from repro.core.compile import compile_train_step
from repro.data import token_batches
from repro.ir.codegen import CodegenProgram, codegen
from repro.ir.linearize import linearize
from repro.models import TransformerConfig, init_transformer, transformer_loss
from repro.runtime.instructions import RunTask
from tests.helpers import payload

from .conftest import emit

CFG = TransformerConfig(
    vocab=32, seq=12, d_model=32, n_heads=4, d_ff=64,
    n_layers=4, n_stages=4, tie_embeddings=False,
)
N_MBS, MBSZ = 4, 8

#: step-level gate: the median paired ratio linear/event : codegen+fused
#: must clear 1.0 by more than this many of the ratios' inter-quartile ranges
STEP_MARGIN_IQRS = 1.5


def _transformer_step():
    params = init_transformer(np.random.RandomState(0), CFG)
    batch = next(token_batches(CFG.vocab, CFG.seq, N_MBS, MBSZ, 1, seed=2))

    def train_step(params, batch):
        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(
                lambda p, mb: transformer_loss(p, mb, CFG)
            )(params, mb)
            return grads, loss

        grads, losses = core.accumulate_grads(microbatch_grads, core.OneFOneB(CFG.n_stages))(batch)
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


def _interleaved(fns, repeats, calls=5):
    """Wall-clock samples of each fn, taken round-robin so a machine-speed
    plateau lands on every series alike.  A sample is the fastest of
    ``calls`` back-to-back calls: a neighbour's time-slice stretches one
    10 ms call, rarely three in a row."""
    for fn in fns:
        fn()  # warm
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for series, fn in zip(samples, fns):
            best = float("inf")
            for _ in range(calls):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            series.append(best)
    return samples


def _median_iqr(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return median, q3 - q1


def test_backend_matrix_and_step_wallclock_floor(results_dir):
    train_step, params, batch = _transformer_step()
    jaxpr, _, _ = ir.trace(train_step, params, batch)
    compiled = compile_train_step(
        jaxpr, core.OneFOneB(CFG.n_stages), task_backend="codegen"
    )

    # ---- static per-step dispatch accounting over every loop RunTask ----
    # CodegenProgram.stats carries the whole column stack: eqn dispatches
    # (interpret), VM instruction calls (linear), and guaranteed call
    # sites of the generated source (codegen).
    totals = {
        "eqns": 0, "instructions": 0,
        "interp_calls": 0, "vm_calls": 0, "codegen_calls": 0,
        "codegen_residual_checks": 0,
    }
    per_task: dict[int, dict] = {}
    for prog in compiled.programs:
        for instr in prog:
            # loop phase only: the pre/post clusters carry their own
            # per-step codegen payloads
            fn = payload(instr.fn) if isinstance(instr, RunTask) else None
            if isinstance(fn, CodegenProgram) and instr.meta.get("phase") == "loop":
                s = fn.stats
                totals["eqns"] += s["n_eqns"]
                totals["instructions"] += s["n_instructions"]
                totals["interp_calls"] += s["interp_calls_per_run"]
                totals["vm_calls"] += s["vm_calls_per_run"]
                totals["codegen_calls"] += s["codegen_calls_per_run"]
                totals["codegen_residual_checks"] += s["codegen_residual_checks"]
                per_task.setdefault(id(fn), s)

    assert totals["instructions"] > 0, "no codegen task payloads found"
    assert totals["instructions"] < totals["eqns"]
    vm_ratio = totals["interp_calls"] / totals["vm_calls"]
    cg_ratio = totals["interp_calls"] / totals["codegen_calls"]
    assert vm_ratio >= 2.0, f"linear dispatch reduction only {vm_ratio:.2f}x"
    assert cg_ratio >= 2.0, f"codegen call reduction only {cg_ratio:.2f}x"
    # codegen's count is exhaustive (impls + input conversions + residual
    # dtype checks); the VM performs those too but counts only instruction
    # dispatches, so the columns are floors, not directly ordered.  What
    # must hold: almost all dynamic dtype checks are resolved at gen time.
    assert totals["codegen_residual_checks"] < totals["instructions"]
    assert len(per_task) <= len(compiled.split.tasks)

    # ---- task-level wall-clock: transformer gradient jaxpr, 3 columns ---
    mb = (batch[0][0], batch[1][0])
    grad_jaxpr, _, _ = ir.trace(
        lambda p, mb: ir.value_and_grad(
            lambda p, mb: transformer_loss(p, mb, CFG)
        )(p, mb),
        params, mb,
    )
    flat, _ = ir.tree_flatten((params, mb))
    lin = linearize(grad_jaxpr)
    cg = codegen(grad_jaxpr)

    ref = ir.eval_jaxpr(grad_jaxpr, flat)
    for backend_out in (lin(flat), cg(flat)):
        for a, b in zip(ref, backend_out):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    t_interp = _best_of(lambda: ir.eval_jaxpr(grad_jaxpr, flat))
    t_linear = _best_of(lambda: lin(flat))
    t_codegen = _best_of(lambda: cg(flat))
    assert t_linear <= t_interp
    assert t_codegen <= t_linear, (
        f"codegen slower than linear VM: {t_codegen:.6f}s vs {t_linear:.6f}s"
    )

    # ---- step-level wall-clock: deployed steady state (the floor) -------
    # linear backend on the stock event engine vs codegen backend with the
    # whole-actor fused driver — same schedule, same inputs, bit-identical.
    mesh_lin = core.RemoteMesh((CFG.n_stages,))
    step_lin = mesh_lin.distributed(train_step, task_backend="linear")
    mesh_cg = core.RemoteMesh((CFG.n_stages,), codegen_actor=True)
    step_cg = mesh_cg.distributed(train_step, task_backend="codegen")

    out_lin = step_lin(params, batch)
    out_cg = step_cg(params, batch)
    fa, _ = ir.tree_flatten(out_lin)
    fb, _ = ir.tree_flatten(out_cg)
    for a, b in zip(fa, fb):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)

    lin_samples, cg_samples = _interleaved(
        [lambda: step_lin(params, batch), lambda: step_cg(params, batch)], repeats=25
    )
    t_step_lin, iqr_lin = _median_iqr(lin_samples)
    t_step_cg, iqr_cg = _median_iqr(cg_samples)
    step_speedup = t_step_lin / t_step_cg
    pair_ratio, pair_iqr = _median_iqr(
        [lin / cg for lin, cg in zip(lin_samples, cg_samples)]
    )
    assert pair_ratio - STEP_MARGIN_IQRS * pair_iqr > 1.0, (
        f"codegen+fused step not separated from linear/event: paired ratio "
        f"{pair_ratio:.2f}x, IQR {pair_iqr:.2f} "
        f"({t_step_cg * 1e3:.2f} ms vs {t_step_lin * 1e3:.2f} ms)"
    )

    driver = step_cg._fused[1]
    gstats = cg.stats
    record = {
        "model": "mini-GPT 4L/4stages d=32",
        "per_step_python_calls": {
            "interpret": totals["interp_calls"],
            "linear": totals["vm_calls"],
            "codegen": totals["codegen_calls"],
            "codegen_residual_checks": totals["codegen_residual_checks"],
            "eqns": totals["eqns"],
            "vm_instructions": totals["instructions"],
            "linear_call_ratio": round(vm_ratio, 3),
            "codegen_call_ratio": round(cg_ratio, 3),
        },
        "grad_jaxpr": {
            "n_eqns": gstats["n_eqns"],
            "n_instructions": gstats["n_instructions"],
            "folded": gstats["folded"],
            "aliased": gstats["aliased"],
            "fused_away": gstats["fused_away"],
            "donations": gstats["donations"],
            "codegen_calls_per_run": gstats["codegen_calls_per_run"],
        },
        "task_wallclock_s": {
            "interpret": round(t_interp, 6),
            "linear": round(t_linear, 6),
            "codegen": round(t_codegen, 6),
            "linear_speedup_vs_interpret": round(t_interp / t_linear, 3),
            "codegen_speedup_vs_interpret": round(t_interp / t_codegen, 3),
            "codegen_speedup_vs_linear": round(t_linear / t_codegen, 3),
        },
        "step_wallclock_s": {
            "linear_event": round(t_step_lin, 6),
            "codegen_fused_actor": round(t_step_cg, 6),
            "speedup": round(step_speedup, 3),
            "samples": len(lin_samples),
            "iqr_s": {
                "linear_event": round(iqr_lin, 6),
                "codegen_fused_actor": round(iqr_cg, 6),
            },
            "paired_ratio": {"median": round(pair_ratio, 3), "iqr": round(pair_iqr, 3)},
            "fused_instructions": driver.n_instructions,
            "fused_task_calls": driver.n_tasks,
            "fused_p2p_rebinds": driver.p2p_count,
        },
    }
    (results_dir / "BENCH_linearize.json").write_text(json.dumps(record, indent=2) + "\n")

    lines = [
        "task backends: interpret vs linear VM vs codegen (transformer example)",
        "",
        f"per-step loop tasks : {totals['eqns']} eqn dispatches -> "
        f"{totals['instructions']} VM instructions",
        f"python-level calls  : interpret {totals['interp_calls']} -> "
        f"linear {totals['vm_calls']} ({vm_ratio:.2f}x) -> "
        f"codegen {totals['codegen_calls']} ({cg_ratio:.2f}x, "
        f"{totals['codegen_residual_checks']} residual dtype checks)",
        f"grad jaxpr          : {gstats['n_eqns']} eqns -> "
        f"{gstats['n_instructions']} instrs -> "
        f"{gstats['codegen_calls_per_run']} generated call sites",
        f"task wall-clock     : interpret {t_interp * 1e3:.2f} ms, "
        f"linear {t_linear * 1e3:.2f} ms ({t_interp / t_linear:.2f}x), "
        f"codegen {t_codegen * 1e3:.2f} ms ({t_interp / t_codegen:.2f}x)",
        f"step wall-clock     : linear/event {t_step_lin * 1e3:.2f} ms, "
        f"codegen+fused-actor {t_step_cg * 1e3:.2f} ms "
        f"({step_speedup:.2f}x on medians of {len(lin_samples)}; paired "
        f"ratio {pair_ratio:.2f}x, IQR {pair_iqr:.2f}); "
        f"driver fuses {driver.n_instructions} instructions into "
        f"{driver.n_tasks} task calls + {driver.p2p_count} rebinds",
    ]
    emit(results_dir, "linearize_dispatch", "\n".join(lines))


def test_backend_end_to_end_step_identical(results_dir):
    """The full distributed step is bit-identical across all three task
    backends on the benchmark workload itself (gallery-wide coverage
    lives in tier-1)."""
    train_step, params, batch = _transformer_step()
    outs = {}
    for backend in ("linear", "interpret", "codegen"):
        mesh = core.RemoteMesh((CFG.n_stages,))
        step = mesh.distributed(train_step, task_backend=backend)
        outs[backend] = step(params, batch)
    fa, _ = ir.tree_flatten(outs["linear"])
    for other in ("interpret", "codegen"):
        fb, _ = ir.tree_flatten(outs[other])
        for a, b in zip(fa, fb):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
