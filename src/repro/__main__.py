"""Artefact regenerator CLI: ``python -m repro <artefact>``.

Regenerates the paper's evaluation artefacts without pytest::

    python -m repro table1
    python -m repro fig6 fig8
    python -m repro all

and the generated documentation::

    python -m repro docs-schedules   # rewrites docs/SCHEDULES.md in place

and debugging aids::

    python -m repro dump-codegen     # generated source of the codegen backend

(The benchmark suite under ``benchmarks/`` runs the same computations with
acceptance assertions; this CLI is the quick interactive path.)
"""

from __future__ import annotations

import pathlib
import sys

from repro.perf import GPT3_175B, LLAMA2_70B, jax_fsdp, jax_spmd_pp, jaxpp, nemo


def table1() -> None:
    """Regenerate Table 1."""
    print(f"{'System':<12} {'Model':<7} {'GBS':>5} {'GPUs':>5} {'step(s)':>8} {'TF/dev':>7}")
    for dp in (1, 2, 4, 8, 16):
        r = jaxpp(GPT3_175B, pp=8, tp=8, dp=dp, v=6, mbs=4, n_mbs=32)
        print(f"{'JaxPP':<12} {'gpt3':<7} {128 * dp:>5} {64 * dp:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")
    for n, grp in ((64, 64), (128, 128), (256, 128), (512, 128), (1024, 128)):
        r = jax_fsdp(GPT3_175B, n, 2 * n, fsdp_group=grp)
        print(f"{'JAX FSDP':<12} {'gpt3':<7} {2 * n:>5} {n:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")
    r = jax_spmd_pp(GPT3_175B, pp=16, tp=4, dp=2, mbs=1, n_mbs=128)
    print(f"{'JAX SPMD PP':<12} {'gpt3':<7} {256:>5} {128:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")
    r = nemo(GPT3_175B, pp=8, tp=4, dp=4, v=2, mbs=1, n_mbs=64)
    print(f"{'NeMo':<12} {'gpt3':<7} {256:>5} {128:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")
    r = jaxpp(LLAMA2_70B, pp=4, tp=8, dp=2, v=5, mbs=4, n_mbs=16)
    print(f"{'JaxPP':<12} {'llama2':<7} {128:>5} {64:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")
    r = jax_fsdp(LLAMA2_70B, 64, 128, fsdp_group=64)
    print(f"{'JAX FSDP':<12} {'llama2':<7} {128:>5} {64:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")
    r = nemo(LLAMA2_70B, pp=4, tp=4, dp=4, v=4, mbs=1, n_mbs=32)
    print(f"{'NeMo':<12} {'llama2':<7} {128:>5} {64:>5} {r.step_time:>8.2f} {r.reported_tflops:>7.0f}")


def fig6() -> None:
    """Regenerate Figure 6."""
    combos = ((1, 128), (2, 64), (4, 32))
    print("circ  " + " ".join(f"{f'{m}-{g}':>8}" for m, g in combos))
    for v in (1, 2, 3, 6, 12):
        tf = [jaxpp(GPT3_175B, pp=8, tp=8, dp=1, v=v, mbs=m, n_mbs=g).tflops for m, g in combos]
        print(f"{v:>4}  " + " ".join(f"{x:>8.0f}" for x in tf))


def fig7() -> None:
    """Regenerate Figure 7."""
    print("n_mbs  " + " ".join(f"mbs={m}" for m in (1, 2, 4)))
    for n in (8, 16, 32, 64, 128, 256, 512):
        tf = [jaxpp(GPT3_175B, pp=8, tp=8, dp=1, v=6, mbs=m, n_mbs=n).tflops for m in (1, 2, 4)]
        print(f"{n:>5}  " + " ".join(f"{x:>6.0f}" for x in tf))


def fig8() -> None:
    """Regenerate Figure 8."""
    print(f"{'#GPUs':>6} {'JaxPP':>7} {'FSDP':>7}")
    for gpus, dp in ((64, 1), (128, 2), (256, 4), (512, 8), (1024, 16)):
        j = jaxpp(GPT3_175B, pp=8, tp=8, dp=dp, v=6, mbs=4, n_mbs=32)
        f = jax_fsdp(GPT3_175B, gpus, 2 * gpus, fsdp_group=min(gpus, 128))
        print(f"{gpus:>6} {j.tflops:>7.0f} {f.tflops:>7.0f}")


def fig9() -> None:
    """Regenerate Figure 9."""
    print("GPT-3 175B (GBS 256, 128 GPUs):")
    for name, r in [
        ("JAX SPMD PP", jax_spmd_pp(GPT3_175B, pp=16, tp=4, dp=2, mbs=1, n_mbs=128)),
        ("JAX FSDP", jax_fsdp(GPT3_175B, 128, 256, fsdp_group=128)),
        ("JaxPP", jaxpp(GPT3_175B, pp=8, tp=8, dp=2, v=6, mbs=4, n_mbs=32)),
        ("NeMo", nemo(GPT3_175B, pp=8, tp=4, dp=4, v=2, mbs=1, n_mbs=64)),
    ]:
        print(f"  {name:<12} {r.reported_tflops:>6.0f} TF/dev  ({r.step_time:.2f}s)")
    print("Llama2 70B (GBS 128, 64 GPUs):")
    for name, r in [
        ("JAX FSDP", jax_fsdp(LLAMA2_70B, 64, 128, fsdp_group=64)),
        ("JaxPP", jaxpp(LLAMA2_70B, pp=4, tp=8, dp=2, v=5, mbs=4, n_mbs=16)),
        ("NeMo", nemo(LLAMA2_70B, pp=4, tp=4, dp=4, v=4, mbs=1, n_mbs=32)),
    ]:
        print(f"  {name:<12} {r.reported_tflops:>6.0f} TF/dev  ({r.step_time:.2f}s)")


def fig10() -> None:
    """Regenerate Figure 10."""
    spmd = jax_spmd_pp(GPT3_175B, pp=16, tp=4, dp=2, mbs=1, n_mbs=128)
    jx = jaxpp(GPT3_175B, pp=8, tp=8, dp=2, v=6, mbs=4, n_mbs=32)
    print(f"{'segment':<22} {'SPMD PP':>8} {'JaxPP':>8}")
    for key in ("p2p", "remat", "compute", "bubble"):
        print(f"{key:<22} {spmd.breakdown[key]:>8.2f} {jx.breakdown[key]:>8.2f}")
    print(f"{'total step':<22} {spmd.step_time:>8.2f} {jx.step_time:>8.2f}")


def dump_codegen() -> None:
    """Print the generated Python source of the codegen task backend.

    Shows both fusion layers on a small demo: the per-task source one
    ``CodegenProgram`` exec-compiles from a lowered ``LinearProgram``
    (``task_backend="codegen"``), and the whole-mesh driver every warm
    ``engine="event"`` step runs (send/recv pairs collapsed into local
    rebinds)."""
    import numpy as np

    from repro import core, ir
    from repro.ir.codegen import codegen
    from repro.runtime.actorgen import fuse_mesh
    from repro.runtime.instructions import RunTask

    def loss_fn(w1, w2, x):
        h = ir.ops.tanh(ir.ops.matmul(x, w1))
        y = ir.ops.matmul(h, w2)
        return ir.ops.reduce_sum(ir.ops.mul(y, y))

    rng = np.random.RandomState(0)
    w1, w2 = rng.randn(8, 16).astype(np.float32), rng.randn(16, 4).astype(np.float32)
    x = rng.randn(2, 8).astype(np.float32)
    jaxpr, _, _ = ir.trace(ir.value_and_grad(loss_fn), w1, w2, x)
    program = codegen(jaxpr)
    print("== task source: CodegenProgram over value_and_grad(mlp) ==")
    print(program.source)

    def train_step(params, batch):
        def microbatch_grads(mb):
            def mb_loss(p, mb):
                h = ir.pipeline_yield(ir.ops.tanh(ir.ops.matmul(mb, p["w1"])))
                y = ir.ops.matmul(h, p["w2"])
                return ir.ops.reduce_sum(ir.ops.mul(y, y))

            loss, grads = ir.value_and_grad(mb_loss)(params, mb)
            return grads, loss

        grads, losses = core.accumulate_grads(microbatch_grads, core.GPipe(2))(batch)
        return grads, losses

    params = {"w1": w1, "w2": w2}
    batch = rng.randn(2, 2, 8).astype(np.float32)
    from repro.core.compile import compile_train_step

    tj, _, _ = ir.trace(train_step, params, batch)
    compiled = compile_train_step(tj, core.GPipe(2), task_backend="codegen")
    out_keys = [(s[1], s[2]) for s in compiled.output_sources if s[0] == "buffer"]
    initial = [
        (a, uid) for pl in compiled.input_placements for a, uid in pl
    ] + [(a, uid) for a, uid, _ in compiled.literal_placements]
    driver = fuse_mesh(compiled.programs, out_keys, initial)
    n_tasks = sum(
        isinstance(i, RunTask) for prog in compiled.programs for i in prog
    )
    print(f"== mesh driver: 2-stage GPipe, {driver.n_instructions} instructions"
          f" / {n_tasks} tasks fused ==")
    print(driver.source)


def docs_schedules() -> None:
    """Regenerate ``docs/SCHEDULES.md`` from the live schedule gallery
    (diagrams and stats come from the real implementation, so the page
    cannot drift from the code — CI fails when it is stale)."""
    from repro.docsgen import write_schedules_md

    target = pathlib.Path(__file__).resolve().parents[2] / "docs" / "SCHEDULES.md"
    changed = write_schedules_md(target)
    print(f"{'regenerated' if changed else 'up to date'}: {target}")


ARTEFACTS = {
    "table1": table1, "fig6": fig6, "fig7": fig7,
    "fig8": fig8, "fig9": fig9, "fig10": fig10,
    "docs-schedules": docs_schedules,
    "dump-codegen": dump_codegen,
}


def main(argv: list[str]) -> int:
    """Entry point."""
    targets = argv or ["table1"]
    if targets == ["all"]:
        targets = list(ARTEFACTS)
    for t in targets:
        fn = ARTEFACTS.get(t)
        if fn is None:
            print(f"unknown artefact {t!r}; choose from {sorted(ARTEFACTS)} or 'all'")
            return 2
        print(f"\n=== {t} ===")
        fn()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
