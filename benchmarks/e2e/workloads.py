"""The four benchmark workloads.

Each is a real training loop -- mini-GPT with tied embeddings (so §3.4
loop commuting is on) and Adam inside the traced step, the shape of the
paper's Figure 4 -- on a different production path through the stack.
README.md records why each exists and which layers it stresses.

Importing this module imports nothing from ``repro``: :func:`build` does,
so a segment can time ``import repro`` as part of set-up.
"""

from __future__ import annotations

import dataclasses
from typing import Any

N_BATCHES = 8  # pre-generated batches the loop cycles through
LR = 3e-3  # Adam's constant learning rate: the most one step moves a parameter

_SMALL = dict(vocab=64, seq=12, d_model=32, n_heads=4, d_ff=64, n_layers=4)
_MID = dict(vocab=128, seq=32, d_model=128, n_heads=4, d_ff=256, n_layers=4)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark configuration.

    ``schedule`` is ``(class name in repro.core, ctor args)``; ``mesh`` and
    ``distributed`` are keyword arguments of ``RemoteMesh`` and
    ``RemoteMesh.distributed``.  ``family`` names workloads whose
    arithmetic is identical, so their parameter checksums must agree.
    """

    name: str
    why: str
    model: dict
    n_stages: int
    schedule: tuple
    mesh: dict
    distributed: dict
    family: str
    checksum_step: int
    n_mbs: int = 4
    mbsz: int = 8

    @property
    def tokens_per_step(self) -> int:
        return self.n_mbs * self.mbsz * self.model["seq"]

    @property
    def in_process(self) -> bool:
        return self.mesh.get("engine", "event") != "mp"

    @property
    def busy_processes(self) -> int:
        """Processes that compute during a step: the driver alone, or one
        worker per rank.  The calibration kernel runs on as many hardware
        threads at once (see ``calib.Meter``)."""
        return 1 if self.in_process else self.mesh["shape"][-1]

    @property
    def event_engine(self) -> bool:
        """``runtime.executor``'s event loop runs every instruction in the
        driver process (no worker processes, no fused driver)."""
        return self.in_process and not self.mesh.get("codegen_actor", False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gpt_small_event",
            why="defaults (linear VM + event engine), 4 stages: dispatch-bound, "
                "runtime.executor and ir.linearize do most of the work",
            model=_SMALL, n_stages=4, schedule=("OneFOneB", (4,)),
            mesh=dict(shape=(4,)), distributed={},
            family="small", checksum_step=50,
        ),
        Workload(
            name="gpt_small_fused",
            why="codegen tasks + fused whole-mesh driver: bypasses runtime.executor, "
                "so engine changes predict no movement; codegen/opt changes show first",
            model=_SMALL, n_stages=4, schedule=("OneFOneB", (4,)),
            mesh=dict(shape=(4,), codegen_actor=True),
            distributed=dict(task_backend="codegen"),
            family="small", checksum_step=50,
        ),
        Workload(
            name="gpt_small_mp2",
            why="process-per-rank warm pool, 12 KiB activations on the pickle/queue "
                "transport: submit, staging, queue hops and merge dominate",
            model=_SMALL, n_stages=2, schedule=("OneFOneB", (2,)),
            mesh=dict(shape=(2,), engine="mp"), distributed={},
            family="small", checksum_step=50,
        ),
        Workload(
            name="gpt_mid_mp2",
            why="Interleaved1F1B(2,2) on 2 processes, 128 KiB activations over shared "
                "memory, per-rank fused drivers: numpy compute and rank overlap dominate",
            model=_MID, n_stages=4, schedule=("Interleaved1F1B", (2, 2)),
            mesh=dict(shape=(2,), engine="mp", codegen_actor=True),
            distributed=dict(task_backend="codegen"),
            family="mid", checksum_step=10,
        ),
    )
}


@dataclasses.dataclass
class Built:
    """Everything a segment needs to run the loop and its reference."""

    mesh: Any
    step_fn: Any
    train_step: Any
    state: Any
    batches: list


def build(w: Workload, seed: int) -> Built:
    """Import ``repro`` and construct the mesh, the (not yet compiled)
    step function, the initial state and the batch ring for ``w``.

    ``seed`` seeds parameter init and the token stream; the program only
    ever sees the generated arrays.
    """
    import numpy as np

    from repro import core, ir
    from repro.data import token_batches
    from repro.models import (
        TrainState, TransformerConfig, adam_apply, adam_init, constant_lr,
        init_transformer, transformer_loss,
    )

    cfg = TransformerConfig(n_stages=w.n_stages, tie_embeddings=True, **w.model)
    schedule = getattr(core, w.schedule[0])(*w.schedule[1])
    lr = constant_lr(LR)

    def train_step(state, batch):
        def microbatch_grads(mubatch):
            loss, grads = ir.value_and_grad(
                lambda p, mb: transformer_loss(p, mb, cfg)
            )(state.params, mubatch)
            return grads, loss

        grads, losses = core.accumulate_grads(microbatch_grads, schedule)(batch)
        return adam_apply(state, grads, lr(state.step)), losses

    params = init_transformer(np.random.RandomState(seed), cfg)
    state = TrainState(params, adam_init(params), np.int32(0))
    batches = list(
        token_batches(cfg.vocab, cfg.seq, w.n_mbs, w.mbsz, N_BATCHES, seed=seed + 1)
    )
    mesh = core.RemoteMesh(**w.mesh)
    step_fn = mesh.distributed(train_step, **w.distributed)
    return Built(mesh, step_fn, train_step, state, batches)
