"""Discrete-event simulation of pipeline training at paper scale.

Reuses the *actual MPMD runtime executor* (:mod:`repro.runtime.executor`)
in simulation mode: tasks carry costs instead of payloads, transfers take
link time from the topology, and the virtual-clock makespan is the step
time. Schedule behaviour (bubbles, warmup, interleaving, overlap of
asynchronous P2P) therefore *emerges* from the same machinery the numeric
runtime uses, rather than from closed-form bubble formulas.

The programs come from the compiler's own emitter,
:meth:`~repro.core.schedule_ir.ScheduleIR.emit`: :func:`cost_only_programs`
is its per-slot function for payload-free tasks. Two entry points run
them on the event engine:

- :func:`simulate_pipeline` prices one full training step of a
  :class:`PipelineSimConfig` (hardware topology, kernels, remat, DP sync);
- :func:`price_schedule` prices a *bare schedule* under an explicit
  per-stage cost table (:class:`repro.core.autotune.CostModel`) — the
  engine behind ``core.autotune``'s ranked search.  It returns the raw
  :class:`~repro.runtime.executor.ExecutionResult`, so callers get the
  wait profile (who parked on what, for how long) alongside the makespan.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.cluster.topology import Topology
from repro.core.schedule_ir import ScheduleIR
from repro.core.schedules import (
    BWD,
    BWD_I,
    BWD_W,
    FWD,
    SCHEDULES,
    Schedule,
    Unit,
)
from repro.perf import comms
from repro.perf.kernels import KernelModel
from repro.perf.memory import RematDecision, decide_remat
from repro.perf.transformer import ModelSpec
from repro.runtime.clock import LinearCost
from repro.runtime.executor import CommMode, MpmdExecutor
from repro.runtime.instructions import BufferRef, RunTask

__all__ = [
    "PipelineSimConfig", "SimResult", "simulate_pipeline", "price_schedule",
    "cost_only_programs",
]


@dataclasses.dataclass(frozen=True)
class PipelineSimConfig:
    """One pipeline-parallel training configuration.

    Attributes:
        model: workload (GPT-3 175B, Llama2 70B, ...).
        node: hardware node spec.
        pp / tp / dp: pipeline, tensor, data parallel degrees.
        v: circular repeat (virtual pipeline chunks per actor).
        mbs: microbatch size (sequences).
        n_mbs: microbatches per pipeline per step (gradient accumulation).
        kernels: software-stack kernel model.
        schedule: a name in :data:`repro.core.schedules.SCHEDULES`.
        comm_mode: ASYNC (JaxPP overlapped P2P) or SYNC (blocking baseline).
    """

    model: ModelSpec
    node: NodeSpec
    pp: int
    tp: int
    dp: int
    v: int
    mbs: int
    n_mbs: int
    kernels: KernelModel
    schedule: str = "interleaved"
    comm_mode: CommMode = CommMode.ASYNC
    # distributed-optimizer sharding across DP replicas (ZeRO-1); NeMo
    # enables this, plain JaxPP/JAX do not
    opt_shard: int = 1

    @property
    def n_gpus(self) -> int:
        """Total GPU count."""
        return self.pp * self.tp * self.dp

    @property
    def global_batch(self) -> int:
        """Global batch size in sequences."""
        return self.mbs * self.n_mbs * self.dp

    @property
    def layers_per_chunk(self) -> int:
        """Transformer blocks per scheduled task."""
        if self.model.n_layers % (self.pp * self.v) != 0:
            raise ValueError(
                f"{self.model.n_layers} layers do not divide into pp*v = {self.pp * self.v} chunks"
            )
        return self.model.n_layers // (self.pp * self.v)

    def build_schedule(self) -> Schedule:
        """Instantiate the schedule object; it must have ``v`` stage
        chunks per actor."""
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        sched = SCHEDULES[self.schedule](self.pp, self.v)
        if sched.n_stages != self.pp * self.v:
            raise ValueError(
                f"{sched.name} has {sched.n_stages // self.pp} stage chunk(s) "
                f"per actor, not v = {self.v}"
            )
        return sched


@dataclasses.dataclass
class SimResult:
    """Simulation outcome.

    Attributes:
        step_time: end-to-end training-step seconds (pipeline makespan +
            data-parallel gradient sync + optimizer).
        makespan: pipeline-phase virtual time.
        remat: the memory/remat decision applied.
        breakdown: seconds by component on the critical actor —
            ``compute``, ``remat``, ``p2p``, ``bubble``, ``dp_allreduce``,
            ``optimizer``, ``dispatch``.
        p2p_bytes: total point-to-point traffic (bytes).
        n_tasks: scheduled task count per actor.
    """

    step_time: float
    makespan: float
    remat: RematDecision
    breakdown: dict
    p2p_bytes: int
    n_tasks: int


class _TopoCost(LinearCost):
    """Link time from the hardware topology; tasks cost their hint."""

    def __init__(self, topo: Topology, dispatch_s: float):
        super().__init__(dispatch=dispatch_s)
        self.topo = topo

    def transfer_time(self, nbytes: int, src: int, dst: int) -> float:
        return self.topo.link(src, dst).transfer_time(nbytes)


def simulate_pipeline(cfg: PipelineSimConfig) -> SimResult:
    """Simulate one training step of ``cfg`` and return timing."""
    model, node, kern = cfg.model, cfg.node, cfg.kernels
    gpu = node.gpu
    sched = cfg.build_schedule()
    n_stages = sched.n_stages
    chunk = cfg.layers_per_chunk
    sched_ir = sched.lower(cfg.n_mbs)

    # ---- memory / remat decision -------------------------------------------
    peak_chunks = sched_ir.peak_live()
    peak_live = max(peak_chunks) / cfg.v if cfg.v > 1 else max(peak_chunks)
    # peak_live is counted in *chunks*; per-device layers = chunk * v.
    remat = decide_remat(
        model, gpu, cfg.pp, cfg.tp, cfg.mbs,
        layers_per_device=chunk * cfg.v,
        peak_live_microbatches=peak_live,
        opt_shard=cfg.opt_shard,
    )

    # ---- per-unit task costs ------------------------------------------------
    # a backward re-runs both TP collectives per matmul pair and carries the
    # remat surcharge; split, the surcharge lands on bwd_i (activation
    # recompute precedes the input gradient) and bwd_w is the deferred,
    # purely local weight-gradient half
    tp_fwd = chunk * comms.tp_allreduce_per_layer(model, node, cfg.mbs, cfg.tp, "fwd", kern.allreduce_latency_s)
    remat_extra = remat.extra_fwd_fraction * kern.block_time(model, gpu, chunk, cfg.mbs, cfg.tp, "fwd")
    frac = sched.bwd_input_fraction

    def unit_cost(u: Unit) -> float:
        d = "fwd" if u.kind == FWD else "bwd"
        t = kern.block_time(model, gpu, chunk, cfg.mbs, cfg.tp, d)
        t = t + tp_fwd if d == "fwd" else t + 2.0 * tp_fwd + remat_extra
        if u.stage == n_stages - 1:
            t += kern.logits_time(model, gpu, cfg.mbs, cfg.tp, d)
        if u.kind == BWD_I:
            return (t - remat_extra) * frac + remat_extra
        if u.kind == BWD_W:
            return (t - remat_extra) * (1.0 - frac)
        return t

    # ---- run the cost-only programs -----------------------------------------
    # on a cluster just big enough (one actor per TP group), with §4.2's recv
    # placement — except the SPMD encoding of GPipe under synchronous comms
    # (§2.2.2): per-iteration recv -> compute -> send, the naive placement
    cluster = ClusterSpec(name="sim", node=node, n_nodes=max(cfg.pp, 1))
    clock = _TopoCost(Topology(cluster=cluster, gpus_per_actor=cfg.tp), kern.dispatch_s)
    boundary = model.boundary_bytes(cfg.mbs) / cfg.tp
    naive = cfg.comm_mode is CommMode.SYNC and cfg.schedule == "gpipe"
    res = _execute(
        sched_ir, unit_cost, lambda stage: boundary, clock, cfg.comm_mode,
        "naive" if naive else "topo",
    )

    # ---- close the step: DP sync + optimizer --------------------------------
    dp_time = comms.dp_gradient_allreduce(model, node, cfg.pp, cfg.tp, cfg.dp)
    # optimizer: ~3 HBM passes over 16 bytes/param of state
    opt_time = model.total_params / (cfg.pp * cfg.tp) * 16.0 * 3.0 / gpu.hbm_bw
    step_time = res.makespan + dp_time + opt_time

    # ---- breakdown on the critical actor ------------------------------------
    # a (split) backward carries the remat surcharge whenever remat is on
    remat_kinds = (BWD, BWD_I) if remat.extra_fwd_fraction > 0 else ()
    crit = max(range(cfg.pp), key=lambda a: res.actor_finish[a])
    compute = remat_t = 0.0
    n_tasks_crit = 0
    for e in res.timeline:
        if e.actor == crit and e.kind == "task":
            extra = remat_extra if e.meta["kind"] in remat_kinds else 0.0
            remat_t += extra
            compute += (e.end - e.start) - extra
            n_tasks_crit += 1
    dispatch = n_tasks_crit * kern.dispatch_s
    compute -= dispatch
    if cfg.comm_mode is CommMode.SYNC:
        p2p = sum(
            e.end - e.start for e in res.timeline if e.actor == crit and e.kind in ("send", "recv")
        )
    else:
        p2p = 0.0  # overlapped; residual shows up as bubble
    bubble = max(res.makespan - compute - remat_t - dispatch - p2p, 0.0)
    breakdown = {
        "compute": compute,
        "remat": remat_t,
        "p2p": p2p,
        "bubble": bubble,
        "dispatch": dispatch,
        "dp_allreduce": dp_time,
        "optimizer": opt_time,
    }
    return SimResult(
        step_time=step_time,
        makespan=res.makespan,
        remat=remat,
        breakdown=breakdown,
        p2p_bytes=res.p2p_bytes,
        n_tasks=len(sched_ir.slots[0]),
    )


def price_schedule(
    schedule: Schedule,
    n_mbs: int,
    cost_model,
    *,
    dispatch_s: float = 0.0,
    p2p_latency_s: float = 0.0,
    p2p_bandwidth: float = float("inf"),
    comm_mode: CommMode = CommMode.ASYNC,
):
    """Price a schedule under an explicit per-stage cost table, on the
    real event engine.

    The schedule's :class:`~repro.core.schedule_ir.ScheduleIR` supplies
    the tasks (its slots) and the transfers (its cross-rank edges); the
    ``cost_model`` — any object with ``unit_time(stage, kind,
    bwd_input_fraction)`` and ``boundary_bytes(stage)``, canonically
    :class:`repro.core.autotune.CostModel` — supplies each task's device
    seconds and each boundary tensor's size.  Emission is the compiler's,
    :meth:`~repro.core.schedule_ir.ScheduleIR.emit` with §4.2's placement.

    Returns the raw :class:`~repro.runtime.executor.ExecutionResult`:
    ``makespan`` is the schedule's pipeline-phase time, and
    ``wait_profile`` / ``parked_by_rank()`` carry the per-resource /
    per-rank parked-time feedback that drives ``core.autotune``'s
    second search round.
    """
    frac = schedule.bwd_input_fraction
    return _execute(
        schedule.lower(n_mbs),
        lambda u: cost_model.unit_time(u.stage, u.kind, frac),
        cost_model.boundary_bytes,
        LinearCost(dispatch=dispatch_s, p2p_latency=p2p_latency_s, p2p_bandwidth=p2p_bandwidth),
        comm_mode,
    )


def cost_only_programs(
    ir: ScheduleIR,
    unit_cost: Callable[[Unit], float],
    out_bytes: Callable[[int], float],
    placement: str = "topo",
) -> list[list]:
    """One payload-free program per rank of ``ir``, emitted by
    :meth:`~repro.core.schedule_ir.ScheduleIR.emit` with ``placement``: a
    ``RunTask`` per slot costing ``unit_cost(unit)`` seconds and reading
    ``ir.buffer_deps``, and one ``out_bytes(stage)``-byte transfer to each
    other rank that consumes its output."""

    def uid(u: Unit) -> str:
        return f"{u.kind}{u.stage}.{u.mb}"

    def slot_fn(slot):
        u = slot.unit
        nbytes = int(out_bytes(u.stage))
        ref = BufferRef(uid(u))
        task = RunTask(
            name=f"{u.kind}{u.stage}({u.mb})",
            in_refs=[BufferRef(uid(d.unit)) for d in ir.buffer_deps(slot)],
            out_refs=[ref],
            fn=None,
            cost=unit_cost(u),
            meta={"kind": u.kind, "stage": u.stage, "mb": u.mb,
                  "out_nbytes": [nbytes if u.kind != BWD_W else 0]},
        )
        sends = [(ref, ref.uid, nbytes, c.rank, c) for c in ir.send_targets(slot)]
        return [task], sends, []

    return ir.emit(slot_fn, placement)


def _execute(ir, unit_cost, out_bytes, clock, comm_mode, placement="topo"):
    """Run :func:`cost_only_programs` on the event engine, timed by the
    runtime cost model ``clock``."""
    executor = MpmdExecutor(ir.n_ranks, cost_model=clock, comm_mode=comm_mode)
    return executor.execute(
        cost_only_programs(ir, unit_cost, out_bytes, placement),
        wake_order=ir.initial_ready_ranks(),
    )
