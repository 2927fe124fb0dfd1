"""Discrete-event simulation of pipeline training at paper scale.

Reuses the *actual MPMD runtime executor* (:mod:`repro.runtime.executor`)
in simulation mode: tasks carry costs instead of payloads, transfers take
link time from the topology, and the virtual-clock makespan is the step
time. Schedule behaviour (bubbles, warmup, interleaving, overlap of
asynchronous P2P) therefore *emerges* from the same machinery the numeric
runtime uses, rather than from closed-form bubble formulas.

Two entry points share that machinery:

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

from repro.cluster.specs import NodeSpec
from repro.cluster.topology import Topology
from repro.core.schedules import (
    BWD,
    BWD_I,
    BWD_W,
    FWD,
    Eager1F1B,
    GPipe,
    Interleaved1F1B,
    InterleavedZB,
    LoopedBFS,
    OneFOneB,
    Schedule,
    ZBH1,
    ZBH2,
    ZBV,
)
from repro.perf import comms
from repro.perf.kernels import KernelModel
from repro.perf.memory import RematDecision, decide_remat
from repro.perf.transformer import ModelSpec
from repro.runtime.clock import CostModel
from repro.runtime.executor import CommMode, MpmdExecutor
from repro.runtime.instructions import BufferRef, Recv, RunTask, Send

__all__ = ["PipelineSimConfig", "SimResult", "simulate_pipeline", "price_schedule"]


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
        schedule: ``"interleaved"`` / ``"1f1b"`` / ``"gpipe"`` /
            ``"eager1f1b"`` / ``"zbh1"`` / ``"zbh2"`` / ``"zbv"`` /
            ``"looped_bfs"`` / ``"interleaved_zb"``.
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
        """Instantiate the schedule object."""
        if self.schedule == "gpipe":
            if self.v != 1:
                raise ValueError("GPipe has no circular repeat")
            return GPipe(self.pp)
        if self.schedule == "1f1b":
            if self.v != 1:
                raise ValueError("use schedule='interleaved' for v > 1")
            return OneFOneB(self.pp)
        if self.schedule == "eager1f1b":
            if self.v != 1:
                raise ValueError("Eager1F1B has no circular repeat")
            return Eager1F1B(self.pp)
        if self.schedule == "zbh1":
            if self.v != 1:
                raise ValueError("ZB-H1 has no circular repeat")
            return ZBH1(self.pp)
        if self.schedule == "zbh2":
            if self.v != 1:
                raise ValueError("ZB-H2 has no circular repeat")
            return ZBH2(self.pp)
        if self.schedule == "zbv":
            if self.v != 2:
                raise ValueError("ZB-V has exactly two v-shape chunks per actor")
            return ZBV(self.pp)
        if self.schedule == "interleaved":
            return Interleaved1F1B(self.pp, self.v)
        if self.schedule == "looped_bfs":
            return LoopedBFS(self.pp, self.v)
        if self.schedule == "interleaved_zb":
            return InterleavedZB(self.pp, self.v)
        raise ValueError(f"unknown schedule {self.schedule!r}")


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


class _TopoCost(CostModel):
    def __init__(self, topo: Topology, kernels: KernelModel):
        self.topo = topo
        self.kernels = kernels

    def task_time(self, cost_hint: float, meta: dict) -> float:
        return cost_hint

    def dispatch_overhead(self) -> float:
        return self.kernels.dispatch_s

    def transfer_time(self, nbytes: int, src: int, dst: int) -> float:
        return self.topo.link(src, dst).transfer_time(nbytes)

    def collective_time(self, nbytes: int, group) -> float:  # pragma: no cover
        return 0.0


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

    # ---- per-stage task costs -----------------------------------------------
    tp_fwd = chunk * comms.tp_allreduce_per_layer(model, node, cfg.mbs, cfg.tp, "fwd", kern.allreduce_latency_s)
    tp_bwd = 2.0 * tp_fwd  # backward re-runs both collectives per matmul pair

    def fwd_cost(stage: int) -> float:
        t = kern.block_time(model, gpu, chunk, cfg.mbs, cfg.tp, "fwd") + tp_fwd
        if stage == n_stages - 1:
            t += kern.logits_time(model, gpu, cfg.mbs, cfg.tp, "fwd")
        return t

    def bwd_cost(stage: int) -> float:
        t = kern.block_time(model, gpu, chunk, cfg.mbs, cfg.tp, "bwd") + tp_bwd
        t += remat.extra_fwd_fraction * kern.block_time(model, gpu, chunk, cfg.mbs, cfg.tp, "fwd")
        if stage == n_stages - 1:
            t += kern.logits_time(model, gpu, cfg.mbs, cfg.tp, "bwd")
        return t

    # ---- emit instruction programs from the schedule IR ---------------------
    # the IR's slots are the tasks and its cross-rank edges are the
    # transfers; nothing about unit dependencies is re-derived here
    topo = Topology(cluster=_adhoc_cluster(node, cfg.pp), gpus_per_actor=cfg.tp)
    boundary = model.boundary_bytes(cfg.mbs) / cfg.tp

    ir = sched_ir
    programs: list[list] = [[] for _ in range(cfg.pp)]

    def uid(u) -> str:
        return f"{u.kind}{u.stage}.{u.mb}"

    remat_extra = remat.extra_fwd_fraction * kern.block_time(
        model, gpu, chunk, cfg.mbs, cfg.tp, "fwd"
    )

    def make_task(slot) -> RunTask:
        u = slot.unit
        # cross-rank inputs arrive as recv'd buffers; the weight-gradient
        # half waits on its local input-gradient buffer (ir.buffer_deps)
        in_refs = [BufferRef(uid(d.unit)) for d in ir.buffer_deps(slot)]
        is_remat = False
        if u.kind == FWD:
            cost = fwd_cost(u.stage)
        elif u.kind == BWD:
            cost = bwd_cost(u.stage)
            is_remat = remat.extra_fwd_fraction > 0
        elif u.kind == BWD_I:
            # activation recompute must precede the input gradient, so the
            # remat surcharge lands on this half of the split backward
            cost = (bwd_cost(u.stage) - remat_extra) * sched.bwd_input_fraction + remat_extra
            is_remat = remat.extra_fwd_fraction > 0
        else:  # BWD_W: the deferred, purely local weight-gradient half
            cost = (bwd_cost(u.stage) - remat_extra) * (1.0 - sched.bwd_input_fraction)
        glyph = {FWD: "f", BWD: "b", BWD_I: "bi", BWD_W: "w"}[u.kind]
        return RunTask(
            name=f"{glyph}{u.stage}({u.mb})",
            in_refs=in_refs,
            out_refs=[BufferRef(uid(u))],
            fn=None,
            cost=cost,
            meta={"kind": u.kind, "stage": u.stage, "mb": u.mb,
                  "out_nbytes": [int(boundary) if u.kind != BWD_W else 0],
                  "remat": is_remat},
        )

    # Per-iteration recv->compute->send ordering is only deadlock-free for
    # GPipe's phase-separated structure; under 1F1B-style schedules it is
    # exactly the Figure 5 deadlock. Everything else uses §4.2's global
    # topological emission (valid under both comm modes).
    use_iter_order = cfg.comm_mode is CommMode.SYNC and cfg.schedule == "gpipe"
    if not use_iter_order:
        # JaxPP emission (§4.2): the IR's global topological order,
        # send+recv posted the moment the producer runs -> receivers
        # prefetch.
        for slot in ir.toposort():
            a = slot.rank
            programs[a].append(make_task(slot))
            key = uid(slot.unit)
            for dst in ir.send_dsts(slot):
                programs[a].append(Send(BufferRef(key), dst, key))
                programs[dst].append(Recv(BufferRef(key), a, key, int(boundary)))
    else:
        # Synchronous lockstep (the SPMD-loop encoding of §2.2.2): each
        # iteration is recv -> compute -> send, per actor.
        for a, row in enumerate(ir.slots):
            for slot in row:
                for d in ir.cross_deps(slot):
                    k = uid(d.unit)
                    programs[a].append(Recv(BufferRef(k), d.rank, k, int(boundary)))
                programs[a].append(make_task(slot))
                key = uid(slot.unit)
                for dst in ir.send_dsts(slot):
                    programs[a].append(Send(BufferRef(key), dst, key))

    executor = MpmdExecutor(cfg.pp, cost_model=_TopoCost(topo, kern), comm_mode=cfg.comm_mode)
    res = executor.execute(programs, wake_order=ir.initial_ready_ranks())

    # ---- close the step: DP sync + optimizer --------------------------------
    dp_time = comms.dp_gradient_allreduce(model, node, cfg.pp, cfg.tp, cfg.dp)
    # optimizer: ~3 HBM passes over 16 bytes/param of state
    opt_time = model.total_params / (cfg.pp * cfg.tp) * 16.0 * 3.0 / gpu.hbm_bw
    step_time = res.makespan + dp_time + opt_time

    # ---- breakdown on the critical actor ------------------------------------
    crit = max(range(cfg.pp), key=lambda a: res.actor_finish[a])
    compute = remat_t = 0.0
    for e in res.timeline:
        if e.actor == crit and e.kind == "task":
            dur = e.end - e.start
            if e.meta.get("remat"):
                extra = remat.extra_fwd_fraction * kern.block_time(model, gpu, chunk, cfg.mbs, cfg.tp, "fwd")
                remat_t += extra
                compute += dur - extra
            else:
                compute += dur
    n_tasks_crit = sum(1 for e in res.timeline if e.actor == crit and e.kind == "task")
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
        n_tasks=len(ir.slots[0]),
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
    seconds and each boundary tensor's size.  Emission is §4.2's global
    topological order, identical to :func:`simulate_pipeline`'s, so
    pricing and full-step simulation see the same overlap behaviour.

    Returns the raw :class:`~repro.runtime.executor.ExecutionResult`:
    ``makespan`` is the schedule's pipeline-phase time, and
    ``wait_profile`` / ``parked_by_rank()`` carry the per-resource /
    per-rank parked-time feedback that drives ``core.autotune``'s
    second search round.
    """
    from repro.runtime.clock import LinearCost

    ir = schedule.lower(n_mbs)
    frac = schedule.bwd_input_fraction
    programs: list[list] = [[] for _ in range(ir.n_ranks)]

    def uid(u) -> str:
        return f"{u.kind}{u.stage}.{u.mb}"

    for slot in ir.toposort():
        u = slot.unit
        nbytes = int(cost_model.boundary_bytes(u.stage))
        programs[slot.rank].append(
            RunTask(
                name=f"{u.kind}{u.stage}({u.mb})",
                in_refs=[BufferRef(uid(d.unit)) for d in ir.buffer_deps(slot)],
                out_refs=[BufferRef(uid(u))],
                fn=None,
                cost=cost_model.unit_time(u.stage, u.kind, frac),
                meta={"kind": u.kind, "stage": u.stage, "mb": u.mb,
                      "out_nbytes": [nbytes if u.kind != BWD_W else 0]},
            )
        )
        key = uid(u)
        for dst in ir.send_dsts(slot):
            programs[slot.rank].append(Send(BufferRef(key), dst, key))
            programs[dst].append(Recv(BufferRef(key), slot.rank, key, nbytes))

    executor = MpmdExecutor(
        ir.n_ranks,
        cost_model=LinearCost(
            dispatch=dispatch_s,
            p2p_latency=p2p_latency_s,
            p2p_bandwidth=p2p_bandwidth,
        ),
        comm_mode=comm_mode,
    )
    return executor.execute(programs, wake_order=ir.initial_ready_ranks())


def _adhoc_cluster(node: NodeSpec, n_actors: int):
    """A cluster just big enough for the simulated pipeline (one actor per
    TP group; with tp == gpus/node each actor is one node)."""
    from repro.cluster.specs import ClusterSpec

    return ClusterSpec(name="sim", node=node, n_nodes=max(n_actors, 1))
