"""Cost-aware schedule autotuner: the gallery as a decision procedure.

The paper's flexibility claim (§2.2.1, §5.1) only pays off when the
*right* schedule is chosen for the workload: zero-bubble families trade
activation memory for bubble, circular repeat trades dispatch overhead
for finer-grained overlap, and heterogeneous stage costs (uneven layers,
embedding/head stages) shift which trade wins.  This module closes that
loop:

1. a :class:`CostModel` maps ``(stage, unit kind) -> seconds`` plus
   per-stage activation/boundary bytes.  It can be built analytically
   (:meth:`CostModel.from_kernels` prices transformer stages through
   :mod:`repro.perf.kernels`; :meth:`CostModel.from_tasks` prices traced
   stage jaxprs by FLOP count) or *measured* — :meth:`CostModel.from_result`
   replays an :class:`~repro.runtime.executor.ExecutionResult` timeline,
   averaging each ``(stage, kind)``'s observed durations, so a second
   compile tunes against what actually ran;
2. :func:`tune` prices every candidate schedule on the real event engine
   (:func:`repro.perf.pipeline_sim.price_schedule`) under the cost model,
   excludes candidates whose peak live-activation bytes exceed the
   per-rank memory budget, and returns a ranked :class:`TuneReport`;
3. the search then feeds the best run's **wait profile** back in
   (:meth:`ExecutionResult.parked_by_rank`): warmup is shifted toward the
   longest-parked ranks via :class:`~repro.core.schedules.Hybrid1F1B`
   proposals — so a second round measurably shrinks makespan on
   skewed-cost workloads with non-trivial transfer latency.

``schedule="auto"`` in :meth:`repro.core.api.RemoteMesh.distributed` /
:func:`repro.core.compile.compile_train_step` runs this tuner at compile
time and stores the report on ``CompiledStep.tune_report``.

Cost-model contract
===================

All times are **seconds of device-busy virtual time per unit** (one
microbatch through one stage chunk); bytes are plain bytes.  ``fwd[s]``
is stage ``s``'s forward; ``bwd[s]`` is the *full* backward, which split
schedules divide into ``bwd_i = bwd * bwd_input_fraction`` and ``bwd_w =
bwd * (1 - frac)`` using each schedule's own fraction.
``activation_bytes[s]`` is held from the forward until the releasing
backward retires it; ``boundary_bytes[s]`` crosses the wire once per
cross-rank consumer of stage ``s``'s output.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Sequence

from repro.core.schedules import (
    BWD,
    BWD_I,
    BWD_W,
    FWD,
    Eager1F1B,
    GPipe,
    Hybrid1F1B,
    Interleaved1F1B,
    InterleavedZB,
    LoopedBFS,
    OneFOneB,
    Schedule,
    ZBH1,
    ZBH2,
    ZBV,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stage_split import SplitResult
    from repro.runtime.executor import ExecutionResult

__all__ = [
    "CostModel",
    "TuneEntry",
    "TuneReport",
    "default_candidates",
    "tune",
]


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Heterogeneous per-stage cost table for schedule pricing.

    Attributes:
        fwd: per-stage forward seconds (one microbatch, one stage chunk).
        bwd: per-stage *full* backward seconds (split schedules divide it
            by their ``bwd_input_fraction``).
        act_bytes: per-stage activation bytes held from the forward until
            the releasing backward (memory-budget accounting).
        boundary: per-stage output-boundary bytes (sized onto each
            cross-rank transfer when pricing on the event engine).
    """

    fwd: tuple[float, ...]
    bwd: tuple[float, ...]
    act_bytes: tuple[float, ...] = ()
    boundary: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.fwd)
        if len(self.bwd) != n:
            raise ValueError("fwd and bwd must cover the same stages")
        if not self.act_bytes:
            object.__setattr__(self, "act_bytes", (1.0,) * n)
        if not self.boundary:
            object.__setattr__(self, "boundary", (0.0,) * n)
        if len(self.act_bytes) != n or len(self.boundary) != n:
            raise ValueError("act_bytes/boundary must cover the same stages")

    @property
    def n_stages(self) -> int:
        """Stages this table covers."""
        return len(self.fwd)

    def unit_time(self, stage: int, kind: str, bwd_input_fraction: float = 0.5) -> float:
        """Seconds for one scheduled unit of ``kind`` at ``stage``."""
        if kind == FWD:
            return self.fwd[stage]
        if kind == BWD:
            return self.bwd[stage]
        if kind == BWD_I:
            return self.bwd[stage] * bwd_input_fraction
        if kind == BWD_W:
            return self.bwd[stage] * (1.0 - bwd_input_fraction)
        raise ValueError(f"unknown unit kind {kind!r}")

    def activation_bytes(self, stage: int) -> float:
        """Bytes one live activation of ``stage`` holds."""
        return self.act_bytes[stage]

    def boundary_bytes(self, stage: int) -> float:
        """Bytes of ``stage``'s output boundary tensor."""
        return self.boundary[stage]

    @property
    def skew(self) -> float:
        """Max/min ratio of per-stage ``fwd + bwd`` cost (1.0 = uniform)."""
        totals = [f + b for f, b in zip(self.fwd, self.bwd)]
        lo = min(totals)
        return max(totals) / lo if lo > 0 else float("inf")

    # -- constructors --------------------------------------------------------
    @classmethod
    def uniform(
        cls, n_stages: int, fwd_time: float = 1.0, bwd_time: float = 2.0
    ) -> "CostModel":
        """The textbook uniform model (every stage equal)."""
        return cls(fwd=(fwd_time,) * n_stages, bwd=(bwd_time,) * n_stages)

    @classmethod
    def from_kernels(
        cls,
        model,
        gpu,
        kernels,
        n_stages: int,
        layers_per_stage: int,
        mbs: int = 1,
        tp: int = 1,
    ) -> "CostModel":
        """Analytic transformer stage costs through the §5.1 kernel model.

        Every stage carries ``layers_per_stage`` transformer blocks; the
        last stage additionally pays the logits projection + loss (the
        "head stage" heterogeneity), making the table genuinely skewed
        for real vocab sizes.  Activation/boundary bytes come from the
        model's §2.2.1 formulas, sharded ``tp`` ways.
        """
        fwd, bwd = [], []
        for s in range(n_stages):
            f = kernels.block_time(model, gpu, layers_per_stage, mbs, tp, "fwd")
            b = kernels.block_time(model, gpu, layers_per_stage, mbs, tp, "bwd")
            if s == n_stages - 1:
                f += kernels.logits_time(model, gpu, mbs, tp, "fwd")
                b += kernels.logits_time(model, gpu, mbs, tp, "bwd")
            fwd.append(f)
            bwd.append(b)
        act = model.layer_activation_bytes(mbs) * layers_per_stage / tp
        bnd = model.boundary_bytes(mbs) / tp
        return cls(
            fwd=tuple(fwd),
            bwd=tuple(bwd),
            act_bytes=(act,) * n_stages,
            boundary=(bnd,) * n_stages,
        )

    @classmethod
    def from_tasks(cls, split: "SplitResult", cost_fn=None) -> "CostModel":
        """Stage costs from traced stage jaxprs (the ``schedule="auto"``
        compile path).

        With ``cost_fn`` given it is called per
        :class:`~repro.core.stage_split.StageTask` (the existing
        simulation-mode contract); otherwise each task is priced by a
        static FLOP estimate over its equations.  A fused
        forward+loss+backward last stage splits its estimate 1:2 between
        the forward and backward unit, matching the backward's 2x FLOPs.
        Activation/boundary bytes are the stage's forward output bytes (a
        boundary-tensor proxy).
        """
        from repro.core.stage_split import BWD_KIND, FUSED_KIND, FWD_KIND

        n_stages = split.n_stages
        fwd = [0.0] * n_stages
        bwd = [0.0] * n_stages
        bnd = [0.0] * n_stages

        def price(task) -> float:
            if cost_fn is not None:
                return float(cost_fn(task))
            return _jaxpr_flops(task.jaxpr)

        for task in split.tasks:
            c = price(task)
            if task.kind == FWD_KIND:
                fwd[task.stage] += c
                bnd[task.stage] = sum(v.aval.nbytes for v in task.out_vars)
            elif task.kind == BWD_KIND:
                bwd[task.stage] += c
            elif task.kind == FUSED_KIND:
                fwd[task.stage] += c / 3.0
                bwd[task.stage] += 2.0 * c / 3.0
                bnd[task.stage] = sum(v.aval.nbytes for v in task.out_vars)
            else:  # pragma: no cover - split invariant
                raise ValueError(f"unknown task kind {task.kind!r}")
        act = tuple(b if b > 0 else 1.0 for b in bnd)
        return cls(fwd=tuple(fwd), bwd=tuple(bwd), act_bytes=act, boundary=tuple(bnd))

    @classmethod
    def from_result(cls, result: "ExecutionResult", n_stages: int) -> "CostModel":
        """Measured stage costs replayed from an execution's timeline.

        Every ``task`` event whose ``meta`` names a pipeline unit (a
        ``stage`` and a ``unit``/``kind`` in the fwd/bwd family) votes its
        observed duration; the table holds the per-``(stage, kind)``
        means, with split backwards re-summed into full backwards
        (``bwd = mean(bwd_i) + mean(bwd_w)``).  A *fused*
        forward+loss+backward unit (the last pipeline stage of a real
        numeric run executes both directions in one task) votes its
        duration 1:2 between the stage's forward and backward — the same
        convention :meth:`from_tasks` applies, matching the backward's
        2x FLOPs.  Replay semantics: the model prices *device-busy* time
        only — parked time is deliberately excluded (it belongs to the
        schedule being searched over, not to the workload), which is what
        makes replay-then-retune sound.  Only *loop-phase* events vote:
        an optimized run's once-per-step ``memo`` prologues
        (:mod:`repro.ir.opt` hoisting) carry a ``stage`` too, but they
        run outside the per-microbatch loop, so folding them into a
        stage's fwd/bwd rate would skew every per-microbatch estimate by
        ``1/n_mbs`` of the prologue — they stay in their own
        ``(stage, "memo")`` bucket, which the pipeline model doesn't
        price.  (Simulator timelines carry no ``phase`` key and vote as
        before.)
        """
        from repro.core.stage_split import FUSED_KIND

        sums: dict[tuple[int, str], float] = {}
        counts: dict[tuple[int, str], int] = {}

        def vote(stage: int, kind: str, dur: float) -> None:
            key = (int(stage), kind)
            sums[key] = sums.get(key, 0.0) + dur
            counts[key] = counts.get(key, 0) + 1

        for e in result.timeline:
            if e.kind != "task":
                continue
            phase = e.meta.get("phase")
            if phase is not None and phase != "loop":
                continue
            kind = e.meta.get("unit", e.meta.get("kind"))
            stage = e.meta.get("stage")
            if stage is None:
                continue
            dur = e.end - e.start
            if e.meta.get("kind") == FUSED_KIND and kind == FWD:
                vote(stage, FWD, dur / 3.0)
                vote(stage, BWD, 2.0 * dur / 3.0)
            elif kind in (FWD, BWD, BWD_I, BWD_W):
                vote(stage, kind, dur)
        if not sums:
            raise ValueError(
                "timeline carries no stage-annotated task events; run with a "
                "cost model attached (simulation mode) or price analytically"
            )

        def mean(stage: int, kind: str) -> float | None:
            key = (stage, kind)
            return sums[key] / counts[key] if key in counts else None

        fwd, bwd = [], []
        for s in range(n_stages):
            f = mean(s, FWD)
            b = mean(s, BWD)
            if b is None:
                bi, bw = mean(s, BWD_I), mean(s, BWD_W)
                if bi is not None and bw is None:
                    # a bwd_i without its bwd_w half would silently price
                    # the backward at bwd * frac — refuse instead
                    raise ValueError(
                        f"stage {s} has measured bwd_i durations but no "
                        "bwd_w ones; the timeline is incomplete"
                    )
                if bi is not None and bw is not None:
                    b = bi + bw
            if f is None or b is None:
                raise ValueError(f"stage {s} has no measured fwd/bwd durations")
            fwd.append(f)
            bwd.append(b)
        return cls(fwd=tuple(fwd), bwd=tuple(bwd))


def _jaxpr_flops(jaxpr) -> float:
    """Static FLOP estimate of a stage jaxpr: matmul-shaped equations
    count ``2 * out_size * contraction``, everything else one op per
    output element — coarse, but it captures the skew (wide vs narrow,
    deep vs shallow stages) the tuner needs."""
    total = 0.0
    for eqn in jaxpr.eqns:
        out_size = sum(float(v.aval.size) for v in eqn.outvars)
        if eqn.prim.name == "matmul":
            k = eqn.invars[0].aval.shape[-1] if eqn.invars[0].aval.shape else 1
            total += 2.0 * out_size * float(k)
        else:
            total += out_size
    return total


@dataclasses.dataclass
class TuneEntry:
    """One priced candidate in a :class:`TuneReport`.

    Attributes:
        schedule: the candidate.
        makespan: event-engine pipeline makespan (``inf`` when excluded).
        peak_act_bytes: max over ranks of peak live-activation bytes.
        peak_live: max over ranks of peak live-activation count (chunks).
        feasible: priced and within the memory budget.
        reason: why an infeasible candidate was excluded.
        round: search round that proposed it (0 = gallery, 1 = refinement).
        result: the raw pricing :class:`ExecutionResult` (wait profile
            included) for feasible entries.
    """

    schedule: Schedule
    makespan: float = float("inf")
    peak_act_bytes: float = 0.0
    peak_live: int = 0
    feasible: bool = True
    reason: str = ""
    round: int = 0
    result: "ExecutionResult | None" = None

    @property
    def name(self) -> str:
        """Candidate display name."""
        return self.schedule.name


@dataclasses.dataclass
class TuneReport:
    """Ranked outcome of one :func:`tune` search.

    Attributes:
        entries: all candidates, feasible first, by ascending makespan.
        cost_model: the table everything was priced under.
        n_mbs: microbatch count the search was specialised to.
        memory_budget: per-rank activation-byte budget (``None`` = unbounded).
        rounds: search rounds run (1 = gallery only, 2 = +wait-profile
            refinement).
    """

    entries: list[TuneEntry]
    cost_model: CostModel
    n_mbs: int
    memory_budget: float | None = None
    rounds: int = 1

    @property
    def best(self) -> TuneEntry:
        """The winning entry."""
        for e in self.entries:
            if e.feasible:
                return e
        raise ValueError("no feasible schedule (memory budget excludes all)")

    @property
    def feasible(self) -> list[TuneEntry]:
        """Feasible entries, best first."""
        return [e for e in self.entries if e.feasible]

    def speedup_vs(self, name: str) -> float:
        """Best makespan improvement over the named candidate (e.g.
        ``report.speedup_vs("GPipe")`` -> 1.25 means 25% less makespan).

        Only feasible candidates are comparable: they carry event-engine
        makespans under identical comm costs.  A memory-excluded
        candidate's makespan is analytic (no dispatch/transfer cost), so
        comparing against it would mix pricing models — re-``tune``
        without the budget to obtain a comparable baseline."""
        for e in self.entries:
            if e.name == name:
                if not e.feasible:
                    raise ValueError(
                        f"candidate {name!r} was excluded ({e.reason or 'infeasible'}); "
                        "its analytic makespan is not comparable to "
                        "engine-priced entries — tune without the memory "
                        "budget for a baseline"
                    )
                return e.makespan / self.best.makespan
        raise KeyError(f"no priced candidate named {name!r}")


def default_candidates(
    n_actors: int, n_stages: int | None = None
) -> list[Schedule]:
    """The gallery shapes compatible with ``n_actors`` ranks and (when
    given) ``n_stages`` model stages.

    With ``n_stages == n_actors`` the one-stage-per-rank family applies;
    with ``n_stages == v * n_actors`` the circular-repeat family at that
    ``v`` (ZB-V exactly at ``v == 2``).  Candidates with microbatch-count
    constraints (e.g. interleaving's ``n_mbs % p == 0``) are excluded
    later, at pricing time, so callers may pass the full list."""
    if n_stages is None:
        n_stages = n_actors
    if n_stages % n_actors != 0:
        raise ValueError(
            f"{n_stages} stages do not divide over {n_actors} ranks"
        )
    v = n_stages // n_actors
    if v == 1:
        return [
            GPipe(n_actors),
            OneFOneB(n_actors),
            Eager1F1B(n_actors),
            ZBH1(n_actors),
            ZBH2(n_actors),
        ]
    out: list[Schedule] = [
        Interleaved1F1B(n_actors, v),
        LoopedBFS(n_actors, v),
        InterleavedZB(n_actors, v),
    ]
    if v == 2:
        out.append(ZBV(n_actors))
    return out


def _price(
    schedule: Schedule,
    n_mbs: int,
    cost_model: CostModel,
    memory_budget: float | None,
    rnd: int,
    *,
    dispatch_s: float,
    p2p_latency_s: float,
    p2p_bandwidth: float,
) -> TuneEntry:
    """Validate, memory-check, and event-engine-price one candidate."""
    from repro.perf.pipeline_sim import price_schedule

    try:
        ir = schedule.lower(n_mbs).validate()
    except ValueError as e:
        return TuneEntry(schedule, feasible=False, reason=str(e), round=rnd)
    stats = ir.stats(cost_model=cost_model)
    peak_bytes = max(stats["peak_activation_bytes"])
    peak_live = max(stats["peak_live_activations"])
    if memory_budget is not None and peak_bytes > memory_budget:
        return TuneEntry(
            schedule,
            makespan=stats["makespan"],
            peak_act_bytes=peak_bytes,
            peak_live=peak_live,
            feasible=False,
            reason=(
                f"peak activation bytes {peak_bytes:.3g} over the per-rank "
                f"budget {memory_budget:.3g}"
            ),
            round=rnd,
        )
    res = price_schedule(
        schedule,
        n_mbs,
        cost_model,
        dispatch_s=dispatch_s,
        p2p_latency_s=p2p_latency_s,
        p2p_bandwidth=p2p_bandwidth,
    )
    return TuneEntry(
        schedule,
        makespan=res.makespan,
        peak_act_bytes=peak_bytes,
        peak_live=peak_live,
        round=rnd,
        result=res,
    )


def _warmup_proposals(
    entries: list[TuneEntry], n_mbs: int, cost_model: CostModel
) -> list[Schedule]:
    """Wait-profile-driven refinement candidates: shift 1F1B-family
    warmup toward the ranks the winning run shows parked longest.

    A rank parked on a recv is starved by its *upstream* — extra warmup
    upstream posts its sends ahead, hiding the transfer latency the park
    is made of.  So proposals add warmup strictly upstream of the
    longest-parked rank, on top of both the 1F1B (``p - 1 - r``) and the
    eager (``2(p - 1 - r)``) base vectors.  Only meaningful for
    one-stage-per-rank shapes (the warmup vector is the 1F1B family's
    only degree of freedom); vectors are capped at ``n_mbs``, repaired to
    the rank-wise non-increasing feasibility shape, and deduplicated
    against candidates already priced.
    """
    best = next((e for e in entries if e.feasible), None)
    if best is None or best.result is None:
        return []
    sched = best.schedule
    p = sched.n_actors
    if sched.n_stages != p:
        return []
    parked = best.result.parked_by_rank()
    base = [p - 1 - r for r in range(p)]
    eager = [2 * (p - 1 - r) for r in range(p)]

    def vector_of(s: Schedule) -> tuple[int, ...] | None:
        if isinstance(s, Hybrid1F1B):
            return tuple(min(w, n_mbs) for w in s.warmup)
        if isinstance(s, Eager1F1B):
            return tuple(min(w, n_mbs) for w in eager)
        if isinstance(s, OneFOneB):
            return tuple(min(w, n_mbs) for w in base)
        return None

    seen = {v for v in (vector_of(e.schedule) for e in entries) if v is not None}
    out: list[Schedule] = []

    def propose(warmup: Sequence[int]) -> None:
        w = [min(max(x, 0), n_mbs) for x in warmup]
        # repair to rank-wise non-increasing (a downstream rank warming up
        # more than its upstream would deadlock): lift upstream to match
        for r in reversed(range(p - 1)):
            w[r] = max(w[r], w[r + 1])
        wt = tuple(w)
        if wt not in seen:
            seen.add(wt)
            out.append(Hybrid1F1B(p, wt))

    longest = max(range(p), key=lambda r: parked[r])
    propose(eager)
    for vec in (base, eager):
        for delta in (1, 2):
            propose([vec[r] + (delta if r < max(longest, 1) else 0) for r in range(p)])
    # a uniform +1 tilt (every rank posts one extra send ahead)
    propose([w + 1 for w in base])
    return out


def tune(
    cost_model: CostModel,
    n_actors: int,
    n_mbs: int,
    *,
    candidates: Sequence[Schedule] | None = None,
    memory_budget: float | None = None,
    rounds: int = 2,
    dispatch_s: float = 0.0,
    p2p_latency_s: float = 0.0,
    p2p_bandwidth: float = float("inf"),
) -> TuneReport:
    """Search the schedule gallery for the cost model's best schedule.

    Round 0 prices every candidate (default: the compatible gallery
    shapes for ``cost_model.n_stages`` over ``n_actors`` ranks) on the
    event engine, excluding any whose peak live-activation bytes exceed
    ``memory_budget`` per rank.  With ``rounds >= 2``, the winner's wait
    profile seeds a refinement round — :class:`Hybrid1F1B` warmup vectors
    shifted toward the longest-parked ranks.

    Returns the ranked :class:`TuneReport`; ``report.best.schedule`` is
    what ``schedule="auto"`` compiles against.
    """
    if candidates is None:
        candidates = default_candidates(n_actors, cost_model.n_stages)
    price_kw = dict(
        dispatch_s=dispatch_s,
        p2p_latency_s=p2p_latency_s,
        p2p_bandwidth=p2p_bandwidth,
    )
    entries = [
        _price(s, n_mbs, cost_model, memory_budget, 0, **price_kw)
        for s in candidates
    ]

    def rank(es: list[TuneEntry]) -> list[TuneEntry]:
        # exact-makespan ties go to the candidate holding fewer
        # activation bytes (equal speed at less memory wins)
        return sorted(
            es,
            key=lambda e: (not e.feasible, e.makespan, e.peak_act_bytes, e.name),
        )

    entries = rank(entries)
    done_rounds = 1
    if rounds >= 2 and entries and entries[0].feasible:
        proposals = _warmup_proposals(entries, n_mbs, cost_model)
        entries = rank(
            entries
            + [
                _price(s, n_mbs, cost_model, memory_budget, 1, **price_kw)
                for s in proposals
            ]
        )
        done_rounds = 2

    return TuneReport(
        entries=entries,
        cost_model=cost_model,
        n_mbs=n_mbs,
        memory_budget=memory_budget,
        rounds=done_rounds,
    )
