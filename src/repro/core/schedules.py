"""Pipeline schedules: GPipe, 1F1B, Interleaved 1F1B, Eager 1F1B (and
its tunable generalisation Hybrid1F1B), zero-bubble ZB-H1/ZB-H2/ZB-V,
looped-BFS, and interleaved-ZB (§2.2.1, §4.2).

A schedule answers two questions:

- *placement*: which actor executes each pipeline stage
  (``actor_of_stage``), with backward stages pinned to their forward
  stage's actor (§3.3's assumption);
- *order*: the per-actor sequence of scheduled units
  ``(microbatch, stage, kind)`` — exactly the per-actor task lists of
  §4.2's listing.

Schedules are *data*, not control flow: :meth:`Schedule.lower` turns the
per-actor unit lists into a dependency-explicit
:class:`~repro.core.schedule_ir.ScheduleIR` — one table of slots and
resolved edges that the compiler, the runtime, the performance simulator,
and the visualiser all consume.  This user-extensibility is the paper's
core flexibility claim: a new schedule is a new ``units()`` method, and
nothing downstream changes.

:func:`validate_schedule` checks the properties §2.2.1 requires as graph
checks over the lowered IR: every (microbatch, stage) pair runs exactly
once in each direction, backward runs on the forward's actor, every
dependency edge resolves, per-actor orders are executable (a schedule that
would deadlock is rejected here, before it ever reaches the runtime), and
the per-rank activation count stays within the schedule's declared bound.

Schedules with ``backward_split = True`` (ZB-H1/H2, interleaved-ZB) split
each backward into an **input-gradient** unit (``bwd_i`` — the part
downstream stages depend on) and a **weight-gradient** unit (``bwd_w`` —
purely local, free to fill pipeline bubbles).  The dependency structure
follows Qi et al.'s zero-bubble decomposition: ``bwd_i`` of stage *s*
needs the stage's forward and the ``bwd_i`` of stage *s+1*; ``bwd_w`` only
needs the local ``bwd_i``.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedule_ir import ScheduleIR

__all__ = [
    "Unit",
    "Schedule",
    "GPipe",
    "OneFOneB",
    "Eager1F1B",
    "Hybrid1F1B",
    "Interleaved1F1B",
    "ZBH1",
    "ZBH2",
    "ZBV",
    "LoopedBFS",
    "InterleavedZB",
    "SCHEDULES",
    "validate_schedule",
    "schedule_stats",
]

FWD = "fwd"
BWD = "bwd"
BWD_I = "bwd_i"  # input-gradient half of a split backward (ZB-H1)
BWD_W = "bwd_w"  # weight-gradient half of a split backward (ZB-H1)


@dataclasses.dataclass(frozen=True)
class Unit:
    """One scheduled work item: the ``Task(i=..., ty=..., stage=...)`` of
    the paper's schedule listing."""

    mb: int
    stage: int
    kind: str  # "fwd" | "bwd" | "bwd_i" | "bwd_w"

    def __repr__(self) -> str:
        tag = {FWD: "f", BWD: "b", BWD_I: "i", BWD_W: "w"}.get(self.kind, "?")
        return f"{tag}{self.stage}({self.mb})"


class Schedule:
    """Base class: a stage->actor placement plus per-actor unit orders."""

    n_actors: int
    n_stages: int
    #: True when units use the split backward (``bwd_i`` + ``bwd_w``)
    #: instead of a monolithic ``bwd`` — see the module docstring.
    backward_split: bool = False
    #: fraction of the full backward cost charged to ``bwd_i`` (the rest
    #: goes to ``bwd_w``); only meaningful when ``backward_split``.
    bwd_input_fraction: float = 0.5

    def actor_of_stage(self, stage: int) -> int:
        """Actor executing (forward and backward of) ``stage``."""
        raise NotImplementedError

    def stages_of_actor(self, actor: int) -> list[int]:
        """Stages placed on ``actor`` (≥1; >1 means circular repeat)."""
        return [s for s in range(self.n_stages) if self.actor_of_stage(s) == actor]

    def units(self, n_mbs: int) -> list[list[Unit]]:
        """Per-actor ordered unit lists for ``n_mbs`` microbatches."""
        raise NotImplementedError

    def lower(self, n_mbs: int) -> "ScheduleIR":
        """Lower this schedule into its dependency-explicit
        :class:`~repro.core.schedule_ir.ScheduleIR` — the single table the
        compiler, runtime, simulator, and visualiser all consume.

        Memoized per ``n_mbs`` on the schedule instance: the compiler,
        simulator, visualiser, and validators all ask for the identical IR,
        and a ``ScheduleIR`` is immutable once built, so one lowering is
        shared by every consumer."""
        cache: dict[int, "ScheduleIR"] = self.__dict__.setdefault("_lower_cache", {})
        ir = cache.get(n_mbs)
        if ir is None:
            from repro.core.schedule_ir import lower_schedule

            ir = cache[n_mbs] = lower_schedule(self, n_mbs)
        return ir

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        """Declared per-rank bound on concurrently live activations, or
        ``None`` when the schedule makes no promise.  ``validate_schedule``
        checks the lowered IR's peak live count against this."""
        return None

    @property
    def name(self) -> str:
        """Display name."""
        return type(self).__name__


class GPipe(Schedule):
    """GPipe (Huang et al. 2019): all forwards, then all backwards in
    reverse microbatch order. Peak activation memory grows with the number
    of microbatches — the §5.3 comparison point."""

    def __init__(self, n_stages: int, n_actors: int | None = None):
        if n_actors is None:
            n_actors = n_stages
        if n_stages != n_actors:
            raise ValueError("GPipe places one stage per actor")
        self.n_stages = n_stages
        self.n_actors = n_actors

    def actor_of_stage(self, stage: int) -> int:
        return stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return n_mbs  # every microbatch's activation is live at the turn

    def units(self, n_mbs: int) -> list[list[Unit]]:
        out = []
        for actor in range(self.n_actors):
            seq = [Unit(i, actor, FWD) for i in range(n_mbs)]
            seq += [Unit(i, actor, BWD) for i in reversed(range(n_mbs))]
            out.append(seq)
        return out


class OneFOneB(Schedule):
    """1F1B (PipeDream-flush, Narayanan et al. 2019): warm up with
    ``p - 1 - rank`` forwards, then alternate one-forward-one-backward.
    Peak activation memory grows with the number of *stages*, not
    microbatches (§2.2.1's 2-3x activation-memory reduction)."""

    def __init__(self, n_stages: int, n_actors: int | None = None):
        if n_actors is None:
            n_actors = n_stages
        if n_stages != n_actors:
            raise ValueError("OneFOneB places one stage per actor; use Interleaved1F1B for circular repeat")
        self.n_stages = n_stages
        self.n_actors = n_actors

    def actor_of_stage(self, stage: int) -> int:
        return stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return min(self.n_actors - rank, n_mbs)  # §2.2.1: bounded by stages

    def units(self, n_mbs: int) -> list[list[Unit]]:
        p = self.n_actors
        out = []
        for rank in range(p):
            warmup = min(p - 1 - rank, n_mbs)
            seq = [Unit(i, rank, FWD) for i in range(warmup)]
            nf, nb = warmup, 0
            while nb < n_mbs:
                if nf < n_mbs:
                    seq.append(Unit(nf, rank, FWD))
                    nf += 1
                seq.append(Unit(nb, rank, BWD))
                nb += 1
            out.append(seq)
        return out


class Interleaved1F1B(Schedule):
    """Interleaved 1F1B (Narayanan et al. 2021): each actor owns
    ``circular_repeat`` (the paper's "degree of circular repeat", a.k.a.
    virtual pipeline) stages, assigned round-robin: stage ``s`` runs on
    actor ``s % n_actors``. Microbatches advance in groups of ``n_actors``.

    Requires ``n_mbs % n_actors == 0`` (Megatron's constraint).
    """

    def __init__(self, n_actors: int, circular_repeat: int):
        if circular_repeat < 1:
            raise ValueError("circular_repeat must be >= 1")
        self.n_actors = n_actors
        self.v = circular_repeat
        self.n_stages = n_actors * circular_repeat

    def actor_of_stage(self, stage: int) -> int:
        return stage % self.n_actors

    # -- Megatron-style global orders ----------------------------------------
    def _fwd_unit(self, rank: int, k: int, n_mbs: int) -> Unit:
        p, v = self.n_actors, self.v
        group, within = divmod(k, p * v)
        chunk, mb_in_group = divmod(within, p)
        mb = group * p + mb_in_group
        stage = chunk * p + rank
        return Unit(mb, stage, FWD)

    def _bwd_unit(self, rank: int, k: int, n_mbs: int) -> Unit:
        p, v = self.n_actors, self.v
        group, within = divmod(k, p * v)
        chunk, mb_in_group = divmod(within, p)
        mb = group * p + mb_in_group
        stage = (v - 1 - chunk) * p + rank
        return Unit(mb, stage, BWD)

    def units(self, n_mbs: int) -> list[list[Unit]]:
        p, v = self.n_actors, self.v
        if n_mbs % p != 0:
            raise ValueError(
                f"Interleaved1F1B needs n_mbs divisible by n_actors ({n_mbs} % {p})"
            )
        total = n_mbs * v
        out = []
        for rank in range(p):
            warmup = min((p - rank - 1) * 2 + (v - 1) * p, total)
            seq: list[Unit] = []
            nf = nb = 0
            for _ in range(warmup):
                seq.append(self._fwd_unit(rank, nf, n_mbs))
                nf += 1
            while nf < total:
                seq.append(self._fwd_unit(rank, nf, n_mbs))
                nf += 1
                seq.append(self._bwd_unit(rank, nb, n_mbs))
                nb += 1
            while nb < total:
                seq.append(self._bwd_unit(rank, nb, n_mbs))
                nb += 1
            out.append(seq)
        return out

    @property
    def name(self) -> str:
        return f"Interleaved1F1B(v={self.v})"


class Eager1F1B(Schedule):
    """Eager 1F1B (PipeDream's eager warmup variant): same steady-state
    one-forward-one-backward alternation as :class:`OneFOneB`, but each
    rank warms up with ``2 * (p - 1 - rank)`` forwards instead of
    ``p - 1 - rank``.  The doubled warmup keeps an extra in-flight
    microbatch per downstream hop, so activation sends are posted well
    before their recvs are needed — the overlap headroom that hides P2P
    latency at scale — at the price of roughly twice 1F1B's peak
    activation memory (still bounded by stages, never by microbatches).
    """

    def __init__(self, n_stages: int, n_actors: int | None = None):
        if n_actors is None:
            n_actors = n_stages
        if n_stages != n_actors:
            raise ValueError("Eager1F1B places one stage per actor")
        self.n_stages = n_stages
        self.n_actors = n_actors

    def actor_of_stage(self, stage: int) -> int:
        return stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return min(2 * (self.n_actors - 1 - rank) + 1, n_mbs)

    def units(self, n_mbs: int) -> list[list[Unit]]:
        p = self.n_actors
        out = []
        for rank in range(p):
            warmup = min(2 * (p - 1 - rank), n_mbs)
            seq = [Unit(i, rank, FWD) for i in range(warmup)]
            nf, nb = warmup, 0
            while nb < n_mbs:
                if nf < n_mbs:
                    seq.append(Unit(nf, rank, FWD))
                    nf += 1
                seq.append(Unit(nb, rank, BWD))
                nb += 1
            out.append(seq)
        return out


class Hybrid1F1B(Schedule):
    """1F1B with an explicit per-rank warmup vector — the knob between
    :class:`OneFOneB` (``warmup[r] = p - 1 - r``) and :class:`Eager1F1B`
    (``warmup[r] = 2(p - 1 - r)``), exposed so the autotuner can shift
    warmup toward the rank the wait profile shows parked longest.

    ``warmup[r]`` forwards run before rank ``r`` enters the
    one-forward-one-backward steady state.  The vector must be rank-wise
    non-increasing (``warmup[r] >= warmup[r + 1]``): rank ``r`` posts
    ``warmup[r] + 1`` forwards before blocking on its first backward, and
    rank ``r + 1`` needs ``warmup[r + 1] + 1`` of them before *its* first
    backward can complete the chain — a downstream rank that warms up
    more than its upstream deadlocks, and ``validate_schedule`` rejects
    it.  Peak live activations on rank ``r`` are
    ``min(warmup[r] + 1, n_mbs)``, so warmup buys send-ahead overlap at a
    linear activation-memory price.
    """

    def __init__(self, n_stages: int, warmup: Sequence[int], n_actors: int | None = None):
        if n_actors is None:
            n_actors = n_stages
        if n_stages != n_actors:
            raise ValueError("Hybrid1F1B places one stage per actor")
        warmup = tuple(int(w) for w in warmup)
        if len(warmup) != n_actors:
            raise ValueError(
                f"warmup vector has {len(warmup)} entries for {n_actors} ranks"
            )
        if any(w < 0 for w in warmup):
            raise ValueError("warmup counts must be non-negative")
        self.n_stages = n_stages
        self.n_actors = n_actors
        self.warmup = warmup

    def actor_of_stage(self, stage: int) -> int:
        return stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return min(self.warmup[rank] + 1, n_mbs)

    def units(self, n_mbs: int) -> list[list[Unit]]:
        out = []
        for rank in range(self.n_actors):
            w = min(self.warmup[rank], n_mbs)
            seq = [Unit(i, rank, FWD) for i in range(w)]
            nf, nb = w, 0
            while nb < n_mbs:
                if nf < n_mbs:
                    seq.append(Unit(nf, rank, FWD))
                    nf += 1
                seq.append(Unit(nb, rank, BWD))
                nb += 1
            out.append(seq)
        return out

    @property
    def name(self) -> str:
        return f"Hybrid1F1B{list(self.warmup)}"


class ZBH1(Schedule):
    """Zero-bubble ZB-H1 (Qi et al. 2024): 1F1B with the backward split
    into an input-gradient unit (``bwd_i``, on the inter-stage critical
    path) and a weight-gradient unit (``bwd_w``, purely local).

    Weight-gradient work is deferred until either (a) holding more
    activations would exceed 1F1B's per-rank bound ``p - rank`` or (b) the
    rank runs out of other work (the cooldown phase, where ``bwd_w`` fills
    what 1F1B leaves as bubble).  Because downstream stages wait only for
    the cheaper ``bwd_i``, the backward sweep's critical path shrinks and
    the bubble drops to roughly a third of 1F1B's, at the same peak
    activation memory.
    """

    backward_split = True

    def __init__(self, n_stages: int, n_actors: int | None = None):
        if n_actors is None:
            n_actors = n_stages
        if n_stages != n_actors:
            raise ValueError("ZBH1 places one stage per actor")
        self.n_stages = n_stages
        self.n_actors = n_actors

    def actor_of_stage(self, stage: int) -> int:
        return stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return min(self.n_actors - rank, n_mbs)  # 1F1B's bound, kept

    def units(self, n_mbs: int) -> list[list[Unit]]:
        p = self.n_actors
        out = []
        for rank in range(p):
            bound = p - rank  # 1F1B's peak live-activation count
            warmup = min(p - 1 - rank, n_mbs)
            seq = [Unit(i, rank, FWD) for i in range(warmup)]
            nf, nb, nw = warmup, 0, 0
            while nb < n_mbs:
                if nf < n_mbs:
                    seq.append(Unit(nf, rank, FWD))
                    nf += 1
                seq.append(Unit(nb, rank, BWD_I))
                nb += 1
                # retire weight-gradients eagerly enough to keep the
                # activation count at 1F1B's bound
                while nw < nb and nf - nw >= bound:
                    seq.append(Unit(nw, rank, BWD_W))
                    nw += 1
            while nw < n_mbs:  # cooldown tail: pure bubble-filling
                seq.append(Unit(nw, rank, BWD_W))
                nw += 1
            out.append(seq)
        return out

    @property
    def name(self) -> str:
        return "ZB-H1"


class ZBH2(Schedule):
    """Zero-bubble ZB-H2 (Qi et al. 2024): ZB-H1 with the activation bound
    relaxed from 1F1B's rank-dependent ``p - rank`` to a uniform
    ``2p - 1``.

    Two things change relative to ZB-H1.  Each rank warms up with
    ``2(p - 1 - rank)`` forwards (twice ZB-H1's), shrinking the warmup
    bubble; and — crucially — the uniform bound lets *downstream* ranks
    defer their weight-gradient units too, so the critical backward path
    is a pure ``bwd_i`` chain (period ``fwd + bwd_i`` instead of
    ``fwd + bwd_i + bwd_w`` on the last rank) and the deferred ``bwd_w``
    work drains in the cooldown.  Peak activation memory roughly doubles
    relative to ZB-H1/1F1B (``min(2p - 1, n_mbs)`` per rank) but stays
    bounded by the stage count, never by the microbatch count — the
    paper's "no bubble when memory allows" point on the memory/bubble
    trade-off curve.
    """

    backward_split = True

    def __init__(self, n_stages: int, n_actors: int | None = None):
        if n_actors is None:
            n_actors = n_stages
        if n_stages != n_actors:
            raise ValueError("ZBH2 places one stage per actor")
        self.n_stages = n_stages
        self.n_actors = n_actors

    def actor_of_stage(self, stage: int) -> int:
        return stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return min(2 * self.n_actors - 1, n_mbs)

    def units(self, n_mbs: int) -> list[list[Unit]]:
        p = self.n_actors
        out = []
        for rank in range(p):
            bound = 2 * p - 1  # the relaxed H2 bound, uniform over ranks
            warmup = min(2 * (p - 1 - rank), n_mbs)
            seq = [Unit(i, rank, FWD) for i in range(warmup)]
            nf, nb, nw = warmup, 0, 0
            while nb < n_mbs:
                if nf < n_mbs:
                    seq.append(Unit(nf, rank, FWD))
                    nf += 1
                seq.append(Unit(nb, rank, BWD_I))
                nb += 1
                while nw < nb and nf - nw >= bound:
                    seq.append(Unit(nw, rank, BWD_W))
                    nw += 1
            while nw < n_mbs:  # cooldown tail: pure bubble-filling
                seq.append(Unit(nw, rank, BWD_W))
                nw += 1
            out.append(seq)
        return out

    @property
    def name(self) -> str:
        return "ZB-H2"


class ZBV(Schedule):
    """Zero-bubble ZB-V (Qi et al. 2024): two chunks per rank placed in a
    **V shape** — stage ``s`` runs on actor ``s`` while descending
    (``s < p``) and on actor ``2p - 1 - s`` coming back up, so actor 0
    owns the first *and* last stage and the pipeline turns around on
    actor ``p - 1`` (which owns the two adjacent middle stages).

    The V placement is what lets ZB-V approach ZB-H2's bubble at roughly
    ZB-H1/1F1B's activation memory: the backward chain re-enters each rank
    twice per microbatch, so weight-gradient units (``bwd_w``) find bubble
    slots without any rank having to hold ``2p - 1`` activations the way
    ZB-H2 does.  Loss computation lands on actor 0, so the backward sweep
    starts where the forward sweep started — there is no idle drain on the
    last rank.

    The per-rank order is derived by a deterministic greedy list
    scheduler over the unit dependency graph at ZB-V's design point
    (``fwd = bwd_i = bwd_w`` unit cost): every rank runs the ready unit
    with the earliest start time, preferring input-gradient units (the
    cross-rank critical path), then forwards (downstream-first, matching
    the interleaved V warmup), and deferring weight-gradient units to
    bubbles — or emitting them eagerly once the rank's live-activation
    count reaches the ``2p`` chunk budget (1F1B's byte budget, since each
    chunk holds half a microbatch's layers).
    """

    backward_split = True

    def __init__(self, n_actors: int):
        if n_actors < 1:
            raise ValueError("ZBV needs at least one actor")
        self.n_actors = n_actors
        self.n_stages = 2 * n_actors
        self._units_cache: dict[int, list[list[Unit]]] = {}
        self._peaks_cache: dict[int, list[int]] = {}

    def actor_of_stage(self, stage: int) -> int:
        p = self.n_actors
        return stage if stage < p else 2 * p - 1 - stage

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        if n_mbs not in self._peaks_cache:
            self.units(n_mbs)  # populate the measured-peak cache
        return self._peaks_cache[n_mbs][rank]

    def units(self, n_mbs: int) -> list[list[Unit]]:
        cached = self._units_cache.get(n_mbs)
        if cached is not None:
            return [list(seq) for seq in cached]
        from repro.core.schedule_ir import iter_unit_deps

        p, S = self.n_actors, self.n_stages
        budget = 2 * p  # chunk-activations/rank == 1F1B's byte budget
        kind_prio = {BWD_I: 0, FWD: 1, BWD_W: 2}

        pending: list[set[Unit]] = [set() for _ in range(p)]
        deps_of: dict[Unit, tuple[Unit, ...]] = {}
        for mb in range(n_mbs):
            for s in range(S):
                for k in (FWD, BWD_I, BWD_W):
                    u = Unit(mb, s, k)
                    pending[self.actor_of_stage(s)].add(u)
                    deps_of[u] = tuple(iter_unit_deps(u, S))

        finish: dict[Unit, float] = {}
        rank_time = [0.0] * p
        live = [0] * p
        seqs: list[list[Unit]] = [[] for _ in range(p)]
        n_left = n_mbs * S * 3

        def candidate(rank: int, allow_over_budget: bool) -> tuple | None:
            """Best (start, prio, stage-key, mb, unit) ready on ``rank``."""
            best = None
            at_budget = live[rank] >= budget and not allow_over_budget
            for u in pending[rank]:
                if u.kind == FWD and at_budget:
                    continue
                deps = deps_of[u]
                if any(d not in finish for d in deps):
                    continue
                start = max([rank_time[rank]] + [finish[d] for d in deps])
                # forwards downstream-first (the interleaved V warmup);
                # input-gradients deepest-chain-first (stage s still has s
                # hops of bwd_i chain left below it)
                stage_key = -u.stage
                key = (start, kind_prio[u.kind], stage_key, u.mb, u.stage)
                if best is None or key < best[:-1]:
                    best = key + (u,)
            return best

        while n_left:
            best = None
            for rank in range(p):
                c = candidate(rank, allow_over_budget=False)
                if c is not None and (best is None or c[:-1] < best[0][:-1]):
                    best = (c, rank)
            if best is None:
                # every rank is memory-blocked on a forward: relax the
                # budget for the earliest one (termination guarantee; does
                # not trigger for the gallery's p/n_mbs grid)
                for rank in range(p):  # pragma: no cover - safety valve
                    c = candidate(rank, allow_over_budget=True)
                    if c is not None and (best is None or c[:-1] < best[0][:-1]):
                        best = (c, rank)
                if best is None:  # pragma: no cover - graph is acyclic
                    raise AssertionError("ZBV greedy scheduler stalled")
            (start, _, _, _, _, u), rank = best
            pending[rank].discard(u)
            finish[u] = start + 1.0
            rank_time[rank] = finish[u]
            seqs[rank].append(u)
            if u.kind == FWD:
                live[rank] += 1
            elif u.kind == BWD_W:
                live[rank] -= 1
            n_left -= 1

        peaks = []
        for seq in seqs:
            lv = pk = 0
            for u in seq:
                lv += 1 if u.kind == FWD else (-1 if u.kind == BWD_W else 0)
                pk = max(pk, lv)
            peaks.append(pk)
        self._peaks_cache[n_mbs] = peaks
        self._units_cache[n_mbs] = seqs
        return [list(seq) for seq in seqs]

    @property
    def name(self) -> str:
        return "ZB-V"


class LoopedBFS(Schedule):
    """Looped breadth-first schedule (Lamy-Poirier 2023, Llama-style):
    circular-repeat placement like :class:`Interleaved1F1B` (stage ``s``
    on actor ``s % n_actors``), but microbatches sweep *breadth-first* —
    every microbatch runs through a stage chunk before any advances to the
    next chunk, forward chunks in order, then backward chunks in reverse
    with microbatches drained LIFO.

    Each sweep is a GPipe wave over one chunk, so peak activation memory
    grows with ``n_mbs * circular_repeat`` (all activations live at the
    turn) — the trade for maximum send batching and a schedule whose
    per-chunk communication is perfectly regular.
    """

    def __init__(self, n_actors: int, circular_repeat: int):
        if circular_repeat < 1:
            raise ValueError("circular_repeat must be >= 1")
        self.n_actors = n_actors
        self.v = circular_repeat
        self.n_stages = n_actors * circular_repeat

    def actor_of_stage(self, stage: int) -> int:
        return stage % self.n_actors

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return n_mbs * self.v  # breadth-first holds every sweep's output

    def units(self, n_mbs: int) -> list[list[Unit]]:
        p, v = self.n_actors, self.v
        out = []
        for rank in range(p):
            seq: list[Unit] = []
            for chunk in range(v):  # forward sweeps, chunk by chunk
                stage = chunk * p + rank
                seq += [Unit(i, stage, FWD) for i in range(n_mbs)]
            for chunk in reversed(range(v)):  # backward sweeps, reversed
                stage = chunk * p + rank
                seq += [Unit(i, stage, BWD) for i in reversed(range(n_mbs))]
            out.append(seq)
        return out

    @property
    def name(self) -> str:
        return f"LoopedBFS(v={self.v})"


class InterleavedZB(Interleaved1F1B):
    """Interleaved zero-bubble: :class:`Interleaved1F1B`'s circular-repeat
    order with Qi et al.'s backward split applied on top.

    Each backward of the base interleaved order becomes its
    input-gradient half (``bwd_i``) in place; the weight-gradient halves
    are deferred and emitted (a) when holding another activation would
    exceed the base schedule's peak, and (b) one after each ``bwd_i`` of
    the cooldown drain, where the base order idles waiting on the backward
    chain.  Downstream chunks wait only for the cheap ``bwd_i`` chain, so
    the makespan drops below interleaved-1F1B's while peak activation
    memory stays exactly at its level.
    """

    backward_split = True

    def __init__(self, n_actors: int, circular_repeat: int):
        super().__init__(n_actors, circular_repeat)
        self._peaks_cache: dict[int, list[int]] = {}

    def activation_bound(self, rank: int, n_mbs: int) -> int | None:
        return self._base_peaks(n_mbs)[rank]

    def _base_peaks(self, n_mbs: int, base: list[list[Unit]] | None = None) -> list[int]:
        """Per-rank peak live activations of the base interleaved order —
        the bounds the split variant preserves (computed from one base
        table build, memoised per ``n_mbs``)."""
        peaks = self._peaks_cache.get(n_mbs)
        if peaks is None:
            peaks = []
            for seq in base if base is not None else super().units(n_mbs):
                live = peak = 0
                for u in seq:
                    live += 1 if u.kind == FWD else -1
                    peak = max(peak, live)
                peaks.append(peak)
            self._peaks_cache[n_mbs] = peaks
        return peaks

    def units(self, n_mbs: int) -> list[list[Unit]]:
        base = super().units(n_mbs)
        bounds = self._base_peaks(n_mbs, base)
        out = []
        for rank, seq in enumerate(base):
            bound = bounds[rank]
            n_fwd_total = sum(1 for u in seq if u.kind == FWD)
            new: list[Unit] = []
            pending: deque[Unit] = deque()  # bwd_w units awaiting emission
            live = nf = 0
            for u in seq:
                if u.kind == FWD:
                    new.append(u)
                    live += 1
                    nf += 1
                    continue
                # base BWD -> bwd_i now, bwd_w deferred
                new.append(Unit(u.mb, u.stage, BWD_I))
                pending.append(u)
                # retire weight-gradients eagerly enough to keep the
                # activation count at the base interleaved peak (after the
                # bwd_i, where the base order idles anyway — never in
                # front of a forward, which would stall downstream)
                while live >= bound and pending:
                    w = pending.popleft()
                    new.append(Unit(w.mb, w.stage, BWD_W))
                    live -= 1
                # cooldown drain (no forwards left): one weight-gradient
                # per bwd_i fills the slot the base order spends waiting
                # on the backward chain
                if nf == n_fwd_total and pending:
                    w = pending.popleft()
                    new.append(Unit(w.mb, w.stage, BWD_W))
                    live -= 1
            while pending:  # whatever remains after the drain
                w = pending.popleft()
                new.append(Unit(w.mb, w.stage, BWD_W))
            out.append(new)
        return out

    @property
    def name(self) -> str:
        return f"Interleaved-ZB(v={self.v})"


#: the gallery by config name (``PipelineSimConfig.schedule``, the strings
#: ``docs/SCHEDULES.md`` lists): name -> ``(pp, v) -> Schedule``, for ``pp``
#: actors with ``v`` stage chunks each
SCHEDULES: dict[str, Callable[[int, int], Schedule]] = {
    "gpipe": lambda pp, v: GPipe(pp),
    "1f1b": lambda pp, v: OneFOneB(pp),
    "eager1f1b": lambda pp, v: Eager1F1B(pp),
    "zbh1": lambda pp, v: ZBH1(pp),
    "zbh2": lambda pp, v: ZBH2(pp),
    "zbv": lambda pp, v: ZBV(pp),
    "interleaved": Interleaved1F1B,
    "looped_bfs": LoopedBFS,
    "interleaved_zb": InterleavedZB,
}


# ---------------------------------------------------------------------------
# validation & analysis — thin delegates over the lowered ScheduleIR
# ---------------------------------------------------------------------------

def validate_schedule(schedule: Schedule, n_mbs: int) -> None:
    """Check completeness, placement, deadlock-freedom, and the per-rank
    activation-memory bound of a schedule by lowering it to its
    :class:`~repro.core.schedule_ir.ScheduleIR` and running the graph
    checks.  Raises ``ValueError`` describing the first violation.
    """
    schedule.lower(n_mbs).validate()


def schedule_stats(
    schedule: Schedule,
    n_mbs: int,
    fwd_time: float = 1.0,
    bwd_time: float = 2.0,
    cost_model=None,
) -> dict:
    """Analytic execution of a schedule under uniform stage costs — or
    heterogeneous per-stage costs when a
    :class:`repro.core.autotune.CostModel` is given (costs the lowered
    :class:`~repro.core.schedule_ir.ScheduleIR` directly; see
    :meth:`ScheduleIR.stats`)."""
    return schedule.lower(n_mbs).stats(
        fwd_time=fwd_time, bwd_time=bwd_time, cost_model=cost_model
    )
