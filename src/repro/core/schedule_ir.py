"""First-class schedule IR: one dependency-explicit table per schedule.

A :class:`Schedule` answers *what runs where, in which per-rank order*;
this module lowers that answer — once — into a :class:`ScheduleIR` that
every consumer walks instead of re-deriving unit dependencies:

- **emission** (:meth:`ScheduleIR.emit`) walks the IR's global
  topological order once and places every cross-rank ``Send``/``Recv``
  pair; the **compiler** (:mod:`repro.core.compile`) and the
  **performance simulator** and **autotuner pricer**
  (:mod:`repro.perf.pipeline_sim`) only say what each slot runs;
- the **runtime** (:mod:`repro.runtime.executor`) seeds its event-engine
  ready-queue from :meth:`ScheduleIR.initial_ready_ranks`;
- the **visualiser** (:mod:`repro.viz.ascii`) draws the slot table;
- **validation** (:func:`repro.core.schedules.validate_schedule`) is a
  graph check over the same table: completeness, placement, edge
  resolution, acyclicity/executability, and per-rank memory bounds.

The Slot/edge model
===================

One *slot* is one scheduled unit pinned to a position in a rank's program:
``Slot(rank, index, unit, acquires, releases)``.  ``acquires``/``releases``
are resource annotations counting activation buffers: a forward acquires
one, a (monolithic or weight-gradient) backward releases one, so a running
sum of ``acquires - releases`` along any execution order is the rank's
live-activation count.

Edges connect producing slots to consuming slots and come in two flavours:

- *intra-rank* — producer and consumer sit on the same rank; program order
  plus the local object store satisfy them with no communication;
- *cross-rank* — producer and consumer sit on different ranks; each one is
  a send/recv pair at runtime.

For ``OneFOneB(2)`` with two microbatches the table looks like::

    rank 0:  f0(0) ───► f0(1)      b0(0)        b0(1)
               │intra     │intra   ▲              ▲
               ▼cross     ▼cross   │cross         │cross
    rank 1:  f1(0) ───► b1(0) ──► f1(1) ───►    b1(1)

    slot     = one cell (a Unit at a rank/index)
    intra    = same-row arrow (program order / local buffer)
    cross    = between-row arrow (a send/recv pair)

``f0(1)``'s only dependency edge is intra-rank program order; ``b0(0)``
has a cross-rank edge from ``b1(0)`` (the gradient coming back up), which
is exactly the transfer the compiler emits and the simulator prices.

Dependency *structure* (which units feed which) is fixed by unit kinds —
:func:`iter_unit_deps` is the single encoding of it, and this module is
its only home; everything downstream sees resolved slot-to-slot edges.

Costing
=======

:meth:`ScheduleIR.stats` executes the IR analytically.  By default every
stage costs the same (``fwd_time``/``bwd_time``, the closed-form bubble
assumption); passing a cost model — ``unit_time(stage, kind,
bwd_input_fraction) -> seconds`` plus ``activation_bytes(stage)``,
canonically :class:`repro.core.autotune.CostModel` — prices
heterogeneous stages (uneven layers, embedding/head stages,
circular-repeat chunks) and reports peak live-activation *bytes* per
rank alongside the counts, which is what the autotuner's memory budget
is checked against.  Event-engine pricing of the same IR (with
communication) emits cost-only programs through :meth:`ScheduleIR.emit`
— the emitter the compiler uses — and runs them on the event engine
(:func:`repro.perf.pipeline_sim.price_schedule`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.schedules import BWD, BWD_I, BWD_W, FWD, Unit
from repro.runtime.instructions import Instruction, Recv, Send

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedules import Schedule

__all__ = [
    "Slot",
    "ScheduleIR",
    "lower_schedule",
    "iter_unit_deps",
]


def iter_unit_deps(unit: Unit, n_stages: int) -> Iterator[Unit]:
    """Units that must complete before ``unit`` may run.

    Encodes both the monolithic-backward dependency structure and the
    zero-bubble split one (a unit's kind determines which applies — a
    schedule's units are homogeneous in this respect).  This is the single
    source of dependency structure; consumers walk the resolved edges of a
    :class:`ScheduleIR` instead of calling this directly.
    """
    if unit.kind == FWD:
        if unit.stage > 0:
            yield Unit(unit.mb, unit.stage - 1, FWD)
    elif unit.kind == BWD:
        yield Unit(unit.mb, unit.stage, FWD)
        if unit.stage < n_stages - 1:
            yield Unit(unit.mb, unit.stage + 1, BWD)
    elif unit.kind == BWD_I:
        yield Unit(unit.mb, unit.stage, FWD)
        if unit.stage < n_stages - 1:
            yield Unit(unit.mb, unit.stage + 1, BWD_I)
    elif unit.kind == BWD_W:
        yield Unit(unit.mb, unit.stage, BWD_I)
    else:
        raise ValueError(f"unknown unit kind {unit.kind!r}")


@dataclasses.dataclass(frozen=True)
class Slot:
    """One scheduled unit at a fixed position in a rank's program.

    Attributes:
        rank: the actor executing this slot.
        index: position in the rank's program order.
        unit: the scheduled work item.
        acquires: activation buffers acquired when this slot runs (1 for a
            forward, else 0).
        releases: activation buffers released when this slot retires (1
            for a monolithic or weight-gradient backward, else 0).
    """

    rank: int
    index: int
    unit: Unit
    acquires: int
    releases: int

    @property
    def key(self) -> tuple[int, int, str]:
        """The unit identity ``(mb, stage, kind)``."""
        u = self.unit
        return (u.mb, u.stage, u.kind)

    def __repr__(self) -> str:
        return f"Slot(r{self.rank}[{self.index}] {self.unit!r})"


class ScheduleIR:
    """Dependency-explicit lowering of a schedule for ``n_mbs`` microbatches.

    Construction (via :func:`lower_schedule` / ``Schedule.lower``) checks
    the *table* properties — every unit scheduled exactly once, on the
    stage's owning actor, with only the kinds the schedule's backward mode
    allows, and every dependency edge resolving to a scheduled slot.
    :meth:`validate` additionally checks the *graph* properties —
    executability (acyclicity of data + program-order edges, via the
    greedy topological walk) and the per-rank activation-memory bound.

    Attributes:
        schedule: the schedule this IR was lowered from.
        n_mbs: microbatch count the lowering is specialised to.
        n_stages / n_ranks: copied from the schedule.
        slots: per-rank ordered slot lists (the schedule table).
    """

    def __init__(self, schedule: "Schedule", n_mbs: int):
        self.schedule = schedule
        self.n_mbs = n_mbs
        self.n_stages = schedule.n_stages
        self.n_ranks = schedule.n_actors

        per_actor = schedule.units(n_mbs)
        if len(per_actor) != schedule.n_actors:
            raise ValueError("schedule emitted wrong number of actor lists")

        kinds = (FWD, BWD_I, BWD_W) if schedule.backward_split else (FWD, BWD)
        expected = {
            (mb, s, k)
            for mb in range(n_mbs)
            for s in range(schedule.n_stages)
            for k in kinds
        }

        self.slots: list[list[Slot]] = []
        self._slot_of: dict[tuple[int, int, str], Slot] = {}
        for rank, seq in enumerate(per_actor):
            row: list[Slot] = []
            for index, u in enumerate(seq):
                if u.kind not in kinds:
                    raise ValueError(
                        f"unit {u} has kind {u.kind!r}, but this "
                        f"{'split' if schedule.backward_split else 'monolithic'}"
                        f"-backward schedule may only emit {kinds}"
                    )
                key = (u.mb, u.stage, u.kind)
                if key in self._slot_of:
                    raise ValueError(f"unit {u} scheduled twice")
                if schedule.actor_of_stage(u.stage) != rank:
                    raise ValueError(
                        f"unit {u} scheduled on actor {rank}, but stage "
                        f"{u.stage} belongs to actor {schedule.actor_of_stage(u.stage)}"
                    )
                slot = Slot(
                    rank=rank,
                    index=index,
                    unit=u,
                    acquires=1 if u.kind == FWD else 0,
                    releases=1 if u.kind in (BWD, BWD_W) else 0,
                )
                row.append(slot)
                self._slot_of[key] = slot
            self.slots.append(row)

        if set(self._slot_of) != expected:
            missing = sorted(expected - set(self._slot_of))[:5]
            raise ValueError(f"schedule incomplete; missing units like {missing}")

        self._deps, self._consumers = self._resolve_edges()
        self._topo: list[Slot] | None = None

    def _resolve_edges(
        self,
    ) -> tuple[dict[tuple[int, int], tuple[Slot, ...]], dict[tuple[int, int], list[Slot]]]:
        """Dependency and consumer edges slot-to-slot, keyed by ``(rank,
        index)``, from :func:`iter_unit_deps` (every dep of a scheduled
        unit must itself be scheduled — guaranteed by the completeness
        check at construction, asserted here)."""
        deps: dict[tuple[int, int], tuple[Slot, ...]] = {}
        consumers: dict[tuple[int, int], list[Slot]] = {}
        for row in self.slots:
            for slot in row:
                want = []
                for d in iter_unit_deps(slot.unit, self.n_stages):
                    dep_slot = self._slot_of.get((d.mb, d.stage, d.kind))
                    if dep_slot is None:  # pragma: no cover - completeness
                        raise ValueError(
                            f"unit {slot.unit} depends on unscheduled unit {d}"
                        )
                    want.append(dep_slot)
                    consumers.setdefault((dep_slot.rank, dep_slot.index), []).append(slot)
                deps[(slot.rank, slot.index)] = tuple(want)
        return deps, consumers

    # -- table lookups -------------------------------------------------------
    def slot_of(self, unit: Unit) -> Slot:
        """The slot scheduling ``unit``."""
        return self._slot_of[(unit.mb, unit.stage, unit.kind)]

    def deps(self, slot: Slot) -> tuple[Slot, ...]:
        """Data-dependency edges into ``slot`` (producing slots)."""
        return self._deps[(slot.rank, slot.index)]

    def consumers(self, slot: Slot) -> tuple[Slot, ...]:
        """Data-dependency edges out of ``slot`` (consuming slots)."""
        return tuple(self._consumers.get((slot.rank, slot.index), ()))

    def cross_deps(self, slot: Slot) -> tuple[Slot, ...]:
        """Dependencies of ``slot`` produced on a *different* rank — each
        one is a send/recv pair at runtime."""
        return tuple(d for d in self.deps(slot) if d.rank != slot.rank)

    def cross_consumers(self, slot: Slot) -> tuple[Slot, ...]:
        """Consumers of ``slot`` on a *different* rank."""
        return tuple(c for c in self.consumers(slot) if c.rank != slot.rank)

    def buffer_deps(self, slot: Slot) -> tuple[Slot, ...]:
        """Dependencies instruction emitters materialise as buffer
        references: every cross-rank dep (delivered by a recv), plus a
        weight-gradient slot's local deps (its ``bwd_i`` buffer gates the
        deferred work and carries its cost attribution).  Other intra-rank
        deps are satisfied by program order alone."""
        if slot.unit.kind == BWD_W:
            return self.deps(slot)
        return self.cross_deps(slot)

    def send_targets(self, slot: Slot) -> list[Slot]:
        """One transfer per destination rank of ``slot``'s output: the
        first slot there that consumes it, in rank order (deterministic
        emission)."""
        first: dict[int, Slot] = {}
        for c in self.cross_consumers(slot):  # row-major: program order
            first.setdefault(c.rank, c)
        return [first[rank] for rank in sorted(first)]

    def edges(self) -> Iterator[tuple[Slot, Slot]]:
        """All data-dependency edges as ``(producer, consumer)`` pairs."""
        for row in self.slots:
            for slot in row:
                for dep in self.deps(slot):
                    yield dep, slot

    # -- aggregate shape -----------------------------------------------------
    @property
    def n_slots(self) -> int:
        """Total scheduled slots."""
        return sum(len(row) for row in self.slots)

    @property
    def n_edges(self) -> int:
        """Total data-dependency edges."""
        return sum(len(d) for d in self._deps.values())

    @property
    def n_cross_edges(self) -> int:
        """Data edges crossing ranks (send/recv pairs at runtime)."""
        return sum(
            1
            for (rank, _), deps in self._deps.items()
            for d in deps
            if d.rank != rank
        )

    @property
    def n_intra_edges(self) -> int:
        """Data edges satisfied locally (same rank)."""
        return self.n_edges - self.n_cross_edges

    # -- graph checks --------------------------------------------------------
    def toposort(self) -> list[Slot]:
        """Global topological order — greedy over ranks in program order,
        §4.2's emission order (walked for emission by :meth:`emit` only).

        Raises ``ValueError`` if the schedule cannot be executed.
        """
        if self._topo is not None:
            return self._topo
        order: list[Slot] = []
        done: set[tuple[int, int, str]] = set()
        pcs = [0] * self.n_ranks
        total = self.n_slots
        while len(order) < total:
            progressed = False
            for rank, row in enumerate(self.slots):
                while pcs[rank] < len(row):
                    slot = row[pcs[rank]]
                    if not all(d.key in done for d in self.deps(slot)):
                        break
                    done.add(slot.key)
                    order.append(slot)
                    pcs[rank] += 1
                    progressed = True
            if not progressed:
                stuck = [
                    row[pcs[rank]].unit
                    for rank, row in enumerate(self.slots)
                    if pcs[rank] < len(row)
                ]
                raise ValueError(
                    f"schedule deadlocks (not executable); stuck units: {stuck[:4]}"
                )
        self._topo = order
        return order

    def emit(
        self,
        slot_fn: Callable[[Slot], tuple],
        placement: str = "topo",
        programs: list[list[Instruction]] | None = None,
        base: int = 0,
    ) -> list[list[Instruction]]:
        """One instruction program per rank, in the global topological
        order: the send/recv emitter the compiler and the cost-only
        simulator / pricer share.

        ``slot_fn(slot)`` returns ``(body, transfers, tail)``: the slot's
        instructions, its outgoing transfers ``(ref, key, nbytes, dst,
        consumer)`` — ``consumer`` is the first slot on rank ``dst`` that
        reads the value — and what follows the sends (the compiler's
        ``Accumulate``).  Each transfer is a ``Send`` after ``body`` and a
        ``Recv`` on ``dst``, placed by ``placement``:

        - ``"topo"``: posted the moment the ``Send`` is emitted (§4.2:
          receivers prefetch; deadlock-free in every comm mode);
        - ``"naive"``: held until ``consumer`` is emitted and put just
          before it — per-iteration recv → compute → send, exact for GPipe;
          it deadlocks 1F1B-style schedules under synchronous sends
          (Figure 5) and breaks ZB-V's per-channel order.

        Rank ``r`` appends to ``programs[base + r]`` (fresh lists by
        default) and peers are offset by ``base`` too: the caller's
        data-parallel replica.
        """
        if programs is None:
            programs = [[] for _ in range(self.n_ranks)]
        held: dict[Slot, list[Recv]] = {}
        for slot in self.toposort():
            body, transfers, tail = slot_fn(slot)
            prog = programs[base + slot.rank]
            if held:
                prog.extend(held.pop(slot, ()))
            prog.extend(body)
            for ref, key, nbytes, dst, consumer in transfers:
                prog.append(Send(ref, base + dst, key))
                recv = Recv(ref, base + slot.rank, key, nbytes)
                if placement == "topo":
                    programs[base + dst].append(recv)
                else:
                    held.setdefault(consumer, []).append(recv)
            prog.extend(tail)
        return programs

    def check_edges(self) -> "ScheduleIR":
        """Edge-consistency: the resolved dependency tables must still
        agree with :func:`iter_unit_deps`, the single source of
        dependency structure.  A dropped, redirected, duplicated, or
        fabricated edge — whether from a buggy lowering or a fuzzer
        mutating the tables directly — raises ``ValueError`` here rather
        than executing a subtly-wrong dataflow graph downstream."""
        if len(self._deps) != self.n_slots:
            raise ValueError(
                f"dependency table has {len(self._deps)} entries for "
                f"{self.n_slots} slots (corrupt IR)"
            )
        deps, consumers = self._resolve_edges()
        for row in self.slots:
            for slot in row:
                want = list(deps[(slot.rank, slot.index)])
                have = self._deps.get((slot.rank, slot.index))
                if have is None or list(have) != want:
                    raise ValueError(
                        f"dependency edges of {slot!r} diverge from the unit "
                        f"dependency structure: IR has {list(have or ())}, "
                        f"expected {want} (corrupt or tampered edges)"
                    )
        for key in set(consumers) | set(self._consumers):
            if consumers.get(key, []) != self._consumers.get(key, []):
                rank, index = key
                raise ValueError(
                    f"consumer edges of slot r{rank}[{index}] diverge from "
                    "the unit dependency structure (corrupt or tampered edges)"
                )
        return self

    def validate(self) -> "ScheduleIR":
        """Graph checks on top of the construction-time table checks:
        edge consistency against the unit dependency structure
        (:meth:`check_edges`), executability (the greedy topological walk
        covers every slot), and the per-rank activation-memory bound when
        the schedule declares one.  Returns ``self`` for chaining; raises
        ``ValueError``."""
        self.check_edges()
        peak = self.peak_live()  # runs toposort: raises on deadlock
        for rank in range(self.n_ranks):
            bound = self.schedule.activation_bound(rank, self.n_mbs)
            if bound is not None and peak[rank] > bound:
                raise ValueError(
                    f"rank {rank} holds {peak[rank]} live activations, over "
                    f"the schedule's declared bound of {bound}"
                )
        return self

    def peak_live(self) -> list[int]:
        """Peak live-activation count per rank along the topological walk."""
        live = [0] * self.n_ranks
        peak = [0] * self.n_ranks
        for slot in self.toposort():
            live[slot.rank] += slot.acquires - slot.releases
            peak[slot.rank] = max(peak[slot.rank], live[slot.rank])
        return peak

    def initial_ready_ranks(self) -> list[int]:
        """Ranks ordered for runtime ready-queue seeding: ranks whose first
        slot has no unmet data dependency (they can start immediately)
        first, the rest after, both in rank order."""
        ready, blocked = [], []
        for rank, row in enumerate(self.slots):
            if row and not self.deps(row[0]):
                ready.append(rank)
            else:
                blocked.append(rank)
        return ready + blocked

    # -- analytic costing ----------------------------------------------------
    def stats(
        self,
        fwd_time: float = 1.0,
        bwd_time: float = 2.0,
        cost_model=None,
    ) -> dict:
        """Analytic execution of the IR under uniform or heterogeneous
        per-stage costs.

        Returns makespan, per-rank busy/idle (bubble) time, peak count of
        live activations per rank, and peak live activation *bytes* per
        rank — the quantities behind §2.2.1's memory and §5.1's
        throughput discussions.

        Args:
            fwd_time / bwd_time: uniform per-unit costs (the default —
                every stage costs the same, the assumption the closed-form
                bubble formulas make).
            cost_model: optional heterogeneous cost table — any object
                with ``unit_time(stage, kind, bwd_input_fraction) ->
                seconds`` and an ``activation_bytes(stage) -> bytes``
                method (:class:`repro.core.autotune.CostModel` is the
                canonical implementation).  When given it overrides
                ``fwd_time``/``bwd_time``, pricing uneven layers,
                embedding/head stages, and circular-repeat chunks
                individually.

        For split-backward schedules the full backward cost is divided
        between the input-gradient and weight-gradient units according to
        the schedule's ``bwd_input_fraction``; an activation is held from
        its forward until its weight-gradient unit retires it (encoded in
        the slots' acquire/release annotations), and its byte weight is
        the producing stage's ``activation_bytes``.

        ``cross_boundary_bytes`` totals the cross-rank dependency edges,
        each priced at the producing stage's
        ``cost_model.boundary_bytes`` (0.0 without a cost model) — the
        wire traffic the algebraic optimizer's boundary pruning and
        dedupe (:mod:`repro.ir.opt`) is in the business of shrinking.
        """
        frac = self.schedule.bwd_input_fraction

        if cost_model is not None:
            def unit_time(u: Unit) -> float:
                return cost_model.unit_time(u.stage, u.kind, frac)

            def act_bytes(stage: int) -> float:
                return cost_model.activation_bytes(stage)

            def bnd_bytes(stage: int) -> float:
                return cost_model.boundary_bytes(stage)
        else:
            def unit_time(u: Unit) -> float:
                if u.kind == FWD:
                    return fwd_time
                if u.kind == BWD:
                    return bwd_time
                return bwd_time * (frac if u.kind == BWD_I else 1.0 - frac)

            def act_bytes(stage: int) -> float:
                return 1.0

            def bnd_bytes(stage: int) -> float:
                return 0.0

        finish: dict[tuple[int, int, str], float] = {}
        rank_time = [0.0] * self.n_ranks
        live = [0] * self.n_ranks
        peak_live = [0] * self.n_ranks
        live_bytes = [0.0] * self.n_ranks
        peak_bytes = [0.0] * self.n_ranks
        # a release retires the rank's *oldest* live acquisition's bytes —
        # FIFO per (rank, stage) is not tracked; instead charge/credit the
        # released slot's own stage, which matches because forward and its
        # retiring backward share a stage by construction
        cross_bytes = 0.0
        for slot in self.toposort():
            start = max(
                [rank_time[slot.rank]] + [finish[d.key] for d in self.deps(slot)]
            )
            end = start + unit_time(slot.unit)
            finish[slot.key] = end
            rank_time[slot.rank] = end
            delta = slot.acquires - slot.releases
            live[slot.rank] += delta
            peak_live[slot.rank] = max(peak_live[slot.rank], live[slot.rank])
            live_bytes[slot.rank] += delta * act_bytes(slot.unit.stage)
            peak_bytes[slot.rank] = max(peak_bytes[slot.rank], live_bytes[slot.rank])
            # each cross-rank dependency is a send/recv of the producing
            # stage's boundary bytes; the algebraic optimizer
            # (ir/opt.py) shrinks exactly this term when it prunes or
            # dedupes stage outputs
            for d in self.cross_deps(slot):
                cross_bytes += bnd_bytes(d.unit.stage)
        makespan = max(rank_time)
        busy = [sum(unit_time(s.unit) for s in row) for row in self.slots]
        return {
            "makespan": makespan,
            "busy": busy,
            "bubble_fraction": 1.0 - sum(busy) / (makespan * self.n_ranks),
            "peak_live_activations": peak_live,
            "peak_activation_bytes": peak_bytes,
            "cross_boundary_bytes": cross_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"ScheduleIR({self.schedule.name}, n_mbs={self.n_mbs}, "
            f"slots={self.n_slots}, edges={self.n_edges} "
            f"[{self.n_cross_edges} cross])"
        )


def lower_schedule(schedule: "Schedule", n_mbs: int) -> ScheduleIR:
    """Lower ``schedule`` for ``n_mbs`` microbatches into a
    :class:`ScheduleIR` (construction performs the table checks; call
    :meth:`ScheduleIR.validate` for the graph checks)."""
    return ScheduleIR(schedule, n_mbs)
