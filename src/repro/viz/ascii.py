"""ASCII rendering of pipeline schedules, execution timelines, and
autotuner reports.

Reproduces the paper's Figure 2 visually: one row per actor, microbatch
numbers in execution order, forward/backward distinguished — plus a
wall-clock variant driven by the runtime's :class:`TimelineEvent` stream
and a table renderer for :class:`repro.core.autotune.TuneReport`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schedules import Schedule
from repro.runtime.executor import ExecutionResult, TimelineEvent

__all__ = ["render_schedule", "render_timeline", "render_tune_report"]


def render_schedule(schedule: Schedule, n_mbs: int, width: int | None = None) -> str:
    """Figure-2-style logical timeline of a schedule, drawn from its
    lowered :class:`~repro.core.schedule_ir.ScheduleIR` slot table.

    Each cell is one slot: ``F3`` = forward of microbatch 3 (lowercase for
    backward). Zero-bubble split backwards render as ``i3`` (input
    gradient) and ``w3`` (weight gradient). With circular repeat, the
    chunk index is appended as ``F3'1`` for stage chunk 1. Cells advance
    in per-actor program order with stalls ignored (this is the *logical*
    order the paper's Figure 2 shows, not wall-clock).

    ``width`` limits each row *without* clipping a label mid-cell: labels
    are first abbreviated — the chunk suffix is dropped from chunk-0
    cells only, so two chunks of the same microbatch on one rank (the
    v-shape and interleaved placements) stay distinguishable — and when
    whole cells still do not fit the row ends with ``…`` at a cell
    boundary.
    """
    glyph = {"fwd": "F", "bwd": "b", "bwd_i": "i", "bwd_w": "w"}
    ir = schedule.lower(n_mbs)
    has_chunks = schedule.n_stages > schedule.n_actors

    def chunk_of(stage: int) -> int:
        # chunk index on its owning rank, in that rank's stage order —
        # round-robin placements count s // p; the v-shape counts how
        # many of the rank's stages precede s
        rank = schedule.actor_of_stage(stage)
        return schedule.stages_of_actor(rank).index(stage)

    def cells_for(row, chunk_mode: str) -> list[str]:
        out = []
        for slot in row:
            u = slot.unit
            tag = f"{glyph.get(u.kind, '?')}{u.mb}"
            if chunk_mode != "none" and has_chunks:
                c = chunk_of(u.stage)
                if chunk_mode == "full" or c > 0:
                    tag += f"'{c}"
            out.append(tag)
        return out

    rows = []
    for actor, slot_row in enumerate(ir.slots):
        cells = cells_for(slot_row, "full" if has_chunks else "none")
        row = " ".join(cells)
        if width and len(row) > width and has_chunks:
            # abbreviation level 1: drop the chunk suffix from chunk-0
            # cells (chunk > 0 keeps it — two chunks of one microbatch on
            # a rank must not collapse into identical labels)
            cells = cells_for(slot_row, "minimal")
            row = " ".join(cells)
        if width and len(row) > width:
            # still too long: keep whole cells and elide at a boundary
            fitted: list[str] = []
            used = 0
            for cell in cells:
                step = len(cell) + (1 if fitted else 0)
                if used + step + 2 > width:  # reserve room for " …"
                    break
                fitted.append(cell)
                used += step
            row = " ".join(fitted) + " …" if fitted else "…"
        rows.append(f"actor {actor}: {row}")
    return "\n".join(rows)


def render_tune_report(report, width: int = 100) -> str:
    """ASCII table of a :class:`repro.core.autotune.TuneReport`.

    One row per candidate, feasible candidates ranked by makespan with
    the relative slowdown vs the winner, then excluded candidates with
    their reason (memory budget, shape constraint).  Schedule names
    longer than the name column are elided with ``…`` rather than
    clipped mid-word.
    """
    name_w = max(20, min(30, max((len(e.name) for e in report.entries), default=20)))

    def fit(name: str) -> str:
        return name if len(name) <= name_w else name[: name_w - 1] + "…"

    header = (
        f"{'rank':>4}  {'schedule':<{name_w}} {'makespan':>10} {'vs best':>8} "
        f"{'peak act':>10} {'rnd':>3}  notes"
    )
    lines = [header, "-" * len(header)]
    best = None
    pos = 0
    for e in report.entries:
        if e.feasible:
            pos += 1
            if best is None:
                best = e.makespan
            rel = f"+{(e.makespan / best - 1.0) * 100.0:.1f}%" if best else "-"
            lines.append(
                f"{pos:>4}  {fit(e.name):<{name_w}} {e.makespan:>10.4g} {rel:>8} "
                f"{e.peak_act_bytes:>10.4g} {e.round:>3}  "
                + ("wait-profile proposal" if e.round else "")
            )
        else:
            reason = e.reason.split("\n")[0]
            budget = max(24, width - name_w - 44)
            if len(reason) > budget:
                reason = reason[: budget - 1] + "…"
            lines.append(
                f"{'-':>4}  {fit(e.name):<{name_w}} {'excluded':>10} {'-':>8} "
                f"{e.peak_act_bytes:>10.4g} {e.round:>3}  {reason}"
            )
    if report.memory_budget is not None:
        lines.append(
            f"memory budget: {report.memory_budget:.4g} activation bytes/rank"
        )
    return "\n".join(lines)


def render_timeline(
    events: "Sequence[TimelineEvent] | ExecutionResult",
    n_actors: int | None = None,
    width: int = 100,
    kinds: tuple[str, ...] = ("task",),
) -> str:
    """Wall-clock timeline: one row per actor, proportional to time.

    Task intervals are filled with the first letter of their name (``f``/
    ``b``), idle time with ``.`` — making pipeline bubbles literally
    visible in the terminal, which is how the schedule-comparison example
    shows GPipe's bubble against 1F1B's.

    ``events`` may be a raw event list or a whole
    :class:`~repro.runtime.executor.ExecutionResult` (``n_actors`` then
    defaults to the result's actor count).  Time is whatever the events
    carry: virtual seconds from the simulator, *real* wall-clock seconds
    from a measured ``engine="mp"`` run — the same renderer draws both.
    """
    if isinstance(events, ExecutionResult):
        if n_actors is None:
            n_actors = len(events.actor_finish)
        events = events.timeline
    evs = [e for e in events if e.kind in kinds]
    if n_actors is None:
        n_actors = 1 + max((e.actor for e in evs), default=-1)
    if not evs:
        return "(empty timeline)"
    t_end = max(e.end for e in evs)
    if t_end <= 0:
        return "(zero-length timeline)"
    scale = width / t_end
    rows = []
    for actor in range(n_actors):
        row = ["."] * width
        for e in evs:
            if e.actor != actor:
                continue
            lo = int(e.start * scale)
            hi = max(lo + 1, int(e.end * scale))
            ch = (e.name[0] if e.name else "#")
            for i in range(lo, min(hi, width)):
                row[i] = ch
        rows.append(f"actor {actor}: |{''.join(row)}|")
    rows.append(f"{'':9}0{'':{width - 8}}t={t_end:.3g}s")
    return "\n".join(rows)
