"""Generator for ``docs/SCHEDULES.md`` — diagrams that cannot rot.

``python -m repro docs-schedules`` regenerates the schedule-gallery page
from the *actual* gallery: every ASCII diagram comes from
:func:`repro.viz.render_schedule` over the lowered
:class:`~repro.core.schedule_ir.ScheduleIR`, and every number from
:meth:`ScheduleIR.stats` at a fixed reference configuration.  CI re-runs
the generator and fails on diff, so the page can only ever show what the
code actually schedules.

Everything here is deterministic (fixed configurations, no timestamps,
no environment queries) — byte-identical output across runs is the
contract the freshness check relies on.
"""

from __future__ import annotations

import dataclasses

from repro.core.schedules import (
    Eager1F1B,
    GPipe,
    Interleaved1F1B,
    InterleavedZB,
    LoopedBFS,
    OneFOneB,
    SCHEDULES,
    Schedule,
    ZBH1,
    ZBH2,
    ZBV,
)
from repro.viz import render_schedule

__all__ = ["generate_schedules_md", "GALLERY_DOC"]

# reference configuration: 4 ranks, 8 microbatches; two-chunk schedules
# price units at half cost so total work per rank is identical everywhere
P, M = 4, 8
WIDTH = 104

#: schedule class -> its ``PipelineSimConfig.schedule`` name
_CONFIG_NAME = {type(make(P, 2)): name for name, make in SCHEDULES.items()}


@dataclasses.dataclass(frozen=True)
class _Doc:
    """Hand-written half of one gallery entry (the generated half is the
    diagram + stats)."""

    schedule: Schedule
    bound: str  # activation bound formula, per rank
    bubble: str  # bubble behaviour in one line
    use_when: str  # when-to-use guidance
    chunked: bool = False  # two stage chunks per rank (unit cost halved)

    @property
    def config(self) -> str:
        """The schedule's ``pipeline_sim`` config string."""
        return _CONFIG_NAME[type(self.schedule)]


GALLERY_DOC: tuple[_Doc, ...] = (
    _Doc(
        GPipe(P),
        "`n_mbs` — every microbatch's activation is live at the turn",
        "`(p-1)/(m+p-1)` of the step; does not shrink with memory",
        "Debugging baseline, or when `n_mbs` is small and memory is no "
        "concern. Phase-separated structure is the only one that survives "
        "naive synchronous send/recv ordering (Figure 5).",
    ),
    _Doc(
        OneFOneB(P),
        "`min(p - rank, n_mbs)` — bounded by *stages*, not microbatches",
        "same as GPipe (`(p-1)/(m+p-1)`); 1F1B buys memory, not bubble",
        "The default workhorse: GPipe's makespan at a 2-3x activation-"
        "memory reduction (§2.2.1). Start here, then trade up.",
    ),
    _Doc(
        Eager1F1B(P),
        "`min(2(p - 1 - rank) + 1, n_mbs)` — roughly double 1F1B",
        "same uniform-cost makespan as 1F1B; wins once transfers have "
        "latency",
        "Clusters where P2P latency is visible: the doubled warmup posts "
        "sends one hop ahead, hiding transfer latency that 1F1B leaves on "
        "the critical path.",
    ),
    _Doc(
        ZBH1(P),
        "`min(p - rank, n_mbs)` — exactly 1F1B's bound",
        "about a third of 1F1B's: cooldown bubble is filled with deferred "
        "`bwd_w` units",
        "Free upgrade from 1F1B whenever the backward can be split "
        "(input-gradient vs weight-gradient): same memory, smaller bubble.",
    ),
    _Doc(
        ZBH2(P),
        "`min(2p - 1, n_mbs)` — uniform, roughly double 1F1B",
        "near zero when `n_mbs >> p`: warmup doubled, critical path is a "
        "pure `bwd_i` chain",
        "When activation memory has headroom: the paper's \"no bubble when "
        "memory allows\" point on the memory/bubble curve.",
    ),
    _Doc(
        ZBV(P),
        "`2p` *chunk* activations per rank = 1F1B's byte budget "
        "(each chunk holds half the layers)",
        "approaches ZB-H2's bubble at roughly ZB-H1's memory — the V "
        "placement re-enters each rank twice, so `bwd_w` finds bubbles "
        "without hoarding activations",
        "Zero-bubble appetite without ZB-H2's memory bill. Needs the model "
        "split into `2p` stages; the loss lands back on rank 0, so there "
        "is no idle cooldown on the last rank.",
        chunked=True,
    ),
    _Doc(
        Interleaved1F1B(P, 2),
        "grows with `v`: about `p·(v-1) + p - rank` chunk activations",
        "shrinks by ~`1/v`: each bubble slot is a chunk, not a full stage",
        "The Megatron default at scale (Fig. 6): more, smaller tasks cut "
        "the bubble at the price of `v`x dispatch overhead and more P2P "
        "traffic. Requires `n_mbs % p == 0`.",
        chunked=True,
    ),
    _Doc(
        LoopedBFS(P, 2),
        "`n_mbs * v` — GPipe-like, scaled by circular repeat",
        "GPipe's bubble per sweep; worst of the family at equal work",
        "Llama-style breadth-first sweeps: maximum send batching and "
        "perfectly regular per-chunk communication, for interconnects "
        "that prefer few large transfers over overlap.",
        chunked=True,
    ),
    _Doc(
        InterleavedZB(P, 2),
        "exactly Interleaved-1F1B's per-rank peaks (measured, preserved "
        "by construction)",
        "below Interleaved-1F1B's at the same memory: downstream chunks "
        "wait only on `bwd_i`",
        "Interleaving's bubble shrink and zero-bubble's deferral stacked: "
        "pick it over plain interleaving whenever the backward splits. "
        "Requires `n_mbs % p == 0`.",
        chunked=True,
    ),
)


def _entry(doc: _Doc) -> str:
    s = doc.schedule
    if doc.chunked:
        stats = s.lower(M).stats(fwd_time=0.5, bwd_time=1.0)
    else:
        stats = s.lower(M).stats(fwd_time=1.0, bwd_time=2.0)
    peaks = stats["peak_live_activations"]
    lines = [
        f"### {s.name}",
        "",
        f"*config string:* `{doc.config}` · *class:* "
        f"`repro.core.{type(s).__name__}` · *backward:* "
        f"{'split (`bwd_i` + `bwd_w`)' if s.backward_split else 'monolithic'}",
        "",
        doc.use_when,
        "",
        "```",
        render_schedule(s, M, width=WIDTH),
        "```",
        "",
        f"- **activation bound / rank:** {doc.bound}",
        f"- **bubble:** {doc.bubble}",
        f"- **at the reference config:** makespan "
        f"{stats['makespan']:g}, bubble fraction "
        f"{stats['bubble_fraction']:.3f}, peak live activations {peaks}",
        "",
    ]
    return "\n".join(lines)


def _summary_table() -> str:
    rows = [
        "| schedule | config | chunks/rank | backward | makespan | bubble | peak live |",
        "|---|---|---|---|---|---|---|",
    ]
    for doc in GALLERY_DOC:
        s = doc.schedule
        if doc.chunked:
            stats = s.lower(M).stats(fwd_time=0.5, bwd_time=1.0)
        else:
            stats = s.lower(M).stats(fwd_time=1.0, bwd_time=2.0)
        rows.append(
            f"| {s.name} | `{doc.config}` | {s.n_stages // s.n_actors} | "
            f"{'split' if s.backward_split else 'monolithic'} | "
            f"{stats['makespan']:g} | {stats['bubble_fraction']:.3f} | "
            f"{max(stats['peak_live_activations'])} |"
        )
    return "\n".join(rows)


def generate_schedules_md() -> str:
    """The full, deterministic content of ``docs/SCHEDULES.md``."""
    head = f"""\
<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python -m repro docs-schedules
     CI fails when this file is stale. -->

# The schedule gallery

Every schedule below is *data, not control flow*: one `units()` method
producing per-rank lists of `(microbatch, stage, kind)` work items.
`Schedule.lower(n_mbs)` turns that into the dependency-explicit
[`ScheduleIR`](../src/repro/core/schedule_ir.py) every consumer walks —
the [compiler](../src/repro/core/compile.py) emits instructions in its
topological order, the [event engine](../src/repro/runtime/executor.py)
seeds its ready-queue from it, the
[simulator](../src/repro/perf/pipeline_sim.py) prices its slots and
cross-rank edges, and [`render_schedule`](../src/repro/viz/ascii.py)
draws the diagrams on this page from it. Adding a schedule touches
nothing downstream — the paper's core flexibility claim.

Diagrams and numbers are generated from the real implementation at the
**reference configuration**: {P} ranks, {M} microbatches, uniform unit
costs `fwd = 1, bwd = 2` (two-chunk schedules use `fwd = 0.5, bwd = 1`
per chunk so total work per rank is identical). Cell notation: `F3` =
forward of microbatch 3, `b3` = backward, `i3`/`w3` = the zero-bubble
input-/weight-gradient halves, `'1` = stage chunk 1 of a circular-repeat
placement.

Rather than reading this page as a menu, let the cost-aware autotuner
choose: [`core.autotune.tune`](../src/repro/core/autotune.py) prices
every schedule here under your per-stage cost model and memory budget
(`schedule="auto"` does it at compile time; see
[`examples/autotune.py`](../examples/autotune.py)).

## At a glance

{_summary_table()}

GPipe and 1F1B share one makespan (1F1B buys memory, not speed); the
zero-bubble family then converts memory headroom back into makespan, and
ZB-V reaches near-ZB-H2 bubble at roughly 1F1B's activation bytes.

## The gallery
"""
    body = "\n".join(_entry(doc) for doc in GALLERY_DOC)
    tail = """\
## Tuning knobs beyond the gallery

- **`Hybrid1F1B(p, warmup)`** — the 1F1B family parameterised by its
  per-rank warmup vector (`OneFOneB` is `warmup[r] = p-1-r`,
  `Eager1F1B` is `2(p-1-r)`). The autotuner's second round proposes
  vectors shifted toward the ranks the wait profile shows parked
  longest; the vector must be rank-wise non-increasing or the schedule
  deadlocks (and `validate_schedule` rejects it).
- **`bwd_input_fraction`** — how split-backward schedules divide the
  full backward cost between `bwd_i` and `bwd_w` (default 0.5).

## Validation

`validate_schedule(schedule, n_mbs)` runs the graph checks over the
lowered IR: every unit scheduled exactly once on its owning rank, every
dependency edge resolving, executability (a deadlocking order is
rejected before it reaches the runtime), and the per-rank activation
peak against the schedule's declared `activation_bound`.
"""
    return head + "\n" + body + tail


def write_schedules_md(path) -> bool:
    """Write the generated page to ``path``; returns True when the file
    changed (used by the CI freshness check)."""
    import pathlib

    p = pathlib.Path(path)
    new = generate_schedules_md()
    old = p.read_text() if p.exists() else None
    if old == new:
        return False
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(new)
    return True
