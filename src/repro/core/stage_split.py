"""Stage splitting: pipeline-loop body -> per-stage tasks (§3.2–3.3).

Implements the paper's placement heuristic verbatim: *"a task is formed for
each pipeline_yield operation, comprising of all computations it depends
on"* (processed in topological order, each claiming the not-yet-assigned
part of its dependency closure), *"then the remaining computations ... are
placed on the same task of their operands or a new task"*.

For a body with forward yields ``0..n-1`` (so ``n+1`` stages) this yields
the task list of Figure 3::

    F0, F1, ..., F_{n-1},   # forward stages
    FLB_n,                  # fused last-stage forward + loss + backward
    B_{n-1}, ..., B1, B0    # backward stages

The fused ``FLB`` task falls out of the heuristic naturally: the first
*backward* yield's dependency closure contains the last forward stage, the
loss, and its backward.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.ir.jaxpr import Atom, Eqn, Jaxpr, Var, dce, eqn_dependencies
from repro.ir.pipeline import BWD, FWD, pipeline_yield_p

__all__ = ["StageTask", "SplitResult", "split_stages", "closed_subprograms"]

FWD_KIND = "fwd"
BWD_KIND = "bwd"
FUSED_KIND = "fwd_loss_bwd"


@dataclasses.dataclass
class StageTask:
    """One pipeline task: a closed sub-program of the loop body.

    Attributes:
        index: position in the body's task order (F0 .. B0).
        kind: ``"fwd"``, ``"bwd"``, or ``"fwd_loss_bwd"`` (fused last stage).
        stage: pipeline stage id in ``0..n_stages-1``.
        jaxpr: the task body; its invars are fresh Vars mirroring
            ``in_atoms``.
        in_atoms: body-coordinate atoms consumed (body invars or other
            tasks' outputs), aligned with ``jaxpr.invars``.
        out_vars: body-coordinate vars this task defines that escape it
            (consumed by other tasks or returned by the loop), aligned with
            ``jaxpr.outvars``.
    """

    index: int
    kind: str
    stage: int
    jaxpr: Jaxpr
    in_atoms: list[Atom]
    out_vars: list[Var]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StageTask({self.kind}, stage={self.stage}, eqns={self.jaxpr.n_eqns})"


@dataclasses.dataclass
class SplitResult:
    """Output of :func:`split_stages`.

    Attributes:
        tasks: tasks in body order.
        n_stages: number of pipeline stages (= forward yields + 1).
        fwd_task_of_stage / bwd_task_of_stage: task index by stage id (the
            last stage maps to the same fused task in both).
        assignment: body eqn index -> task index (the raw claim map; used
            by the loop-commuting pass to locate task-internal producers).
    """

    tasks: list[StageTask]
    n_stages: int
    fwd_task_of_stage: dict[int, int]
    bwd_task_of_stage: dict[int, int]
    assignment: dict[int, int] = dataclasses.field(default_factory=dict)
    # the DCE'd body the split (and `assignment` indices) refer to — callers
    # doing follow-up rewrites must work in these coordinates
    body: Jaxpr | None = None


def split_stages(body: Jaxpr) -> SplitResult:
    """Split a traced loop body at its ``pipeline_yield`` markers."""
    body = dce(body, keep_effects=lambda e: e.prim is pipeline_yield_p)
    deps = eqn_dependencies(body.eqns)

    markers = [
        (i, e) for i, e in enumerate(body.eqns) if e.prim is pipeline_yield_p
    ]
    fwd_indices = sorted(
        {e.params["index"] for _, e in markers if e.params["direction"] == FWD}
    )
    if not fwd_indices:
        raise ValueError(
            "pipeline body has no pipeline_yield markers; nothing to split"
        )
    if fwd_indices != list(range(len(fwd_indices))):
        raise ValueError(f"non-contiguous yield indices: {fwd_indices}")
    n_yields = len(fwd_indices)
    n_stages = n_yields + 1
    has_bwd = any(e.params["direction"] == BWD for _, e in markers)

    # Group markers by (direction, index): a pytree yield produces several
    # marker equations sharing one boundary.
    assignment: dict[int, int] = {}  # eqn idx -> task idx
    task_descr: list[tuple[str, int]] = []  # (kind, stage)

    def claim(eqn_idx: int, task_id: int) -> None:
        """Assign the unassigned dependency closure of ``eqn_idx``."""
        stack = [eqn_idx]
        while stack:
            i = stack.pop()
            if i in assignment:
                continue
            assignment[i] = task_id
            stack.extend(d for d in deps[i] if d not in assignment)

    # Process boundaries in topological (trace) order.
    seen_boundaries: list[tuple[str, int]] = []
    for i, e in markers:
        key = (e.params["direction"], e.params["index"])
        if key not in seen_boundaries:
            seen_boundaries.append(key)

    for direction, index in seen_boundaries:
        if direction == FWD:
            kind, stage = FWD_KIND, index
        elif index == n_yields - 1:
            # first backward boundary: fused last-stage fwd+loss+bwd
            kind, stage = FUSED_KIND, n_stages - 1
        else:
            kind, stage = BWD_KIND, index + 1
        task_id = len(task_descr)
        task_descr.append((kind, stage))
        for i, e in markers:
            if (e.params["direction"], e.params["index"]) == (direction, index):
                claim(i, task_id)

    # Remaining computations — §3.3: "the remaining computations that are
    # not dependencies of any pipeline_yield operation are placed on the
    # same task of their operands or a new task". The weight-gradient
    # matmuls are the canonical case: dW_k feeds no yield, but its operands
    # (activations of stage k, incoming cotangent) pin it to stage k's
    # backward task. The final "new task" is the backward of stage 0
    # (``b1`` in Figure 3), which receives the eqns downstream of the last
    # backward boundary.
    final_task_id = len(task_descr)
    if has_bwd:
        task_descr.append((BWD_KIND, 0))
    else:
        task_descr.append((FWD_KIND, n_stages - 1))

    # A yield marker's *output* logically belongs to the consuming side of
    # the boundary, not to the task that claimed the marker equation.
    task_of_boundary: dict[tuple[str, int], int] = {}
    for tid, key in enumerate(seen_boundaries):
        task_of_boundary[key] = tid
    boundary_target: dict[int, int] = {}  # id(marker outvar) -> task idx
    for i, e in markers:
        direction, index = e.params["direction"], e.params["index"]
        if direction == FWD:
            if index + 1 <= n_yields - 1:
                tgt = task_of_boundary[(FWD, index + 1)]
            elif has_bwd:
                tgt = task_of_boundary[(BWD, n_yields - 1)]  # fused FLB
            else:
                tgt = final_task_id
        else:
            tgt = task_of_boundary[(BWD, index - 1)] if index > 0 else final_task_id
        boundary_target[id(e.outvars[0])] = tgt

    producer_of: dict[int, int] = {}
    for i, e in enumerate(body.eqns):
        for v in e.outvars:
            producer_of[id(v)] = i

    for i in range(len(body.eqns)):
        if i in assignment:
            continue
        candidates: list[int] = []
        for a in body.eqns[i].invars:
            if not isinstance(a, Var):
                continue
            if id(a) in boundary_target:
                candidates.append(boundary_target[id(a)])
                continue
            p = producer_of.get(id(a))
            if p is not None and p in assignment:
                candidates.append(assignment[p])
        assignment[i] = max(candidates) if candidates else final_task_id

    subs = closed_subprograms(
        body.eqns,
        [assignment[i] for i in range(len(body.eqns))],
        len(task_descr),
        {id(a) for a in body.outvars if isinstance(a, Var)},
    )
    tasks = [
        StageTask(t, kind, stage, jaxpr, in_atoms, out_vars)
        for t, ((kind, stage), (jaxpr, in_atoms, out_vars)) in enumerate(
            zip(task_descr, subs)
        )
    ]

    fwd_of = {}
    bwd_of = {}
    for t in tasks:
        if t.kind in (FWD_KIND, FUSED_KIND):
            fwd_of[t.stage] = t.index
        if t.kind in (BWD_KIND, FUSED_KIND):
            bwd_of[t.stage] = t.index
    return SplitResult(tasks, n_stages, fwd_of, bwd_of, dict(assignment), body)


def closed_subprograms(
    eqns: Sequence[Eqn],
    group_of: Sequence[int],
    n_groups: int,
    escaping: set[int],
) -> list[tuple[Jaxpr, list[Atom], list[Var]]]:
    """Cut ``eqns`` into ``n_groups`` closed sub-programs.

    ``group_of[i]`` is the group of ``eqns[i]``.  Each group comes back as
    ``(jaxpr, in_atoms, out_vars)``: ``in_atoms`` are the outer-coordinate
    atoms the group reads but does not define (first-use order, aligned
    with ``jaxpr.invars``; literals stay inline), ``out_vars`` the
    outer-coordinate vars it defines that escape it — read by another
    group's equation, or with their ``id`` in ``escaping`` — in definition
    order, aligned with ``jaxpr.outvars``.  One pass over ``eqns``.

    Shared by the stage splitter (groups = pipeline tasks of the loop
    body) and the MPMD compiler's pre-/post-loop clusters.
    """
    readers: dict[int, set[int]] = {}  # id(var) -> groups whose eqns read it
    for eqn, g in zip(eqns, group_of):
        for a in eqn.invars:
            if isinstance(a, Var):
                readers.setdefault(id(a), set()).add(g)

    in_atoms: list[list[Atom]] = [[] for _ in range(n_groups)]
    local_of: list[dict[int, Var]] = [{} for _ in range(n_groups)]
    sub_eqns: list[list[Eqn]] = [[] for _ in range(n_groups)]
    out_vars: list[list[Var]] = [[] for _ in range(n_groups)]
    for eqn, g in zip(eqns, group_of):
        local = local_of[g]
        new_in: list[Atom] = []
        for a in eqn.invars:
            if isinstance(a, Var):
                v = local.get(id(a))
                if v is None:  # defined outside the group: a fresh invar
                    v = local[id(a)] = Var(a.aval)
                    in_atoms[g].append(a)
                a = v
            new_in.append(a)
        new_out = [Var(v.aval) for v in eqn.outvars]
        for old, new in zip(eqn.outvars, new_out):
            local[id(old)] = new
            if id(old) in escaping or readers.get(id(old), set()) - {g}:
                out_vars[g].append(old)
        sub_eqns[g].append(Eqn(eqn.prim, new_in, new_out, dict(eqn.params)))

    return [
        (
            Jaxpr(
                [local_of[g][id(a)] for a in in_atoms[g]],
                sub_eqns[g],
                [local_of[g][id(v)] for v in out_vars[g]],
            ),
            in_atoms[g],
            out_vars[g],
        )
        for g in range(n_groups)
    ]
