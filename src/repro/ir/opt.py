"""Algebraic optimizer over stage jaxprs (funsor-style term rewriting).

The MPMD compiler pays its interpretation cost once at compile time, but
the stage jaxprs that :mod:`repro.core.stage_split` produces still carry
redundant work into :mod:`repro.ir.linearize` / :mod:`repro.ir.codegen`:
duplicated subexpressions (the tracer records every syntactic occurrence)
and values no downstream stage ever consumes.  This module is the rewrite
pipeline that runs on each stage jaxpr in ``core/compile.py`` *before*
linearization (``optimize=True``, the default).  Every rewrite is
**bit-identical** to the unoptimized jaxpr:

- **identity elision** — ``identity_alias`` equations (``pipeline_yield``,
  ``stop_gradient`` — and ``shard_constraint`` when the compile has no
  inner SPMD mesh, where its impl is the identity) are removed by aliasing
  their output to their input;
- **CSE** — structurally-hashed value numbering over ``(prim, resolved
  inputs, params)``; commutative primitives canonicalize operand order
  (IEEE add/mul are bitwise commutative), small literals hash by value;
- **DCE** — equations whose outputs are never (transitively) consumed are
  dropped, *including across the stage boundary*: a stage output no
  downstream stage's task consumes (a yielded auxiliary nobody reads) is
  pruned from the task's boundary, which cascades — the upstream producing
  chain dies too, and send/recv metadata shrinks accordingly.

All rewrites preserve IR well-formedness (``validate`` holds on every
output jaxpr) and the task-boundary contract of
:class:`~repro.core.stage_split.StageTask`: :func:`optimize_split` returns
rewritten tasks *plus* the bookkeeping the compiler needs — boundary
aliases for deduplicated outputs and a per-task :class:`OptReport`
(before/after eqn counts and boundary bytes) that lands on
``CompiledStep.opt_report``.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any

import numpy as np

from repro.ir.jaxpr import Atom, Eqn, Jaxpr, Literal, Var, dce, validate

__all__ = [
    "JaxprOptStats",
    "OptReport",
    "SplitOpt",
    "optimize_jaxpr",
    "optimize_split",
]

#: literals up to this many elements hash by value (dtype, shape, bytes);
#: larger ones only merge on object identity
_LIT_KEY_MAX = 256


# ---------------------------------------------------------------------------
# structural hashing
# ---------------------------------------------------------------------------


def _freeze(value: Any) -> Any:
    """Recursively freeze an eqn param value into a hashable key.

    Nested jaxprs and arbitrary objects key on identity — sound (identical
    objects are interchangeable) but deliberately conservative.
    """
    if isinstance(value, (str, int, float, bool, bytes, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return (type(value).__name__,) + tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, np.dtype):
        return ("dtype", str(value))
    if isinstance(value, np.ndarray):
        if value.size <= _LIT_KEY_MAX:
            return ("ndarray", str(value.dtype), value.shape, value.tobytes())
        return ("id", id(value))
    if isinstance(value, (np.generic,)):
        return ("scalar", str(value.dtype), value.item())
    return ("id", id(value))


@dataclasses.dataclass
class JaxprOptStats:
    """Rewrite counters for one jaxpr (summed into :class:`OptReport`)."""

    eqns_before: int = 0
    eqns_after: int = 0
    cse_removed: int = 0
    identity_elided: int = 0
    dce_removed: int = 0


def _cse(
    jaxpr: Jaxpr, *, elide_sharding: bool, stats: JaxprOptStats
) -> Jaxpr:
    """Identity elision + common-subexpression elimination.

    Value-numbering in one forward sweep: every kept equation's key is
    ``(prim, resolved input keys, frozen params)``; a repeat maps its
    outputs onto the first occurrence's.  Reusing the *first computed
    value* is bitwise-safe because every primitive impl is a deterministic
    NumPy kernel — same inputs, same bits.
    """
    repl: dict[int, Atom] = {}  # id(var) -> representative atom

    def res(a: Atom) -> Atom:
        while isinstance(a, Var) and id(a) in repl:
            a = repl[id(a)]
        return a

    vn: dict[int, int] = {}
    fresh = itertools.count()
    for v in jaxpr.invars:
        vn[id(v)] = next(fresh)

    def atom_key(a: Atom) -> Any:
        if isinstance(a, Literal):
            val = np.asarray(a.value)
            if val.size <= _LIT_KEY_MAX:
                return ("lit", str(val.dtype), val.shape, val.tobytes())
            return ("litid", id(a))
        return ("v", vn[id(a)])

    table: dict[Any, list[Var]] = {}
    kept: list[Eqn] = []
    for eqn in jaxpr.eqns:
        ins = [res(a) for a in eqn.invars]
        prim = eqn.prim
        if (
            (prim.identity_alias or (elide_sharding and prim.identity_unpartitioned))
            and len(ins) == 1 == len(eqn.outvars)
            and isinstance(ins[0], Var)
            and eqn.outvars[0].aval == ins[0].aval
        ):
            repl[id(eqn.outvars[0])] = ins[0]
            stats.identity_elided += 1
            continue
        key = None
        try:
            in_keys = tuple(atom_key(a) for a in ins)
            # IEEE semantics make a commutative op's operand order
            # bitwise irrelevant (NaN-payload propagation aside)
            if prim.commutative and len(in_keys) == 2:
                in_keys = tuple(sorted(in_keys, key=repr))
            key = (prim, in_keys, _freeze(eqn.params))
            hash(key)
        except TypeError:
            key = None
        if key is not None:
            prev = table.get(key)
            if prev is not None and len(prev) == len(eqn.outvars):
                for old, new in zip(eqn.outvars, prev):
                    repl[id(old)] = new
                stats.cse_removed += 1
                continue
        if any(b is not a for a, b in zip(eqn.invars, ins)):
            eqn = Eqn(eqn.prim, ins, eqn.outvars, dict(eqn.params))
        kept.append(eqn)
        for v in eqn.outvars:
            vn[id(v)] = next(fresh)
        if key is not None:
            table[key] = list(eqn.outvars)
    outvars = [res(a) for a in jaxpr.outvars]
    return Jaxpr(jaxpr.invars, kept, outvars)


# ---------------------------------------------------------------------------
# local pipeline over one jaxpr
# ---------------------------------------------------------------------------


def optimize_jaxpr(
    jaxpr: Jaxpr, *, elide_sharding: bool = False
) -> tuple[Jaxpr, JaxprOptStats]:
    """Run the rewrite pipeline on one closed jaxpr (bit-identical).

    The output preserves the invar list (callers align inputs positionally;
    use :func:`used_invars` to prune) and the outvar arity.
    """
    stats = JaxprOptStats(eqns_before=jaxpr.n_eqns)
    out = _cse(jaxpr, elide_sharding=elide_sharding, stats=stats)
    n = out.n_eqns
    out = dce(out)
    stats.dce_removed = n - out.n_eqns
    stats.eqns_after = out.n_eqns
    validate(out)
    return out, stats


def used_invars(jaxpr: Jaxpr) -> list[bool]:
    """Per-invar mask: does the jaxpr actually read this input?"""
    used: set[int] = set()
    for eqn in jaxpr.eqns:
        for a in eqn.invars:
            if isinstance(a, Var):
                used.add(id(a))
    for a in jaxpr.outvars:
        if isinstance(a, Var):
            used.add(id(a))
    return [id(v) in used for v in jaxpr.invars]


# ---------------------------------------------------------------------------
# cross-stage orchestration over a SplitResult
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TaskOptEntry:
    """Per-task line of an :class:`OptReport`."""

    index: int
    kind: str
    stage: int
    eqns_before: int
    eqns_after: int
    cse_removed: int
    identity_elided: int
    dce_removed: int
    invars_pruned: int
    outputs_pruned: int
    outputs_deduped: int
    boundary_bytes_before: int
    boundary_bytes_after: int

    @property
    def eqn_reduction(self) -> float:
        """Fractional reduction of the task's eqn count."""
        if self.eqns_before == 0:
            return 0.0
        return 1.0 - self.eqns_after / self.eqns_before


@dataclasses.dataclass
class OptReport:
    """What the optimizer did to one compiled step, per stage task.

    Boundary bytes are the task's escaping-output bytes (the same
    accounting :meth:`repro.core.autotune.CostModel.from_tasks` budgets
    against).
    """

    tasks: list[TaskOptEntry] = dataclasses.field(default_factory=list)

    @property
    def eqns_before(self) -> int:
        return sum(t.eqns_before for t in self.tasks)

    @property
    def eqns_after(self) -> int:
        return sum(t.eqns_after for t in self.tasks)

    @property
    def boundary_bytes_before(self) -> int:
        return sum(t.boundary_bytes_before for t in self.tasks)

    @property
    def boundary_bytes_after(self) -> int:
        return sum(t.boundary_bytes_after for t in self.tasks)

    def stage_eqn_reduction(self) -> dict[int, float]:
        """Max fractional eqn reduction per pipeline stage."""
        out: dict[int, float] = {}
        for t in self.tasks:
            out[t.stage] = max(out.get(t.stage, 0.0), t.eqn_reduction)
        return out

    def summary(self) -> str:
        """Human-readable per-task table (diagnostics / benchmark logs)."""
        lines = [
            f"optimize: eqns {self.eqns_before} -> "
            f"{self.eqns_after}, boundary bytes "
            f"{self.boundary_bytes_before} -> {self.boundary_bytes_after}",
            "task kind          stage  eqns      cse  ident  dce  outs",
        ]
        for t in self.tasks:
            lines.append(
                f"t{t.index:<3} {t.kind:<13} s{t.stage:<4} "
                f"{t.eqns_before:>4}->{t.eqns_after:<4} "
                f"{t.cse_removed:>4} {t.identity_elided:>5} {t.dce_removed:>4}  "
                f"-{t.outputs_pruned}/-{t.outputs_deduped}"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class SplitOpt:
    """Output of :func:`optimize_split` — everything the compiler needs.

    Attributes:
        split: a rewritten :class:`~repro.core.stage_split.SplitResult`
            (same task indices/kinds/stages, optimized jaxprs, pruned
            ``in_atoms``/``out_vars``).
        out_aliases: deduplicated boundary outputs — ``(body var, task
            index, out position)`` triples naming extra producers: the
            var's value is task ``t``'s output ``j`` (e.g. a yielded
            activation that aliases the pre-yield residual).
        report: the per-task :class:`OptReport`.
    """

    split: Any
    out_aliases: list[tuple[Var, int, int]]
    report: OptReport


def optimize_split(split: Any, *, elide_sharding: bool = True) -> SplitOpt:
    """Optimize every stage task of a :class:`SplitResult`, cross-boundary.

    One reverse-topological sweep (the task list is topologically ordered
    by construction, so consumers are processed before their producers):

    1. drop boundary outputs no downstream task consumes and the loop
       does not return (dead-yield pruning) — processing consumers first
       makes the pruning cascade upstream in a single sweep;
    2. run the local pipeline (:func:`optimize_jaxpr`) on the task jaxpr;
    3. prune now-unused inputs from ``in_atoms``;
    4. deduplicate boundary outputs that alias the same value after
       identity elision (a yielded activation and its pre-yield residual
       collapse to one buffer — recorded in ``out_aliases`` so the
       compiler's producer map still resolves both body vars).
    """
    from repro.core.stage_split import SplitResult

    body = split.body
    # seeded with the loop's own outputs; each processed task adds its
    # (pruned) in_atoms, so upstream tasks see exactly the surviving
    # consumers
    consumed: set[int] = {id(a) for a in body.outvars if isinstance(a, Var)}

    new_tasks: list[Any] = [None] * len(split.tasks)
    out_aliases: list[tuple[Var, int, int]] = []
    entries: dict[int, TaskOptEntry] = {}

    for task in reversed(split.tasks):
        jaxpr = task.jaxpr
        bnd_before = sum(v.aval.nbytes for v in task.out_vars)

        # 1. dead boundary outputs
        keep_pos = [j for j, v in enumerate(task.out_vars) if id(v) in consumed]
        outputs_pruned = len(task.out_vars) - len(keep_pos)
        out_vars = [task.out_vars[j] for j in keep_pos]
        jaxpr = Jaxpr(jaxpr.invars, jaxpr.eqns, [jaxpr.outvars[j] for j in keep_pos])

        # 2. local rewrite pipeline
        jaxpr, stats = optimize_jaxpr(jaxpr, elide_sharding=elide_sharding)

        # 3. prune unused inputs
        mask = used_invars(jaxpr)
        in_atoms = [a for a, u in zip(task.in_atoms, mask) if u]
        invars = [v for v, u in zip(jaxpr.invars, mask) if u]
        invars_pruned = len(mask) - len(invars)
        jaxpr = Jaxpr(invars, jaxpr.eqns, jaxpr.outvars)

        # 4. dedupe boundary outputs aliasing one value
        first_pos: dict[int, int] = {}
        dedup_keep: list[int] = []
        pending_alias: list[tuple[Var, int]] = []  # (body var, kept pos idx)
        for j, local in enumerate(jaxpr.outvars):
            if isinstance(local, Var) and id(local) in first_pos:
                pending_alias.append((out_vars[j], first_pos[id(local)]))
                continue
            if isinstance(local, Var):
                first_pos[id(local)] = len(dedup_keep)
            dedup_keep.append(j)
        outputs_deduped = len(jaxpr.outvars) - len(dedup_keep)
        if outputs_deduped:
            jaxpr = Jaxpr(
                jaxpr.invars, jaxpr.eqns, [jaxpr.outvars[j] for j in dedup_keep]
            )
            out_vars = [out_vars[j] for j in dedup_keep]
        for body_var, pos in pending_alias:
            out_aliases.append((body_var, task.index, pos))

        validate(jaxpr)
        new_tasks[task.index] = dataclasses.replace(
            task, jaxpr=jaxpr, in_atoms=in_atoms, out_vars=out_vars
        )
        consumed.update(id(a) for a in in_atoms if isinstance(a, Var))
        entries[task.index] = TaskOptEntry(
            index=task.index, kind=task.kind, stage=task.stage,
            eqns_before=stats.eqns_before, eqns_after=stats.eqns_after,
            cse_removed=stats.cse_removed,
            identity_elided=stats.identity_elided,
            dce_removed=stats.dce_removed,
            invars_pruned=invars_pruned,
            outputs_pruned=outputs_pruned, outputs_deduped=outputs_deduped,
            boundary_bytes_before=bnd_before,
            boundary_bytes_after=sum(v.aval.nbytes for v in out_vars),
        )

    report = OptReport([entries[i] for i in sorted(entries)])
    new_split = SplitResult(
        tasks=new_tasks,
        n_stages=split.n_stages,
        fwd_task_of_stage=dict(split.fwd_task_of_stage),
        bwd_task_of_stage=dict(split.bwd_task_of_stage),
        assignment=dict(split.assignment),
        body=split.body,
    )
    return SplitOpt(new_split, out_aliases, report)

