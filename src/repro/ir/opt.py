"""Algebraic optimizer over stage jaxprs (funsor-style term rewriting).

The MPMD compiler pays its interpretation cost once at compile time, but
the stage jaxprs that :mod:`repro.core.stage_split` produces still carry
redundant work into :mod:`repro.ir.linearize` / :mod:`repro.ir.codegen`:
duplicated subexpressions (the tracer records every syntactic occurrence),
values no downstream stage ever consumes, and loop-invariant subgraphs —
attention masks, positional iotas, weight transposes in the backward —
recomputed for every microbatch of every step.  This module is the rewrite
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
  chain dies too, and send/recv metadata shrinks accordingly;
- **cross-microbatch memoization** — subgraphs depending only on
  loop-invariant task inputs (captured weights — everything except the
  microbatched batch) are hoisted into a once-per-step *prologue* jaxpr
  that the compiler emits as a single ``memo.t{i}`` task per actor,
  feeding every microbatch instance of the stage task.  A hoisted value
  that *escapes* the stage moves off the per-microbatch boundary
  entirely: downstream tasks read the memo buffer (sent once per step if
  cross-actor), so send/recv metadata and
  ``CostModel.from_tasks`` boundary bytes both shrink.

All rewrites preserve IR well-formedness (``validate`` holds on every
output jaxpr) and the task-boundary contract of
:class:`~repro.core.stage_split.StageTask`: :func:`optimize_split` returns
rewritten tasks *plus* the bookkeeping the compiler needs — boundary
aliases for deduplicated outputs, memo pseudo-inputs for hoisted
prologues, and a per-task :class:`OptReport` (before/after eqn counts and
boundary bytes) that lands on ``CompiledStep.opt_report``.
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
    "Prologue",
    "SplitOpt",
    "optimize_jaxpr",
    "optimize_split",
]

#: commutative binops whose IEEE semantics make operand order bitwise
#: irrelevant (NaN-payload propagation aside), so CSE may canonicalize
_COMMUTATIVE = frozenset({"add", "mul", "maximum", "minimum"})

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


def _aval_eq(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype


@dataclasses.dataclass
class JaxprOptStats:
    """Rewrite counters for one jaxpr (summed into :class:`OptReport`)."""

    eqns_before: int = 0
    eqns_after: int = 0
    cse_removed: int = 0
    identity_elided: int = 0
    dce_removed: int = 0
    hoisted: int = 0


def _is_identity(eqn: Eqn, elide_sharding: bool) -> bool:
    if len(eqn.invars) != 1 or len(eqn.outvars) != 1:
        return False
    if getattr(eqn.prim, "identity_alias", False):
        return True
    # outside the SPMD partitioner, shard_constraint's impl is the identity
    return elide_sharding and eqn.prim.name == "shard_constraint"


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
        if _is_identity(eqn, elide_sharding) and isinstance(ins[0], Var):
            if _aval_eq(eqn.outvars[0].aval, ins[0].aval):
                repl[id(eqn.outvars[0])] = ins[0]
                stats.identity_elided += 1
                continue
        key = None
        try:
            in_keys = tuple(atom_key(a) for a in ins)
            if eqn.prim.name in _COMMUTATIVE and len(in_keys) == 2:
                in_keys = tuple(sorted(in_keys, key=repr))
            key = (eqn.prim.name, in_keys, _freeze(eqn.params))
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
class Prologue:
    """Once-per-step memoized prefix of a stage task.

    Attributes:
        jaxpr: the hoisted loop-invariant subgraph; its invars mirror
            ``in_atoms``.
        in_atoms: body-coordinate atoms consumed — always non-batch body
            invars (captured weights), never another task's output.
        out_vars: aligned with ``jaxpr.outvars`` — a fresh
            body-coordinate pseudo var where the output feeds the main
            task's ``in_atoms`` (the compiler maps it onto the
            ``memo.t{i}.o{j}`` buffer), or ``None`` where the output only
            serves the stage boundary (a moved escaping value downstream
            tasks read directly from the memo buffer).
    """

    jaxpr: Jaxpr
    in_atoms: list[Atom]
    out_vars: list[Var | None]


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
    hoisted: int
    invars_pruned: int
    outputs_pruned: int
    outputs_deduped: int
    outputs_memoized: int
    boundary_bytes_before: int
    boundary_bytes_after: int

    @property
    def eqn_reduction(self) -> float:
        """Fractional reduction of the per-microbatch eqn count."""
        if self.eqns_before == 0:
            return 0.0
        return 1.0 - self.eqns_after / self.eqns_before


@dataclasses.dataclass
class OptReport:
    """What the optimizer did to one compiled step, per stage task.

    ``eqns_after`` counts the *per-microbatch* path: hoisted equations run
    once per step in a ``memo`` prologue and no longer count against the
    loop body.  Boundary bytes are the task's escaping-output bytes (the
    same accounting :meth:`repro.core.autotune.CostModel.from_tasks`
    budgets against).
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
        """Max fractional per-microbatch eqn reduction per pipeline stage."""
        out: dict[int, float] = {}
        for t in self.tasks:
            out[t.stage] = max(out.get(t.stage, 0.0), t.eqn_reduction)
        return out

    def summary(self) -> str:
        """Human-readable per-task table (diagnostics / benchmark logs)."""
        lines = [
            f"optimize: eqns {self.eqns_before} -> "
            f"{self.eqns_after} per microbatch, boundary bytes "
            f"{self.boundary_bytes_before} -> {self.boundary_bytes_after}",
            "task kind          stage  eqns      cse  ident  dce  hoist  outs",
        ]
        for t in self.tasks:
            lines.append(
                f"t{t.index:<3} {t.kind:<13} s{t.stage:<4} "
                f"{t.eqns_before:>4}->{t.eqns_after:<4} "
                f"{t.cse_removed:>4} {t.identity_elided:>5} {t.dce_removed:>4} "
                f"{t.hoisted:>5}  -{t.outputs_pruned}/-{t.outputs_deduped}"
                f"/-{t.outputs_memoized}"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class SplitOpt:
    """Output of :func:`optimize_split` — everything the compiler needs.

    Attributes:
        split: a rewritten :class:`~repro.core.stage_split.SplitResult`
            (same task indices/kinds/stages, optimized jaxprs, pruned
            ``in_atoms``/``out_vars``).
        prologues: task index -> :class:`Prologue` for tasks with a
            hoisted loop-invariant prefix.
        out_aliases: deduplicated boundary outputs — ``(body var, task
            index, out position)`` triples naming extra producers: the
            var's value is task ``t``'s output ``j`` (e.g. a yielded
            activation that aliases the pre-yield residual).
        memo_vars: ``id(pseudo var) -> (task index, prologue out pos)``
            for every memo pseudo-input appearing in a task's
            ``in_atoms``.
        memo_boundary: ``id(body var) -> (task index, prologue out pos)``
            for escaping outputs that moved off the per-microbatch
            boundary onto the once-per-step memo path — these body vars
            no longer appear in any task's ``out_vars``; consumers
            resolve them to the producer's memo buffer.
        report: the per-task :class:`OptReport`.
    """

    split: Any
    prologues: dict[int, Prologue]
    out_aliases: list[tuple[Var, int, int]]
    memo_vars: dict[int, tuple[int, int]]
    memo_boundary: dict[int, tuple[int, int]]
    report: OptReport


def optimize_split(
    split: Any,
    *,
    n_batch: int,
    n_mbs: int,
    elide_sharding: bool = True,
) -> SplitOpt:
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
       compiler's producer map still resolves both body vars);
    5. hoist the loop-invariant prefix into a :class:`Prologue` when
       ``n_mbs > 1`` (memoized once per step).
    """
    from repro.core.stage_split import SplitResult

    body = split.body
    body_invar_pos = {id(v): k for k, v in enumerate(body.invars)}
    # seeded with the loop's own outputs; each processed task adds its
    # (pruned) in_atoms, so upstream tasks see exactly the surviving
    # consumers
    consumed: set[int] = {id(a) for a in body.outvars if isinstance(a, Var)}

    new_tasks: list[Any] = [None] * len(split.tasks)
    prologues: dict[int, Prologue] = {}
    out_aliases: list[tuple[Var, int, int]] = []
    memo_vars: dict[int, tuple[int, int]] = {}
    memo_boundary: dict[int, tuple[int, int]] = {}
    entries: dict[int, TaskOptEntry] = {}
    body_out_ids = {id(a) for a in body.outvars if isinstance(a, Var)}

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

        # 5. hoist the loop-invariant prefix (cross-microbatch memoization)
        hoisted = 0
        outputs_memoized = 0
        if n_mbs > 1:
            invariant = {
                i
                for i, a in enumerate(in_atoms)
                if isinstance(a, Var)
                and body_invar_pos.get(id(a), -1) >= n_batch
            }
            # escaping outputs may move off the per-mb boundary onto the
            # memo path — unless the loop itself reduces/stacks them
            movable = [id(v) not in body_out_ids for v in out_vars]
            pro, jaxpr, in_atoms, pseudo, moved = _hoist_prologue(
                jaxpr, in_atoms, invariant, movable
            )
            if pro is not None:
                hoisted = pro.jaxpr.n_eqns
                prologues[task.index] = pro
                for j, pv in enumerate(pro.out_vars):
                    if pv is not None:
                        memo_vars[id(pv)] = (task.index, j)
                if moved:
                    moved_set = set(moved)
                    for out_pos, pro_pos in moved.items():
                        memo_boundary[id(out_vars[out_pos])] = (
                            task.index, pro_pos,
                        )
                    out_vars = [
                        v for j, v in enumerate(out_vars)
                        if j not in moved_set
                    ]
                    outputs_memoized = len(moved)
        stats.hoisted = hoisted
        stats.eqns_after = jaxpr.n_eqns

        validate(jaxpr)
        new_tasks[task.index] = dataclasses.replace(
            task, jaxpr=jaxpr, in_atoms=in_atoms, out_vars=out_vars
        )
        for a in in_atoms:
            if isinstance(a, Var) and id(a) not in memo_vars:
                consumed.add(id(a))
        entries[task.index] = TaskOptEntry(
            index=task.index, kind=task.kind, stage=task.stage,
            eqns_before=stats.eqns_before, eqns_after=stats.eqns_after,
            cse_removed=stats.cse_removed,
            identity_elided=stats.identity_elided,
            dce_removed=stats.dce_removed,
            hoisted=hoisted, invars_pruned=invars_pruned,
            outputs_pruned=outputs_pruned, outputs_deduped=outputs_deduped,
            outputs_memoized=outputs_memoized,
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
    return SplitOpt(
        new_split, prologues, out_aliases, memo_vars, memo_boundary, report
    )


def _hoist_prologue(
    jaxpr: Jaxpr,
    in_atoms: list[Atom],
    invariant_positions: set[int],
    movable_outputs: list[bool],
) -> tuple[Prologue | None, Jaxpr, list[Atom], list[Var], dict[int, int]]:
    """Partition ``jaxpr`` into an invariant prologue and the per-mb rest.

    An equation is hoistable when every Var operand is an invariant input
    or another hoisted equation's output.  Hoisted values consumed by the
    remaining equations become prologue outputs, re-entering the main
    jaxpr as fresh invars backed by pseudo ``in_atoms`` the compiler maps
    to ``memo`` buffers.  Hoisted values that *escape* (task outvars) are
    moved off the per-microbatch boundary when ``movable_outputs`` allows
    (i.e. the loop doesn't reduce/stack them): the returned ``moved`` map
    (original out position -> prologue out position) tells the caller
    which boundary slots now resolve to the memo buffer instead.
    """
    inv: set[int] = {
        id(v) for i, v in enumerate(jaxpr.invars) if i in invariant_positions
    }
    hoist_flags: list[bool] = []
    hoisted_eqns: list[Eqn] = []
    for eqn in jaxpr.eqns:
        ok = all(not isinstance(a, Var) or id(a) in inv for a in eqn.invars)
        hoist_flags.append(ok)
        if ok:
            hoisted_eqns.append(eqn)
            inv.update(id(v) for v in eqn.outvars)
    if not hoisted_eqns:
        return None, jaxpr, in_atoms, [], {}

    hoisted_out_ids = {id(v) for e in hoisted_eqns for v in e.outvars}
    main_eqns = [e for e, h in zip(jaxpr.eqns, hoist_flags) if not h]

    # prologue outputs: hoisted values the main body still needs (fed back
    # as memo pseudo-inputs), plus escaping hoisted values (kept as task
    # outputs when not movable, dropped from the boundary when movable)
    needed: list[Var] = []
    pos_of: dict[int, int] = {}

    def note(a: Atom) -> int | None:
        if not (isinstance(a, Var) and id(a) in hoisted_out_ids):
            return None
        if id(a) not in pos_of:
            pos_of[id(a)] = len(needed)
            needed.append(a)
        return pos_of[id(a)]

    main_fed: set[int] = set()
    for eqn in main_eqns:
        for a in eqn.invars:
            p = note(a)
            if p is not None:
                main_fed.add(p)
    moved: dict[int, int] = {}
    for j, a in enumerate(jaxpr.outvars):
        p = note(a)
        if p is not None and movable_outputs[j]:
            moved[j] = p
        elif p is not None:
            main_fed.add(p)  # stays an outvar -> main passes it through
    if not needed:
        # fully dead invariant prefix (already DCE'd in practice)
        return None, jaxpr, in_atoms, [], {}

    # prologue invars: the invariant task inputs the hoisted eqns read
    pro_used: set[int] = set()
    for eqn in hoisted_eqns:
        for a in eqn.invars:
            if isinstance(a, Var):
                pro_used.add(id(a))
    pro_invars = [
        v
        for i, v in enumerate(jaxpr.invars)
        if i in invariant_positions and id(v) in pro_used
    ]
    pro_in_atoms = [
        a
        for i, a in enumerate(in_atoms)
        if i in invariant_positions and id(jaxpr.invars[i]) in pro_used
    ]
    pro_jaxpr = Jaxpr(pro_invars, hoisted_eqns, list(needed))
    validate(pro_jaxpr)

    # main jaxpr: original invars still used by the rest + the main-fed
    # prologue outputs (the same Var objects simply become invars)
    main_outvars = [a for j, a in enumerate(jaxpr.outvars) if j not in moved]
    main_used: set[int] = set()
    for eqn in main_eqns:
        for a in eqn.invars:
            if isinstance(a, Var):
                main_used.add(id(a))
    for a in main_outvars:
        if isinstance(a, Var):
            main_used.add(id(a))
    keep = [
        (v, a)
        for v, a in zip(jaxpr.invars, in_atoms)
        if id(v) in main_used
    ]
    fed = [needed[p] for p in sorted(main_fed)]
    pseudo_of: dict[int, Var] = {id(v): Var(v.aval) for v in fed}
    main_invars = [v for v, _ in keep] + fed
    main_atoms = [a for _, a in keep] + [pseudo_of[id(v)] for v in fed]
    main_jaxpr = Jaxpr(main_invars, main_eqns, main_outvars)
    pro = Prologue(
        jaxpr=pro_jaxpr,
        in_atoms=pro_in_atoms,
        out_vars=[
            pseudo_of[id(v)] if p in main_fed else None
            for p, v in enumerate(needed)
        ],
    )
    return pro, main_jaxpr, main_atoms, pro.out_vars, moved
