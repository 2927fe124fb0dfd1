"""The MPMD compiler: traced ``train_step`` -> fused per-actor programs.

This is the pipeline of §3-§4 end to end:

1. locate the ``pipeline_loop`` equation recorded by ``accumulate_grads``;
2. split its body into stage tasks at the ``pipeline_yield`` markers
   (:mod:`repro.core.stage_split`);
3. apply loop commuting to shared-weight gradients
   (:mod:`repro.core.loop_commute`, §3.4);
4. infer placement of everything outside the loop — §3.3: loop inputs pin
   to the actors of their consuming tasks, pre-loop computation is
   *replicated* onto every actor that needs it, post-loop computation
   follows its gradient operands;
5. unroll the loop over microbatches following the schedule, emitting
   send/recv pairs **at the moment the producing task is scheduled**, in
   global topological order — the §4.2 deadlock-free ordering (the
   ``"naive"`` strategy that Figure 5 warns about is also available, for
   the reproduction of that figure);
6. make the stream per task instead of per buffer: the values one task
   hands one later task of the same actor become one tuple-valued buffer
   (:func:`_bundle_edges`), and buffer deletions are inserted by liveness
   (§4.3), one ``Delete`` per point of the program at which anything dies
   (:func:`_insert_deletions`) — both over one def/use scan;
7. fuse everything into one instruction list per actor (§4.4).

The result is a :class:`CompiledStep` the driver executes with
:class:`repro.runtime.executor.MpmdExecutor`.

Every equation of the step runs inside a compiled task payload.  The
train-level equations around the loop are not tasks of their own: each
actor gets one *pre cluster* (every pre-loop equation it needs, as one
closed sub-jaxpr) and one *post cluster* per wave (the optimizer update;
a second wave on an actor only where a post equation reads another
actor's post output), cut by the same builder that cuts the loop body
into stage tasks (:func:`~repro.core.stage_split.closed_subprograms`).
Only values that escape a cluster — read by the loop, another cluster, or
returned by the step — get a ``pre.e{i}.o{j}`` / ``post.e{i}.o{j}`` buffer.

Stage, memo and cluster jaxprs all lower once through
:mod:`repro.ir.linearize` into a slot-indexed
:class:`~repro.ir.linearize.LinearProgram` (pre-bound impls, elementwise
fusion, liveness-driven frees and buffer donation), cached on jaxpr
identity so the one-time lowering amortizes over every microbatch of every
step — the paper's "pay trace/compile once, dispatch cheaply at steady
state".  ``task_backend="codegen"`` (the default) emits each program as
exec-compiled straight-line Python (:mod:`repro.ir.codegen`);
``"linear"`` runs it on the slot VM and ``"interpret"`` keeps the
tree-walking :func:`~repro.ir.interpreter.eval_jaxpr` — the two references
the differential suites compare against, mirroring the runtime's
``engine="roundrobin"``.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.accumulate import ADD, STACK, pipeline_loop_p
from repro.core.loop_commute import commute_shared_gradients
from repro.core.schedule_ir import ScheduleIR, Slot
from repro.core.schedules import BWD, BWD_I, BWD_W, FWD, Schedule, Unit
from repro.core.stage_split import (
    BWD_KIND,
    FUSED_KIND,
    SplitResult,
    StageTask,
    closed_subprograms,
    split_stages,
)
from repro.ir.codegen import codegen
from repro.ir.interpreter import eval_jaxpr
from repro.ir.jaxpr import Atom, Jaxpr, Literal, Var
from repro.ir.linearize import linearize
from repro.ir.opt import optimize_split
from repro.runtime.instructions import (
    Accumulate,
    AllReduce,
    BufferRef,
    Bundled,
    Delete,
    Instruction,
    Recv,
    RunTask,
    Send,
)

__all__ = ["CompiledStep", "compile_train_step", "find_batch_inputs"]

#: monotonically-increasing suffix making every ``CompiledStep``'s
#: ``program_key`` unique within the driver process.
_PROGRAM_KEYS = itertools.count()


def find_batch_inputs(jaxpr: Jaxpr) -> set[int]:
    """Flat train-step input indices that are passed directly as the
    microbatched batch of the ``pipeline_loop`` (used by the driver to
    shard inputs across data-parallel replicas)."""
    loops = [e for e in jaxpr.eqns if e.prim is pipeline_loop_p]
    if len(loops) != 1:
        raise ValueError(f"expected exactly one pipeline_loop, found {len(loops)}")
    loop_eqn = loops[0]
    invar_pos = {id(v): k for k, v in enumerate(jaxpr.invars)}
    out: set[int] = set()
    for k in range(loop_eqn.params["n_batch_leaves"]):
        atom = loop_eqn.invars[k]
        if isinstance(atom, Var) and id(atom) in invar_pos:
            out.add(invar_pos[id(atom)])
    return out


@dataclasses.dataclass
class CompiledStep:
    """A fully lowered training step.

    Attributes:
        n_actors: total actor count (pipeline depth x data-parallel size).
        programs: fused instruction list per actor (§4.4).
        input_placements: per flat train-step input, the ``(actor, uid)``
            pairs where the driver must place it before execution.
        batch_input_indices: flat input indices that carry the microbatched
            batch (sharded across data-parallel replicas by the driver).
        output_sources: per flat output, one of ``("literal", value)``,
            ``("input", flat_idx)``, or ``("buffer", actor, uid)``.
        split: the stage-split result (for introspection and tests).
        schedule: the schedule that was compiled against (with
            ``schedule="auto"``, the autotuner's winner).
        dp_size: data-parallel replication factor.
        n_commuted: shared-weight gradients rewritten by loop commuting.
        tune_report: the ranked :class:`~repro.core.autotune.TuneReport`
            when the schedule was chosen by ``schedule="auto"``, else
            ``None``.
        schedule_ir: the lowered :class:`~repro.core.schedule_ir.ScheduleIR`
            the programs were emitted from (drives runtime ready-queue
            seeding and introspection).
        task_backend: how task payloads (stage tasks, memo prologues,
            pre/post clusters) execute — ``"codegen"`` (exec-compiled
            straight-line Python source per program,
            :mod:`repro.ir.codegen`), ``"linear"`` (the slot-indexed
            :class:`~repro.ir.linearize.LinearProgram` VM) or
            ``"interpret"`` (the tree-walking reference interpreter).
        program_key: process-unique readable id for this compiled step,
            minted as ``step-{n}.{task_backend}.L{0|1}`` (``L1`` when the
            algebraic optimizer ran) — the readable prefix of the key
            under which the warm mp pool ships and caches the programs
            worker-side (the pool appends its own ``#{ship}`` counter, so
            the worker cache cannot collide even when two variants of one
            traced step share a pool).
        opt_report: the per-task :class:`~repro.ir.opt.OptReport`
            (before/after eqn counts and boundary bytes) when the
            algebraic optimizer ran, ``None`` when it did not.
        literal_placements: ``(actor, uid, literal)`` compile-time
            constants every run needs placed (pinned) on ``actor`` —
            once per data-parallel replica.
    """

    n_actors: int
    programs: list[list[Instruction]]
    input_placements: list[list[tuple[int, str]]]
    batch_input_indices: set[int]
    output_sources: list[tuple]
    split: SplitResult
    schedule: Schedule
    dp_size: int
    n_commuted: int
    schedule_ir: ScheduleIR | None = None
    task_backend: str = "codegen"
    tune_report: Any = None
    program_key: str = dataclasses.field(
        default_factory=lambda: f"step-{next(_PROGRAM_KEYS)}"
    )
    opt_report: Any = None
    literal_placements: list[tuple[int, str, Any]] = dataclasses.field(
        default_factory=list
    )

    @property
    def instruction_counts(self) -> dict[str, int]:
        """Histogram of instruction kinds over all programs (diagnostics)."""
        out: dict[str, int] = {}
        for prog in self.programs:
            for instr in prog:
                k = type(instr).__name__
                out[k] = out.get(k, 0) + 1
        return out


TASK_BACKENDS = ("linear", "interpret", "codegen")


# ---------------------------------------------------------------------------
# instruction payloads
#
# Every payload the compiler attaches to a RunTask is a module-level
# function or a small callable class over picklable state — never a
# closure or lambda.  The multi-process backend (engine="mp",
# :mod:`repro.runtime.mp`) ships per-actor programs to spawn-context
# workers with plain pickle, so payload picklability is part of the
# compiler's contract (tested by tests/core/test_pickle.py).
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _InterpretFn:
    """Reference payload: re-walk the stage jaxpr through the interpreter."""

    jaxpr: Jaxpr

    def __call__(self, vals: list) -> list:
        return eval_jaxpr(self.jaxpr, list(vals))


@dataclasses.dataclass
class _SliceFn:
    """Microbatch slicing: ``batch[i]`` for one microbatch index."""

    i: int

    def __call__(self, vals: list) -> list:
        return [np.asarray(vals[0])[self.i]]


@dataclasses.dataclass
class _ScaleFn:
    """Data-parallel mean: multiply by a pre-computed ``1/dp`` factor."""

    inv: np.float32

    def __call__(self, vals: list) -> list:
        return [vals[0] * self.inv]


def _stack_fn(vals: list) -> list:
    """STACK combine: stack per-microbatch outputs along a new axis."""
    return [np.stack(vals)]


def _sum_fn(vals: list) -> list:
    """Elementwise sum of commuted gradient parts (§3.4's combine)."""
    total = vals[0]
    for v in vals[1:]:
        total = total + v
    return [total]


def _make_task_fn(jaxpr: Jaxpr, spmd_config, task_backend: str) -> Callable[[list], list]:
    """Executable payload for a stage task, memo prologue or pre/post cluster.

    With an inner SPMD mesh configured, the task is partitioned once here
    and executed lock-step across the actor's devices on every call; the
    boundary values stay global (sharding at entry, unsharding at exit).

    Otherwise the payload is chosen by ``task_backend``: ``"linear"``
    compiles the jaxpr once into a cached slot-indexed
    :class:`~repro.ir.linearize.LinearProgram`; ``"codegen"`` (the
    default) additionally emits that program as straight-line Python
    source exec-compiled once (:mod:`repro.ir.codegen`); ``"interpret"``
    re-walks the jaxpr through ``tracer.bind`` on every call (the
    reference both compiled backends are differential-tested against).
    """
    if spmd_config is not None:
        from repro.spmd import Mesh, SpmdExecutor, partition

        mesh_axes, rules = spmd_config
        mesh = Mesh(mesh_axes)
        if mesh.n_devices > 1:
            prog = partition(jaxpr, mesh, in_specs=[None] * len(jaxpr.invars), rules=rules)

            def run_spmd(vals: list) -> list:
                return SpmdExecutor(mesh).run(prog, vals)

            return run_spmd

    if task_backend == "linear":
        # one lowering per distinct jaxpr; tasks are shared across
        # microbatches, so the cache amortizes over the whole schedule
        return linearize(jaxpr)

    if task_backend == "codegen":
        # lowers through the same LinearProgram pass, then emits and
        # exec-compiles one Python function per program (cached alongside)
        return codegen(jaxpr)

    return _InterpretFn(jaxpr)


def compile_train_step(
    jaxpr: Jaxpr,
    schedule: Schedule | str | None = None,
    *,
    dp_size: int = 1,
    comm_strategy: str = "topo",
    spmd_config=None,
    cost_fn: Callable[[StageTask], float] | None = None,
    task_backend: str = "codegen",
    n_actors: int | None = None,
    memory_budget: float | None = None,
    optimize: bool = True,
) -> CompiledStep:
    """Lower a traced training step into per-actor instruction programs.

    Args:
        jaxpr: the traced ``train_step`` containing exactly one
            ``pipeline_loop`` equation.
        schedule: overrides the schedule stored in the loop equation.
            The string ``"auto"`` runs the cost-aware autotuner
            (:mod:`repro.core.autotune`): per-stage costs are estimated
            from the traced stage jaxprs (or ``cost_fn`` when given), the
            compatible gallery schedules are priced, and the winner is
            compiled; its :class:`~repro.core.autotune.TuneReport` lands
            on ``CompiledStep.tune_report``.
        dp_size: data-parallel pipeline replicas (gradients are all-reduced
            and averaged across replicas after the loop).
        comm_strategy: ``"topo"`` (§4.2's deadlock-free ordering) or
            ``"naive"`` (recv-just-before-use; deadlocks under synchronous
            communication — Figure 5).
        spmd_config: optional ``(mesh_axes, rules)`` giving each actor an
            inner SPMD mesh for its tasks.
        cost_fn: optional per-task virtual cost (simulation mode).
        task_backend: task execution backend — ``"codegen"`` (default;
            each task's :class:`~repro.ir.linearize.LinearProgram` emitted
            as straight-line Python source and exec-compiled once),
            ``"linear"`` (the slot-indexed VM over the same program) or
            ``"interpret"`` (tree-walking reference interpreter).
        n_actors: pipeline rank count for ``schedule="auto"`` (the driver
            mesh's width; defaults to one rank per model stage).
        memory_budget: per-rank live-activation-byte budget for
            ``schedule="auto"`` — candidates whose peak exceeds it are
            excluded from the search.
        optimize: run the algebraic optimizer over the stage jaxprs
            (:mod:`repro.ir.opt`; default ``True``): CSE, identity
            elision, cross-boundary DCE, and cross-microbatch
            memoization — all bit-identical to ``False``.  The report
            lands on ``CompiledStep.opt_report``.
    """
    if comm_strategy not in ("topo", "naive"):
        raise ValueError(f"unknown comm_strategy {comm_strategy!r}")
    if task_backend not in TASK_BACKENDS:
        raise ValueError(
            f"unknown task_backend {task_backend!r}; expected one of {TASK_BACKENDS}"
        )
    if optimize not in (True, False):
        raise ValueError(
            f"optimize must be True or False, got {optimize!r} "
            "(the value-changing level 2 was removed)"
        )

    loop_positions = [i for i, e in enumerate(jaxpr.eqns) if e.prim is pipeline_loop_p]
    if len(loop_positions) != 1:
        raise ValueError(
            f"train_step must contain exactly one accumulate_grads loop, found {len(loop_positions)}"
        )
    L = loop_positions[0]
    loop_eqn = jaxpr.eqns[L]
    body: Jaxpr = loop_eqn.params["body_jaxpr"]
    out_ops: tuple[str, ...] = loop_eqn.params["out_ops"]
    n_batch = loop_eqn.params["n_batch_leaves"]
    n_mbs = loop_eqn.params["n_mbs"]
    if schedule is None:
        schedule = loop_eqn.params.get("schedule")
    if schedule is None:
        raise ValueError("no schedule: pass one to accumulate_grads or compile_train_step")

    split = split_stages(body)
    tune_report = None
    if isinstance(schedule, str):
        if schedule != "auto":
            raise ValueError(
                f"unknown schedule {schedule!r}; pass a Schedule or 'auto'"
            )
        from repro.core import autotune

        P_auto = split.n_stages if n_actors is None else n_actors
        cost_model = autotune.CostModel.from_tasks(split, cost_fn)
        tune_report = autotune.tune(
            cost_model, P_auto, n_mbs, memory_budget=memory_budget
        )
        schedule = tune_report.best.schedule
    if split.n_stages != schedule.n_stages:
        raise ValueError(
            f"model has {split.n_stages} pipeline stages (yields + 1) but the "
            f"schedule expects {schedule.n_stages}"
        )

    commute = commute_shared_gradients(body, out_ops, schedule, split)
    body, out_ops = commute.body, commute.out_ops
    if commute.n_commuted:
        split = split_stages(body)

    # ------------------------------------------------------------------
    # algebraic optimizer (ir/opt.py): rewrite every stage jaxpr before
    # linearization — CSE, identity elision, cross-boundary DCE, and
    # cross-microbatch memoization, all bit-identical
    # ------------------------------------------------------------------
    prologues: dict[int, Any] = {}
    memo_vars: dict[int, tuple[int, int]] = {}
    memo_boundary: dict[int, tuple[int, int]] = {}
    out_aliases: list = []
    opt_report = None
    if optimize:
        sopt = optimize_split(
            split,
            n_batch=n_batch,
            n_mbs=n_mbs,
            elide_sharding=spmd_config is None,
        )
        split = sopt.split
        prologues = sopt.prologues
        memo_vars = sopt.memo_vars
        memo_boundary = sopt.memo_boundary
        out_aliases = sopt.out_aliases
        opt_report = sopt.report

    tasks = split.tasks
    P = schedule.n_actors
    n_actors = P * dp_size

    # ------------------------------------------------------------------
    # index maps
    # ------------------------------------------------------------------
    producer: dict[int, tuple[int, int]] = {}  # id(body var) -> (task, out_pos)
    for t in tasks:
        for j, v in enumerate(t.out_vars):
            producer[id(v)] = (t.index, j)
    # deduplicated boundary outputs: extra body vars served by an
    # already-mapped (task, out_pos) slot
    for alias_var, alias_t, alias_j in out_aliases:
        producer[id(alias_var)] = (alias_t, alias_j)

    body_invar_pos = {id(v): k for k, v in enumerate(body.invars)}
    task_actor = [schedule.actor_of_stage(t.stage) for t in tasks]

    # consumers of each task output: list[(task_idx, out_pos)] -> [task idx]
    out_consumers: dict[tuple[int, int], list[int]] = {}
    # consumers of each memoized-boundary value: (task, memo out pos) -> [task]
    memo_consumers: dict[tuple[int, int], list[int]] = {}
    invar_consumers: dict[int, list[int]] = {k: [] for k in range(len(body.invars))}
    for t in tasks:
        for atom in t.in_atoms:
            if id(atom) in memo_vars:
                continue  # fed by this task's own memo prologue buffer
            elif id(atom) in memo_boundary:
                memo_consumers.setdefault(memo_boundary[id(atom)], []).append(t.index)
            elif id(atom) in body_invar_pos:
                invar_consumers[body_invar_pos[id(atom)]].append(t.index)
            elif id(atom) in producer:
                out_consumers.setdefault(producer[id(atom)], []).append(t.index)
            else:  # pragma: no cover - split invariant
                raise AssertionError("task input is neither body invar nor task output")
    # memo prologues consume loop-invariant captures on the task's actor
    for t_idx, pro in prologues.items():
        for atom in pro.in_atoms:
            if id(atom) in body_invar_pos:
                invar_consumers[body_invar_pos[id(atom)]].append(t_idx)

    # body outputs: (task, out_pos) and combine op per output
    body_out_sources: list[tuple[int, int] | None] = []
    for atom in body.outvars:
        body_out_sources.append(producer.get(id(atom)))

    # ------------------------------------------------------------------
    # classify train-level equations: pre (feeds the loop / independent)
    # vs post (depends on loop outputs)
    # ------------------------------------------------------------------
    loop_out_ids = {id(v) for v in loop_eqn.outvars}
    post_set: set[int] = set()
    post_val_ids: set[int] = set(loop_out_ids)
    for i, eqn in enumerate(jaxpr.eqns):
        if i == L:
            continue
        if any(isinstance(a, Var) and id(a) in post_val_ids for a in eqn.invars):
            post_set.add(i)
            post_val_ids.update(id(v) for v in eqn.outvars)
    pre_idx = [i for i in range(len(jaxpr.eqns)) if i != L and i not in post_set]
    post_idx = [i for i in range(len(jaxpr.eqns)) if i in post_set]

    # ------------------------------------------------------------------
    # uid naming for train-level atoms
    # ------------------------------------------------------------------
    invar_pos = {id(v): k for k, v in enumerate(jaxpr.invars)}
    pre_out_uid: dict[int, str] = {}
    for i in pre_idx:
        for j, v in enumerate(jaxpr.eqns[i].outvars):
            pre_out_uid[id(v)] = f"pre.e{i}.o{j}"
    post_out_uid: dict[int, str] = {}
    post_eqn_of: dict[int, int] = {}  # id(post outvar) -> producing eqn index
    for i in post_idx:
        for j, v in enumerate(jaxpr.eqns[i].outvars):
            post_out_uid[id(v)] = f"post.e{i}.o{j}"
            post_eqn_of[id(v)] = i

    # loop outputs -> uid (+ "dp-averaged" uid when dp_size > 1)
    def acc_uid(j: int) -> str:
        return f"acc.{j}" if dp_size == 1 else f"dpm.{j}"

    def stack_uid(j: int) -> str:
        return f"stack.{j}" if dp_size == 1 else f"dpm.stack.{j}"

    loop_out_uid: dict[int, tuple[str, int]] = {}  # id(train outvar) -> (uid, local actor)
    combine_uids: list[tuple[str, int]] = []
    direct_positions: dict[int, int] = {}  # new body-out idx -> train outvar position
    # constant loop outputs (e.g. the zero gradient of a weight the loss
    # never uses) have no producing task; the driver places the combined
    # value directly: sum over microbatches for ADD, a stack for STACK.
    const_loop_outputs: list[tuple[int, str, Literal]] = []
    for pos, (how, k) in enumerate(commute.out_map):
        train_var = loop_eqn.outvars[pos]
        if how == "direct":
            src = body_out_sources[k]
            if src is None:
                atom = body.outvars[k]
                if not isinstance(atom, Literal):
                    raise NotImplementedError(
                        "loop outputs that are loop inputs passed through "
                        "unchanged are not supported"
                    )
                if out_ops[k] == ADD:
                    value = np.asarray(atom.value) * n_mbs
                    aval = atom.aval
                else:
                    # one read-only broadcast view shared by every
                    # microbatch ref — never n_mbs materialized copies.
                    # Callers see this constant output as a non-writable
                    # zero-strided view; copy before mutating.
                    value = np.broadcast_to(
                        np.asarray(atom.value), (n_mbs,) + atom.aval.shape
                    )
                    aval = atom.aval.update(shape=(n_mbs,) + atom.aval.shape)
                uid = f"loopconst.{k}"
                const_loop_outputs.append((0, uid, Literal(value, aval)))
                loop_out_uid[id(train_var)] = (uid, 0)
                direct_positions[k] = pos
                continue
            actor = task_actor[src[0]]
            uid = acc_uid(k) if out_ops[k] == ADD else stack_uid(k)
            loop_out_uid[id(train_var)] = (uid, actor)
            direct_positions[k] = pos
        else:
            spec = commute.combines[k]
            first_src = body_out_sources[spec.part_indices[0]]
            actor = task_actor[first_src[0]]
            uid = f"combine.{k}"
            loop_out_uid[id(train_var)] = (uid, actor)
            combine_uids.append((uid, actor))

    def train_atom_uid(atom: Atom) -> tuple[str, Any]:
        """uid for a train-level atom; second element is a literal payload
        (or None)."""
        if isinstance(atom, Literal):
            return f"lit.{id(atom)}", atom
        if id(atom) in invar_pos:
            return f"in.{invar_pos[id(atom)]}", None
        if id(atom) in pre_out_uid:
            return pre_out_uid[id(atom)], None
        if id(atom) in post_out_uid:
            return post_out_uid[id(atom)], None
        if id(atom) in loop_out_uid:
            return loop_out_uid[id(atom)][0], None
        raise AssertionError("unplaced train atom")

    # ------------------------------------------------------------------
    # placement inference (§3.3)
    # ------------------------------------------------------------------
    # post equations: follow the first loop/post operand's actor
    post_actor: dict[int, int] = {}
    for i in post_idx:
        actor = None
        for a in jaxpr.eqns[i].invars:
            if isinstance(a, Var):
                if id(a) in loop_out_uid:
                    actor = loop_out_uid[id(a)][1]
                    break
                if id(a) in post_eqn_of:
                    actor = post_actor[post_eqn_of[id(a)]]
                    break
        post_actor[i] = 0 if actor is None else actor

    # needed-on sets, propagated backwards through pre equations
    needed_on: dict[str, set[int]] = {}

    def need(uid: str, actor: int) -> None:
        needed_on.setdefault(uid, set()).add(actor)

    # loop inputs pin to the actors of their consuming tasks
    for k, consumers in invar_consumers.items():
        atom = loop_eqn.invars[k]
        uid, _ = train_atom_uid(atom)
        for t in consumers:
            need(uid, task_actor[t])
    # post equations need their non-loop operands locally (their literal
    # operands are constants of the cluster program, not placed buffers)
    for i in post_idx:
        for a in jaxpr.eqns[i].invars:
            if isinstance(a, Var) and (id(a) in invar_pos or id(a) in pre_out_uid):
                need(train_atom_uid(a)[0], post_actor[i])
    # combine tasks need their parts' accumulators (cross-actor handled below)
    # train outputs produced by pre eqns / invars: actor 0
    for atom in jaxpr.outvars:
        if id(atom) in invar_pos or id(atom) in pre_out_uid:
            need(train_atom_uid(atom)[0], 0)

    # every need so far comes from outside the pre phase, so a pre value
    # listed here escapes that actor's pre cluster; what the propagation
    # below adds is read by other pre equations only and stays inside it
    pre_escapes = {uid: set(actors) for uid, actors in needed_on.items()}

    # propagate through pre eqns in reverse order
    for i in reversed(pre_idx):
        eqn = jaxpr.eqns[i]
        actors: set[int] = set()
        for j, v in enumerate(eqn.outvars):
            actors |= needed_on.get(f"pre.e{i}.o{j}", set())
        if not actors:
            continue
        for a in eqn.invars:
            if isinstance(a, Var):
                for act in actors:
                    need(train_atom_uid(a)[0], act)
        # record where this eqn runs
        needed_on[f"pre.e{i}"] = actors

    # input placements (and literal placements)
    input_placements: list[list[tuple[int, str]]] = [[] for _ in jaxpr.invars]
    literal_placements: list[tuple[int, str, Any]] = []
    for k, v in enumerate(jaxpr.invars):
        uid = f"in.{k}"
        for actor in sorted(needed_on.get(uid, set())):
            input_placements[k].append((actor, uid))
    # literals captured by the loop (pre/post equations keep theirs inline)
    for k, consumers in invar_consumers.items():
        atom = loop_eqn.invars[k]
        if isinstance(atom, Literal):
            uid, _ = train_atom_uid(atom)
            for actor in sorted({task_actor[t] for t in consumers}):
                literal_placements.append((actor, uid, atom))

    # batch inputs for data-parallel sharding
    batch_input_indices: set[int] = set()
    dp_ok = True
    for k in range(n_batch):
        atom = loop_eqn.invars[k]
        if isinstance(atom, Var) and id(atom) in invar_pos:
            batch_input_indices.add(invar_pos[id(atom)])
        else:
            dp_ok = False
    if dp_size > 1 and not dp_ok:
        raise ValueError(
            "data parallelism requires the microbatched batch to be passed "
            "directly to train_step (shape (n_mbs, mbsz, ...)), not computed "
            "inside it"
        )

    # ------------------------------------------------------------------
    # pre/post clusters: the train-level equations around the loop run as
    # one closed sub-program per actor (pre: everything that actor needs,
    # replicated) or per (actor, wave) (post), lowered like a stage task.
    # A post equation's wave is the number of actor changes on its longest
    # chain of post operands, so cluster (a, w) reads only clusters of an
    # earlier wave, or of its own actor at the same or an earlier one: the
    # cluster graph is acyclic and emitting by (wave, actor) is a
    # topological order.  Only values that escape a cluster get a buffer,
    # under the per-equation uid they always had.
    # ------------------------------------------------------------------
    pre_clusters: dict[int, tuple[Jaxpr, list[Atom], list[Var]]] = {}
    for a_local in range(P):
        idxs = [i for i in pre_idx if a_local in needed_on.get(f"pre.e{i}", ())]
        if idxs:
            (pre_clusters[a_local],) = closed_subprograms(
                [jaxpr.eqns[i] for i in idxs],
                [0] * len(idxs),
                1,
                {
                    id(v)
                    for i in idxs
                    for v in jaxpr.eqns[i].outvars
                    if a_local in pre_escapes.get(pre_out_uid[id(v)], ())
                },
            )

    post_wave: dict[int, int] = {}
    for i in post_idx:
        srcs = [post_eqn_of[id(a)] for a in jaxpr.eqns[i].invars if id(a) in post_eqn_of]
        post_wave[i] = max(
            (post_wave[j] + (post_actor[j] != post_actor[i]) for j in srcs), default=0
        )
    post_keys = sorted({(post_wave[i], post_actor[i]) for i in post_idx})
    key_pos = {key: n for n, key in enumerate(post_keys)}
    post_clusters = closed_subprograms(
        [jaxpr.eqns[i] for i in post_idx],
        [key_pos[post_wave[i], post_actor[i]] for i in post_idx],
        len(post_keys),
        {id(a) for a in jaxpr.outvars if isinstance(a, Var)},
    )

    def cluster_task(
        name: str, phase: str, cluster: tuple[Jaxpr, list[Atom], list[Var]]
    ) -> RunTask:
        sub, in_atoms, out_vars = cluster
        return RunTask(
            name=name,
            in_refs=[BufferRef(train_atom_uid(a)[0]) for a in in_atoms],
            out_refs=[BufferRef(train_atom_uid(v)[0]) for v in out_vars],
            fn=_make_task_fn(sub, None, task_backend),
            meta={"phase": phase, "out_nbytes": [v.aval.nbytes for v in out_vars]},
        )

    # ------------------------------------------------------------------
    # program emission
    # ------------------------------------------------------------------
    programs: list[list[Instruction]] = [[] for _ in range(n_actors)]
    task_fns = [_make_task_fn(t.jaxpr, spmd_config, task_backend) for t in tasks]
    memo_fns = {
        t_idx: _make_task_fn(pro.jaxpr, spmd_config, task_backend)
        for t_idx, pro in prologues.items()
    }
    task_costs = [cost_fn(t) if cost_fn else 0.0 for t in tasks]

    def memo_uid(t: int, j: int) -> str:
        return f"memo.t{t}.o{j}"

    # lower the schedule once: its resolved edges carry the dependency
    # model (monolithic or zero-bubble split backward) and its emitter
    # walks §4.2's global topological order and places every send/recv —
    # this function only says what each scheduled unit runs
    sched_ir = schedule.lower(n_mbs)
    backward_split = schedule.backward_split
    bwd_frac = schedule.bwd_input_fraction

    def out_ref(mb: int, t: int, j: int) -> BufferRef:
        return BufferRef(f"mb{mb}.t{t}.o{j}")

    def task_in_refs(task: StageTask, mb: int) -> list[BufferRef]:
        refs = []
        for atom in task.in_atoms:
            if id(atom) in memo_vars:
                refs.append(BufferRef(memo_uid(*memo_vars[id(atom)])))
            elif id(atom) in memo_boundary:
                refs.append(BufferRef(memo_uid(*memo_boundary[id(atom)])))
            elif id(atom) in body_invar_pos:
                k = body_invar_pos[id(atom)]
                if k < n_batch:
                    refs.append(BufferRef(f"mb{mb}.bin{k}"))
                else:
                    refs.append(BufferRef(train_atom_uid(loop_eqn.invars[k])[0]))
            else:
                src_t, src_j = producer[id(atom)]
                refs.append(out_ref(mb, src_t, src_j))
        return refs

    def accumulates(t_idx: int, mb: int) -> list[Accumulate]:
        """Gradient accumulation for the ADD body outputs of one task
        instance, as one instruction (none when it produced no gradient)."""
        pairs = tuple(
            (BufferRef(f"acc.{pos}"), out_ref(mb, t_idx, src[1]))
            for pos, src in enumerate(body_out_sources)
            if src is not None and src[0] == t_idx and out_ops[pos] == ADD
        )
        return [Accumulate(pairs)] if pairs else []

    def slot_running(t_idx: int, mb: int) -> Slot:
        """The slot that runs task ``t_idx`` for microbatch ``mb`` (a
        fused last stage runs with its forward unit)."""
        task = tasks[t_idx]
        kind = FWD if task.kind != BWD_KIND else BWD_I if backward_split else BWD
        return sched_ir.slot_of(Unit(mb, task.stage, kind))

    def slot_instrs(slot: Slot) -> tuple[list, list, list]:
        """One scheduled unit's instructions, outgoing transfers and
        accumulates: the per-slot function of :meth:`ScheduleIR.emit`."""
        u = slot.unit
        t_idx = (split.fwd_task_of_stage if u.kind == FWD else split.bwd_task_of_stage)[u.stage]
        task = tasks[t_idx]
        if u.kind in (BWD, BWD_I) and task.kind == FUSED_KIND:
            return [], [], []  # fused into the forward unit
        meta = {"phase": "loop", "mb": u.mb, "stage": u.stage, "kind": task.kind, "unit": u.kind}
        if u.kind == BWD_W:
            # Zero-bubble weight-gradient unit: the numeric payload
            # already ran with the input-gradient unit (the split is an
            # ordering/cost split, not a recomputation), so this unit
            # charges the weight-gradient share of the backward cost
            # and commits the stage's gradients into their
            # accumulators — the deferral that lets ZB-H1 fill bubbles.
            w_cost = 0.0 if task.kind == FUSED_KIND else task_costs[t_idx] * (1.0 - bwd_frac)
            w_run = RunTask(
                name=f"w{u.stage}({u.mb})",
                in_refs=[],
                out_refs=[],
                fn=None,  # cost-only: the payload ran with bwd_i
                cost=w_cost,
                meta={**meta, "out_nbytes": []},
            )
            return [w_run], [], accumulates(t_idx, u.mb)
        prefix = {FWD: "f", BWD: "b", BWD_I: "bi"}[u.kind]
        name = f"{prefix}{u.stage}({u.mb})"
        if task.kind == FUSED_KIND:
            name = f"f{u.stage}b{u.stage}({u.mb})"
        cost = task_costs[t_idx]
        if u.kind == BWD_I:
            cost *= bwd_frac
        run = RunTask(
            name=name,
            in_refs=task_in_refs(task, u.mb),
            out_refs=[out_ref(u.mb, t_idx, j) for j in range(len(task.out_vars))],
            fn=task_fns[t_idx],
            cost=cost,
            meta={**meta, "out_nbytes": [v.aval.nbytes for v in task.out_vars]},
        )
        # sends to cross-actor consumers, immediately after production;
        # one transfer per destination actor even when several tasks
        # there consume the value (the recv waits for the first of them)
        transfers = []
        for j, v in enumerate(task.out_vars):
            sent_to: dict[int, int] = {}  # dst actor -> first consumer task
            for consumer_t in out_consumers.get((t_idx, j), []):
                if task_actor[consumer_t] != slot.rank:
                    sent_to.setdefault(task_actor[consumer_t], consumer_t)
            for dst_local, consumer_t in sent_to.items():
                transfers.append((
                    out_ref(u.mb, t_idx, j), f"mb{u.mb}.t{t_idx}.o{j}",
                    v.aval.nbytes, dst_local, slot_running(consumer_t, u.mb),
                ))
        # gradient accumulation for ADD body outputs; under a split-
        # backward schedule, backward-produced gradients are committed
        # by the weight-gradient unit instead
        if backward_split and task.kind in (BWD_KIND, FUSED_KIND):
            return [run], transfers, []
        return [run], transfers, accumulates(t_idx, u.mb)

    for replica in range(dp_size):
        base = replica * P

        def prog(a_local: int) -> list[Instruction]:
            return programs[base + a_local]

        # --- pre-loop clusters (replicated where needed) ---
        for a_local, cluster in pre_clusters.items():
            prog(a_local).append(cluster_task("pre", "pre", cluster))

        # --- microbatch slicing of batch inputs ---
        for k in range(n_batch):
            atom = loop_eqn.invars[k]
            uid, _ = train_atom_uid(atom)
            actors = sorted({task_actor[t] for t in invar_consumers[k]})
            for a_local in actors:
                for i in range(n_mbs):
                    prog(a_local).append(
                        RunTask(
                            name=f"slice.b{k}[{i}]",
                            in_refs=[BufferRef(uid)],
                            out_refs=[BufferRef(f"mb{i}.bin{k}")],
                            fn=_SliceFn(i),
                            meta={
                                "phase": "slice",
                                "out_nbytes": [body.invars[k].aval.nbytes],
                            },
                        )
                    )

        # --- once-per-step memoized prologues (ir/opt.py hoisting) ---
        # each runs the loop-invariant prefix of its stage task exactly
        # once; every microbatch instance then reads the memo buffers.
        # Memoized *boundary* values additionally ship to cross-actor
        # consumers here — one transfer per step instead of per microbatch.
        for t_idx in sorted(prologues):
            pro = prologues[t_idx]
            a_local = task_actor[t_idx]
            memo_in_refs = []
            for atom in pro.in_atoms:
                k = body_invar_pos[id(atom)]
                memo_in_refs.append(
                    BufferRef(train_atom_uid(loop_eqn.invars[k])[0])
                )
            prog(a_local).append(
                RunTask(
                    name=f"memo.t{t_idx}",
                    in_refs=memo_in_refs,
                    out_refs=[
                        BufferRef(memo_uid(t_idx, j))
                        for j in range(len(pro.jaxpr.outvars))
                    ],
                    fn=memo_fns[t_idx],
                    meta={
                        "phase": "memo",
                        "stage": tasks[t_idx].stage,
                        "kind": "memo",
                        "unit": "memo",
                        "out_nbytes": [
                            v.aval.nbytes for v in pro.jaxpr.outvars
                        ],
                    },
                )
            )
            for j in range(len(pro.jaxpr.outvars)):
                memo_sent: set[int] = set()
                for consumer_t in memo_consumers.get((t_idx, j), []):
                    dst_local = task_actor[consumer_t]
                    if dst_local == a_local or dst_local in memo_sent:
                        continue
                    memo_sent.add(dst_local)
                    uid = memo_uid(t_idx, j)
                    prog(a_local).append(Send(BufferRef(uid), base + dst_local, uid))
                    prog(dst_local).append(
                        Recv(
                            BufferRef(uid), base + a_local, uid,
                            pro.jaxpr.outvars[j].aval.nbytes,
                        )
                    )

        # --- the unrolled pipeline (§4.2, or Figure 5's naive placement) ---
        sched_ir.emit(slot_instrs, comm_strategy, programs, base)

        # --- data-parallel gradient synchronisation ---
        if dp_size > 1:
            inv = np.float32(1.0 / dp_size)
            for pos, op in enumerate(out_ops):
                src = body_out_sources[pos]
                if src is None or op != ADD:
                    continue
                a_local = task_actor[src[0]]
                group = tuple(r * P + a_local for r in range(dp_size))
                prog(a_local).append(
                    AllReduce(BufferRef(f"acc.{pos}"), group, group_key=f"dp.acc.{pos}")
                )
                prog(a_local).append(
                    RunTask(
                        name=f"dpmean.acc{pos}",
                        in_refs=[BufferRef(f"acc.{pos}")],
                        out_refs=[BufferRef(f"dpm.{pos}")],
                        fn=_ScaleFn(inv),
                        meta={"phase": "dp", "out_nbytes": [body.outvars[pos].aval.nbytes]},
                    )
                )

        # --- stacked outputs (losses) ---
        for pos, op in enumerate(out_ops):
            if op != STACK:
                continue
            src = body_out_sources[pos]
            if src is None:
                continue  # constant output: materialized by the driver
            t_idx, j = src
            a_local = task_actor[t_idx]
            refs = [out_ref(i, t_idx, j) for i in range(n_mbs)]
            target = f"stack.{pos}" if dp_size == 1 else f"stack.{pos}.raw"
            prog(a_local).append(
                RunTask(
                    name=f"stack.{pos}",
                    in_refs=refs,
                    out_refs=[BufferRef(target)],
                    fn=_stack_fn,
                    meta={
                        "phase": "stack",
                        "out_nbytes": [body.outvars[pos].aval.nbytes * n_mbs],
                    },
                )
            )
            if dp_size > 1:
                inv = np.float32(1.0 / dp_size)
                group = tuple(r * P + a_local for r in range(dp_size))
                prog(a_local).append(
                    AllReduce(BufferRef(target), group, group_key=f"dp.stack.{pos}")
                )
                prog(a_local).append(
                    RunTask(
                        name=f"dpmean.stack{pos}",
                        in_refs=[BufferRef(target)],
                        out_refs=[BufferRef(f"dpm.stack.{pos}")],
                        fn=_ScaleFn(inv),
                        meta={"phase": "dp", "out_nbytes": [body.outvars[pos].aval.nbytes * n_mbs]},
                    )
                )

        # --- deferred combines from loop commuting (§3.4) ---
        for k, spec in enumerate(commute.combines):
            parts = spec.part_indices
            target_actor = task_actor[body_out_sources[parts[0]][0]]
            part_refs = []
            for pos in parts:
                a_src = task_actor[body_out_sources[pos][0]]
                uid = acc_uid(pos)
                ref = BufferRef(uid)
                if a_src != target_actor:
                    key = f"combine.{k}.part{pos}"
                    prog(a_src).append(Send(ref, base + target_actor, key))
                    prog(target_actor).append(
                        Recv(ref, base + a_src, key, body.outvars[pos].aval.nbytes)
                    )
                part_refs.append(ref)

            prog(target_actor).append(
                RunTask(
                    name=f"combine.{k}",
                    in_refs=part_refs,
                    out_refs=[BufferRef(f"combine.{k}")],
                    fn=_sum_fn,
                    meta={
                        "phase": "combine",
                        "out_nbytes": [body.outvars[parts[0]].aval.nbytes],
                    },
                )
            )

        # --- post-loop clusters, in (wave, actor) order; a loop or post
        # value that lives on another actor is shipped just before its
        # first consuming cluster, once per destination ---
        shipped: set[tuple[str, int]] = set()
        for (wave, a_local), cluster in zip(post_keys, post_clusters):
            _, in_atoms, _ = cluster
            for a in in_atoms:
                uid, _ = train_atom_uid(a)
                src_actor = None
                if id(a) in loop_out_uid:
                    src_actor = loop_out_uid[id(a)][1]
                elif id(a) in post_eqn_of:
                    src_actor = post_actor[post_eqn_of[id(a)]]
                if (
                    src_actor is not None
                    and src_actor != a_local
                    and (uid, a_local) not in shipped
                ):
                    shipped.add((uid, a_local))
                    key = f"{uid}->post.a{a_local}"
                    prog(src_actor).append(Send(BufferRef(uid), base + a_local, key))
                    prog(a_local).append(Recv(BufferRef(uid), base + src_actor, key, a.aval.nbytes))
            prog(a_local).append(cluster_task(f"post.w{wave}", "post", cluster))

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    output_sources: list[tuple] = []
    for atom in jaxpr.outvars:
        if isinstance(atom, Literal):
            output_sources.append(("literal", atom.value))
        elif id(atom) in invar_pos:
            output_sources.append(("input", invar_pos[id(atom)]))
        elif id(atom) in loop_out_uid:
            uid, actor = loop_out_uid[id(atom)]
            output_sources.append(("buffer", actor, uid))
        elif id(atom) in post_out_uid:
            output_sources.append(
                ("buffer", post_actor[post_eqn_of[id(atom)]], post_out_uid[id(atom)])
            )
        elif id(atom) in pre_out_uid:
            uid = pre_out_uid[id(atom)]
            actor = min(needed_on.get(uid, {0}))
            output_sources.append(("buffer", actor, uid))
        else:  # pragma: no cover
            raise AssertionError("unmapped train output")

    compiled = CompiledStep(
        n_actors=n_actors,
        programs=programs,
        input_placements=input_placements,
        batch_input_indices=batch_input_indices,
        output_sources=output_sources,
        split=split,
        schedule=schedule,
        dp_size=dp_size,
        n_commuted=commute.n_commuted,
        schedule_ir=sched_ir,
        task_backend=task_backend,
        tune_report=tune_report,
        # the full variant tuple: same jaxpr optimized or not, or on
        # another task backend, must never share a worker-side
        # program-cache entry
        program_key=f"step-{next(_PROGRAM_KEYS)}.{task_backend}.L{int(optimize)}",
        opt_report=opt_report,
        literal_placements=literal_placements + const_loop_outputs,
    )
    protected = {uid for placements in input_placements for _, uid in placements}
    protected.update(uid for _, uid, _ in compiled.literal_placements)
    protected.update(src[2] for src in output_sources if src[0] == "buffer")
    compiled.programs = _insert_deletions(_bundle_edges(programs, protected), protected)
    return compiled


# ---------------------------------------------------------------------------
# program-level passes: edge bundles, then buffer liveness
#
# Both read the same per-actor def/use table (:func:`_scan`) and both are
# plain functions from delete-free programs to programs, so the program
# before a pass is the reference for the program after it.  ``protected``
# names the uids a program does not own: driver-placed inputs,
# compile-time constants and the step's outputs.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Use:
    """How one actor's program touches one buffer.

    Attributes:
        defined: defined on this actor at all (task output, receive,
            accumulator) rather than placed by the driver.
        readers: the index of the reading ``RunTask``, once per operand
            slot that names the buffer.
        other: named by something that is not a ``RunTask`` — a transfer,
            an accumulate, a collective.
        sent: named by a ``Send``, so its free may have to wait (§4.3).
        last_use: index of the last instruction that reads it.
    """

    defined: bool = False
    readers: list[int] = dataclasses.field(default_factory=list)
    other: bool = False
    sent: bool = False
    last_use: int | None = None


def _scan(prog: Sequence[Instruction]) -> dict[str, _Use]:
    """The def/use table of one actor's program, uid -> :class:`_Use`."""
    uses: dict[str, _Use] = {}

    def use(ref: BufferRef, other: bool = True) -> _Use:
        u = uses.get(ref.uid)
        if u is None:
            u = uses[ref.uid] = _Use()
        u.other |= other
        return u

    for idx, instr in enumerate(prog):
        if isinstance(instr, RunTask):
            for r in instr.in_refs:
                u = use(r, other=False)
                u.readers.append(idx)
                u.last_use = idx
            for r in instr.out_refs:
                use(r, other=False).defined = True
        elif isinstance(instr, Send):
            u = use(instr.ref)
            u.sent = True
            u.last_use = idx
        elif isinstance(instr, Recv):
            use(instr.ref).defined = True
        elif isinstance(instr, Accumulate):
            for acc, value in instr.pairs:
                use(value).last_use = idx
                u = use(acc)
                u.defined = True
                u.last_use = idx
        elif isinstance(instr, AllReduce):
            use(instr.ref).last_use = idx
    return uses


def _bundle_edges(
    programs: Sequence[Sequence[Instruction]], protected: set[str]
) -> list[list[Instruction]]:
    """Edge bundles: the values one task hands to exactly one later task
    of the same actor become ONE tuple-valued buffer.

    A value qualifies when a ``RunTask`` with a payload defines it, one
    operand slot of one later ``RunTask`` with a payload reads it, and
    nothing else names it — no transfer, accumulate or collective, and
    it is not ``protected``.  Two or more such values on one
    producer→consumer edge are replaced by a single buffer whose uid is
    the first member's plus the count of the others (``mb0.t1.o0+22``)
    and whose ``nbytes`` is the members' sum; producer and consumer get a
    :class:`~repro.runtime.instructions.Bundled` adaptor over their
    payload, one per (payload, layout), so the microbatch instances of a
    task go on sharing one callable.  The members were defined by one
    instruction and die after one instruction, so the store holds the
    same bytes after every instruction as before the pass.  A task that
    does not declare its output sizes (``meta["out_nbytes"]``, which the
    engines otherwise measure from the array — a tuple has none) is left
    alone.
    """
    adaptors: dict[tuple, Bundled] = {}
    return [_bundle_program(list(prog), protected, adaptors) for prog in programs]


def _bundle_program(
    prog: list[Instruction], protected: set[str], adaptors: dict[tuple, Bundled]
) -> list[Instruction]:
    uses = _scan(prog)
    # (producer index, consumer index) -> positions in the producer's out_refs
    edges: dict[tuple[int, int], list[int]] = {}
    for idx, instr in enumerate(prog):
        if not isinstance(instr, RunTask) or instr.fn is None:
            continue
        sizes = instr.meta.get("out_nbytes", ())
        if len(sizes) != len(instr.out_refs):
            continue
        for j, r in enumerate(instr.out_refs):
            u = uses[r.uid]
            if (
                len(u.readers) == 1
                and not u.other
                and r.uid not in protected
                and sizes[j]
                and prog[u.readers[0]].fn is not None
            ):
                edges.setdefault((idx, u.readers[0]), []).append(j)

    member: dict[str, tuple[BufferRef, int, int]] = {}  # uid -> (bundle, place in it, its size)
    packs: dict[int, list[tuple[int, ...]]] = {}  # producer index -> out_refs positions per bundle
    consumers: set[int] = set()
    for (p_idx, c_idx), js in edges.items():
        if len(js) < 2:
            continue
        refs = prog[p_idx].out_refs
        bundle = BufferRef(f"{refs[js[0]].uid}+{len(js) - 1}")
        for k, j in enumerate(js):
            member[refs[j].uid] = (bundle, k, len(js))
        packs.setdefault(p_idx, []).append(tuple(js))
        consumers.add(c_idx)

    for idx in consumers | set(packs):
        task: RunTask = prog[idx]
        in_refs, in_index = task.in_refs, None
        if idx in consumers:
            # one operand per bundle, where its first member stood
            in_refs, slots, at = [], [], {}
            for i, r in enumerate(task.in_refs):
                if r.uid not in member:
                    in_refs.append(r)
                    slots.append([i])
                    continue
                bundle, k, size = member[r.uid]
                if bundle.uid not in at:
                    at[bundle.uid] = len(slots)
                    in_refs.append(bundle)
                    slots.append([0] * size)
                slots[at[bundle.uid]][k] = i
            in_index = tuple(map(tuple, slots))
        out_refs, meta = task.out_refs, task.meta
        groups = tuple(packs.get(idx, ()))
        packed = {j for js in groups for j in js}
        keep = tuple(j for j in range(len(out_refs)) if j not in packed)
        if groups:
            # kept outputs first, then one ref per bundle
            sizes = meta["out_nbytes"]
            meta = {
                **meta,
                "out_nbytes": [sizes[j] for j in keep]
                + [sum(sizes[j] for j in js) for js in groups],
            }
            out_refs = [out_refs[j] for j in keep] + [
                member[out_refs[js[0]].uid][0] for js in groups
            ]
        key = (id(task.fn), in_index, keep, groups)
        fn = adaptors.get(key)
        if fn is None:
            fn = adaptors[key] = Bundled(task.fn, in_index, keep, groups)
        prog[idx] = dataclasses.replace(
            task, in_refs=in_refs, out_refs=out_refs, fn=fn, meta=meta
        )
    return prog


def _insert_deletions(
    programs: Sequence[Sequence[Instruction]], protected: set[str]
) -> list[list[Instruction]]:
    """Buffer-liveness pass (§4.3): after every instruction that is the
    last use of some buffer the actor defined, ONE ``Delete`` naming all
    the buffers that die there.  ``protected`` buffers are never freed;
    buffers with in-flight sends are handled by the executor's
    pending-deletions queue, ref by ref.

    The values an ``Accumulate`` adds are freed by the instruction itself
    (``delete_value``: each right after its own add) when all of them die
    there and none was sent; otherwise the dying ones go into the
    ``Delete`` that follows.
    """
    out: list[list[Instruction]] = []
    for prog in programs:
        uses = _scan(prog)
        dying: dict[int, list[BufferRef]] = {}
        for uid, u in uses.items():
            if u.defined and u.last_use is not None and uid not in protected:
                dying.setdefault(u.last_use, []).append(BufferRef(uid))
        new_prog: list[Instruction] = []
        for idx, instr in enumerate(prog):
            refs = dying.get(idx, [])
            if isinstance(instr, Accumulate):
                values = [value for _, value in instr.pairs]
                if len(set(values)) == len(values) and all(
                    v in refs and not uses[v.uid].sent for v in values
                ):
                    instr = dataclasses.replace(instr, delete_value=True)
                    refs = [r for r in refs if r not in values]
            new_prog.append(instr)
            if refs:
                new_prog.append(Delete(tuple(refs)))
        out.append(new_prog)
    return out
