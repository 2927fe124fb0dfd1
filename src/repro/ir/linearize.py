"""One-time lowering of a :class:`~repro.ir.jaxpr.Jaxpr` into a slot-indexed
:class:`LinearProgram` — the steady-state task VM.

The execution stack is ``trace -> Jaxpr -> LinearProgram -> event engine``:
the tracer records a jaxpr once, the MPMD compiler splits it into stage
tasks, and *this* module lowers each task jaxpr once so that the per-
microbatch, per-step hot path is a flat loop over pre-resolved
steps, one per surviving equation.  The tree-walking interpreter
(:func:`repro.ir.interpreter.eval_jaxpr`) walks ``jaxpr.eqns`` through
``tracer.bind`` on every invocation — an ``id()``-keyed dict lookup per
atom, an ``abstractify`` + ``_concretize`` per operand, and an
``abstract_eval`` per equation.  A :class:`LinearProgram` pays all of that
exactly once, at lowering:

- **slot indexing** — every value lives at a fixed integer index in a flat
  slot list; operand reads are ``slots[i]``, not dict lookups, and
  ``Literal`` atoms are resolved into a constant pool baked into the
  slot template;
- **pre-bound impls** — each step carries the primitive's raw impl
  (with static params already bound), bypassing ``tracer.bind`` and the
  per-call ``abstract_eval`` re-check;
- **constant folding** — equations whose inputs are all literals are
  evaluated at lowering and become constants;
- **identity elision** — ``pipeline_yield`` / ``stop_gradient`` markers
  (and converts between dtypes that share storage, e.g. bf16 <-> f32) are
  elided by slot aliasing;
- **fusion plan** — maximal single-consumer groups of elementwise
  equations are planned once: a group's members run in order at its
  final consumer's position, and each other member is marked nestable
  into its one consumer (``_Step.into``).  The VM runs members as
  ordinary steps; :mod:`repro.ir.codegen` nests marked steps into their
  consumer's expression.  A group counts as one instruction;
- **liveness plan** — each step lists the slots whose last use it is;
  they are freed eagerly so intermediate activations die as early as the
  dataflow allows;
- **buffer donation** — an elementwise step whose operand dies at that
  step, was freshly allocated by this program, and has the
  same shape/dtype as the output, computes in place via the NumPy ufunc's
  ``out=`` (no allocation, no copy).

Donation safety: a value is donated only when (a) it was produced *inside*
this program by a primitive tagged ``returns_fresh`` (so it cannot alias a
caller-owned buffer, an object-store buffer shared across actors, or a
view of either), and (b) its total consumer count — including program
outputs — is exactly one, so no view or later reader can observe the
mutation.

Numeric equivalence: operands are canonicalized with the same NumPy-dtype
table ``bind`` applies eagerly (:data:`repro.ir.dtypes.NP_CANONICAL`), so a
``LinearProgram`` produces **bit-identical** results to ``eval_jaxpr``;
``tests/core/test_linear_backend.py`` asserts this across the whole
schedule gallery.  Under an *active trace* the program transparently falls
back to ``eval_jaxpr`` so inlining semantics (autodiff, accumulate) are
preserved.

Backend selection: ``compile_train_step(..., task_backend="linear")`` runs
every task (stage tasks and pre/post clusters) through this
VM; the default, ``"codegen"`` (:mod:`repro.ir.codegen`), emits the same
program as generated source and is differential-tested against it;
``task_backend="interpret"`` keeps the reference interpreter, mirroring
the repo's reference-engine + differential-test pattern
(``engine="roundrobin"`` in the runtime).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.ir import tracer
from repro.ir.dtypes import NP_CANONICAL
from repro.ir.interpreter import eval_jaxpr
from repro.ir.jaxpr import Eqn, Jaxpr, Literal, Var

__all__ = ["LinearProgram", "linearize"]


class _Step(NamedTuple):
    """One lowered equation of a :class:`LinearProgram`."""

    fn: Callable[..., Any]  # pre-bound impl, or ``inplace_fn`` when donating
    srcs: tuple[int, ...]  # operand slots
    dst: int  # output slot of a single-result primitive (else -1)
    dsts: tuple[int, ...] | None  # output slots of a multi-result primitive
    dpos: int  # donated operand position (-1: none)
    ddt: Any  # np dtype the donated operand must have at run time
    frees: tuple[int, ...]  # slots dead after this step (the liveness plan)
    eqn: Eqn
    into: int  # fusion mark: the consuming step this one nests into, or -1


def _bind_impl(prim, params: dict) -> Callable[..., Any]:
    """The primitive's raw impl with static params pre-bound."""
    impl = prim._impl
    if impl is None:
        raise NotImplementedError(f"no impl rule for {prim.name}")
    return partial(impl, **params) if params else impl


def _consume(v: np.ndarray) -> np.ndarray:
    """Canonicalize one operand exactly like eager ``bind``'s
    ``_concretize``: unsupported dtypes raise, non-canonical storage
    (float64/int64/...) converts down."""
    t = NP_CANONICAL.get(v.dtype)
    if t is None:
        raise TypeError(f"unsupported dtype: {v.dtype!r}")
    if t is not v.dtype:
        v = np.asarray(v, t)
    return v


class LinearProgram:
    """A jaxpr lowered once into a flat, slot-indexed step list.

    Calling the program with a flat list of arguments evaluates it
    concretely (bit-identical to :func:`~repro.ir.interpreter.eval_jaxpr`)
    and returns the flat list of outputs.  Under an active trace it
    delegates to ``eval_jaxpr`` so the jaxpr inlines into the outer trace.

    Attributes:
        jaxpr: the source program (kept for the traced fallback).
        stats: lowering statistics — ``n_eqns``, ``n_instructions``,
            ``folded``, ``aliased``, ``fused_groups``, ``fused_away``,
            ``donations``, plus the per-run Python dispatch counts
            ``vm_calls_per_run`` (this VM) and ``interp_calls_per_run``
            (what the tree-walking interpreter performs for the same
            jaxpr: bind + abstract_eval + impl + two normalizations per
            operand).
        free_plan: per step, the slots freed after it runs (the
            liveness plan; exposed for tests and introspection).
    """

    def __init__(self, jaxpr: Jaxpr):
        self.jaxpr = jaxpr
        n_in = len(jaxpr.invars)
        consts: list[np.ndarray] = []

        # cell: ("in", i) | ("const", ci) | ("body", body_idx, out_pos)
        cell_of: dict[int, tuple] = {}
        for i, v in enumerate(jaxpr.invars):
            cell_of[id(v)] = ("in", i)

        def const_cell(value: Any) -> tuple:
            # stored *raw*: the interpreter only canonicalizes values when
            # an equation consumes them, never the values themselves — the
            # VM's per-operand canonicalization reproduces that timing
            consts.append(np.asarray(value))
            return ("const", len(consts) - 1)

        lit_cells: dict[int, tuple] = {}  # id(Literal) -> cell (the pool)

        def cell(atom) -> tuple:
            if isinstance(atom, Literal):
                c = lit_cells.get(id(atom))
                if c is None:
                    c = lit_cells[id(atom)] = const_cell(atom.value)
                return c
            return cell_of[id(atom)]

        # ---- pass 1: constant folding + identity/convert aliasing --------
        body: list = []  # surviving eqns
        in_cells: list[list[tuple]] = []  # resolved operand cells per survivor
        n_folded = n_aliased = 0
        # vars defined by an elided identity eqn.  The interpreter
        # canonicalizes the operand when it *executes* the identity
        # (float64 -> float32 etc.); aliasing skips that, which is
        # invisible to downstream instructions (they canonicalize their own
        # operands) but observable when the alias is a program output — so
        # those outputs are canonicalized at return.
        aliased_ids: set[int] = set()
        for eqn in jaxpr.eqns:
            prim = eqn.prim
            cells = [cell(a) for a in eqn.invars]
            # an identity aliases its operand, and so does a convert whose
            # storage dtypes coincide (bf16 <-> f32)
            if len(eqn.invars) == 1 == len(eqn.outvars) and (
                prim.identity_alias
                or prim.identity_same_storage
                and eqn.invars[0].aval.dtype.np_dtype == eqn.outvars[0].aval.dtype.np_dtype
            ):
                cell_of[id(eqn.outvars[0])] = cells[0]
                aliased_ids.add(id(eqn.outvars[0]))
                n_aliased += 1
                continue
            if all(c[0] == "const" for c in cells) and prim._impl is not None:
                # fold with consumer-side canonicalization of the operands
                # (what bind would do each call) but store the raw impl
                # result, which is what the interpreter's env would hold
                ivals = [_consume(consts[c[1]]) for c in cells]
                out = prim.impl(*ivals, **eqn.params)
                outs = list(out) if prim.multiple_results else [out]
                for v, o in zip(eqn.outvars, outs):
                    cell_of[id(v)] = const_cell(o)
                n_folded += 1
                continue
            for k, v in enumerate(eqn.outvars):
                cell_of[id(v)] = ("body", len(body), k)
            body.append(eqn)
            in_cells.append(cells)

        out_cells = [cell(a) for a in jaxpr.outvars]

        # ---- pass 2: consumer counts per body-produced cell --------------
        use_count: dict[tuple, int] = {}
        for cells in in_cells:
            for c in cells:
                if c[0] == "body":
                    use_count[c] = use_count.get(c, 0) + 1
        for c in out_cells:
            if c[0] == "body":
                use_count[c] = use_count.get(c, 0) + 1

        def fresh(c: tuple) -> bool:
            return c[0] == "body" and body[c[1]].prim.returns_fresh

        # ---- pass 3: fusion plan (union-find, root = final consumer) -----
        def fusible(j: int) -> bool:
            p = body[j].prim
            return p.elementwise and not p.multiple_results and p._impl is not None

        parent = list(range(len(body)))
        into_eqn: dict[int, int] = {}  # non-root member -> its consumer

        def find(j: int) -> int:
            while parent[j] != j:
                parent[j] = parent[parent[j]]
                j = parent[j]
            return j

        for j, cells in enumerate(in_cells):
            if not fusible(j):
                continue
            for c in cells:
                if (
                    c[0] == "body"
                    and use_count.get(c) == 1
                    and fusible(c[1])
                ):
                    # producer's single consumer is this eqn: same group.
                    # Root is always the later (consuming) eqn, so a group
                    # runs at its final member's position and only the
                    # root's output escapes.
                    parent[find(c[1])] = find(j)
                    into_eqn[c[1]] = j

        members: dict[int, list[int]] = {}
        for j in range(len(body)):
            members.setdefault(find(j), []).append(j)
        # a group's members run in order at the root's position
        order = [m for root in range(len(body)) for m in members.get(root, ())]
        position = {m: i for i, m in enumerate(order)}

        # ---- pass 4: one step per surviving equation ---------------------
        n_slots = n_in + len(consts)
        slot_of_cell: dict[tuple, int] = {}

        def slot(c: tuple) -> int:
            if c[0] == "in":
                return c[1]
            if c[0] == "const":
                return n_in + c[1]
            return slot_of_cell[c]

        def donation(eqn, cells):
            """(pos, np_dtype) of a donatable dying operand, or (-1, None)."""
            prim = eqn.prim
            if prim.inplace_fn is None or prim.multiple_results:
                return -1, None
            out_aval = eqn.outvars[0].aval
            if out_aval.shape == ():  # 0-d results may be NumPy scalars
                return -1, None
            for pos, (atom, c) in enumerate(zip(eqn.invars, cells)):
                if (
                    c[0] == "body"
                    and use_count.get(c) == 1
                    and fresh(c)
                    and isinstance(atom, Var)
                    and atom.aval == out_aval
                ):
                    return pos, out_aval.dtype.np_dtype
            return -1, None

        steps: list[_Step] = []
        step_outs: list[tuple[int, ...]] = []
        for m in order:
            eqn = body[m]
            dpos, ddt = donation(eqn, in_cells[m])
            fn = eqn.prim.inplace_fn if dpos >= 0 else _bind_impl(eqn.prim, eqn.params)
            srcs = tuple(slot(c) for c in in_cells[m])
            outs = tuple(range(n_slots, n_slots + len(eqn.outvars)))
            for k, s in enumerate(outs):
                slot_of_cell[("body", m, k)] = s
            n_slots += len(outs)
            step_outs.append(outs)
            multi = eqn.prim.multiple_results
            into = position[into_eqn[m]] if m in into_eqn else -1
            steps.append(_Step(
                fn, srcs, -1 if multi else outs[0], outs if multi else None,
                dpos, ddt, (), eqn, into,
            ))

        self._out_slots = [slot(c) for c in out_cells]
        self._canon_out = tuple(
            k
            for k, atom in enumerate(jaxpr.outvars)
            if isinstance(atom, Var) and id(atom) in aliased_ids
        )

        # ---- pass 5: liveness plan ---------------------------------------
        protected = set(range(n_in, n_in + len(consts))) | set(self._out_slots)
        last_use: dict[int, int] = {}
        for idx, st in enumerate(steps):
            for s in st.srcs:
                last_use[s] = idx
        frees_at: dict[int, list[int]] = {}
        for s, idx in last_use.items():
            if s not in protected:
                frees_at.setdefault(idx, []).append(s)
        for idx, outs in enumerate(step_outs):  # dead outputs die immediately
            for s in outs:
                if s not in last_use and s not in protected:
                    frees_at.setdefault(idx, []).append(s)
        self._steps = [
            st._replace(frees=tuple(sorted(frees_at.get(idx, ()))))
            for idx, st in enumerate(steps)
        ]

        # ---- bookkeeping --------------------------------------------------
        self._n_in = n_in
        self._n_consts = len(consts)
        self._template: list[Any] = [None] * n_slots
        for ci, v in enumerate(consts):
            self._template[n_in + ci] = v
        self._cell_of = cell_of
        self._slot_of_cell = slot_of_cell
        self.n_slots = n_slots
        # a fused group counts as one instruction
        self.n_instructions = len(body) - len(into_eqn)
        interp_calls = sum(3 + 2 * len(e.invars) for e in jaxpr.eqns)
        self.stats = {
            "n_eqns": len(jaxpr.eqns),
            "n_instructions": self.n_instructions,
            "folded": n_folded,
            "aliased": n_aliased,
            "fused_groups": sum(len(g) > 1 for g in members.values()),
            "fused_away": len(into_eqn),
            "donations": sum(st.dpos >= 0 for st in self._steps),
            "vm_calls_per_run": len(body),
            "interp_calls_per_run": interp_calls,
        }

    # -- introspection ------------------------------------------------------
    @property
    def free_plan(self) -> list[tuple[int, ...]]:
        """Per step, the slots freed (set to ``None``) after it."""
        return [st.frees for st in self._steps]

    def slot_of(self, var: Var) -> int:
        """Slot index holding ``var``'s value."""
        c = self._cell_of[id(var)]
        if c[0] == "in":
            return c[1]
        if c[0] == "const":
            return self._n_in + c[1]
        return self._slot_of_cell[c]

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"LinearProgram({s['n_eqns']} eqns -> {s['n_instructions']} instrs, "
            f"folded={s['folded']}, aliased={s['aliased']}, "
            f"fused={s['fused_away']}, donations={s['donations']})"
        )

    def __reduce__(self):
        """Pickle as ``linearize(jaxpr)``: ship the (picklable) source
        jaxpr and re-lower on the other side.

        The lowered form is full of things pickle cannot and should not
        carry — ``functools.partial`` over primitive impls, raw NumPy
        ufuncs, and the identity-keyed caches.  Lowering is deterministic, so rebuilding
        from the jaxpr yields a bit-identical program; pickle's memo table
        preserves sharing, so the many :class:`~repro.runtime.instructions.RunTask`
        payloads of one stage task still collapse to a single program per
        pickle (and the identity-keyed ``linearize`` cache deduplicates
        again in the receiving process).  This is what makes compiled
        per-actor programs spawn-context clean for the multi-process MPMD
        backend (:mod:`repro.runtime.mp`).
        """
        return linearize, (self.jaxpr,)

    # -- execution ----------------------------------------------------------
    def __call__(self, args: Sequence[Any]) -> list[Any]:
        if tracer.current_trace() is not None:
            # inlining semantics (autodiff / accumulate splicing) must go
            # through bind — the VM is a steady-state fast path only
            return eval_jaxpr(self.jaxpr, list(args))
        n_in = self._n_in
        if len(args) != n_in:
            raise TypeError(f"program expects {n_in} inputs, got {len(args)}")
        slots = self._template[:]
        for i in range(n_in):
            slots[i] = np.asarray(args[i])
        canon = NP_CANONICAL
        for fn, srcs, dst, dsts, dpos, ddt, frees, _, _ in self._steps:
            ivals = []
            for s in srcs:
                v = slots[s]
                t = canon.get(v.dtype)
                if t is not v.dtype:
                    if t is None:
                        raise TypeError(f"unsupported dtype: {v.dtype!r}")
                    v = np.asarray(v, t)
                ivals.append(v)
            if dsts is None:
                if dpos >= 0 and ivals[dpos].dtype is ddt:
                    slots[dst] = fn(*ivals, out=ivals[dpos])
                else:
                    slots[dst] = fn(*ivals)
            else:
                outs = fn(*ivals)
                for d, o in zip(dsts, outs):
                    slots[d] = o
            for s in frees:
                slots[s] = None
        outs = [slots[s] for s in self._out_slots]
        for k in self._canon_out:
            # outputs reached through an elided identity eqn: apply the
            # canonicalization the interpreter would have performed there
            outs[k] = _consume(outs[k])
        return outs


# ---------------------------------------------------------------------------
# program cache: stage tasks are shared across microbatches and steps, so
# one lowering amortizes over the whole schedule
# ---------------------------------------------------------------------------

class RecentPins:
    """LRU strong-pin set for weak program caches.

    The program caches here and in :mod:`repro.ir.codegen` are
    weak-valued; these pins are what keeps a program alive when nothing
    else holds it (the eager ``accumulate_grads`` reference path).  The
    pin must be refreshed on every cache *hit*, not only on misses — the
    old miss-only deque silently evicted a hot program after 128 other
    lowerings, re-lowering it on every subsequent step.  ``touch`` is
    LRU with identity-deduped entries: a re-touched program moves to the
    back instead of occupying multiple slots.
    """

    def __init__(self, maxlen: int = 128):
        self.maxlen = maxlen
        self._pins: "OrderedDict[int, Any]" = OrderedDict()

    def touch(self, prog: Any) -> None:
        key = id(prog)
        if self._pins.get(key) is prog:
            self._pins.move_to_end(key)
            return
        self._pins[key] = prog
        while len(self._pins) > self.maxlen:
            self._pins.popitem(last=False)

    def __len__(self) -> int:
        return len(self._pins)

    def __contains__(self, prog: Any) -> bool:
        return self._pins.get(id(prog)) is prog

    def clear(self) -> None:
        self._pins.clear()


#: compiled programs keyed on jaxpr identity.  Values are weak — a program
#: lives exactly as long as someone (a CompiledStep's RunTask, the pin
#: below) holds it, and each program keeps its jaxpr alive, so a dead
#: entry can never be confused with a recycled ``id()``.
_programs: "weakref.WeakValueDictionary[int, LinearProgram]" = weakref.WeakValueDictionary()
#: strong pins for recently linearized programs (keeps the eager
#: ``accumulate_grads`` reference path from re-lowering every step);
#: refreshed on hit *and* miss so hot programs never age out
_recent = RecentPins(maxlen=128)


def linearize(jaxpr: Jaxpr) -> LinearProgram:
    """Lower ``jaxpr`` to a :class:`LinearProgram`, cached on identity."""
    prog = _programs.get(id(jaxpr))
    if prog is None or prog.jaxpr is not jaxpr:
        prog = LinearProgram(jaxpr)
        _programs[id(jaxpr)] = prog
    _recent.touch(prog)
    return prog
