"""Codegen task backend: a lowered :class:`~repro.ir.linearize.LinearProgram`
emitted as one Python function, ``compile()``d once, cached on jaxpr identity.

The linear VM (:mod:`repro.ir.linearize`) already pays tracing, slot
resolution, folding, fusion, liveness, and donation planning exactly once —
but its steady state still runs a Python dispatch loop: one step unpack,
one operand-gather loop, and one dtype check *per operand per step per
microbatch per step*.  This module removes that residue.  It walks the
lowered step list once and prints it back out as straight-line Python
source over named locals:

- each slot becomes a local variable (``v12 = _f3(x0, _kc1)``), so operand
  reads are LOAD_FAST, not list indexing through an interpreter loop;
- a step the fusion plan marks nestable becomes an expression inside its
  consumer's statement (``v14 = _f7(v12, (_kc2 * v9), out=v12)``) when
  its dtype is statically known; otherwise it is a named local;
- liveness frees are ``v12 = None`` statements after the statement that
  reads the slot last; buffer donations are ``out=`` keyword calls;
- ``functools.partial`` wrappers are unwrapped: static params are emitted
  as keyword arguments bound to globals, one impl call frame per step;
- operand canonicalization is hoisted from per-consumption to
  per-production, and *elided entirely* where a static dtype-stability
  analysis proves it a no-op (see below).

What it knows about a primitive it reads from the
:class:`~repro.ir.primitives.Primitive`, and it names none: the
``emit_rule`` (or the ``numpy_fn`` / ``operator`` the impl is) gives a
call's source, ``dtype_rule`` feeds the dtype analysis, ``elementwise``
with two or more operands marks a kernel that absorbs a feeding
``broadcast_to``, and ``identity_unpartitioned`` becomes a plain alias.
Codegen keeps naming, nesting, donation, frees and dtype checks.

The source is ``compile()``d and ``exec``'d once at construction; the hot
path is then a single call of the generated function.  ``program.source``
exposes the text (also via ``python -m repro dump-codegen``), and the
generated file is registered with :mod:`linecache` so tracebacks show real
lines.

Dtype-stability analysis
------------------------

The VM canonicalizes every operand at every consumption with
:data:`~repro.ir.dtypes.NP_CANONICAL` (``float64 -> float32`` etc.).  For
values whose runtime dtype is statically known that check is dead code.
The emitter runs a forward dataflow over the instruction list: program
inputs are *assumed* to match their traced avals (the static contract an
AOT compiler holds callers to; the entry check still converts wider
storage like float64 down), constants are pre-canonicalized at build time,
and an output dtype is propagated by the primitive's ``dtype_rule``, or
when every operand and the traced output are float32/float16/bool —
NumPy's float ufuncs, contractions, reductions, and comparisons are closed
over those dtypes.  Everything else (integer arithmetic, ``argmax``-style
dtype jumps, unknown inputs) keeps a dynamic per-value check, so programs
over canonical float data run check-free while the general case stays
bit-identical to the VM.

Equivalence: results are **bit-identical** to ``task_backend="linear"``
(and therefore to :func:`~repro.ir.interpreter.eval_jaxpr`) for arguments
conforming to the traced avals; ``tests/core/test_codegen_backend.py``
asserts this across the whole schedule gallery on every engine.  Under an
active trace the program falls back to ``eval_jaxpr`` so inlining
semantics (autodiff, accumulate splicing) are preserved.  Pickling ships
only the jaxpr (``__reduce__`` re-lowers and re-generates source on the
receiving side), so ``engine="mp"`` and the persistent ``ActorPool`` ship
codegen programs unchanged.
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from collections import Counter
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.ir import tracer
from repro.ir.dtypes import NP_CANONICAL
from repro.ir.interpreter import eval_jaxpr
from repro.ir.jaxpr import Jaxpr
from repro.ir.linearize import LinearProgram, RecentPins, _consume, linearize
from repro.ir.ops import broadcast_to_p

__all__ = ["CodegenProgram", "codegen"]

#: dtypes every impl in the op set is closed over: operands of these dtypes
#: produce exactly the traced output dtype, so canonicalization checks on
#: such values are statically dead and elided from the generated source
_STABLE = frozenset(
    {np.dtype(np.float32), np.dtype(np.float16), np.dtype(np.bool_)}
)


def _predict(prim, ins_known: list, out_dts: tuple):
    """Statically known output dtype of one step, or ``None`` when the
    runtime dtype cannot be proven.

    ``ins_known`` holds the operands' statically known post-
    canonicalization dtypes (``None`` = unknown).  The general rule is
    float closure: NumPy's float ufuncs, contractions, reductions, and
    comparisons over float32/float16/bool operands produce exactly the
    traced output dtype.  A primitive's ``dtype_rule`` extends that with
    its own structure (index operands cannot leak into the output dtype,
    astype is exact, ...)."""
    rule = prim.dtype_rule
    if rule == "target":
        return out_dts[0]
    if isinstance(rule, int):
        return ins_known[rule]
    if rule == "common":
        d0 = ins_known[0]
        return d0 if d0 is not None and all(t is d0 for t in ins_known) else None
    if all(t in _STABLE for t in ins_known) and all(d in _STABLE for d in out_dts):
        return out_dts[0]
    return None


#: groups larger than this fall back to named steps instead of nested
#: expressions (keeps generated expressions within parser-friendly depth)
_MAX_NEST = 40

_fresh = itertools.count()


def _plan_broadcast_elision(steps, shape, out_set):
    """Decide which ``broadcast_to`` steps can delegate to the consumers'
    native NumPy broadcasting.

    Explicit broadcasts are materialized zero-stride views that are *slower*
    to produce and to consume than letting the consuming ufunc broadcast the
    original operand (NumPy's inner loops pay for the degenerate strides).
    A use of a broadcast output may read the pre-broadcast value instead
    when (a) the consumer is an elementwise kernel of two or more operands,
    which broadcasts natively (a unary one is excluded: its output takes
    the operand's shape, so elision would shrink the result), (b) the statically known operand shapes still
    broadcast to the consumer's traced output shape after substitution, and
    (c) the consumer does not donate into the substituted operand position
    (``out=`` must match the result shape).  The source buffer survives the
    rewritten uses untouched: the broadcast reads it too, and only a value's
    sole reader may donate it.  The emitter frees every slot after its last
    read *after* substitution, so the source's lifetime extends across the
    rewritten uses.  A broadcast whose uses are all rewritten (and which is
    not a program output) is dropped from the emitted source entirely.

    Returns ``(subs, dropped)``: ``subs`` maps ``(step_idx, operand_pos)``
    to the replacement slot, ``dropped`` is the set of fully elided steps.
    """
    subs: dict[tuple[int, int], int] = {}
    dropped: set[int] = set()
    sites: dict[int, list[tuple[int, int]]] = {}
    for i, st in enumerate(steps):
        for p, s in enumerate(st.srcs):
            sites.setdefault(s, []).append((i, p))

    def fits(shps, out_shp):
        if any(x is None for x in shps):
            return False
        try:
            return tuple(np.broadcast_shapes(*shps)) == tuple(out_shp)
        except ValueError:
            return False

    for b, stb in enumerate(steps):
        if stb.eqn.prim is not broadcast_to_p or stb.dsts is not None or stb.dpos >= 0:
            continue
        s, d = stb.srcs[0], stb.dst
        uses = sites.get(d, [])
        if not uses:
            continue
        all_ok = True
        for i, p in uses:
            st = steps[i]
            sink = st.eqn.prim.elementwise and len(st.srcs) > 1
            if not sink or st.dsts is not None or st.dpos == p:
                all_ok = False
                continue
            shps = [
                shape.get(s if q == p else subs.get((i, q), s2))
                for q, s2 in enumerate(st.srcs)
            ]
            if not fits(shps, st.eqn.outvars[0].aval.shape):
                all_ok = False
                continue
            subs[(i, p)] = s
        if all_ok and d not in out_set:
            dropped.add(b)
    return subs, dropped


def _emit(base: LinearProgram) -> tuple[str, dict, dict]:
    """Render ``base``'s step list as the source of one Python function
    ``program(a)``.

    Returns ``(source, globals, counters)`` where ``globals`` maps the
    ``_f*/_p*/_k*`` names referenced by the source to impls, static
    params, and constants, and ``counters`` holds the static per-run call
    accounting (``calls`` = guaranteed impl/asarray call sites,
    ``checks`` = residual dynamic dtype checks).
    """
    jaxpr = base.jaxpr
    n_in = base._n_in
    n_consts = base._n_consts
    template = base._template
    steps = base._steps
    out_slots = base._out_slots
    out_set = set(out_slots)
    canon_out = set(base._canon_out)

    consumed: set[int] = set()
    for st in steps:
        consumed.update(st.srcs)

    env: dict[str, Any] = {
        "_A": np.asarray,
        "_G": NP_CANONICAL.get,
        "_C": _consume,
    }
    counters = {"calls": 0, "checks": 0}

    #: slot -> static (traced) shape, for the broadcast-elision and
    #: unslice-precompute rewrites below
    shape: dict[int, tuple] = {}
    for i, v in enumerate(jaxpr.invars):
        shape[i] = tuple(v.aval.shape)
    for ci in range(n_consts):
        shape[n_in + ci] = np.shape(template[n_in + ci])
    for st in steps:
        for v, d in zip(st.eqn.outvars, st.dsts or (st.dst,)):
            shape[d] = tuple(v.aval.shape)

    subs, dropped = _plan_broadcast_elision(steps, shape, out_set)
    #: per step, the operand slots it reads after broadcast elision
    eff = [
        [subs.get((i, p), s) for p, s in enumerate(st.srcs)]
        for i, st in enumerate(steps)
    ]

    #: slot -> statically known (post-canonicalization) runtime dtype
    known: dict[int, np.dtype] = {}
    #: out slots that needed a separate canonical name for consumers
    dual: set[int] = set()

    # constants: consumers read a pre-canonicalized global (``_kc*``, built
    # once here with the exact conversion the VM performs per consumption);
    # the raw value (``_k*``) survives only when the slot is a program
    # output, mirroring the VM's raw slot template
    for ci in range(n_consts):
        s = n_in + ci
        if s in consumed:
            kc = _consume(template[s])
            env[f"_kc{ci}"] = kc
            known[s] = kc.dtype
        if s in out_set:
            env[f"_k{ci}"] = template[s]

    # inputs: assumed to conform to their traced avals (see module doc);
    # the entry check below still canonicalizes wider storage dynamically
    for i, v in enumerate(jaxpr.invars):
        d = v.aval.dtype.np_dtype
        if NP_CANONICAL.get(d) is d:
            known[i] = d

    # step results: the dtypes the analysis proves (recorded even for
    # dropped broadcasts: consumers read the un-broadcast source, whose
    # dtype the broadcast preserves)
    for i, st in enumerate(steps):
        if st.dsts is None:
            t = _predict(
                st.eqn.prim,
                [known.get(s) for s in eff[i]],
                (st.eqn.outvars[0].aval.dtype.np_dtype,),
            )
            if t is not None:
                known[st.dst] = t

    # nesting: a marked step becomes an expression inside its consumer's
    # statement when its dtype is known (no check to hoist), it is not the
    # consumer's donated operand (``out=`` targets are names, referenced
    # twice), and its fused group is small enough
    root = list(range(len(steps)))
    for i in reversed(range(len(steps))):
        if steps[i].into >= 0:
            root[i] = root[steps[i].into]
    group_size = Counter(root)
    nested: set[int] = set()
    for i, st in enumerate(steps):
        if st.into < 0 or st.dst not in known or group_size[root[i]] > _MAX_NEST:
            continue
        c = steps[st.into]
        if not (c.dpos >= 0 and c.srcs[c.dpos] == st.dst):
            nested.add(i)
    #: the step whose statement evaluates each step (itself unless nested)
    at = list(range(len(steps)))
    for i in reversed(range(len(steps))):
        if i in nested:
            at[i] = at[steps[i].into]

    # frees: a slot dies after the statement that reads it last — for a
    # read inside a nested expression that is the consumer's statement,
    # for a broadcast source it is the last rewritten use
    last_read: dict[int, int] = {}
    for i, srcs in enumerate(eff):
        for s in srcs:
            last_read[s] = max(last_read.get(s, -1), at[i])

    def raw(s: int) -> str:
        if s < n_in:
            return f"x{s}"
        if s < n_in + n_consts:
            return f"_k{s - n_in}"
        return f"v{s}"

    unbound = {steps[i].dst for i in nested | dropped}
    #: per statement, the names rebound to ``None`` after it
    frees_after: dict[int, list[str]] = {}
    for i, st in enumerate(steps):
        for s in st.frees:
            if s not in unbound:
                site = max(at[i], last_read.get(s, -1))
                frees_after.setdefault(site, []).append(raw(s))

    def use(s: int) -> str:
        if n_in <= s < n_in + n_consts:
            return f"_kc{s - n_in}"
        return f"c{s}" if s in dual else raw(s)

    lines: list[str] = [f"def program(a):"]

    def emit(stmt: str) -> None:
        lines.append("    " + stmt)

    def specialize(tag: str, prim, params: dict, args: list[str], knowns, srcs):
        """The primitive's own source for one non-donating call, when it
        has one (same kernel, same bits, fewer frames): its ``emit_rule``,
        else a direct call of the NumPy function its impl is; ``None``
        otherwise.  Returns the expression and any statement tails (see
        ``Primitive.emit_rule``).  ``a * b`` on ndarrays runs the same ufunc
        as ``np.multiply(a, b)`` through the number-protocol slot, ~100 ns
        cheaper (no argument tuple, no name load), so a ufunc with an
        ``operator`` is spelled with it."""
        if prim.emit_rule is not None:

            def name(key: str) -> str:
                return f"_f{tag}" if key == "f" else f"_p{tag}_{key}"

            shapes = [shape.get(s) for s in srcs]
            out = prim.emit_rule(args, params, knowns, shapes, name)
            if out is not None:
                exprs, consts = out
                env.update(consts)
                return exprs
        if prim.numpy_fn is None:
            return None
        op = prim.operator
        if op is not None:
            if len(args) == 2:
                return (f"({args[0]} {op} {args[1]})",)
            return (f"({op}{args[0]})",)
        env[f"_f{tag}"] = prim.numpy_fn
        return (f"_f{tag}({', '.join(args)})",)

    def call_expr(tag: str, fn: Any, args: list[str], out: str | None = None) -> str:
        """Register ``fn`` in the globals and render one call expression.

        ``functools.partial`` wrappers are unwrapped: the raw impl is the
        global and its static params are emitted as keyword arguments over
        per-site globals, so the generated call pays no wrapper frame."""
        kws: list[str] = []
        if isinstance(fn, partial) and not fn.args:
            for k, val in fn.keywords.items():
                g = f"_p{tag}_{k}"
                env[g] = val
                kws.append(f"{k}={g}")
            fn = fn.func
        g = f"_f{tag}"
        env[g] = fn
        parts = list(args)
        if out is not None:
            parts.append(f"out={out}")
        parts.extend(kws)
        return f"{g}({', '.join(parts)})"

    def check(s: int) -> None:
        """One dynamic canonicalization of a produced value or input."""
        counters["checks"] += 1
        r = raw(s)
        if s in out_set:
            # consumers need the canonical value but the program returns
            # the raw one (VM slots hold raw values): keep both names, the
            # canonical one dying after its last read
            dual.add(s)
            emit(f"c{s} = {r} if _G({r}.dtype) is {r}.dtype else _C({r})")
            frees_after.setdefault(last_read[s], []).append(f"c{s}")
        else:
            emit(f"if _G({r}.dtype) is not {r}.dtype: {r} = _C({r})")

    def after_produce(s: int) -> None:
        """Hoisted canonicalization: emitted once per produced value (the
        VM re-checks per consumption), skipped when statically dead."""
        if s in consumed and known.get(s) is None:
            check(s)

    # ---- entry: arity check + input canonicalization ---------------------
    emit(f"if len(a) != {n_in}:")
    emit(f'    raise TypeError("program expects {n_in} inputs, got %d" % len(a))')
    for i in range(n_in):
        if i in consumed or i in out_set:
            emit(f"x{i} = _A(a[{i}])")
            counters["calls"] += 1
            if i in consumed:
                check(i)

    # ---- body: one statement group per step that is not nested -----------
    expr_of: dict[int, str] = {}  # nested step results, read once

    def arg(s: int) -> str:
        return expr_of.pop(s) if s in expr_of else use(s)

    for idx, (fn, srcs, dst, dsts, dpos, ddt, _, eqn, _) in enumerate(steps):
        prim, tag = eqn.prim, str(idx)
        knowns = [known.get(s) for s in eff[idx]]
        args = [arg(s) for s in eff[idx]]
        if idx not in nested:
            emit(f"# [{idx}] {prim.name}")
        if dsts is not None:
            # multi-result primitive: no stability claim, unpack the results
            counters["calls"] += 1
            targets = ", ".join(raw(d) for d in dsts)
            emit(f"[{targets}] = {call_expr(tag, fn, args)}")
            for d in dsts:
                after_produce(d)
        elif idx in dropped:
            # fully elided broadcast: every consumer reads the
            # un-broadcast operand and lets the kernel broadcast natively
            emit("# elided: consumers broadcast natively")
        elif prim.identity_unpartitioned and dpos < 0:
            # the impl is the identity — a plain alias, no call frame
            emit(f"{raw(dst)} = {args[0]}")
        else:
            if dpos >= 0:
                on = use(srcs[dpos])
                rhs = call_expr(tag, fn, args, out=on)
                if known.get(srcs[dpos]) is not ddt:
                    env[f"_d{idx}"] = ddt
                    rhs = (
                        f"({rhs} if {on}.dtype is _d{idx}"
                        f" else {call_expr(tag, fn, args)})"
                    )
                exprs = (rhs,)
            else:
                exprs = specialize(tag, prim, eqn.params, args, knowns, eff[idx])
                exprs = exprs or (call_expr(tag, fn, args),)
            counters["calls"] += len(exprs)
            if idx in nested:
                expr_of[dst] = exprs[0]
                continue
            emit(f"{raw(dst)} = {exprs[0]}")
            for tail in exprs[1:]:
                emit(f"{raw(dst)}{tail}")
        if dsts is None and idx not in dropped:
            after_produce(dst)
        for name in frees_after.get(idx, ()):
            emit(f"{name} = None")

    # ---- return: raw slot values, aliased outputs canonicalized ----------
    rets = []
    for k, s in enumerate(out_slots):
        nm = raw(s)
        if k in canon_out:
            nm = f"_C({nm})"
            counters["calls"] += 1
        rets.append(nm)
    emit(f"return [{', '.join(rets)}]")

    return "\n".join(lines) + "\n", env, counters


class CodegenProgram:
    """A jaxpr lowered through :func:`~repro.ir.linearize.linearize` and
    emitted as one exec-compiled Python function.

    Calling the program with a flat list of arguments runs the generated
    function (bit-identical to the linear VM for aval-conforming
    arguments); under an active trace it delegates to ``eval_jaxpr`` so
    the jaxpr inlines into the outer trace.

    Attributes:
        jaxpr: the source program (kept for the traced fallback + pickle).
        program: the underlying (cached) :class:`LinearProgram` lowering.
        source: the generated Python source text.
        stats: the lowering stats of ``program`` plus
            ``codegen_calls_per_run`` (guaranteed Python-level call sites
            the generated function performs per run: impls, input
            conversions, residual dtype checks) and
            ``codegen_residual_checks`` (how many dynamic dtype checks the
            stability analysis could *not* elide).
    """

    def __init__(self, jaxpr: Jaxpr):
        self.jaxpr = jaxpr
        self.program = linearize(jaxpr)
        source, env, counters = _emit(self.program)
        self.source = source
        filename = f"<repro.codegen:{next(_fresh)}>"
        code = compile(source, filename, "exec")
        exec(code, env)
        self._fn = env["program"]
        # make tracebacks into generated code show real source lines
        linecache.cache[filename] = (
            len(source),
            None,
            source.splitlines(keepends=True),
            filename,
        )
        self.n_instructions = self.program.n_instructions
        self.stats = dict(self.program.stats)
        self.stats["codegen_calls_per_run"] = counters["calls"] + counters["checks"]
        self.stats["codegen_residual_checks"] = counters["checks"]

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"CodegenProgram({s['n_eqns']} eqns -> {s['n_instructions']} instrs, "
            f"{len(self.source.splitlines())} source lines, "
            f"calls/run={s['codegen_calls_per_run']})"
        )

    def __reduce__(self):
        """Pickle as ``codegen(jaxpr)``: ship the (picklable) source jaxpr
        and re-lower + re-generate source on the other side.  Emission is
        deterministic, so the regenerated program is bit-identical; pickle
        memo sharing plus the identity-keyed cache collapse the many
        ``RunTask`` payloads of one stage task to one program per process,
        exactly like :class:`LinearProgram`."""
        return codegen, (self.jaxpr,)

    def __call__(self, args: Sequence[Any]) -> list[Any]:
        if tracer.current_trace() is not None:
            # inlining semantics (autodiff / accumulate splicing) must go
            # through bind — generated code is a steady-state path only
            return eval_jaxpr(self.jaxpr, list(args))
        return self._fn(args)


# ---------------------------------------------------------------------------
# program cache: same jaxpr-identity pattern as ``linearize`` — stage tasks
# are shared across microbatches and steps, so one emission amortizes over
# the whole schedule
# ---------------------------------------------------------------------------

_programs: "weakref.WeakValueDictionary[int, CodegenProgram]" = (
    weakref.WeakValueDictionary()
)
#: shared pinning helper (see :class:`repro.ir.linearize.RecentPins`):
#: refreshed on hit *and* miss so hot programs never age out of the pin
#: set while 128 other lowerings stream past
_recent = RecentPins(maxlen=128)


def codegen(jaxpr: Jaxpr) -> CodegenProgram:
    """Emit + compile ``jaxpr``'s generated function, cached on identity."""
    prog = _programs.get(id(jaxpr))
    if prog is None or prog.jaxpr is not jaxpr:
        prog = CodegenProgram(jaxpr)
        _programs[id(jaxpr)] = prog
    _recent.touch(prog)
    return prog
