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
  its dtype is statically known; otherwise it is a named local like any
  other step;
- liveness frees are emitted as ``v12 = None`` statements after the
  statement that reads the slot last;
- buffer donations are emitted as ``out=`` keyword calls;
- ``functools.partial`` wrappers are unwrapped: static params are emitted
  as literal keyword arguments bound to globals, so each instruction costs
  exactly one impl call frame;
- operand canonicalization is hoisted from per-consumption to
  per-production, and *elided entirely* where a static dtype-stability
  analysis proves it a no-op (see below).

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
inputs are *assumed* to match their traced avals (after entry
canonicalization — the same static contract an AOT compiler holds callers
to; the entry check still converts wider storage like float64 down),
constants are pre-canonicalized at build time so their dtype is exact, and
an instruction's output dtype is propagated when every operand dtype is
known to be float32/float16/bool and the traced output dtype is too —
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

__all__ = ["CodegenProgram", "codegen"]

#: dtypes every impl in the op set is closed over: operands of these dtypes
#: produce exactly the traced output dtype, so canonicalization checks on
#: such values are statically dead and elided from the generated source
_STABLE = frozenset(
    {np.dtype(np.float32), np.dtype(np.float16), np.dtype(np.bool_)}
)

#: impls whose output dtype equals one operand's *actual* dtype exactly,
#: whatever it is — layout ops (np.reshape/transpose/... preserve storage),
#: gathers (np.take returns the table's dtype), and scatter_add (the output
#: buffer is allocated with the updates' dtype); the value is that operand's
#: position
_PRESERVES = {
    "reshape": 0,
    "transpose": 0,
    "broadcast_to": 0,
    "slice": 0,
    "unslice": 0,
    "take": 0,
    "scatter_add": 1,
    "shard_constraint": 0,
}

#: impls that emit exactly the traced target dtype regardless of operand
#: storage (astype-style conversions)
_STATIC_OUT = frozenset({"convert"})

#: multi-operand promotion that collapses to identity when every operand
#: shares one dtype (np.concatenate)
_ALL_SAME = frozenset({"concatenate"})

#: kernel specializations: primitives whose impl is *exactly* one NumPy
#: C entry point (possibly behind a Python wrapper frame in ops.py).
#: Generated code calls the C function directly — same kernel, same bits,
#: one frame per instruction instead of two.  Comparison impls wrap the
#: ufunc in ``np.asarray(..., bool)``, which is the identity for every
#: non-0-d result (the ufuncs already return bool), so binding the raw
#: ufunc is value- and dtype-identical.
_UFUNC_IMPLS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "pow": np.power,
    "greater": np.greater,
    "greater_equal": np.greater_equal,
    "less": np.less,
    "less_equal": np.less_equal,
    "equal": np.equal,
    "not_equal": np.not_equal,
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "sign": np.sign,
    "logical_not": np.logical_not,
    "matmul": np.matmul,
    "where": np.where,
}

# ufunc -> Python operator: ``a * b`` on ndarrays invokes the exact same
# ufunc through the number-protocol slot, ~100ns cheaper than the explicit
# ``np.multiply(a, b)`` call (no argument-tuple build, no name load)
_OPERATOR_OF = {
    np.add: "+",
    np.subtract: "-",
    np.multiply: "*",
    np.true_divide: "/",
    np.power: "**",
    np.greater: ">",
    np.greater_equal: ">=",
    np.less: "<",
    np.less_equal: "<=",
    np.equal: "==",
    np.not_equal: "!=",
}

_FLOATS = frozenset({np.dtype(np.float32), np.dtype(np.float16)})


def _predict(name: str, ins_known: list, out_dts: tuple):
    """Statically known output dtype of one step, or ``None`` when the
    runtime dtype cannot be proven.

    ``ins_known`` holds the operands' statically known post-
    canonicalization dtypes (``None`` = unknown).  The general rule is
    float closure: NumPy's float ufuncs, contractions, reductions, and
    comparisons over float32/float16/bool operands produce exactly the
    traced output dtype.  ``_PRESERVES``/``_STATIC_OUT``/``_ALL_SAME``
    extend that with per-primitive structure (index operands cannot leak
    into the output dtype, astype is exact, ...)."""
    if name in _STATIC_OUT:
        return out_dts[0]
    p = _PRESERVES.get(name)
    if p is not None:
        return ins_known[p]
    if name in _ALL_SAME:
        d0 = ins_known[0]
        if d0 is not None and all(t is d0 for t in ins_known):
            return d0
        return None
    if all(t in _STABLE for t in ins_known) and all(d in _STABLE for d in out_dts):
        return out_dts[0]
    return None


#: groups larger than this fall back to named steps instead of nested
#: expressions (keeps generated expressions within parser-friendly depth)
_MAX_NEST = 40

#: multi-operand elementwise primitives whose NumPy kernels broadcast
#: natively: feeding them a pre-``broadcast_to`` operand or the original
#: (smaller) value is the same C loop over the same elements, so an explicit
#: ``broadcast_to`` whose consumers all sit here can be elided entirely.
#: Unary elementwise ops are excluded — their output takes the operand's
#: shape, so elision would shrink the result.
_BCAST_SINKS = frozenset(
    {
        "add", "sub", "mul", "div", "pow", "maximum", "minimum",
        "greater", "greater_equal", "less", "less_equal", "equal",
        "not_equal", "where",
    }
)

_fresh = itertools.count()


def _plan_broadcast_elision(steps, shape, out_set):
    """Decide which ``broadcast_to`` steps can delegate to the consumers'
    native NumPy broadcasting.

    Explicit broadcasts are materialized zero-stride views that are *slower*
    to produce and to consume than letting the consuming ufunc broadcast the
    original operand (NumPy's inner loops pay for the degenerate strides).
    A use of a broadcast output may read the pre-broadcast value instead
    when (a) the consumer is a multi-operand elementwise kernel
    (``_BCAST_SINKS``), (b) the statically known operand shapes still
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
        if stb.eqn.prim.name != "broadcast_to" or stb.dsts is not None or stb.dpos >= 0:
            continue
        s, d = stb.srcs[0], stb.dst
        uses = sites.get(d, [])
        if not uses:
            continue
        all_ok = True
        for i, p in uses:
            st = steps[i]
            if st.eqn.prim.name not in _BCAST_SINKS or st.dsts is not None or st.dpos == p:
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
        "_Z": np.zeros,
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
                st.eqn.prim.name,
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

    def specialize(tag: str, name: str, fn: Any, args: list[str], knowns) -> str | None:
        """Render a call directly against the impl's underlying NumPy C
        entry point when that is provably bit-identical, else ``None``.

        - ``_UFUNC_IMPLS``: the ops.py impl *is* that ufunc (modulo a
          wrapper frame / a no-op bool asarray);
        - ``div``: the impl forces ``dtype=result_type(x, y)`` — for two
          float operands of one known dtype that is the ufunc's default
          loop, so plain ``np.divide`` is identical;
        - ``reduce_sum``/``reduce_max``: ``np.sum``/``np.max`` dispatch to
          ``np.add.reduce``/``np.maximum.reduce`` (same C reduction, same
          pairwise order); the impl's explicit ``dtype=x.dtype`` matches
          the default accumulator for float operands, so the reduction is
          called directly when the operand dtype is a known float;
        - ``reshape``/``transpose``: ``np.reshape``/``np.transpose``
          delegate to the array method with the same static argument.
        """
        uf = _UFUNC_IMPLS.get(name)
        if uf is not None:
            op = _OPERATOR_OF.get(uf)
            if op is not None and len(args) == 2:
                return f"({args[0]} {op} {args[1]})"
            if uf is np.negative and len(args) == 1:
                return f"(-{args[0]})"
            g = f"_f{tag}"
            env[g] = uf
            return f"{g}({', '.join(args)})"
        if name == "div":
            if (
                knowns
                and len(knowns) == 2
                and knowns[0] is knowns[1]
                and knowns[0] in _FLOATS
            ):
                return f"({args[0]} / {args[1]})"
            return None
        if (
            name in ("reduce_sum", "reduce_max")
            and isinstance(fn, partial)
            and knowns
            and knowns[0] in _FLOATS
        ):
            g = f"_f{tag}"
            env[g] = np.add.reduce if name == "reduce_sum" else np.maximum.reduce
            env[f"_p{tag}_axis"] = fn.keywords["axes"]
            env[f"_p{tag}_kd"] = fn.keywords["keepdims"]
            return f"{g}({args[0]}, axis=_p{tag}_axis, keepdims=_p{tag}_kd)"
        if name in ("reshape", "transpose") and isinstance(fn, partial):
            key = "new_sizes" if name == "reshape" else "perm"
            g = f"_p{tag}_{key}"
            env[g] = fn.keywords[key]
            return f"{args[0]}.{name}({g})"
        return None

    def call_expr(
        tag: str,
        fn: Any,
        args: list[str],
        out: str | None = None,
        name: str | None = None,
        knowns: list | None = None,
    ) -> str:
        """Register ``fn`` in the globals and render one call expression.

        ``functools.partial`` wrappers are unwrapped: the raw impl is the
        global and its static params are emitted as keyword arguments over
        per-site globals, so the generated call pays no wrapper frame.
        When ``name`` is given (and the call is not a donation), kernel
        specialization may bind the NumPy C entry point directly."""
        if out is None and name is not None:
            sp = specialize(tag, name, fn, args, knowns)
            if sp is not None:
                return sp
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
        nm = eqn.prim.name
        knowns = [known.get(s) for s in eff[idx]]
        args = [arg(s) for s in eff[idx]]
        if idx not in nested:
            emit(f"# [{idx}] {nm}")
        if dsts is not None:
            # multi-result primitive: no stability claim, unpack the results
            counters["calls"] += 1
            targets = ", ".join(raw(d) for d in dsts)
            emit(f"[{targets}] = {call_expr(str(idx), fn, args)}")
            for d in dsts:
                after_produce(d)
        elif idx in dropped:
            # fully elided broadcast: every consumer reads the
            # un-broadcast operand and lets the kernel broadcast natively
            emit("# elided: consumers broadcast natively")
        elif nm == "shard_constraint" and dpos < 0:
            # the impl is the identity — a plain alias, no call frame
            emit(f"{raw(dst)} = {args[0]}")
        elif (
            nm == "slice"
            and dpos < 0
            and isinstance(fn, partial)
            and not fn.args
        ):
            # static strided-1 slice: a precomputed index tuple turns
            # the impl frame + per-call genexpr into one subscript
            env[f"_p{idx}_ix"] = tuple(
                slice(st, li)
                for st, li in zip(fn.keywords["starts"], fn.keywords["limits"])
            )
            counters["calls"] += 1
            emit(f"{raw(dst)} = {args[0]}[_p{idx}_ix]")
        elif nm == "take" and dpos < 0:
            # np.take(x, idx, axis=0) == x.take(idx, 0): same C gather,
            # no dispatcher frame
            counters["calls"] += 1
            emit(f"{raw(dst)} = {args[0]}.take({args[1]}, 0)")
        elif (
            nm == "unslice"
            and dpos < 0
            and isinstance(fn, partial)
            and not fn.args
            and shape.get(eff[idx][0]) is not None
        ):
            # adjoint of slice: zeros + one precomputed-setitem — the
            # embed index only depends on the operand's static shape
            env[f"_p{idx}_sh"] = tuple(fn.keywords["shape"])
            env[f"_p{idx}_ix"] = tuple(
                slice(st, st + dd)
                for st, dd in zip(fn.keywords["starts"], shape[eff[idx][0]])
            )
            counters["calls"] += 2
            if knowns[0] is not None:
                env[f"_p{idx}_dt"] = knowns[0]
                emit(f"{raw(dst)} = _Z(_p{idx}_sh, _p{idx}_dt)")
            else:
                emit(f"{raw(dst)} = _Z(_p{idx}_sh, {args[0]}.dtype)")
            emit(f"{raw(dst)}[_p{idx}_ix] = {args[0]}")
        elif (
            nm == "matmul"
            and dpos < 0
            and len(eff[idx]) == 2
            and knowns[0] in _FLOATS
            and knowns[1] in _FLOATS
            and len(shape.get(eff[idx][0], ())) == 2
            and len(shape.get(eff[idx][1], ())) == 2
        ):
            # 2-D float matmul: np.dot reaches the same GEMM with a
            # slightly thinner wrapper than the np.matmul gufunc.  Every
            # weight GEMM lands here (ops.matmul flattens (..., K) @ (K, N)
            # to 2-D), dX and dW with transposed-view operands; the
            # codegen suite pins np.dot == np.matmul bits on all layouts
            env.setdefault("_dot", np.dot)
            counters["calls"] += 1
            emit(f"{raw(dst)} = _dot({args[0]}, {args[1]})")
        else:
            counters["calls"] += 1
            if dpos >= 0:
                on = use(srcs[dpos])
                rhs = call_expr(str(idx), fn, args, out=on)
                if known.get(srcs[dpos]) is not ddt:
                    env[f"_d{idx}"] = ddt
                    rhs = (
                        f"({rhs} if {on}.dtype is _d{idx}"
                        f" else {call_expr(str(idx), fn, args)})"
                    )
            else:
                rhs = call_expr(str(idx), fn, args, name=nm, knowns=knowns)
            if idx in nested:
                expr_of[dst] = rhs
                continue
            emit(f"{raw(dst)} = {rhs}")
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
