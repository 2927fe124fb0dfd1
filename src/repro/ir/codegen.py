"""Codegen task backend: a lowered :class:`~repro.ir.linearize.LinearProgram`
emitted as one Python function, ``compile()``d once, cached on jaxpr identity.

The linear VM (:mod:`repro.ir.linearize`) already pays tracing, slot
resolution, folding, fusion, liveness, and donation planning exactly once —
but its steady state still runs a Python dispatch loop: one 7-tuple unpack,
one operand-gather loop, and one dtype check *per operand per instruction
per microbatch per step*.  This module removes that residue.  It walks the
lowered instruction list and prints it back out as straight-line Python
source over named locals:

- each slot becomes a local variable (``v12 = _f3(x0, _kc1)``), so operand
  reads are LOAD_FAST, not list indexing through an interpreter loop;
- fused elementwise chains are inlined as nested expressions — no
  :class:`~repro.ir.linearize.FusedChain` register file at runtime;
- liveness frees are emitted as ``v12 = None`` statements;
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
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.ir import tracer
from repro.ir.dtypes import NP_CANONICAL
from repro.ir.interpreter import eval_jaxpr
from repro.ir.jaxpr import Jaxpr
from repro.ir.linearize import FusedChain, LinearProgram, RecentPins, _consume, linearize

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
    """Statically known output dtype of one instruction (or chain step),
    or ``None`` when the runtime dtype cannot be proven.

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

#: chains longer than this fall back to named temporaries instead of nested
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


def _plan_broadcast_elision(instrs, instr_names, instr_out_shp, shape, out_set):
    """Decide which ``broadcast_to`` instructions can delegate to the
    consumers' native NumPy broadcasting.

    Explicit broadcasts are materialized zero-stride views that are *slower*
    to produce and to consume than letting the consuming ufunc broadcast the
    original operand (NumPy's inner loops pay for the degenerate strides).
    A use of a broadcast output may read the pre-broadcast value instead
    when (a) the consumer is a multi-operand elementwise kernel
    (``_BCAST_SINKS``, including fused-chain steps), (b) the statically
    known operand shapes still broadcast to the consumer's traced output
    shape after substitution, and (c) the consumer does not donate into the
    substituted operand position (``out=`` must match the result shape).
    The source value's lifetime is extended across the rewritten uses: the
    plan rejects the elision if the source buffer is donated away in
    between, and relocates its liveness free when it originally died
    earlier.  A broadcast whose uses are all rewritten (and which is not a
    program output) is dropped from the emitted source entirely.

    Returns ``(subs, chain_subs, dropped, moved_free)`` where ``subs`` maps
    ``(instr_idx, operand_pos)`` and ``chain_subs`` maps ``(instr_idx,
    step_idx, operand_pos)`` to the replacement slot, ``dropped`` is the set
    of fully elided instruction indices, and ``moved_free`` maps a source
    slot to the instruction index after which its relocated free runs.
    """
    subs: dict[tuple[int, int], int] = {}
    chain_subs: dict[tuple[int, int, int], int] = {}
    dropped: set[int] = set()
    moved_free: dict[int, int] = {}

    free_at: dict[int, int] = {}
    sites: dict[int, list[tuple]] = {}
    for i2, (fn2, srcs2, _, _, _, _, fr2) in enumerate(instrs):
        for s2 in fr2:
            free_at[s2] = i2
        if isinstance(fn2, FusedChain):
            for k2, st in enumerate(fn2.steps):
                for p2, r2 in enumerate(st[1]):
                    if r2 < fn2.n_ext:
                        sites.setdefault(srcs2[r2], []).append(("c", i2, k2, p2))
        else:
            for p2, s2 in enumerate(srcs2):
                sites.setdefault(s2, []).append(("i", i2, p2))

    def fits(shps, out_shp):
        if any(x is None for x in shps):
            return False
        try:
            return tuple(np.broadcast_shapes(*shps)) == tuple(out_shp)
        except ValueError:
            return False

    for b, (fnb, srcsb, dstb, dstsb, dposb, _, _) in enumerate(instrs):
        if (
            instr_names[b] != "broadcast_to"
            or isinstance(fnb, FusedChain)
            or dstsb is not None
            or dposb >= 0
        ):
            continue
        s, d = srcsb[0], dstb
        uses = sites.get(d, [])
        if not uses:
            continue
        # tentative rewrites for *this* broadcast; committed only if the
        # source's lifetime can be extended safely
        tsubs: dict[tuple[int, int], int] = {}
        tchain: dict[tuple[int, int, int], int] = {}
        all_ok = True
        for u in uses:
            if u[0] == "i":
                _, i2, p2 = u
                fn2, srcs2, _, dsts2, dpos2, _, _ = instrs[i2]
                if instr_names[i2] not in _BCAST_SINKS or dsts2 is not None or dpos2 == p2:
                    all_ok = False
                    continue
                shps = []
                for q, s3 in enumerate(srcs2):
                    if q == p2:
                        shps.append(shape.get(s))
                    else:
                        eff = tsubs.get((i2, q), subs.get((i2, q), s3))
                        shps.append(shape.get(eff))
                if not fits(shps, instr_out_shp[i2][0]):
                    all_ok = False
                    continue
                tsubs[(i2, p2)] = s
            else:
                _, i2, k2, p2 = u
                fn2, srcs2 = instrs[i2][0], instrs[i2][1]
                st = fn2.steps[k2]
                if (
                    fn2.out_shapes is None
                    or instr_names[i2].split("+")[k2] not in _BCAST_SINKS
                    or st[3] == p2
                ):
                    all_ok = False
                    continue
                shps = []
                for q, r3 in enumerate(st[1]):
                    if q == p2:
                        shps.append(shape.get(s))
                    elif r3 < fn2.n_ext:
                        key = (i2, k2, q)
                        eff = tchain.get(key, chain_subs.get(key, srcs2[r3]))
                        shps.append(shape.get(eff))
                    else:
                        shps.append(fn2.out_shapes[r3 - fn2.n_ext])
                if not fits(shps, fn2.out_shapes[k2]):
                    all_ok = False
                    continue
                tchain[(i2, k2, p2)] = s
        if not tsubs and not tchain:
            continue
        last = max(k[0] for k in tsubs) if tsubs else -1
        for k in tchain:
            last = max(last, k[0])
        # the source buffer must survive untouched through the last
        # rewritten use: reject if it is donated away in between
        donated = False
        for i2 in range(b + 1, last + 1):
            fn2, srcs2, _, _, dpos2, _, _ = instrs[i2]
            if not isinstance(fn2, FusedChain) and dpos2 >= 0 and srcs2[dpos2] == s:
                donated = True
                break
        if donated:
            continue
        fa = moved_free.get(s, free_at.get(s))
        if fa is not None and b <= fa < last:
            moved_free[s] = last
        subs.update(tsubs)
        chain_subs.update(tchain)
        if all_ok and d not in out_set:
            dropped.add(b)
    return subs, chain_subs, dropped, moved_free


def _emit(base: LinearProgram) -> tuple[str, dict, dict]:
    """Render ``base``'s instruction list as the source of one Python
    function ``program(a)``.

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
    instrs = base._instrs
    instr_names = base._instr_names
    instr_out_dts = base._instr_out_dtypes
    instr_out_shp = base._instr_out_shapes
    out_slots = base._out_slots
    out_set = set(out_slots)
    canon_out = set(base._canon_out)

    consumed: set[int] = set()
    for ins in instrs:
        consumed.update(ins[1])

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
    for idx, ins in enumerate(instrs):
        produced = ins[3] if ins[3] is not None else (ins[2],)
        for k, d in enumerate(produced):
            shape[d] = tuple(instr_out_shp[idx][k])

    subs, chain_subs, dropped, moved_free = _plan_broadcast_elision(
        instrs, instr_names, instr_out_shp, shape, out_set
    )
    moved_by_site: dict[int, list[int]] = {}
    for s, site in moved_free.items():
        moved_by_site.setdefault(site, []).append(s)

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

    def raw(s: int) -> str:
        if s < n_in:
            return f"x{s}"
        if s < n_in + n_consts:
            return f"_k{s - n_in}"
        return f"v{s}"

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

    def after_produce(s: int) -> None:
        """Hoisted canonicalization: emitted once per produced value (the
        VM re-checks per consumption), skipped when statically dead."""
        if s not in consumed or known.get(s) is not None:
            return
        counters["checks"] += 1
        r = raw(s)
        if s in out_set:
            # consumers need the canonical value but the program returns
            # the raw one (VM slots hold raw values): keep both names
            dual.add(s)
            emit(f"c{s} = {r} if _G({r}.dtype) is {r}.dtype else _C({r})")
        else:
            emit(f"if _G({r}.dtype) is not {r}.dtype: {r} = _C({r})")

    def emit_chain(idx: int, chain: FusedChain, srcs: tuple, out_slot: int) -> None:
        steps = chain.steps
        step_dts = chain.out_dtypes or (None,) * len(steps)
        step_names = chain.name.split("+")
        n_ext = chain.n_ext
        root_k = len(steps) - 1
        # consuming step per internal register (single consumer by fusion
        # construction; external registers may be read by several steps)
        consumer: dict[int, int] = {}
        for k, (_, ss, _, _, _) in enumerate(steps):
            for r in ss:
                if r >= n_ext and r not in consumer:
                    consumer[r] = k
        rknown: dict[int, np.dtype] = {
            j: known.get(s) for j, s in enumerate(srcs)  # ext register dtypes
        }
        namer: dict[int, str] = {j: use(s) for j, s in enumerate(srcs)}
        expr_of: dict[int, str] = {}  # nested (not yet named) step results
        allow_nest = len(steps) <= _MAX_NEST
        for k, (fn, ss, d, dp, dd) in enumerate(steps):
            predicted = (
                _predict(step_names[k], [rknown.get(r) for r in ss], (step_dts[k],))
                if step_dts[k] is not None
                else None
            )
            args = []
            for p, r in enumerate(ss):
                t = chain_subs.get((idx, k, p)) if r < n_ext else None
                if t is not None:
                    args.append(use(t))  # elided broadcast: read the source
                elif r in expr_of:
                    args.append(expr_of[r])
                else:
                    args.append(namer[r])
            tag = f"{idx}_{k}"
            if dp >= 0:
                on = namer[ss[dp]]  # the donated register is always named
                dcall = call_expr(tag, fn, args, out=on)
                if rknown.get(ss[dp]) is dd:
                    rhs = dcall
                else:
                    env[f"_d{tag}"] = dd
                    rhs = f"({dcall} if {on}.dtype is _d{tag} else {call_expr(tag, fn, args)})"
            else:
                rhs = call_expr(
                    tag,
                    fn,
                    args,
                    name=step_names[k],
                    knowns=[rknown.get(r) for r in ss],
                )
            counters["calls"] += 1
            if predicted is not None:
                rknown[d] = predicted
            ck = consumer.get(d)
            nest = (
                allow_nest
                and k != root_k
                and predicted is not None
                and ck is not None
                # never nest into the consumer's donated operand position:
                # ``out=`` targets must be names (referenced twice)
                and not (steps[ck][3] >= 0 and steps[ck][1][steps[ck][3]] == d)
            )
            if nest:
                expr_of[d] = f"({rhs})"
                continue
            if k == root_k:
                emit(f"{raw(out_slot)} = {rhs}")
            else:
                t = f"t{idx}_{k}"
                emit(f"{t} = {rhs}")
                namer[d] = t
                if predicted is None:
                    # the VM canonicalizes this register at its consuming
                    # step; hoist that check to production
                    counters["checks"] += 1
                    emit(f"if _G({t}.dtype) is not {t}.dtype: {t} = _C({t})")
        if rknown.get(steps[root_k][2]) is not None:
            known[out_slot] = rknown[steps[root_k][2]]
        after_produce(out_slot)

    # ---- entry: arity check + input canonicalization ---------------------
    emit(f"if len(a) != {n_in}:")
    emit(f'    raise TypeError("program expects {n_in} inputs, got %d" % len(a))')
    for i in range(n_in):
        if i in consumed or i in out_set:
            emit(f"x{i} = _A(a[{i}])")
            counters["calls"] += 1
            if i in consumed:
                counters["checks"] += 1
                if i in out_set:
                    dual.add(i)
                    emit(f"c{i} = x{i} if _G(x{i}.dtype) is x{i}.dtype else _C(x{i})")
                else:
                    emit(f"if _G(x{i}.dtype) is not x{i}.dtype: x{i} = _C(x{i})")

    # ---- body: one statement group per instruction -----------------------
    for idx, (fn, srcs, dst, dsts, dpos, ddt, frees) in enumerate(instrs):
        emit(f"# [{idx}] {instr_names[idx]}")
        if isinstance(fn, FusedChain):
            emit_chain(idx, fn, srcs, dsts[0])
        elif dsts is not None:
            # multi-result primitive: no stability claim, unpack by index
            emit(f"_t = {call_expr(str(idx), fn, [use(s) for s in srcs])}")
            counters["calls"] += 1
            for k, d in enumerate(dsts):
                emit(f"{raw(d)} = _t[{k}]")
            for d in dsts:
                after_produce(d)
        else:
            nm = instr_names[idx]
            eff = [subs.get((idx, p), s) for p, s in enumerate(srcs)]
            knowns = [known.get(s) for s in eff]
            predicted = _predict(nm, knowns, instr_out_dts[idx])
            args = [use(s) for s in eff]
            if idx in dropped:
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
                and shape.get(eff[0]) is not None
            ):
                # adjoint of slice: zeros + one precomputed-setitem — the
                # embed index only depends on the operand's static shape
                env[f"_p{idx}_sh"] = tuple(fn.keywords["shape"])
                env[f"_p{idx}_ix"] = tuple(
                    slice(st, st + dd)
                    for st, dd in zip(fn.keywords["starts"], shape[eff[0]])
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
                and len(eff) == 2
                and knowns[0] in _FLOATS
                and knowns[1] in _FLOATS
                and len(shape.get(eff[0], ())) == 2
                and len(shape.get(eff[1], ())) == 2
            ):
                # 2-D float matmul: np.dot reaches the same GEMM with a
                # slightly thinner wrapper than the np.matmul gufunc
                env.setdefault("_dot", np.dot)
                counters["calls"] += 1
                emit(f"{raw(dst)} = _dot({args[0]}, {args[1]})")
            elif dpos >= 0:
                counters["calls"] += 1
                on = use(srcs[dpos])
                dcall = call_expr(str(idx), fn, args, out=on)
                if known.get(srcs[dpos]) is ddt:
                    emit(f"{raw(dst)} = {dcall}")
                else:
                    env[f"_d{idx}"] = ddt
                    emit(
                        f"{raw(dst)} = {dcall} if {on}.dtype is _d{idx}"
                        f" else {call_expr(str(idx), fn, args)}"
                    )
            else:
                counters["calls"] += 1
                emit(
                    f"{raw(dst)} = "
                    + call_expr(str(idx), fn, args, name=nm, knowns=knowns)
                )
            if predicted is not None:
                # recorded even for dropped broadcasts: consumers read the
                # un-broadcast source, whose dtype the broadcast preserves
                known[dst] = predicted
            if idx not in dropped:
                after_produce(dst)
        for s in frees:
            if moved_free.get(s, -1) > idx:
                continue  # lifetime extended past a rewritten broadcast use
            emit(f"{raw(s)} = None")
        for s in moved_by_site.get(idx, ()):
            emit(f"{raw(s)} = None")

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
