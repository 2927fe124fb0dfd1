"""The SPMD partitioner: global jaxpr -> per-device local jaxpr.

Given a program over *global* arrays, input partition specs, and logical
axis rules, this pass produces a program over per-device *shards* with
collective operations inserted where the math requires them — the job
GSPMD/XLA performs in the paper's §2.1. The Megatron patterns emerge from
two rules alone:

- ``matmul`` with the contraction dim sharded on both sides computes a
  partial product and appends an ``all_reduce`` (row-parallel layer, and —
  via the backward matmuls — data-parallel gradient synchronisation);
- conflicting or unsupported shardings fall back to replication through
  ``all_gather`` (correctness never depends on a clever rule existing).

The pass is deliberately eager about materialising partial sums (an
``all_reduce`` is emitted at the producing equation rather than deferred),
a documented simplification relative to GSPMD.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.ir import ops
from repro.ir.avals import ShapedArray, broadcast_shapes
from repro.ir.jaxpr import Atom, Eqn, Jaxpr, Literal, Var, dce
from repro.spmd import collectives as coll
from repro.spmd.logical import resolve_names
from repro.spmd.mesh import Mesh
from repro.spmd.spec import PSpec, local_shape, merge_specs, replicated

__all__ = ["PartitionedProgram", "partition"]


@dataclasses.dataclass
class PartitionedProgram:
    """Result of partitioning: a local jaxpr plus boundary specs.

    Attributes:
        local_jaxpr: program over per-device shards, containing collective
            equations (:mod:`repro.spmd.collectives`).
        mesh: the mesh it was partitioned for.
        in_specs: partition spec of each input.
        out_specs: inferred partition spec of each output.
    """

    local_jaxpr: Jaxpr
    mesh: Mesh
    in_specs: list[PSpec]
    out_specs: list[PSpec]


@dataclasses.dataclass
class Strategy:
    """A rule's decision for one equation.

    Attributes:
        in_specs: specs the inputs must be resharded to first.
        out_specs: specs of the outputs of the local equation.
        local_params: params for the local equation (shape params localized).
        post_all_reduce: per-output list of ``(mesh_axis, op)`` reductions to
            materialise partial results.
    """

    in_specs: list[PSpec]
    out_specs: list[PSpec]
    local_params: dict | None = None
    post_all_reduce: list[list[tuple[str, str]]] | None = None


Rule = Callable[[Mesh, list[PSpec], list[ShapedArray], dict], Strategy | None]


def _rule(*prims):
    """Register ``fn`` as the ``shard_rule`` of each primitive."""

    def register(fn: Rule) -> Rule:
        for p in prims:
            p.shard_rule = fn
        return fn

    return register


# ---------------------------------------------------------------------------
# rule helpers
# ---------------------------------------------------------------------------

def _merge_broadcast(mesh: Mesh, in_specs: list[PSpec], in_avals: list[ShapedArray]) -> tuple[list[PSpec], PSpec]:
    """Broadcasting-aware elementwise merge.

    Returns required input specs and the output spec. Dims are aligned from
    the right; size-1 input dims must be replicated; conflicts replicate
    that dim.
    """
    out_shape = broadcast_shapes(*[a.shape for a in in_avals])
    nd = len(out_shape)
    out_dims: list[str | None] = [None] * nd
    for od in range(nd):
        candidates = set()
        for spec, aval in zip(in_specs, in_avals):
            idx = od - (nd - aval.ndim)
            if idx < 0 or aval.shape[idx] != out_shape[od] or aval.shape[idx] == 1:
                continue
            if spec.dims[idx] is not None:
                candidates.add(spec.dims[idx])
        if len(candidates) == 1:
            out_dims[od] = candidates.pop()
    # A mesh axis can shard only one output dim; later duplicates replicate.
    seen: set[str] = set()
    for i, d in enumerate(out_dims):
        if d is not None:
            if d in seen:
                out_dims[i] = None
            seen.add(d)
    out_spec = PSpec(out_dims)
    req = []
    for aval in in_avals:
        dims = []
        for idx in range(aval.ndim):
            od = idx + (nd - aval.ndim)
            if aval.shape[idx] == out_shape[od] and aval.shape[idx] != 1:
                dims.append(out_dims[od])
            else:
                dims.append(None)
        req.append(PSpec(dims))
    return req, out_spec


def _elementwise_rule(mesh, in_specs, in_avals, params):
    req, out = _merge_broadcast(mesh, in_specs, in_avals)
    return Strategy(req, [out])


def _unary_rule(mesh, in_specs, in_avals, params):
    return Strategy([in_specs[0]], [in_specs[0]])


def _rule_of(prim, n_in: int) -> Rule | None:
    """``prim``'s sharding rule: the one registered on it, else derived
    from its facts — an elementwise op of two or more operands merges
    their shardings by broadcasting, one of one operand (or an identity)
    passes the sharding through — else ``None`` (replicate)."""
    if prim.shard_rule is not None:
        return prim.shard_rule
    if prim.elementwise and n_in > 1:
        return _elementwise_rule
    if prim.elementwise or prim.identity_alias:
        return _unary_rule
    return None


@_rule(ops.matmul_p)
def _matmul_rule(mesh, in_specs, in_avals, params):
    xs, ys = in_specs
    xa, ya = in_avals
    # Batch dims: elementwise merge over leading dims.
    batch_shape = broadcast_shapes(xa.shape[:-2], ya.shape[:-2])
    nb = len(batch_shape)

    def batch_dim(spec, aval, od):
        idx = od - (nb - (aval.ndim - 2))
        if idx < 0 or aval.shape[idx] == 1:
            return None
        return spec.dims[idx]

    out_batch: list[str | None] = []
    for od in range(nb):
        cands = {d for d in (batch_dim(xs, xa, od), batch_dim(ys, ya, od)) if d is not None}
        out_batch.append(cands.pop() if len(cands) == 1 else None)

    kx, ky = xs.dims[-1], ys.dims[-2]
    m, n = xs.dims[-2], ys.dims[-1]
    post: list[tuple[str, str]] = []
    if kx is not None and kx == ky:
        # Contraction sharded on both sides: partial product + all-reduce.
        k_req = kx
        post.append((kx, "sum"))
    else:
        k_req = None  # gather whichever side is sharded on k

    used = set(out_batch) - {None}
    if k_req is not None:
        used.add(k_req)
    if m in used:
        m = None
    if m is not None:
        used.add(m)
    if n in used:
        n = None

    # Required input specs: batch dims aligned to out_batch, then (m, k)/(k, n).
    def req_batch(aval, od_count):
        dims = []
        for idx in range(od_count):
            od = idx + (nb - od_count)
            if aval.shape[idx] == 1:
                dims.append(None)
            else:
                dims.append(out_batch[od])
        return dims

    req_x = PSpec(req_batch(xa, xa.ndim - 2) + [m, k_req])
    req_y = PSpec(req_batch(ya, ya.ndim - 2) + [k_req, n])
    out_spec = PSpec(out_batch + [m, n])
    return Strategy([req_x, req_y], [out_spec], post_all_reduce=[post])


def _make_reduce_rule(op: str) -> Rule:
    def rule(mesh, in_specs, in_avals, params):
        spec = in_specs[0]
        axes, keepdims = params["axes"], params["keepdims"]
        post = []
        out_dims = []
        for i, d in enumerate(spec.dims):
            if i in axes:
                if d is not None:
                    post.append((d, op))
                if keepdims:
                    out_dims.append(None)
            else:
                out_dims.append(d)
        return Strategy([spec], [PSpec(out_dims)], post_all_reduce=[post])

    return rule


ops.reduce_sum_p.shard_rule = _make_reduce_rule("sum")
ops.reduce_max_p.shard_rule = _make_reduce_rule("max")


@_rule(ops.transpose_p)
def _transpose_rule(mesh, in_specs, in_avals, params):
    spec = in_specs[0]
    out = PSpec([spec.dims[p] for p in params["perm"]])
    return Strategy([spec], [out])


@_rule(ops.broadcast_to_p)
def _broadcast_rule(mesh, in_specs, in_avals, params):
    spec, aval = in_specs[0], in_avals[0]
    shape = params["shape"]
    nd = len(shape)
    req_dims, out_dims = [], [None] * nd
    for idx in range(aval.ndim):
        od = idx + (nd - aval.ndim)
        if aval.shape[idx] == shape[od] and aval.shape[idx] != 1:
            out_dims[od] = spec.dims[idx]
            req_dims.append(spec.dims[idx])
        else:
            req_dims.append(None)
    req = PSpec(req_dims)
    out = PSpec(out_dims)
    local = dict(params, shape=local_shape(ShapedArray(tuple(shape), aval.dtype), out, mesh))
    return Strategy([req], [out], local_params=local)


def _reshape_segments(in_shape, out_shape):
    """Greedy factorization: yields (in_range, out_range) segments whose
    element counts match minimally."""
    segs = []
    i = j = 0
    while i < len(in_shape) or j < len(out_shape):
        i0, j0 = i, j
        pi = in_shape[i] if i < len(in_shape) else 1
        pj = out_shape[j] if j < len(out_shape) else 1
        i, j = i + (i < len(in_shape)), j + (j < len(out_shape))
        while pi != pj:
            if pi < pj and i < len(in_shape):
                pi *= in_shape[i]
                i += 1
            elif pj < pi and j < len(out_shape):
                pj *= out_shape[j]
                j += 1
            else:
                return None  # trailing ones etc.: give up, fall back
        segs.append(((i0, i), (j0, j)))
    return segs


@_rule(ops.reshape_p)
def _reshape_rule(mesh, in_specs, in_avals, params):
    spec, aval = in_specs[0], in_avals[0]
    new_sizes = params["new_sizes"]
    if spec.is_replicated:
        return Strategy([spec], [replicated(len(new_sizes))])
    segs = _reshape_segments(aval.shape, new_sizes)
    if segs is None:
        return None
    out_dims: list[str | None] = [None] * len(new_sizes)
    req_dims = list(spec.dims)
    for (i0, i1), (j0, j1) in segs:
        sharded = [(k, spec.dims[k]) for k in range(i0, i1) if spec.dims[k] is not None]
        if not sharded:
            continue
        if len(sharded) > 1 or sharded[0][0] != i0:
            # Sharding of a non-leading factor does not survive a reshape:
            # fall back to gathering those dims.
            for k, _ in sharded:
                req_dims[k] = None
            continue
        axis = sharded[0][1]
        size = mesh.axis_size(axis)
        if j1 > j0 and new_sizes[j0] % size == 0:
            out_dims[j0] = axis
        else:
            req_dims[i0] = None
    req = PSpec(req_dims)
    out = PSpec(out_dims)
    local = dict(params, new_sizes=local_shape(ShapedArray(tuple(new_sizes), aval.dtype), out, mesh))
    return Strategy([req], [out], local_params=local)


@_rule(ops.concatenate_p)
def _concat_rule(mesh, in_specs, in_avals, params):
    axis = params["axis"]
    merged: PSpec | None = in_specs[0].with_dim(axis, None)
    for s in in_specs[1:]:
        merged = merge_specs(merged, s.with_dim(axis, None)) if merged else None
    if merged is None:
        merged = replicated(in_avals[0].ndim)
    merged = merged.with_dim(axis, None)
    return Strategy([merged] * len(in_specs), [merged])


@_rule(ops.slice_p)
def _slice_rule(mesh, in_specs, in_avals, params):
    spec, aval = in_specs[0], in_avals[0]
    starts, limits = params["starts"], params["limits"]
    req_dims, out_dims = [], []
    l_starts, l_limits = [], []
    for d in range(aval.ndim):
        full = starts[d] == 0 and limits[d] == aval.shape[d]
        if full and spec.dims[d] is not None:
            axis = spec.dims[d]
            req_dims.append(axis)
            out_dims.append(axis)
            loc = aval.shape[d] // mesh.axis_size(axis)
            l_starts.append(0)
            l_limits.append(loc)
        else:
            req_dims.append(None)
            out_dims.append(None)
            l_starts.append(starts[d])
            l_limits.append(limits[d])
    return Strategy(
        [PSpec(req_dims)], [PSpec(out_dims)],
        local_params=dict(starts=tuple(l_starts), limits=tuple(l_limits)),
    )


@_rule(ops.take_p)
def _take_rule(mesh, in_specs, in_avals, params):
    table_spec, idx_spec = in_specs
    # Vocab dim must be replicated; trailing table dims may stay sharded.
    req_table = table_spec.with_dim(0, None)
    out = PSpec(tuple(idx_spec.dims) + tuple(req_table.dims[1:]))
    return Strategy([req_table, idx_spec], [out])


@_rule(ops.scatter_add_p)
def _scatter_rule(mesh, in_specs, in_avals, params):
    _, upd_spec = in_specs
    idx_nd = in_avals[0].ndim
    # Indices replicated; updates sharded on the index dims are gathered
    # there, so every device scatters all of them into its out rows; the
    # trailing (feature) dims keep their sharding, as the output's do.
    trailing = list(upd_spec.dims[idx_nd:])
    req_upd = PSpec([None] * idx_nd + trailing)
    out = PSpec([None] + trailing)
    local = dict(params, shape=local_shape(
        ShapedArray(tuple(params["shape"]), in_avals[1].dtype), out, mesh))
    return Strategy([replicated(idx_nd), req_upd], [out], local_params=local)


@_rule(ops.iota_p)
def _iota_rule(mesh, in_specs, in_avals, params):
    return Strategy([], [replicated(1)])


@_rule(ops.unslice_p)
def _unslice_rule(mesh, in_specs, in_avals, params):
    # Conservative: replicate (appears only in backward of partial slices).
    nd = len(params["shape"])
    return Strategy([replicated(in_avals[0].ndim)], [replicated(nd)])


# ---------------------------------------------------------------------------
# the partitioning pass
# ---------------------------------------------------------------------------

class _Builder:
    """Accumulates local equations and the global->local variable map."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.eqns: list[Eqn] = []
        self.env: dict[int, tuple[Atom, PSpec]] = {}  # id(global var) -> (local atom, spec)
        self.producer: dict[int, Eqn] = {}  # id(local var) -> the eqn that made it

    def lookup(self, atom: Atom) -> tuple[Atom, PSpec]:
        if isinstance(atom, Literal):
            return atom, replicated(atom.aval.ndim)
        return self.env[id(atom)]

    def emit(self, prim, in_atoms: list[Atom], out_avals: list[ShapedArray], params: dict) -> list[Var]:
        outs = [Var(av) for av in out_avals]
        self.eqns.append(Eqn(prim, list(in_atoms), outs, params))
        self.producer.update(dict.fromkeys(map(id, outs), self.eqns[-1]))
        return outs

    def reshard(self, atom: Atom, cur: PSpec, target: PSpec, global_aval: ShapedArray) -> Atom:
        """Emit collectives converting ``atom`` from ``cur`` to ``target``."""
        if cur.dims == target.dims:
            return atom
        mesh = self.mesh
        # 1) gather every dim whose sharding must change
        for dim, axis in enumerate(cur.dims):
            if axis is not None and target.dims[dim] != axis:
                size = mesh.axis_size(axis)
                cur = cur.with_dim(dim, None)
                if size == 1:  # size-1 axes shard nothing; elide (as XLA does)
                    continue
                local_av = ShapedArray(local_shape(global_aval, cur, mesh), global_aval.dtype)
                [atom] = self.emit(
                    coll.all_gather_p, [atom], [local_av],
                    dict(axis=axis, dim=dim, axis_size=size),
                )
        # 2) split every dim that must become sharded; a dim that a
        # broadcast_to created is broadcast straight to the shard instead
        for dim, axis in enumerate(target.dims):
            if axis is not None and cur.dims[dim] is None:
                size = mesh.axis_size(axis)
                cur = cur.with_dim(dim, axis)
                if size == 1:
                    continue
                local_av = ShapedArray(local_shape(global_aval, cur, mesh), global_aval.dtype)
                src = self.producer.get(id(atom))
                if src is not None and src.prim is ops.broadcast_to_p and all(
                    i in (1, o) for i, o in zip(src.invars[0].aval.shape[::-1], local_av.shape[::-1])
                ):
                    prim, ins, params = ops.broadcast_to_p, src.invars, dict(src.params, shape=local_av.shape)
                else:
                    prim, ins, params = coll.mesh_split_p, [atom], dict(axis=axis, dim=dim, axis_size=size)
                [atom] = self.emit(prim, ins, [local_av], params)
        return atom


def partition(
    jaxpr: Jaxpr,
    mesh: Mesh,
    in_specs: list[PSpec | tuple | None],
    rules: dict[str, str | None] | None = None,
) -> PartitionedProgram:
    """Partition ``jaxpr`` over ``mesh``.

    Args:
        jaxpr: global program (typically one pipeline-stage task).
        mesh: the SPMD mesh of one actor.
        in_specs: per-input :class:`PSpec`, logical-name tuple (resolved via
            ``rules``), or ``None`` for replicated.
        rules: logical-axis -> mesh-axis mapping used to resolve
            ``shard_constraint`` annotations and name-based in_specs
            (Figure 1b of the paper).

    Returns:
        A :class:`PartitionedProgram` whose ``local_jaxpr`` computes each
        device's shard of every output.
    """
    rules = rules or {}
    builder = _Builder(mesh)

    norm_in: list[PSpec] = []
    for v, s in zip(jaxpr.invars, in_specs):
        if s is None:
            spec = replicated(v.aval.ndim)
        elif isinstance(s, PSpec):
            spec = s
        else:
            spec = resolve_names(tuple(s), rules)
        if spec.ndim != v.aval.ndim:
            raise ValueError(f"in_spec {spec} has wrong rank for {v.aval!r}")
        local_av = ShapedArray(local_shape(v.aval, spec, mesh), v.aval.dtype)
        lv = Var(local_av)
        builder.env[id(v)] = (lv, spec)
        norm_in.append(spec)
    local_invars = [builder.env[id(v)][0] for v in jaxpr.invars]

    for eqn in jaxpr.eqns:
        ins = [builder.lookup(a) for a in eqn.invars]
        in_atoms = [a for a, _ in ins]
        cur_specs = [s for _, s in ins]
        global_in_avals = [a.aval for a in eqn.invars]

        if eqn.prim is coll.shard_constraint_p:
            target = resolve_names(eqn.params["names"], rules)
            atom = builder.reshard(in_atoms[0], cur_specs[0], target, global_in_avals[0])
            builder.env[id(eqn.outvars[0])] = (atom, target)
            continue

        rule = _rule_of(eqn.prim, len(eqn.invars))
        strategy = rule(mesh, cur_specs, global_in_avals, eqn.params) if rule else None
        if strategy is None:
            # Universal fallback: replicate everything. Correctness never
            # depends on a sharded rule existing.
            strategy = Strategy(
                [replicated(a.ndim) for a in global_in_avals],
                [replicated(v.aval.ndim) for v in eqn.outvars],
            )

        local_atoms = [
            builder.reshard(atom, cur, req, gav)
            for atom, cur, req, gav in zip(in_atoms, cur_specs, strategy.in_specs, global_in_avals)
        ]
        local_params = strategy.local_params if strategy.local_params is not None else dict(eqn.params)
        out_local_avals = [
            ShapedArray(local_shape(v.aval, spec, mesh), v.aval.dtype)
            for v, spec in zip(eqn.outvars, strategy.out_specs)
        ]
        # Cross-check against the primitive's own abstract rule on local avals.
        inferred = eqn.prim.abstract_eval(*[a.aval for a in local_atoms], **local_params)
        inferred = list(inferred) if eqn.prim.multiple_results else [inferred]
        for got, want in zip(inferred, out_local_avals):
            if got.shape != want.shape:
                raise AssertionError(
                    f"partitioner bug on {eqn.prim.name}: local abstract eval "
                    f"gives {got!r}, spec math gives {want!r}"
                )
        outs = builder.emit(eqn.prim, local_atoms, out_local_avals, local_params)

        post = strategy.post_all_reduce or [[] for _ in outs]
        for i, (v, out_var) in enumerate(zip(eqn.outvars, outs)):
            atom: Atom = out_var
            for axis, op in post[i]:
                if mesh.axis_size(axis) == 1:  # nothing to reduce over
                    continue
                [atom] = builder.emit(
                    coll.all_reduce_p, [atom], [atom.aval], dict(axis=axis, op=op)
                )
            builder.env[id(v)] = (atom, strategy.out_specs[i])

    out_atoms, out_specs = [], []
    for a in jaxpr.outvars:
        atom, spec = builder.lookup(a)
        out_atoms.append(atom)
        out_specs.append(spec)

    # drop the global-shape broadcasts that reshard replaced by local ones
    local_jaxpr = dce(Jaxpr(local_invars, builder.eqns, out_atoms),
                      keep_effects=lambda e: e.prim is not ops.broadcast_to_p)
    return PartitionedProgram(local_jaxpr, mesh, norm_in, out_specs)
