"""Collective primitives inserted by the SPMD partitioner.

These never appear in user programs — the partitioner emits them, exactly
as XLA's SPMD partitioner does (§2.1: "the compiler automatically handles
the placement of collective operations"). Their ``impl`` rules raise: they
are only meaningful inside the lock-step executor, which intercepts them by
primitive identity and applies group semantics.

``shard_constraint`` is the one user-visible op here: the annotation that
:func:`repro.spmd.logical.shard` records (identity semantics, hint for the
partitioner).
"""

from __future__ import annotations

from repro.ir.avals import ShapedArray
from repro.ir.primitives import Primitive

__all__ = [
    "all_reduce_p",
    "all_gather_p",
    "mesh_split_p",
    "reduce_scatter_p",
    "shard_constraint_p",
    "COLLECTIVE_PRIMS",
]


def _no_eager(name: str):
    def impl(*args, **params):
        raise RuntimeError(
            f"collective {name!r} can only run inside the SPMD executor; "
            "it was evaluated eagerly"
        )

    return impl


all_reduce_p = Primitive("all_reduce")
all_reduce_p.def_impl(_no_eager("all_reduce"))


@all_reduce_p.def_abstract
def _all_reduce_abs(xa: ShapedArray, *, axis: str, op: str = "sum"):
    if op not in ("sum", "max"):
        raise ValueError(f"unsupported all_reduce op {op!r}")
    return xa


all_gather_p = Primitive("all_gather")
all_gather_p.def_impl(_no_eager("all_gather"))


@all_gather_p.def_abstract
def _all_gather_abs(xa: ShapedArray, *, axis: str, dim: int, axis_size: int):
    shape = list(xa.shape)
    shape[dim] = shape[dim] * axis_size
    return ShapedArray(tuple(shape), xa.dtype)


mesh_split_p = Primitive("mesh_split")
mesh_split_p.def_impl(_no_eager("mesh_split"))


@mesh_split_p.def_abstract
def _mesh_split_abs(xa: ShapedArray, *, axis: str, dim: int, axis_size: int):
    if xa.shape[dim] % axis_size != 0:
        raise ValueError(f"cannot split dim {dim} of {xa!r} {axis_size} ways")
    shape = list(xa.shape)
    shape[dim] = shape[dim] // axis_size
    return ShapedArray(tuple(shape), xa.dtype)


reduce_scatter_p = Primitive("reduce_scatter")
reduce_scatter_p.def_impl(_no_eager("reduce_scatter"))


@reduce_scatter_p.def_abstract
def _reduce_scatter_abs(xa: ShapedArray, *, axis: str, dim: int, axis_size: int):
    if xa.shape[dim] % axis_size != 0:
        raise ValueError(f"cannot reduce-scatter dim {dim} of {xa!r} {axis_size} ways")
    shape = list(xa.shape)
    shape[dim] = shape[dim] // axis_size
    return ShapedArray(tuple(shape), xa.dtype)


shard_constraint_p = Primitive("shard_constraint")
shard_constraint_p.identity_unpartitioned = True
shard_constraint_p.dtype_rule = 0


@shard_constraint_p.def_impl
def _shard_constraint_impl(x, *, names):
    return x  # identity outside the partitioner


@shard_constraint_p.def_abstract
def _shard_constraint_abs(xa: ShapedArray, *, names):
    if len(names) != xa.ndim:
        raise ValueError(f"shard annotation {names} has wrong rank for {xa!r}")
    return xa


@shard_constraint_p.def_vjp
def _shard_constraint_vjp(cts, invals, outvals, *, names):
    # The cotangent inherits the same logical layout (GSPMD behaviour).
    return [shard_constraint_p.bind(cts[0], names=tuple(names))]


COLLECTIVE_PRIMS = frozenset({all_reduce_p, all_gather_p, mesh_split_p, reduce_scatter_p})
