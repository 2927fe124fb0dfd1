"""Mini-JAX substrate: tracer, typed IR, interpreter, autodiff, stage marks.

Public surface::

    from repro import ir
    from repro.ir import ops, nn

    loss, grads = ir.value_and_grad(loss_fn)(params, batch)
    jaxpr, in_tree, out_tree = ir.trace(train_step, state, batch)
"""

from __future__ import annotations

from typing import Any, Callable

from repro.ir import dtypes, nn, ops  # noqa: F401 (re-exported modules)
from repro.ir.autodiff import grad, value_and_grad
from repro.ir.avals import ShapedArray, abstractify
from repro.ir.dtypes import bfloat16, bool_, float16, float32, int32
from repro.ir.codegen import CodegenProgram, codegen
from repro.ir.interpreter import eval_jaxpr
from repro.ir.jaxpr import Eqn, Jaxpr, Literal, Var, dce, pretty_print, validate
from repro.ir.linearize import LinearProgram, linearize
from repro.ir.pipeline import pipeline_yield
from repro.ir.primitives import Primitive, registry
from repro.ir.pytree import (
    TreeDef,
    tree_flatten,
    tree_leaves,
    tree_map,
    tree_structure,
    tree_unflatten,
)
from repro.ir.tracer import TracerArray, current_trace, new_trace, trace_flat

__all__ = [
    "dtypes", "ops", "nn",
    "grad", "value_and_grad",
    "ShapedArray", "abstractify",
    "float32", "bfloat16", "float16", "int32", "bool_",
    "eval_jaxpr",
    "LinearProgram", "linearize",
    "CodegenProgram", "codegen",
    "Jaxpr", "Eqn", "Var", "Literal", "dce", "validate", "pretty_print",
    "pipeline_yield",
    "Primitive", "registry",
    "TreeDef", "tree_flatten", "tree_unflatten", "tree_map", "tree_leaves",
    "tree_structure",
    "TracerArray", "current_trace", "new_trace", "trace_flat",
    "trace",
]


def trace(f: Callable[..., Any], *example_args: Any):
    """Trace ``f`` on example arguments (or avals) into a :class:`Jaxpr`.

    Returns ``(jaxpr, in_tree, out_tree)`` where the trees rebuild the
    argument tuple and the (pytree) output from flat leaf lists. Example
    arguments may be concrete arrays or :class:`ShapedArray` avals.
    """
    flat, in_tree = tree_flatten(example_args)
    in_avals = [a if isinstance(a, ShapedArray) else abstractify(a) for a in flat]
    out_tree_cell: dict[str, Any] = {}

    def f_flat(*leaves: Any):
        args = tree_unflatten(in_tree, leaves)
        out = f(*args)
        out_leaves, out_tree = tree_flatten(out)
        out_tree_cell["tree"] = out_tree
        return out_leaves

    jaxpr, free_vals = trace_flat(f_flat, in_avals, name=getattr(f, "__name__", "fn"))
    if free_vals:
        raise ValueError(
            "ir.trace requires a closed function; it captured tracers from an "
            "enclosing trace"
        )
    return jaxpr, in_tree, out_tree_cell["tree"]
