"""Primitive machinery: the extension point every op is built from.

A :class:`Primitive` bundles three rules, mirroring JAX:

- ``impl``: concrete NumPy evaluation;
- ``abstract_eval``: shape/dtype inference used during tracing;
- ``vjp``: reverse-mode rule building cotangents for the inputs. VJP rules
  are written in terms of the user-level ops in :mod:`repro.ir.ops`, so the
  same rule works both eagerly (NumPy in, NumPy out) and under a trace
  (tracers in, new equations out). This is what lets autodiff be an
  IR-to-IR transform, which the MPMD stage splitter depends on (backward
  ``pipeline_yield`` markers are emitted by a VJP rule like any other op).

Beside the rules it carries the facts the compiler layers need (fusion,
donation, identity elision, dtype, cost, source emission, sharding), so
the optimizer, lowering, codegen, autotune and partitioner read one
object instead of keeping their own lists of op names.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.ir.avals import ShapedArray

__all__ = ["Primitive", "registry"]

registry: dict[str, "Primitive"] = {}


class Primitive:
    """A named operation with pluggable impl / abstract-eval / vjp rules,
    plus the facts every compiler layer reads about it.

    Each fact is set once where the primitive is defined (:mod:`repro.ir.ops`
    and its ``_binop`` / ``_unop`` factories, :mod:`repro.ir.pipeline`,
    :mod:`repro.spmd.collectives`); only ``shard_rule`` is attached by its
    reader.  No layer keys a table on ``name``.

    Attributes:
        name: unique op name (also the key in :data:`registry`).
        multiple_results: if True, ``bind`` returns a list of values.
        elementwise: impl is a pure per-element map.  Linearize fuses
            single-consumer groups, codegen nests them as expressions.
            With two or more operands the kernel broadcasts natively:
            codegen elides a ``broadcast_to`` feeding it and the
            partitioner merges operand shardings; with one, the
            partitioner passes the sharding through.
        returns_fresh: impl always allocates a new array; only such values
            may be donated in place (linearize).
        inplace_fn: NumPy ufunc equivalent of the impl accepting ``out=``;
            enables buffer donation of a dying operand (linearize, codegen).
        identity_alias: impl is the identity on its one input
            (``pipeline_yield``, ``stop_gradient``): opt and linearize alias
            output to input, the partitioner passes the sharding through.
        identity_unpartitioned: impl is the identity outside the SPMD
            partitioner (``shard_constraint``): opt elides it when the
            compile has no inner mesh, codegen emits an alias.
        identity_same_storage: impl is the identity when input and output
            share a storage dtype (``convert``, bf16 <-> f32): linearize
            aliases it.
        numpy_fn: the NumPy function the impl *is*, modulo a wrapper frame
            (a ufunc, ``np.where``, ``np.matmul``); codegen calls it.
        operator: Python operator spelling of ``numpy_fn`` (``"+"``; ``"-"``
            negates one operand); codegen emits ``(a + b)``.
        commutative: operand order is bitwise irrelevant; opt's CSE sorts it.
        dtype_rule: output storage dtype for codegen's static analysis:
            ``k`` (int) follows operand ``k``; ``"target"`` is the traced
            dtype (astype); ``"common"`` is the operands' one shared dtype;
            ``None`` is float closure.
        flops_rule: ``(in_avals, out_avals) -> float`` for autotune's
            stage pricing; ``None`` counts one FLOP per output element.
        emit_rule: ``(args, params, knowns, shapes, name) -> (exprs,
            consts) | None``, codegen's source for a non-donating call:
            operand expressions, static params and the operands' known
            dtypes / shapes in; ``exprs[0]`` is the value expression, any
            further item a statement completed by the result's name, and
            ``consts`` binds the globals the text names (``name(key)``
            mints per-call ones).  ``None`` falls back to ``numpy_fn``,
            then the impl.
        shard_rule: the partitioner's rule; ``None`` derives it from
            ``elementwise`` / ``identity_alias``, or replicates.
    """

    def __init__(self, name: str, multiple_results: bool = False):
        if name in registry:
            raise ValueError(f"duplicate primitive name: {name}")
        self.name = name
        self.multiple_results = multiple_results
        self._impl: Callable[..., Any] | None = None
        self._abstract: Callable[..., Any] | None = None
        self._vjp: Callable[..., Sequence[Any]] | None = None
        self.elementwise = False
        self.returns_fresh = False
        self.inplace_fn: Callable[..., Any] | None = None
        self.identity_alias = False
        self.identity_unpartitioned = False
        self.identity_same_storage = False
        self.numpy_fn: Callable[..., Any] | None = None
        self.operator: str | None = None
        self.commutative = False
        self.dtype_rule: int | str | None = None
        self.flops_rule: Callable[..., float] | None = None
        self.emit_rule: Callable[..., Any] | None = None
        self.shard_rule: Callable[..., Any] | None = None
        registry[name] = self

    # -- rule registration (decorator style) --------------------------------
    def def_impl(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Register the concrete NumPy implementation."""
        self._impl = fn
        return fn

    def def_abstract(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Register the abstract (shape/dtype) evaluation rule."""
        self._abstract = fn
        return fn

    def def_vjp(self, fn: Callable[..., Sequence[Any]]) -> Callable[..., Sequence[Any]]:
        """Register the reverse-mode rule.

        The rule receives ``(cts_out, invals, outvals, **params)`` — output
        cotangents, primal inputs, primal outputs — and returns one
        cotangent (or ``None``) per input.
        """
        self._vjp = fn
        return fn

    # -- rule access ---------------------------------------------------------
    def impl(self, *args: Any, **params: Any) -> Any:
        """Evaluate concretely."""
        if self._impl is None:
            raise NotImplementedError(f"no impl rule for {self.name}")
        return self._impl(*args, **params)

    def abstract_eval(self, *avals: ShapedArray, **params: Any) -> Any:
        """Infer output aval(s) from input avals."""
        if self._abstract is None:
            raise NotImplementedError(f"no abstract rule for {self.name}")
        return self._abstract(*avals, **params)

    def vjp(self, cts_out: Sequence[Any], invals: Sequence[Any], outvals: Sequence[Any], **params: Any) -> Sequence[Any]:
        """Apply the reverse-mode rule."""
        if self._vjp is None:
            raise NotImplementedError(f"{self.name} is not differentiable")
        return self._vjp(cts_out, invals, outvals, **params)

    @property
    def differentiable(self) -> bool:
        """Whether a VJP rule is registered."""
        return self._vjp is not None

    def bind(self, *args: Any, **params: Any) -> Any:
        """Apply the primitive: traces when a trace is active, otherwise
        evaluates eagerly with NumPy."""
        from repro.ir import tracer  # local import: tracer depends on this module

        return tracer.bind(self, *args, **params)

    def __reduce__(self):
        """Pickle by registry name.

        Primitives are process-wide singletons whose rules (impl /
        abstract / vjp) are frequently lambdas, so pickling the object
        itself would both fail and break the identity invariants the
        compiler relies on (``eqn.prim is registry[name]``).  Reducing to
        a registry lookup keeps jaxprs — and through them compiled task
        payloads — spawn-context picklable for the multi-process MPMD
        backend (:mod:`repro.runtime.mp`).
        """
        return _lookup, (self.name,)

    def __repr__(self) -> str:
        return f"Primitive({self.name})"


def _lookup(name: str) -> "Primitive":
    """Unpickling hook: resolve a primitive by name in this process's
    registry (populated by importing :mod:`repro.ir.ops` et al.)."""
    import repro.ir.ops  # noqa: F401  (registers the standard primitives)
    import repro.core.accumulate  # noqa: F401  (pipeline_loop)
    import repro.ir.pipeline  # noqa: F401  (pipeline_yield markers)
    import repro.spmd.collectives  # noqa: F401  (shard_constraint et al.)

    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"cannot unpickle primitive {name!r}: not registered in this "
            "process (import the module that defines it first)"
        ) from None
