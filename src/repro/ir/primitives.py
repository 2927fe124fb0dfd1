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
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.ir.avals import ShapedArray

__all__ = ["Primitive", "registry"]

registry: dict[str, "Primitive"] = {}


class Primitive:
    """A named operation with pluggable impl / abstract-eval / vjp rules.

    Attributes:
        name: unique op name (also the key in :data:`registry`).
        multiple_results: if True, ``bind`` returns a list of values.
        elementwise: set by :mod:`repro.ir.ops` on ops whose impl is a pure
            per-element map; the lowering (:mod:`repro.ir.linearize`)
            plans single-consumer groups of these as fused groups, which
            :mod:`repro.ir.codegen` emits as nested expressions.
        returns_fresh: impl always allocates a new array (never returns a
            view of an input). Only values produced by fresh ops are
            eligible as in-place donation targets in the linear VM.
        inplace_fn: optional NumPy ufunc equivalent of the impl that
            accepts ``out=``; enables buffer donation when the operand
            dies at this equation.
        identity_alias: impl is the identity on its (single) input value
            (``pipeline_yield``, ``stop_gradient``); the linear VM elides
            the equation entirely by aliasing slots.
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
