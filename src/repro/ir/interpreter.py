"""Jaxpr evaluation (the tree-walking reference interpreter).

:func:`eval_jaxpr` applies each equation through :func:`repro.ir.tracer.bind`
rather than calling impls directly; under an active trace this *inlines* the
jaxpr into the current trace (the mechanism autodiff and ``accumulate_grads``
use to splice sub-programs into an outer program), and otherwise it
evaluates concretely with NumPy.

This is the *reference* backend: it re-resolves atoms through an
``id()``-keyed env dict and re-runs ``abstract_eval`` on every call.  The
steady-state hot path uses :mod:`repro.ir.linearize`, which lowers a jaxpr
once into a slot-indexed :class:`~repro.ir.linearize.LinearProgram` and is
differential-tested against this interpreter (pick with
``task_backend="codegen" | "linear" | "interpret"``; codegen, the default,
is the same program as generated source).  Inlining under a trace and
tape recording for autodiff always go through this module.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.ir import tracer
from repro.ir.jaxpr import Eqn, Jaxpr, Literal, Var

__all__ = ["eval_jaxpr", "eval_jaxpr_with_tape", "TapeEntry"]


class TapeEntry:
    """One executed equation: the eqn plus the concrete/traced values that
    flowed through it. Consumed by reverse-mode AD."""

    __slots__ = ("eqn", "invals", "outvals")

    def __init__(self, eqn: Eqn, invals: list[Any], outvals: list[Any]):
        self.eqn = eqn
        self.invals = invals
        self.outvals = outvals


def _bind_env(jaxpr: Jaxpr, args: Sequence[Any]) -> dict[int, Any]:
    if len(args) != len(jaxpr.invars):
        raise TypeError(
            f"jaxpr expects {len(jaxpr.invars)} inputs, got {len(args)}"
        )
    return {id(v): a for v, a in zip(jaxpr.invars, args)}


def _read(env: dict[int, Any], atom: Var | Literal) -> Any:
    if isinstance(atom, Literal):
        return atom.value
    return env[id(atom)]


def eval_jaxpr(jaxpr: Jaxpr, args: Sequence[Any]) -> list[Any]:
    """Evaluate ``jaxpr`` on ``args`` (concrete arrays or tracers).

    Returns the flat list of outputs.
    """
    env = _bind_env(jaxpr, args)
    for eqn in jaxpr.eqns:
        invals = [_read(env, a) for a in eqn.invars]
        out = tracer.bind(eqn.prim, *invals, **eqn.params)
        outs = out if eqn.prim.multiple_results else [out]
        for v, val in zip(eqn.outvars, outs):
            env[id(v)] = val
    return [_read(env, a) for a in jaxpr.outvars]


def eval_jaxpr_with_tape(jaxpr: Jaxpr, args: Sequence[Any]) -> tuple[list[Any], list[TapeEntry]]:
    """Like :func:`eval_jaxpr` but also records a tape for reverse-mode AD."""
    env = _bind_env(jaxpr, args)
    tape: list[TapeEntry] = []
    for eqn in jaxpr.eqns:
        invals = [_read(env, a) for a in eqn.invars]
        out = tracer.bind(eqn.prim, *invals, **eqn.params)
        outs = out if eqn.prim.multiple_results else [out]
        for v, val in zip(eqn.outvars, outs):
            env[id(v)] = val
        tape.append(TapeEntry(eqn, invals, list(outs)))
    return [_read(env, a) for a in jaxpr.outvars], tape
