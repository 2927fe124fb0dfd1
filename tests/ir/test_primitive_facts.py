"""A primitive's facts live on its ``Primitive``: an op defined through the
``_binop`` factory is sharded, emitted and CSE'd like the built-in binops
without any compiler layer naming it."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import ir, spmd
from repro.ir import ops
from repro.ir.opt import optimize_jaxpr
from repro.ir.primitives import registry
from tests.helpers import rng

NAME = "test_facts_hypot"


@pytest.fixture
def hypot():
    p = ops._binop(NAME, np.hypot, commutative=True)
    yield p
    registry.pop(NAME)


def _operands():
    r = rng(0)
    return r.randn(4, 6).astype(np.float32), r.randn(4, 6).astype(np.float32)


def test_partitioner_shards_it_like_add(hypot):
    x, y = _operands()
    mesh = spmd.Mesh([("data", 2)])
    specs, rules = [("batch", None), ("batch", None)], {"batch": "data"}

    def local(op):
        jaxpr, _, _ = ir.trace(lambda a, b: op.bind(a, b), x, y)
        return spmd.partition(jaxpr, mesh, in_specs=specs, rules=rules)

    prog, ref = local(hypot), local(ops.add_p)
    assert prog.out_specs == ref.out_specs == [spmd.PSpec(("data", None))]
    assert [e.prim for e in prog.local_jaxpr.eqns] == [hypot]
    out = spmd.SpmdExecutor(mesh).run(prog, [x, y])[0]
    np.testing.assert_array_equal(out, np.hypot(x, y))


def test_codegen_calls_the_ufunc_and_elides_a_feeding_broadcast(hypot):
    x, _ = _operands()
    b = x[0].copy()
    jaxpr, _, _ = ir.trace(lambda a, v: hypot.bind(a, ops.broadcast_to(v, a.shape)), x, b)
    prog = ir.codegen(jaxpr)
    assert "# elided: consumers broadcast natively" in prog.source
    [call] = re.findall(r"= (_f\d+)\(x0, x1\)", prog.source)
    assert prog._fn.__globals__[call] is np.hypot
    np.testing.assert_array_equal(prog([x, b])[0], np.hypot(x, b))


def test_cse_merges_swapped_operands(hypot):
    x, y = _operands()
    jaxpr, _, _ = ir.trace(lambda a, b: ops.add(hypot.bind(a, b), hypot.bind(b, a)), x, y)
    out, stats = optimize_jaxpr(jaxpr)
    assert stats.cse_removed == 1
    assert [e.prim for e in out.eqns] == [hypot, ops.add_p]
