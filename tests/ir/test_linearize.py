"""Unit tests for the linear task VM (:mod:`repro.ir.linearize`).

Differential coverage against the tree-walking interpreter lives in
``tests/core/test_linear_backend.py`` (the full schedule gallery); here we
test the lowering itself: constant folding, identity aliasing, elementwise
fusion, the liveness plan, and buffer-donation safety.
"""

import numpy as np
import pytest

from repro import ir
from repro.ir import nn, ops, pipeline_yield
from repro.ir.codegen import _MAX_NEST, codegen
from repro.ir.linearize import LinearProgram, linearize
from tests.helpers import rng


def identical(a_list, b_list):
    assert len(a_list) == len(b_list)
    for a, b in zip(a_list, b_list):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def both_backends(f, *args):
    """(interpreter outputs, linear-VM outputs, program) for traced ``f``."""
    jaxpr, _, _ = ir.trace(f, *args)
    flat, _ = ir.tree_flatten(args)
    prog = linearize(jaxpr)
    return ir.eval_jaxpr(jaxpr, flat), prog(flat), prog


class TestEquivalence:
    def test_mixed_elementwise_matmul(self):
        r = rng(0)
        x, w = r.randn(6, 6).astype(np.float32), r.randn(6, 6).astype(np.float32)

        def f(x, w):
            h = ops.tanh(ops.matmul(x, w))
            g = ops.exp(ops.mul(h, 0.5))
            return ops.matmul(g, w), ops.reduce_sum(g)

        a, b, prog = both_backends(f, x, w)
        identical(a, b)
        assert prog.stats["fused_groups"] >= 1

    def test_reductions_where_comparisons(self):
        r = rng(1)
        x = r.randn(5, 7).astype(np.float32)

        def f(x):
            m = ops.reduce_max(x, axes=1, keepdims=True)
            p = ops.where(ops.greater(x, m), x, ops.mul(x, 0.1))
            return ops.mean(p), ops.reduce_sum(p, axes=0)

        a, b, _ = both_backends(f, x)
        identical(a, b)

    def test_nn_composites(self):
        r = rng(2)
        x = r.randn(4, 8).astype(np.float32)
        g_, b_ = np.ones(8, np.float32), np.zeros(8, np.float32)

        def f(x):
            return nn.gelu(nn.layer_norm(x, g_, b_))

        a, b, prog = both_backends(f, x)
        identical(a, b)
        # gelu/layer_norm are elementwise-rich: fusion must engage
        assert prog.stats["fused_away"] > 0

    def test_float64_inputs_canonicalized_like_interpreter(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)  # float64
        a, b, _ = both_backends(lambda x: ops.mul(ops.add(x, 1.0), x), x)
        identical(a, b)

    def test_grad_jaxpr(self):
        r = rng(3)
        x, w = r.randn(4, 4).astype(np.float32), r.randn(4, 4).astype(np.float32)

        def loss(w, x):
            return ops.mean(ops.tanh(ops.matmul(x, w)) ** 2.0)

        def f(w, x):
            return ir.value_and_grad(loss)(w, x)

        a, b, _ = both_backends(f, w, x)
        identical(a, b)

    def test_passthrough_and_literal_outputs(self):
        x = np.arange(6, dtype=np.float32)

        def f(x):
            return x, np.float32(3.0), ops.add(x, 0.0)

        a, b, _ = both_backends(f, x)
        identical(a, b)


class TestFoldingAndAliasing:
    def test_literal_only_eqns_folded(self):
        x = np.ones((3,), np.float32)

        def f(x):
            c = ops.add(ops.ones((3,)), 2.0)  # literal-only under trace
            return ops.mul(x, c)

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["folded"] >= 1
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_identity_markers_aliased(self):
        x = np.ones((2, 2), np.float32)

        def f(x):
            h = pipeline_yield(ops.add(x, 1.0))
            return ops.stop_gradient(ops.mul(h, 2.0))

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["aliased"] == 2
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_aliased_output_canonicalized_like_interpreter(self):
        # a float64 value reaching an output purely through elided
        # identity markers must still get the canonicalization the
        # interpreter performs when it executes the marker
        x = np.linspace(0.0, 1.0, 4)  # float64

        def f(x):
            return pipeline_yield(x), ops.stop_gradient(x)

        a, b, prog = both_backends(f, x)
        identical(a, b)
        assert np.asarray(b[0]).dtype == np.float32
        assert prog.stats["aliased"] == 2

    def test_direct_passthrough_stays_raw(self):
        # with no eqn touching it, the interpreter returns the input
        # unconverted — so must the VM
        x = np.linspace(0.0, 1.0, 4)  # float64
        a, b, _ = both_backends(lambda x: (x,), x)
        identical(a, b)
        assert np.asarray(b[0]).dtype == np.float64

    def test_same_storage_convert_aliased(self):
        x = np.ones((2,), np.float32)

        def f(x):
            return ops.convert(x, ir.bfloat16)  # bf16 stores as float32

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["aliased"] == 1
        assert prog.n_instructions == 0
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_real_convert_not_aliased(self):
        x = np.ones((2,), np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.convert(x, ir.int32), x)
        prog = linearize(jaxpr)
        assert prog.stats["aliased"] == 0
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))


class TestLiveness:
    def test_intermediate_freed_at_last_use(self):
        r = rng(4)
        x, w = r.randn(4, 4).astype(np.float32), r.randn(4, 4).astype(np.float32)

        def f(x, w):
            h = ops.matmul(x, w)       # slot dies at the second matmul
            g = ops.matmul(h, w)
            return ops.matmul(g, w)

        jaxpr, _, _ = ir.trace(f, x, w)
        prog = linearize(jaxpr)
        h_slot = prog.slot_of(jaxpr.eqns[0].outvars[0])
        # last instruction reading h's slot is instruction 1
        assert h_slot in prog.free_plan[1]
        assert all(h_slot not in fr for i, fr in enumerate(prog.free_plan) if i != 1)

    def test_freed_slots_never_read_later(self):
        r = rng(5)
        x = r.randn(8, 8).astype(np.float32)

        def f(x):
            h = nn.gelu(ops.matmul(x, x))
            return ops.mean((h - 1.0) ** 2.0), ops.reduce_max(h)

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        freed: set[int] = set()
        for idx, step in enumerate(prog._steps):
            assert not (set(step.srcs) & freed), f"step {idx} reads a freed slot"
            freed |= set(step.frees)

    def test_everything_dead_by_program_end(self):
        r = rng(6)
        x = r.randn(4, 4).astype(np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.reduce_sum(ops.exp(ops.matmul(x, x))), x)
        prog = linearize(jaxpr)
        freed = {s for fr in prog.free_plan for s in fr}
        produced = {s for st in prog._steps for s in (st.dsts or (st.dst,))}
        live_at_end = produced - freed
        assert live_at_end == set(prog._out_slots) & produced


class TestDonation:
    def test_dying_fresh_operand_is_donated(self):
        x = np.ones((4, 4), np.float32)

        def f(x):
            h = ops.matmul(x, x)  # fresh, single consumer
            return ops.add(h, 1.0)

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["donations"] == 1
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_program_inputs_never_donated(self):
        x = np.ones((4,), np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.add(x, 1.0), x)
        prog = linearize(jaxpr)
        assert prog.stats["donations"] == 0
        out = prog([x])[0]
        np.testing.assert_array_equal(x, np.ones((4,), np.float32))  # untouched
        assert out is not x

    def test_multi_consumer_view_escape_not_donated(self):
        # b has two consumers (a reshape view and an add); donating b into
        # the add would corrupt the escaping view
        r = rng(7)
        x = r.randn(4, 4).astype(np.float32)

        def f(x):
            b = ops.exp(x)
            c = ops.reshape(b, (16,))
            d = ops.add(b, 1.0)
            return c, d

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["donations"] == 0
        a_out, b_out = ir.eval_jaxpr(jaxpr, [x]), prog([x])
        identical(a_out, b_out)
        np.testing.assert_array_equal(np.asarray(b_out[0]).reshape(4, 4), np.exp(x))

    def test_view_producer_output_not_donated(self):
        # t is a transpose view of the (dying) matmul result: t is not
        # fresh, so the elementwise consumer must not write into it
        r = rng(8)
        x = r.randn(4, 4).astype(np.float32)

        def f(x):
            h = ops.matmul(x, x)
            t = ops.transpose(h, (1, 0))
            return ops.add(t, t)

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["donations"] == 0
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_scalar_results_not_donated(self):
        x = np.ones((4,), np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.neg(ops.reduce_sum(x)), x)
        prog = linearize(jaxpr)
        assert prog.stats["donations"] == 0
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_chain_internal_donation_correct(self):
        r = rng(9)
        x = r.randn(64,).astype(np.float32)

        def f(x):
            return ops.tanh(ops.exp(ops.mul(ops.add(x, 1.0), 0.5)))

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.stats["fused_groups"] == 1
        assert prog.stats["donations"] >= 2  # intra-chain temps die stepwise
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))


class TestFusion:
    def test_single_consumer_chain_one_instruction(self):
        x, y = np.ones((8,), np.float32), np.ones((4, 1), np.float32)
        jaxpr, _, _ = ir.trace(
            lambda x, y: ops.exp(ops.mul(ops.add(x, 1.0), y)), x, y
        )
        prog = linearize(jaxpr)
        assert prog.stats["n_instructions"] == 1
        assert prog.stats["fused_away"] == 2
        # add nests into mul's statement; mul stays named because exp
        # donates it, and x0 dies after the statement that reads it
        src = codegen(jaxpr).source
        assert "= ((x0 + _kc0) * x1)\n    x0 = None\n" in src
        identical(ir.eval_jaxpr(jaxpr, [x, y]), prog([x, y]))

    def test_fanout_breaks_chain(self):
        x = np.ones((8,), np.float32)

        def f(x):
            a = ops.exp(x)
            return ops.add(a, 1.0), ops.mul(a, 2.0)  # a consumed twice

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        # exp cannot fuse into either consumer
        assert prog.n_instructions == 3
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_matmul_not_fused(self):
        r = rng(10)
        x = r.randn(4, 4).astype(np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.exp(ops.matmul(x, x)), x)
        prog = linearize(jaxpr)
        assert prog.stats["fused_groups"] == 0
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))

    def test_tree_shaped_group(self):
        r = rng(11)
        x = r.randn(8,).astype(np.float32)

        def f(x):
            a = ops.exp(x)
            b = ops.neg(x)
            return ops.add(a, b)  # both producers single-consumed: one group

        jaxpr, _, _ = ir.trace(f, x)
        prog = linearize(jaxpr)
        assert prog.n_instructions == 1
        identical(ir.eval_jaxpr(jaxpr, [x]), prog([x]))


def _alternating_chain(n):
    """``n`` single-consumer elementwise steps on a 0-d value: nothing is
    donated (0-d results may be NumPy scalars), so every step is
    nestable and only the group's size decides."""

    def f(x):
        for k in range(n):
            x = ops.tanh(x) if k % 2 else ops.mul(x, 1.01)
        return x

    return f, (np.float32(0.3),), {"fused_away": n - 1, "donations": 0}


def _nested_reader_dies_in_group():
    """``neg`` nests into the root ``add`` while the named ``add(x, z)``
    is x's last reader in step order: x must outlive the root's
    statement, which evaluates ``neg``."""
    r = rng(14)
    x, z = r.randn(4, 8).astype(np.float32), r.randn(2, 4, 8).astype(np.float32)
    return (
        lambda x, z: ops.add(ops.neg(x), ops.add(x, z)),
        (x, z),
        {"fused_away": 2, "donations": 1},
    )


def _nested_step_donates_dying_operand():
    """The fresh matmul result dies inside a group: ``add`` donates it
    and nests, in the same expression, into ``mul`` (no donation across
    the broadcast) — its free follows mul's statement."""
    r = rng(15)
    x, w = r.randn(8, 8).astype(np.float32), r.randn(8, 8).astype(np.float32)
    y = r.randn(4, 1, 1).astype(np.float32)
    return (
        lambda x, w, y: ops.exp(ops.mul(ops.add(ops.matmul(x, w), 1.0), y)),
        (x, w, y),
        {"fused_away": 2, "donations": 2},
    )


def _member_donates_outside_operand():
    """A group member donates a fresh single-use operand produced outside
    its group (the matmul result into ``exp``): one donation rule for
    every step."""
    r = rng(16)
    x, w = r.randn(4, 8).astype(np.float32), r.randn(8, 8).astype(np.float32)
    return (
        lambda x, w: ops.tanh(ops.exp(ops.matmul(x, w))),
        (x, w),
        {"fused_away": 1, "donations": 2},
    )


EDGE_CASES = {
    "group_at_max_nest": lambda: _alternating_chain(_MAX_NEST),
    "group_beyond_max_nest": lambda: _alternating_chain(_MAX_NEST + 5),
    "nested_reader_dies_in_group": _nested_reader_dies_in_group,
    "nested_step_donates_dying_operand": _nested_step_donates_dying_operand,
    "member_donates_outside_operand": _member_donates_outside_operand,
}


class TestCodegenDifferential:
    """Fusion-plan edge cases through all three task back ends:
    interpreter, linear VM, and generated source, bit-identical."""

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_three_backends_bit_identical(self, case):
        f, args, want_stats = EDGE_CASES[case]()
        jaxpr, _, _ = ir.trace(f, *args)
        flat, _ = ir.tree_flatten(args)
        prog = linearize(jaxpr)
        ref = ir.eval_jaxpr(jaxpr, flat)
        identical(ref, prog(flat))
        identical(ref, codegen(jaxpr)(flat))
        assert prog.stats["fused_groups"] == 1
        for k, v in want_stats.items():
            assert prog.stats[k] == v, k


class TestProgramBehaviour:
    def test_cache_identity(self):
        x = np.ones((2,), np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.add(x, 1.0), x)
        assert linearize(jaxpr) is linearize(jaxpr)

    def test_wrong_arity_raises(self):
        x = np.ones((2,), np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.add(x, 1.0), x)
        with pytest.raises(TypeError, match="inputs"):
            linearize(jaxpr)([x, x])

    def test_traced_fallback_inlines(self):
        # calling a LinearProgram under an active trace must splice the
        # jaxpr into the outer trace, exactly like eval_jaxpr
        x = np.full((3,), 2.0, np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.mul(ops.add(x, 1.0), 2.0), x)
        prog = linearize(jaxpr)
        outer, _, _ = ir.trace(lambda x: ops.neg(prog([x])[0]), x)
        assert outer.n_eqns >= 3  # inlined, not opaque
        np.testing.assert_array_equal(
            ir.eval_jaxpr(outer, [x])[0], -(x + 1.0) * 2.0
        )

    def test_repeated_runs_are_independent(self):
        # donation/liveness must not leak state between calls
        r = rng(12)
        x = r.randn(4, 4).astype(np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.add(ops.matmul(x, x), 1.0), x)
        prog = linearize(jaxpr)
        first = [np.array(v, copy=True) for v in prog([x])]
        second = prog([x])
        identical(first, second)

    def test_unsupported_dtype_raises_like_interpreter(self):
        x = np.ones((3,), np.uint8)  # not in the canonicalization table
        jaxpr, _, _ = ir.trace(
            lambda x: ops.add(x, x), np.ones((3,), np.int32)
        )
        prog = linearize(jaxpr)
        with pytest.raises(TypeError, match="unsupported dtype"):
            ir.eval_jaxpr(jaxpr, [x])
        with pytest.raises(TypeError, match="unsupported dtype"):
            prog([x])

    def test_folded_constant_output_matches_interpreter_raw(self):
        # a literal-only eqn whose (possibly non-canonical) impl output is
        # a program output: the interpreter returns the raw impl result,
        # so folding must store it raw too
        from repro.ir.jaxpr import Eqn, Jaxpr, Literal, Var
        from repro.ir.ops import sqrt_p

        lit = Literal(np.asarray([4, 9], np.int32))
        out = Var(sqrt_p.abstract_eval(lit.aval))
        jaxpr = Jaxpr([], [Eqn(sqrt_p, [lit], [out], {})], [out])
        a = ir.eval_jaxpr(jaxpr, [])
        prog = linearize(jaxpr)
        assert prog.stats["folded"] == 1
        identical(a, prog([]))

    def test_dispatch_accounting(self):
        r = rng(13)
        x = r.randn(4, 4).astype(np.float32)
        jaxpr, _, _ = ir.trace(lambda x: ops.exp(ops.mul(ops.matmul(x, x), 0.5)), x)
        prog = linearize(jaxpr)
        s = prog.stats
        assert s["n_instructions"] < s["n_eqns"]
        assert s["vm_calls_per_run"] < s["interp_calls_per_run"]


class TestProgramCachePins:
    """The weak program cache's strong-pin set (:class:`RecentPins`).

    Regression for the miss-only pin bug: the pin deque used to be
    appended only on cache miss, so a hot program whose sole strong
    holder was the pin (the eager ``accumulate_grads`` path) aged out
    after 128 *other* lowerings and silently re-lowered every step.
    Pins must refresh on hit, and repeated touches of one program must
    not consume multiple pin slots.
    """

    def _fresh_jaxpr(self, seed):
        x = np.float32(seed)
        jaxpr, _, _ = ir.trace(lambda x: ops.mul(ops.add(x, 1.0), 2.0), x)
        return jaxpr

    def test_hot_program_survives_129_interleaved_lowerings(self):
        import gc

        hot = self._fresh_jaxpr(0)
        hot_prog_id = id(linearize(hot))
        # interleave: touch the hot program (hit), then lower a fresh
        # jaxpr (miss).  N > maxlen would evict the hot pin under
        # miss-only appends; with on-hit refresh it stays the most
        # recently used pin throughout.
        cold = []  # keep cold jaxprs alive so ids stay distinct
        for i in range(1, 140):
            assert id(linearize(hot)) == hot_prog_id
            cold.append(self._fresh_jaxpr(i))
            linearize(cold[-1])
        gc.collect()
        # same object => never re-lowered (the only strong holder was the pin)
        assert id(linearize(hot)) == hot_prog_id

    def test_codegen_cache_shares_pin_semantics(self):
        import gc

        from repro.ir.codegen import _MAX_NEST, codegen

        hot = self._fresh_jaxpr(1000)
        hot_prog_id = id(codegen(hot))
        cold = []
        for i in range(1, 140):
            assert id(codegen(hot)) == hot_prog_id
            cold.append(self._fresh_jaxpr(1000 + i))
            codegen(cold[-1])
        gc.collect()
        assert id(codegen(hot)) == hot_prog_id

    def test_touch_dedupes_slots(self):
        from repro.ir.linearize import RecentPins

        pins = RecentPins(maxlen=4)
        progs = [object() for _ in range(3)]
        for _ in range(10):
            for p in progs:
                pins.touch(p)
        assert len(pins) == 3
        assert all(p in pins for p in progs)
        # LRU eviction beyond maxlen evicts the least recently touched
        extra = [object(), object()]
        pins.touch(extra[0])
        pins.touch(extra[1])
        assert progs[0] not in pins
        assert progs[1] in pins and extra[0] in pins and extra[1] in pins
        assert len(pins) == 4
