"""Gradient correctness: every differentiable op against finite differences."""

import numpy as np
import pytest

from repro import ir
from repro.ir import nn, ops
from tests.helpers import check_grads, rng


def _f32(*shape, seed=0):
    return rng(seed).randn(*shape).astype(np.float32)


class TestElementwiseGrads:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: ops.add(x, 2.0).sum(),
            lambda x: ops.sub(3.0, x).sum(),
            lambda x: ops.mul(x, x).sum(),
            lambda x: ops.div(x, 2.5).sum(),
            lambda x: ops.neg(x).sum(),
            lambda x: ops.tanh(x).sum(),
            lambda x: ops.exp(x).sum(),
            lambda x: ops.sin(x).sum(),
            lambda x: ops.cos(x).sum(),
            lambda x: ops.pow(x, 2.0).sum(),
        ],
    )
    def test_unary_like(self, fn):
        check_grads(fn, [_f32(3, 2, seed=1)])

    def test_log_sqrt(self):
        x = np.abs(_f32(4, seed=2)) + 0.5
        check_grads(lambda x: ops.log(x).sum(), [x])
        check_grads(lambda x: ops.sqrt(x).sum(), [x])

    def test_erf(self):
        check_grads(lambda x: ops.erf(x).sum(), [_f32(4, seed=3)])

    def test_abs_away_from_zero(self):
        x = _f32(4, seed=4)
        x = np.where(np.abs(x) < 0.2, 0.5, x).astype(np.float32)
        check_grads(lambda x: ops.abs_(x).sum(), [x])

    def test_maximum_both_args(self):
        x, y = _f32(5, seed=5), _f32(5, seed=6)
        check_grads(lambda x, y: ops.maximum(x, y).sum(), [x, y], argnum=0)
        check_grads(lambda x, y: ops.maximum(x, y).sum(), [x, y], argnum=1)

    def test_minimum(self):
        x, y = _f32(5, seed=7), _f32(5, seed=8)
        check_grads(lambda x, y: ops.minimum(x, y).sum(), [x, y], argnum=0)

    def test_where(self):
        c = rng(9).rand(4) > 0.5
        x, y = _f32(4, seed=10), _f32(4, seed=11)
        check_grads(lambda x, y: ops.where(c, x, y).sum(), [x, y], argnum=0)
        check_grads(lambda x, y: ops.where(c, x, y).sum(), [x, y], argnum=1)

    def test_mul_broadcast_unbroadcast(self):
        x, y = _f32(4, 3, seed=12), _f32(3, seed=13)
        check_grads(lambda x, y: ops.mul(x, y).sum(), [x, y], argnum=1)

    def test_div_wrt_denominator(self):
        x = _f32(4, seed=14)
        y = np.abs(_f32(4, seed=15)) + 0.5
        check_grads(lambda x, y: ops.div(x, y).sum(), [x, y], argnum=1)


def test_dense_layer_gradients_are_single_gemms():
    # (B, S, K) @ (K, N) traces as one 2-D GEMM, so dX and dW are 2-D
    # GEMMs too and dW sums every token inside the GEMM itself
    x, w = _f32(4, 6, 8, seed=22), _f32(8, 5, seed=23)
    jaxpr, _, _ = ir.trace(
        ir.value_and_grad(lambda w, x: (ops.matmul(x, w) ** 2.0).sum()),
        w, x,
    )
    matmuls = [e for e in jaxpr.eqns if e.prim.name == "matmul"]
    assert len(matmuls) == 3
    assert all(v.aval.ndim == 2 for e in matmuls for v in e.invars)
    gemm_outs = {id(e.outvars[0]) for e in matmuls}
    assert not any(
        id(v) in gemm_outs
        for e in jaxpr.eqns if e.prim.name == "reduce_sum"
        for v in e.invars
    )
    _, dw = ir.eval_jaxpr(jaxpr, [w, x])
    np.testing.assert_allclose(
        dw, np.einsum("bsk,bsn->kn", x, 2 * (x @ w)), rtol=1e-5, atol=1e-5
    )
    # a batched contraction with a >= 3-D right operand is untouched
    q, k = _f32(2, 3, 4, 5, seed=24), _f32(2, 3, 5, 4, seed=25)
    jaxpr, _, _ = ir.trace(ops.matmul, q, k)
    assert [e.prim.name for e in jaxpr.eqns] == ["matmul"]
    assert [v.aval.ndim for v in jaxpr.eqns[0].invars] == [4, 4]


class TestStructuralGrads:
    def test_matmul_both(self):
        x, y = _f32(3, 4, seed=16), _f32(4, 2, seed=17)
        check_grads(lambda x, y: ops.matmul(x, y).sum(), [x, y], argnum=0)
        check_grads(lambda x, y: ops.matmul(x, y).sum(), [x, y], argnum=1)

    def test_matmul_batched_broadcast(self):
        x, y = _f32(2, 3, 4, seed=18), _f32(4, 2, seed=19)
        check_grads(lambda x, y: (ops.matmul(x, y) ** 2.0).sum(), [x, y], argnum=1)

    def test_reshape_transpose(self):
        x = _f32(2, 6, seed=20)
        check_grads(lambda x: ops.reduce_sum(ops.reshape(x, (3, 4)), 0).sum(), [x])
        check_grads(lambda x: (ops.transpose(x) ** 2.0).sum(), [x])

    def test_broadcast_to(self):
        x = _f32(1, 3, seed=21)
        check_grads(lambda x: (ops.broadcast_to(x, (4, 3)) ** 2.0).sum(), [x])

    def test_concatenate(self):
        x, y = _f32(2, 3, seed=22), _f32(4, 3, seed=23)
        check_grads(lambda x, y: (ops.concatenate([x, y], 0) ** 2.0).sum(), [x, y], argnum=0)
        check_grads(lambda x, y: (ops.concatenate([x, y], 0) ** 2.0).sum(), [x, y], argnum=1)

    def test_slice_unslice(self):
        x = _f32(5, 4, seed=24)
        check_grads(lambda x: (ops.slice_(x, (1, 0), (4, 2)) ** 2.0).sum(), [x])
        g = _f32(2, 2, seed=25)
        check_grads(lambda g: (ops.unslice(g, (4, 4), (1, 1)) ** 2.0).sum(), [g])

    def test_take_scatter(self):
        x = _f32(6, 3, seed=26)
        idx = np.array([0, 2, 2, 5], np.int32)
        check_grads(lambda x: (ops.take(x, idx) ** 2.0).sum(), [x])

    def test_reduce_sum_keepdims(self):
        x = _f32(3, 4, seed=27)
        check_grads(lambda x: (ops.reduce_sum(x, 1, keepdims=True) ** 2.0).sum(), [x])

    def test_reduce_max(self):
        x = _f32(3, 4, seed=28)
        check_grads(lambda x: ops.reduce_max(x, 1).sum(), [x])

    def test_mean(self):
        x = _f32(3, 4, seed=29)
        check_grads(lambda x: (ops.mean(x, 0) ** 2.0).sum(), [x])

    def test_stop_gradient_blocks(self):
        x = _f32(3, seed=30)
        _, g = ir.value_and_grad(lambda x: (ops.stop_gradient(x) * x).sum())(x)
        np.testing.assert_allclose(g, x, rtol=1e-6)  # only the non-stopped path


class TestApi:
    def test_value_and_grad_value(self):
        x = _f32(3, seed=31)
        v, g = ir.value_and_grad(lambda x: (x ** 2.0).sum())(x)
        np.testing.assert_allclose(v, (x ** 2).sum(), rtol=1e-6)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-5)

    def test_grad_pytree(self):
        params = {"w": _f32(3, 2, seed=32), "b": _f32(2, seed=33)}
        x = _f32(4, 3, seed=34)

        def loss(p, x):
            return ((ops.matmul(x, p["w"]) + p["b"]) ** 2.0).sum()

        g = ir.grad(loss)(params, x)
        assert set(g.keys()) == {"w", "b"}
        check_grads(loss, [params, x], argnum=0)

    def test_argnums_tuple(self):
        x, y = _f32(3, seed=35), _f32(3, seed=36)
        _, (gx, gy) = ir.value_and_grad(lambda x, y: (x * y).sum(), argnums=(0, 1))(x, y)
        np.testing.assert_allclose(gx, y, rtol=1e-6)
        np.testing.assert_allclose(gy, x, rtol=1e-6)

    def test_has_aux(self):
        x = _f32(3, seed=37)

        def f(x):
            return (x ** 2.0).sum(), {"norm": ops.abs_(x).sum()}

        (loss, aux), g = ir.value_and_grad(f, has_aux=True)(x)
        assert "norm" in aux
        np.testing.assert_allclose(g, 2 * x, rtol=1e-5)

    def test_grad_wrapper(self):
        x = _f32(3, seed=38)
        g = ir.grad(lambda x: (x ** 2.0).sum())(x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-5)

    def test_unused_input_zero_grad(self):
        x, y = _f32(3, seed=39), _f32(2, seed=40)
        _, (gx, gy) = ir.value_and_grad(lambda x, y: (x ** 2.0).sum(), argnums=(0, 1))(x, y)
        np.testing.assert_allclose(gy, np.zeros_like(y))

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(TypeError):
            ir.value_and_grad(lambda x: x)(_f32(3))

    def test_int_loss_rejected(self):
        with pytest.raises(TypeError):
            ir.value_and_grad(lambda x: ops.convert(x.sum(), ir.int32))(_f32(3))

    def test_grad_under_trace_inlines(self):
        # value_and_grad used inside a traced function must splice fwd+bwd
        # equations into the outer jaxpr (the Figure 3 mechanism).
        x = _f32(3, seed=41)

        def train_step(x):
            loss, g = ir.value_and_grad(lambda x: (x ** 2.0).sum())(x)
            return ops.sub(x, ops.mul(0.1, g))

        jaxpr, _, _ = ir.trace(train_step, x)
        ir.validate(jaxpr)
        out = ir.eval_jaxpr(jaxpr, [x])[0]
        np.testing.assert_allclose(out, x - 0.1 * 2 * x, rtol=1e-5)

    def test_second_order_not_needed_but_composes_eagerly(self):
        # grad of a function that itself calls grad (different variables).
        x = _f32(3, seed=42)

        def inner(y):
            return (y ** 2.0).sum()

        def outer(x):
            g = ir.grad(inner)(x)
            return (g * x).sum()  # = sum(2x * x)

        check_grads(outer, [x])


class TestNNGrads:
    def test_relu(self):
        x = _f32(4, 3, seed=43) + 0.05
        check_grads(lambda x: nn.relu(x).sum(), [x])

    def test_gelu_both(self):
        x = _f32(4, seed=44)
        check_grads(lambda x: nn.gelu(x, approximate=True).sum(), [x])
        check_grads(lambda x: nn.gelu(x, approximate=False).sum(), [x])

    def test_softmax_rows_sum_one(self):
        x = _f32(3, 5, seed=45)
        s = nn.softmax(x)
        np.testing.assert_allclose(s.sum(-1), np.ones(3), rtol=1e-6)
        check_grads(lambda x: (nn.softmax(x) ** 2.0).sum(), [x])

    def test_log_softmax_grad(self):
        x = _f32(3, 5, seed=46)
        check_grads(lambda x: (nn.log_softmax(x) * 0.1).sum(), [x])

    def test_cross_entropy_matches_manual(self):
        logits = _f32(4, 6, seed=47)
        labels = np.array([0, 2, 5, 1], np.int32)
        onehot = np.eye(6, dtype=np.float32)[labels]
        loss = nn.softmax_cross_entropy(logits, onehot)
        ref = -np.take_along_axis(
            logits - np.log(np.exp(logits).sum(-1, keepdims=True)), labels[:, None], 1
        )[:, 0]
        np.testing.assert_allclose(loss, ref, rtol=1e-5)
        check_grads(lambda l: nn.softmax_cross_entropy(l, onehot).sum(), [logits])

    def test_layer_norm(self):
        x = _f32(4, 8, seed=48)
        gamma, beta = np.ones(8, np.float32), np.zeros(8, np.float32)
        out = nn.layer_norm(x, gamma, beta)
        np.testing.assert_allclose(out.mean(-1), np.zeros(4), atol=1e-5)
        check_grads(lambda x: (nn.layer_norm(x, gamma, beta) ** 2.0).sum(), [x])
        check_grads(lambda g: (nn.layer_norm(x, g, beta) ** 2.0).sum(), [gamma])

    def test_rms_norm(self):
        x = _f32(4, 8, seed=49)
        gamma = np.ones(8, np.float32)
        check_grads(lambda x: (nn.rms_norm(x, gamma) ** 2.0).sum(), [x])

    def test_one_hot(self):
        labels = np.array([0, 2, 1], np.int32)
        np.testing.assert_array_equal(nn.one_hot(labels, 3), np.eye(3, dtype=np.float32)[labels])

    def test_label_smoothing(self):
        onehot = np.eye(4, dtype=np.float32)[[1, 2]]
        sm = nn.label_smoothing(onehot, 0.1, 4)
        np.testing.assert_allclose(sm.sum(-1), np.ones(2), rtol=1e-6)
        assert sm.min() == pytest.approx(0.025)

    def test_causal_mask(self):
        m = nn.causal_mask(4)
        assert m[0, 1] < -1e8 and m[1, 0] == 0.0 and m[2, 2] == 0.0

    def test_silu_sigmoid(self):
        x = _f32(5, seed=50)
        np.testing.assert_allclose(nn.sigmoid(x), 1 / (1 + np.exp(-x)), rtol=1e-5)
        check_grads(lambda x: nn.silu(x).sum(), [x])
