"""Driver API tests: RemoteMesh validation, StepFunction compile caching."""

import weakref

import numpy as np
import pytest

from repro import core, ir
from repro.ir import nn, ops, pipeline_yield
from tests.helpers import rng


def _problem(n_mbs=4, mbsz=6, d=4, seed=0):
    r = rng(seed)
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    params = {
        "w0": (r.randn(d, d) * 0.4).astype(np.float32),
        "w1": (r.randn(d, d) * 0.4).astype(np.float32),
    }

    def loss_fn(p, mb):
        x, y = mb
        h = pipeline_yield(nn.relu(ops.matmul(x, p["w0"])))
        h = ops.matmul(h, p["w1"])
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        def mg(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(mg, None)(batch)
        new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads)
        return new, loss

    return train_step, params, (X, Y)


class TestRemoteMesh:
    def test_shapes(self):
        assert core.RemoteMesh((3,)).n_actors == 3
        m = core.RemoteMesh((2, 4))
        assert m.dp_size == 2 and m.n_pipeline_actors == 4 and m.n_actors == 8

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            core.RemoteMesh((1, 2, 3))

    def test_repr_uncompiled(self):
        train_step, *_ = _problem()
        s = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        assert "uncompiled" in repr(s)


class TestStepFunctionCaching:
    def test_compiles_once_for_same_shapes(self):
        train_step, params, batch = _problem()
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        step(params, batch)
        first = step.compiled
        step(params, batch)
        assert step.compiled is first  # cached

    def test_recompiles_on_shape_change(self):
        train_step, params, batch = _problem(n_mbs=4)
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        step(params, batch)
        first = step.compiled
        _, _, batch8 = _problem(n_mbs=8)
        step(params, batch8)
        assert step.compiled is not first

    def test_recompile_key_is_shape_and_dtype(self):
        """The per-call check reads (shape, dtype) off the leaves — no
        avals, no reprs — and still recompiles on either change (event
        engine); placed sizes are fixed at compile time."""
        train_step, params, batch = _problem(n_mbs=4)
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        step(params, batch)
        first = step.compiled
        placed = [k for k, p in enumerate(first.input_placements) if p]
        sizes = {k: nbytes for k, _, nbytes, _ in step._plan.inputs}
        assert placed and sorted(sizes) == placed
        assert sizes[placed[0]] == 4 * 4 * 4  # w0: 4x4 float32
        # same shapes and dtypes in fresh arrays: no recompile
        step({k: v.copy() for k, v in params.items()}, tuple(b.copy() for b in batch))
        assert step.compiled is first
        # a dtype change alone recompiles, and the result still matches
        half = {k: v.astype(np.float16) for k, v in params.items()}
        out_p, _ = step(half, batch)
        assert step.compiled is not first
        second = step.compiled
        ref_p, _ = train_step(half, batch)
        for k in params:
            np.testing.assert_allclose(out_p[k], ref_p[k], atol=1e-2)
        # and so does a shape change, back on the first dtype
        _, _, batch8 = _problem(n_mbs=8)
        step(params, batch8)
        assert step.compiled is not second

    def test_results_consistent_across_recompiles(self):
        train_step, params, batch4 = _problem(n_mbs=4, seed=3)
        _, _, batch8 = _problem(n_mbs=8, seed=4)
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        for batch in (batch4, batch8, batch4):
            out_p, _ = step(params, batch)
            ref_p, _ = train_step(params, batch)
            for k in params:
                np.testing.assert_allclose(out_p[k], ref_p[k], atol=1e-5)

    def test_peak_bytes_requires_run(self):
        train_step, *_ = _problem()
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        with pytest.raises(RuntimeError):
            _ = step.peak_bytes_per_actor

    def test_last_result_populated(self):
        train_step, params, batch = _problem()
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        step(params, batch)
        assert step.last_result is not None
        assert step.last_result.p2p_count > 0
        assert len(step.peak_bytes_per_actor) == 2

    def test_step_keeps_no_input_alive(self):
        """A step keeps its per-actor peaks, not its executor, whose stores
        would pin every placed input until the next call: an input the
        caller dropped is gone as soon as the call that read it returns."""
        train_step, params, batch = _problem()
        step = core.RemoteMesh((2,)).distributed(train_step, schedule=core.OneFOneB(2))
        step(params, batch)
        peaks = step.peak_bytes_per_actor
        fresh = {k: v.copy() for k, v in params.items()}
        gone = weakref.ref(fresh["w0"])
        step(fresh, batch)
        del fresh
        assert gone() is None
        assert step.peak_bytes_per_actor == peaks
