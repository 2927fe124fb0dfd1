"""The headline correctness claim: MPMD pipeline execution over any
schedule / actor count / DP width == single-device reference, exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core, ir, spmd
from repro.ir import nn, ops, pipeline_yield
from tests.helpers import rng


def make_problem(n_stages, n_mbs=4, mbsz=8, d=6, tied=False, seed=1):
    r = rng(seed)
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    params = {f"w{i}": (r.randn(d, d) * 0.3).astype(np.float32) for i in range(n_stages)}

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages):
            w = p["w0"] if (tied and i == n_stages - 1) else p[f"w{i}"]
            h = nn.relu(ops.matmul(h, w)) if i < n_stages - 1 else ops.matmul(h, w)
            if i < n_stages - 1:
                h = pipeline_yield(h)
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(microbatch_grads, None)(batch)
        new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads)
        return new, loss

    return train_step, params, (X, Y)


def assert_matches_reference(train_step, params, batch, mesh, schedule, atol=1e-5, **kw):
    ref_p, ref_l = train_step(params, batch)
    step = mesh.distributed(train_step, schedule=schedule, **kw)
    out_p, out_l = step(params, batch)
    for k in params:
        np.testing.assert_allclose(out_p[k], ref_p[k], atol=atol, rtol=1e-4)
    np.testing.assert_allclose(np.asarray(out_l), np.asarray(ref_l), atol=atol, rtol=1e-4)
    return step


class TestSchedulesMatchReference:
    @pytest.mark.parametrize(
        "schedule,n_stages",
        [
            (core.GPipe(2), 2),
            (core.GPipe(4), 4),
            (core.OneFOneB(2), 2),
            (core.OneFOneB(3), 3),
            (core.OneFOneB(4), 4),
            (core.Interleaved1F1B(2, 2), 4),
            (core.Interleaved1F1B(2, 3), 6),
            (core.Interleaved1F1B(4, 2), 8),
        ],
    )
    def test_schedule(self, schedule, n_stages):
        ts, params, batch = make_problem(n_stages)
        assert_matches_reference(ts, params, batch, core.RemoteMesh((schedule.n_actors,)), schedule)

    def test_more_microbatches(self):
        ts, params, batch = make_problem(3, n_mbs=12)
        assert_matches_reference(ts, params, batch, core.RemoteMesh((3,)), core.OneFOneB(3))

    def test_stage_count_mismatch_rejected(self):
        ts, params, batch = make_problem(3)
        step = core.RemoteMesh((4,)).distributed(ts, schedule=core.OneFOneB(4))
        with pytest.raises(ValueError, match="stages"):
            step(params, batch)


class TestDataParallel:
    def test_dp2_pp2(self):
        ts, params, batch = make_problem(2)
        step = assert_matches_reference(
            ts, params, batch, core.RemoteMesh((2, 2)), core.OneFOneB(2)
        )
        assert step.compiled.n_actors == 4

    def test_dp4_pp2(self):
        ts, params, batch = make_problem(2, mbsz=8)
        assert_matches_reference(ts, params, batch, core.RemoteMesh((4, 2)), core.OneFOneB(2))

    def test_dp_indivisible_batch_rejected(self):
        ts, params, batch = make_problem(2, mbsz=6)
        step = core.RemoteMesh((4, 2)).distributed(ts, schedule=core.OneFOneB(2))
        with pytest.raises(ValueError):
            step(params, batch)


class TestWeightSharing:
    def test_tied_exact_and_commuted(self):
        ts, params, batch = make_problem(3, tied=True)
        step = assert_matches_reference(ts, params, batch, core.RemoteMesh((3,)), core.OneFOneB(3))
        assert step.compiled.n_commuted == 1

    def test_commuting_reduces_p2p_traffic(self):
        import repro.core.compile as cc
        from repro.core.loop_commute import CommuteResult

        ts, params, batch = make_problem(3, tied=True, n_mbs=8)
        step = core.RemoteMesh((3,)).distributed(ts, schedule=core.OneFOneB(3))
        step(params, batch)
        commuted_p2p = step.last_result.p2p_count

        orig = cc.commute_shared_gradients
        cc.commute_shared_gradients = lambda body, out_ops, schedule, split=None: CommuteResult(
            body=split.body if split and split.body is not None else body,
            out_ops=tuple(out_ops), combines=[],
            out_map=[("direct", i) for i in range(len(out_ops))], n_commuted=0,
        )
        try:
            step2 = core.RemoteMesh((3,)).distributed(ts, schedule=core.OneFOneB(3))
            step2(params, batch)
        finally:
            cc.commute_shared_gradients = orig
        uncommuted_p2p = step2.last_result.p2p_count
        # n_mbs partial-gradient transfers collapse into one post-loop send
        assert commuted_p2p < uncommuted_p2p
        ref_p, _ = ts(params, batch)
        out_p, _ = step2(params, batch)
        for k in params:  # uncommuted is slower but still exact
            np.testing.assert_allclose(out_p[k], ref_p[k], atol=1e-5)


class TestMultiStep:
    def test_three_steps_track_reference(self):
        ts, params, batch = make_problem(3, seed=5)
        step = core.RemoteMesh((3,)).distributed(ts, schedule=core.OneFOneB(3))
        ref_p = params
        out_p = params
        for i in range(3):
            ref_p, ref_l = ts(ref_p, batch)
            out_p, out_l = step(out_p, batch)
            np.testing.assert_allclose(np.asarray(out_l), np.asarray(ref_l), atol=1e-5)
        for k in params:
            np.testing.assert_allclose(out_p[k], ref_p[k], atol=1e-4)

    def test_loss_decreases(self):
        ts, params, batch = make_problem(2, seed=6)
        step = core.RemoteMesh((2,)).distributed(ts, schedule=core.OneFOneB(2))
        p = params
        losses = []
        for _ in range(5):
            p, loss = step(p, batch)
            losses.append(float(np.mean(loss)))
        assert losses[-1] < losses[0]


class TestInnerSpmd:
    def test_pp_with_tensor_parallel_tasks(self):
        ts, params, batch = make_problem(2)
        mesh = core.RemoteMesh((2,), spmd_mesh=(("model", 2),), rules={"mlp": "model"})
        assert_matches_reference(ts, params, batch, mesh, core.OneFOneB(2), atol=1e-4)

    @pytest.mark.parametrize(
        "spmd_mesh,kept", [((("model", 2),), 4), (None, 0)], ids=["spmd", "plain"]
    )
    def test_optimizer_keeps_shardings_only_for_the_partitioner(self, spmd_mesh, kept):
        # two annotations forward plus their two cotangent twins backward:
        # the inner mesh's partitioner must see all four, while without
        # one each is an identity the optimizer elides
        r = rng(2)
        params = {f"w{i}": (r.randn(6, 6) * 0.3).astype(np.float32) for i in range(2)}
        batch = tuple(r.randn(4, 8, 6).astype(np.float32) for _ in range(2))

        def loss_fn(p, mb):
            x, y = mb
            h = spmd.shard(ops.matmul(x, p["w0"]), ("batch", "mlp"))
            h = pipeline_yield(nn.relu(h))
            out = spmd.shard(ops.matmul(h, p["w1"]), ("batch", None))
            return ops.mean((out - y) ** 2.0)

        def train_step(params, batch):
            def microbatch_grads(mb):
                loss, grads = ir.value_and_grad(loss_fn)(params, mb)
                return grads, loss

            grads, loss = core.accumulate_grads(microbatch_grads, None)(batch)
            new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads)
            return new, loss

        mesh = core.RemoteMesh((2,), spmd_mesh=spmd_mesh, rules={"mlp": "model"})
        step = assert_matches_reference(
            train_step, params, batch, mesh, core.OneFOneB(2)
        )
        names = [e.prim.name for t in step.compiled.split.tasks for e in t.jaxpr.eqns]
        assert names.count("shard_constraint") == kept


class TestRandomizedEquivalence:
    @given(
        p=st.sampled_from([2, 3, 4]),
        m_mult=st.integers(1, 3),
        kind=st.sampled_from(["gpipe", "1f1b", "interleaved"]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_pipeline_configs(self, p, m_mult, kind, seed):
        if kind == "gpipe":
            sched, stages = core.GPipe(p), p
        elif kind == "1f1b":
            sched, stages = core.OneFOneB(p), p
        else:
            sched, stages = core.Interleaved1F1B(p, 2), 2 * p
        n_mbs = p * m_mult
        ts, params, batch = make_problem(stages, n_mbs=n_mbs, seed=seed)
        assert_matches_reference(ts, params, batch, core.RemoteMesh((p,)), sched)
