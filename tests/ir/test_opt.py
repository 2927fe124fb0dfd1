"""Unit tests for the algebraic optimizer (:mod:`repro.ir.opt`).

The local pipeline (CSE / identity elision / DCE) is checked
eqn-by-eqn on handcrafted jaxprs; the cross-stage sweep
(:func:`optimize_split`) on real ``split_stages`` outputs.  End-to-end
bit-identity of optimized compiled steps lives in
``tests/core/test_opt_backend.py`` — here we pin the *structural*
contract: what each rewrite may remove, what it must preserve.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

from repro import ir, spmd
from repro.core.stage_split import SplitResult, split_stages
from repro.ir import nn, ops, pipeline_yield
from repro.ir.jaxpr import Eqn, Jaxpr, Var, validate
from repro.ir.opt import OptReport, optimize_jaxpr, optimize_split, used_invars
from tests.helpers import rng


def _f32(*shape, seed=0):
    return rng(seed).randn(*shape).astype(np.float32)


class TestCSE:
    def test_duplicate_subexpression_merged(self):
        def f(x, y):
            a = ops.tanh(ops.matmul(x, y))
            b = ops.tanh(ops.matmul(x, y))
            return ops.add(a, b)

        x, y = _f32(3, 4, seed=1), _f32(4, 4, seed=2)
        jaxpr, _, _ = ir.trace(f, x, y)
        out, stats = optimize_jaxpr(jaxpr)
        assert stats.cse_removed == 2  # one matmul + one tanh
        assert out.n_eqns == jaxpr.n_eqns - 2
        np.testing.assert_array_equal(
            ir.eval_jaxpr(jaxpr, [x, y])[0], ir.eval_jaxpr(out, [x, y])[0]
        )

    def test_commutative_operands_canonicalized(self):
        def f(x, y):
            return ops.sub(ops.add(x, y), ops.add(y, x))

        x, y = _f32(3, seed=1), _f32(3, seed=2)
        jaxpr, _, _ = ir.trace(f, x, y)
        out, stats = optimize_jaxpr(jaxpr)
        assert stats.cse_removed == 1
        np.testing.assert_array_equal(
            ir.eval_jaxpr(out, [x, y])[0], np.zeros(3, np.float32)
        )

    def test_noncommutative_not_merged(self):
        def f(x, y):
            return ops.add(ops.sub(x, y), ops.sub(y, x))

        jaxpr, _, _ = ir.trace(f, _f32(3, seed=1), _f32(3, seed=2))
        _, stats = optimize_jaxpr(jaxpr)
        assert stats.cse_removed == 0

    def test_small_literals_merge_by_value(self):
        def f(x):
            return ops.add(ops.mul(x, 2.0), ops.mul(x, 2.0))

        x = _f32(3)
        jaxpr, _, _ = ir.trace(f, x)
        out, stats = optimize_jaxpr(jaxpr)
        assert stats.cse_removed == 1
        np.testing.assert_array_equal(
            ir.eval_jaxpr(jaxpr, [x])[0], ir.eval_jaxpr(out, [x])[0]
        )

    def test_identity_elision_stop_gradient(self):
        def f(x):
            return ops.add(ops.stop_gradient(x), ops.stop_gradient(x))

        x = _f32(3)
        jaxpr, _, _ = ir.trace(f, x)
        out, stats = optimize_jaxpr(jaxpr)
        assert stats.identity_elided == 2
        assert [e.prim.name for e in out.eqns] == ["add"]
        np.testing.assert_array_equal(
            ir.eval_jaxpr(out, [x])[0], (x + x).astype(np.float32)
        )

    def test_pipeline_yield_elided(self):
        def f(x):
            return ops.mul(pipeline_yield(x), 3.0)

        jaxpr, _, _ = ir.trace(f, _f32(3))
        out, stats = optimize_jaxpr(jaxpr)
        assert stats.identity_elided == 1
        assert all(e.prim.name != "pipeline_yield" for e in out.eqns)

    @pytest.mark.parametrize("elide", [True, False])
    def test_shard_constraint_elided_only_without_spmd_mesh(self, elide):
        # the compiler elides with no inner SPMD mesh; with one, the
        # partitioner must still see every annotation
        def f(x):
            return ops.mul(spmd.shard(ops.tanh(x), ("batch", None)), 2.0)

        x = _f32(4, 3)
        jaxpr, _, _ = ir.trace(f, x)
        out, stats = optimize_jaxpr(jaxpr, elide_sharding=elide)
        names = [e.prim.name for e in out.eqns]
        assert ("shard_constraint" in names) is not elide
        assert stats.identity_elided == int(elide)
        np.testing.assert_array_equal(
            ir.eval_jaxpr(jaxpr, [x])[0], ir.eval_jaxpr(out, [x])[0]
        )

    def test_second_pass_finds_nothing(self):
        def f(x, y):
            a = ops.tanh(ops.add(ops.stop_gradient(x), y))
            b = ops.tanh(ops.add(y, ops.stop_gradient(x)))
            return ops.mul(a, b)

        jaxpr, _, _ = ir.trace(f, _f32(3, seed=1), _f32(3, seed=2))
        once, first = optimize_jaxpr(jaxpr)
        assert first.eqns_after < first.eqns_before
        twice, second = optimize_jaxpr(once)
        assert second.cse_removed == second.identity_elided == second.dce_removed == 0
        assert [e.prim.name for e in twice.eqns] == [e.prim.name for e in once.eqns]


class TestExactness:
    """The optimizer only removes or merges equations; it never rewrites
    one into a cheaper but differently-rounded form."""

    def test_matmul_chain_keeps_its_association(self):
        # (x @ y) @ z with a tall x and a skinny z: contracting y @ z
        # first would save FLOPs but change the float summation order
        def f(x, y, z):
            return ops.matmul(ops.matmul(x, y), z)

        args = [_f32(128, 64, seed=1), _f32(64, 64, seed=2), _f32(64, 2, seed=3)]
        jaxpr, _, _ = ir.trace(f, *args)
        out, _ = optimize_jaxpr(jaxpr)
        mm = [e for e in out.eqns if e.prim.name == "matmul"]
        assert [e.outvars[0].aval.shape for e in mm] == [(128, 64), (128, 2)]
        np.testing.assert_array_equal(
            ir.eval_jaxpr(jaxpr, args)[0], ir.eval_jaxpr(out, args)[0]
        )

    def test_transpose_pair_kept(self):
        def f(x):
            return ops.add(ops.transpose(ops.transpose(x)), 1.0)

        x = _f32(3, 4)
        jaxpr, _, _ = ir.trace(f, x)
        out, stats = optimize_jaxpr(jaxpr)
        assert [e.prim.name for e in out.eqns] == [e.prim.name for e in jaxpr.eqns]
        assert stats.eqns_after == stats.eqns_before
        np.testing.assert_array_equal(
            ir.eval_jaxpr(out, [x])[0], (x + 1.0).astype(np.float32)
        )

    def test_ir_imports_no_cost_model(self):
        # pricing rewrites by kernel cost is what made them value-changing;
        # the IR layer must not reach into the cost model or cluster specs
        root = pathlib.Path(ir.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                offenders += [
                    f"{path.name}: {n}"
                    for n in names
                    if n.startswith(("repro.perf", "repro.cluster"))
                ]
        assert offenders == []


class TestDCE:
    def test_dead_chain_removed(self):
        # build the dead chain by hand: the tracer's own DCE would never
        # record it, but optimize_split creates exactly this shape when a
        # boundary output is pruned
        x = Var(ir.ShapedArray((3,), ir.float32))
        live = Var(ir.ShapedArray((3,), ir.float32))
        d1 = Var(ir.ShapedArray((3,), ir.float32))
        d2 = Var(ir.ShapedArray((3,), ir.float32))
        jaxpr = Jaxpr(
            [x],
            [
                Eqn(ops.tanh_p, [x], [live], {}),
                Eqn(ops.mul_p, [x, x], [d1], {}),
                Eqn(ops.add_p, [d1, x], [d2], {}),
            ],
            [live],
        )
        validate(jaxpr)
        out, stats = optimize_jaxpr(jaxpr)
        assert stats.dce_removed == 2
        assert [e.prim.name for e in out.eqns] == ["tanh"]

    def test_used_invars_mask(self):
        x = Var(ir.ShapedArray((3,), ir.float32))
        unused = Var(ir.ShapedArray((3,), ir.float32))
        y = Var(ir.ShapedArray((3,), ir.float32))
        jaxpr = Jaxpr([x, unused], [Eqn(ops.tanh_p, [x], [y], {})], [y])
        assert used_invars(jaxpr) == [True, False]


# -- the cross-stage sweep over a real SplitResult --------------------------


def _mlp_split(n_stages=3, d=8, mbsz=4, dup_yield=False, shard=False):
    """Stage-split fwd+bwd body of an MLP; optionally yield h twice so the
    producer's boundary carries a duplicated output, or annotate every
    layer's matmul with a sharding constraint."""
    r = rng(0)
    params = {
        f"w{i}": (r.randn(d, d) * 0.4).astype(np.float32)
        for i in range(n_stages)
    }
    X = r.randn(mbsz, d).astype(np.float32)
    Y = r.randn(mbsz, d).astype(np.float32)

    def loss_fn(p, x, y):
        h = x
        for i in range(n_stages):
            w = p[f"w{i}"]
            z = ops.matmul(h, w)
            if shard:
                z = spmd.shard(z, ("batch", None))
            h = nn.relu(z) if i < n_stages - 1 else z
            if i < n_stages - 1:
                if dup_yield and i == 0:
                    h = ops.add(pipeline_yield(h), pipeline_yield(h))
                    h = ops.mul(h, 0.5)
                else:
                    h = pipeline_yield(h)
        return ops.mean((h - y) ** 2.0)

    def body(p, x, y):
        loss, grads = ir.value_and_grad(loss_fn)(p, x, y)
        return grads, loss

    jaxpr, _, _ = ir.trace(body, params, X, Y)
    return split_stages(jaxpr), len(params) + 2  # n leaves incl. x, y


class TestOptimizeSplit:
    def test_rewritten_tasks_validate_and_shrink(self):
        split, _ = _mlp_split()
        opt = optimize_split(split, n_batch=2, n_mbs=4)
        assert opt.report.eqns_after < opt.report.eqns_before
        for task in opt.split.tasks:
            validate(task.jaxpr)
            assert len(task.in_atoms) == len(task.jaxpr.invars)
        # task identity/ordering metadata untouched
        assert [t.index for t in opt.split.tasks] == [
            t.index for t in split.tasks
        ]
        assert [t.kind for t in opt.split.tasks] == [t.kind for t in split.tasks]

    def test_backward_weight_transposes_hoisted(self):
        # x and y are microbatched; the w transposes in the backward
        # depend only on captured weights, so every bwd task gets a
        # prologue and its pseudo in_atoms land in memo_vars
        split, _ = _mlp_split()
        opt = optimize_split(split, n_batch=2, n_mbs=4)
        assert opt.prologues
        body_invar_pos = {id(v): k for k, v in enumerate(split.body.invars)}
        for t_idx, pro in opt.prologues.items():
            validate(pro.jaxpr)
            assert len(pro.in_atoms) == len(pro.jaxpr.invars)
            assert len(pro.out_vars) == len(pro.jaxpr.outvars)
            # prologue inputs are loop-invariant body invars (weights):
            # positions at/after n_batch in the body signature
            for a in pro.in_atoms:
                assert body_invar_pos[id(a)] >= 2
            for j, pv in enumerate(pro.out_vars):
                if pv is not None:
                    assert opt.memo_vars[id(pv)] == (t_idx, j)
        # every memo pseudo var appears in exactly one task's in_atoms
        pseudo_uses = {
            id(a)
            for t in opt.split.tasks
            for a in t.in_atoms
            if id(a) in opt.memo_vars
        }
        assert pseudo_uses == set(opt.memo_vars)

    @pytest.mark.parametrize("elide", [True, False])
    def test_sharding_elision_follows_the_flag(self, elide):
        split, _ = _mlp_split(shard=True)

        def count(s):
            return sum(
                e.prim.name == "shard_constraint"
                for t in s.tasks
                for e in t.jaxpr.eqns
            )

        assert count(split) > 0
        opt = optimize_split(split, n_batch=2, n_mbs=4, elide_sharding=elide)
        assert count(opt.split) == (0 if elide else count(split))
        for task in opt.split.tasks:
            validate(task.jaxpr)

    def test_memoization_gated_on_n_mbs(self):
        split, _ = _mlp_split()
        opt = optimize_split(split, n_batch=2, n_mbs=1)
        assert not opt.prologues
        assert not opt.memo_vars

    def test_duplicate_yield_dedupes_boundary(self):
        split, _ = _mlp_split(dup_yield=True)
        opt = optimize_split(split, n_batch=2, n_mbs=4)
        entry = next(
            e for e in opt.report.tasks if e.kind == "fwd" and e.stage == 0
        )
        assert entry.outputs_deduped >= 1
        assert entry.boundary_bytes_after < entry.boundary_bytes_before
        assert any(t_idx == entry.index for _, t_idx, _ in opt.out_aliases)
        # the aliased body var resolves to a surviving out position
        task = opt.split.tasks[entry.index]
        for _, t_idx, pos in opt.out_aliases:
            assert 0 <= pos < len(opt.split.tasks[t_idx].out_vars)
        assert task.out_vars  # dedup never empties the boundary

    def test_dead_boundary_output_pruned_with_its_chain(self):
        # splice a dead escaping output into the stage-0 forward: an
        # extra eqn chain ending in a boundary var nobody consumes.  The
        # reverse sweep must prune the output and DCE the chain.
        split, _ = _mlp_split()
        t_idx = split.fwd_task_of_stage[0]
        task = split.tasks[t_idx]
        src = task.jaxpr.outvars[0]
        dead_local = Var(src.aval)
        dead_body = Var(src.aval)
        jaxpr = Jaxpr(
            task.jaxpr.invars,
            list(task.jaxpr.eqns) + [Eqn(ops.mul_p, [src, src], [dead_local], {})],
            list(task.jaxpr.outvars) + [dead_local],
        )
        validate(jaxpr)
        tasks = list(split.tasks)
        tasks[t_idx] = dataclasses.replace(
            task, jaxpr=jaxpr, out_vars=list(task.out_vars) + [dead_body]
        )
        split = SplitResult(
            tasks=tasks,
            n_stages=split.n_stages,
            fwd_task_of_stage=dict(split.fwd_task_of_stage),
            bwd_task_of_stage=dict(split.bwd_task_of_stage),
            assignment=dict(split.assignment),
            body=split.body,
        )
        opt = optimize_split(split, n_batch=2, n_mbs=4)
        entry = next(e for e in opt.report.tasks if e.index == t_idx)
        assert entry.outputs_pruned == 1
        assert entry.boundary_bytes_after < entry.boundary_bytes_before
        new_task = opt.split.tasks[t_idx]
        assert all(v is not dead_body for v in new_task.out_vars)
        assert all(
            v is not dead_local
            for e in new_task.jaxpr.eqns
            for v in e.outvars
        )

    def test_report_summary_and_stage_reduction(self):
        split, _ = _mlp_split()
        opt = optimize_split(split, n_batch=2, n_mbs=4)
        text = opt.report.summary()
        assert text.startswith("optimize: ")
        assert f"{opt.report.eqns_before} -> {opt.report.eqns_after}" in text
        red = opt.report.stage_eqn_reduction()
        assert set(red) == set(range(split.n_stages))
        assert all(0.0 <= r < 1.0 for r in red.values())

    def test_report_is_a_fresh_object_per_call(self):
        split, _ = _mlp_split()
        a = optimize_split(split, n_batch=2, n_mbs=4).report
        b = optimize_split(split, n_batch=2, n_mbs=4).report
        assert isinstance(a, OptReport) and a is not b
        assert a.eqns_after == b.eqns_after
