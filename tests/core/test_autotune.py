"""Autotuner tests: cost models (analytic, traced, measured), ranked
search with memory budgets, wait-profile-driven refinement, and the
``schedule="auto"`` compile entry point."""

import numpy as np
import pytest

from repro import core, ir
from repro.core.autotune import CostModel, TuneReport, default_candidates, tune
from repro.ir import nn, ops, pipeline_yield
from repro.core.schedules import BWD, BWD_I, BWD_W, FWD
from repro.perf.pipeline_sim import price_schedule
from tests.helpers import rng


def skewed_cost(p=4, head=3.0):
    """Uniform stages with an expensive last (head) stage."""
    fwd = tuple(1.0 if s < p - 1 else head for s in range(p))
    return CostModel(fwd=fwd, bwd=tuple(2 * f for f in fwd))


class TestCostModel:
    def test_uniform(self):
        cm = CostModel.uniform(3)
        assert cm.n_stages == 3
        assert cm.unit_time(0, FWD) == 1.0
        assert cm.unit_time(2, BWD) == 2.0
        assert cm.skew == 1.0

    def test_split_backward_fractions(self):
        cm = CostModel.uniform(2, bwd_time=3.0)
        assert cm.unit_time(1, BWD_I, 0.5) == pytest.approx(1.5)
        assert cm.unit_time(1, BWD_W, 0.5) == pytest.approx(1.5)
        assert cm.unit_time(1, BWD_I, 0.25) + cm.unit_time(1, BWD_W, 0.25) == pytest.approx(3.0)

    def test_rejects_mismatched_stages(self):
        with pytest.raises(ValueError):
            CostModel(fwd=(1.0, 1.0), bwd=(2.0,))
        with pytest.raises(ValueError):
            CostModel(fwd=(1.0,), bwd=(2.0,), act_bytes=(1.0, 1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unit kind"):
            CostModel.uniform(2).unit_time(0, "nope")

    def test_from_kernels_head_stage_is_heavier(self):
        from repro.cluster.specs import DGX_H100
        from repro.perf import GPT3_175B, JAX_KERNELS

        cm = CostModel.from_kernels(
            GPT3_175B, DGX_H100.gpu, JAX_KERNELS,
            n_stages=4, layers_per_stage=2, mbs=1, tp=8,
        )
        assert cm.n_stages == 4
        assert cm.fwd[3] > cm.fwd[0]  # the logits surcharge
        assert cm.fwd[0] == cm.fwd[1] == cm.fwd[2]
        assert cm.skew > 1.05
        assert cm.act_bytes[0] > 0 and cm.boundary[0] > 0

    def test_from_result_replays_measured_durations(self):
        # price a schedule under a known skewed table, then rebuild the
        # table from the resulting timeline: the replay must round-trip
        p = 3
        want = skewed_cost(p)
        res = price_schedule(core.OneFOneB(p), 6, want)
        got = CostModel.from_result(res, p)
        assert got.fwd == pytest.approx(want.fwd)
        assert got.bwd == pytest.approx(want.bwd)

    def test_from_result_resums_split_backwards(self):
        p = 3
        want = skewed_cost(p)
        res = price_schedule(core.ZBH1(p), 6, want)
        got = CostModel.from_result(res, p)
        assert got.bwd == pytest.approx(want.bwd)

    def test_from_result_rejects_unannotated_timeline(self):
        from repro.runtime.executor import ExecutionResult

        empty = ExecutionResult(
            makespan=0.0, timeline=[], actor_finish=[0.0],
            p2p_bytes=0, p2p_count=0,
        )
        with pytest.raises(ValueError, match="no stage-annotated"):
            CostModel.from_result(empty, 2)


class TestDefaultCandidates:
    def test_one_stage_per_rank_family(self):
        names = {type(s).__name__ for s in default_candidates(4)}
        assert names == {"GPipe", "OneFOneB", "Eager1F1B", "ZBH1", "ZBH2"}

    def test_two_chunk_family_includes_zbv(self):
        names = {type(s).__name__ for s in default_candidates(4, 8)}
        assert names == {"Interleaved1F1B", "LoopedBFS", "InterleavedZB", "ZBV"}

    def test_higher_repeat_has_no_zbv(self):
        names = {type(s).__name__ for s in default_candidates(2, 6)}
        assert "ZBV" not in names

    def test_indivisible_stage_count_rejected(self):
        with pytest.raises(ValueError):
            default_candidates(4, 6)


class TestTune:
    def test_skewed_workload_ranks_zero_bubble_above_gpipe(self):
        report = tune(skewed_cost(4), 4, 8)
        assert report.best.schedule.backward_split  # a ZB family wins
        names = [e.name for e in report.feasible]
        assert names.index(report.best.name) < names.index("GPipe")
        assert report.speedup_vs("GPipe") > 1.0

    def test_memory_budget_excludes_over_bound_schedules(self):
        cm = skewed_cost(4)
        # 1F1B-bound budget: 4 live activations/rank (act_bytes = 1 each)
        report = tune(cm, 4, 8, memory_budget=4.0)
        excluded = {e.name for e in report.entries if not e.feasible}
        assert "GPipe" in excluded  # holds all 8
        assert "ZB-H2" in excluded  # holds 2p - 1 = 7
        assert report.best.name in ("ZB-H1", "OneFOneB")
        for e in report.entries:
            if not e.feasible:
                assert "budget" in e.reason or "over" in e.reason

    def test_speedup_vs_excluded_candidate_rejected(self):
        # a memory-excluded candidate carries an *analytic* makespan
        # (no comm costs), which must not silently mix with the
        # engine-priced entries in a speedup ratio
        report = tune(skewed_cost(4), 4, 8, memory_budget=4.0)
        with pytest.raises(ValueError, match="not comparable"):
            report.speedup_vs("GPipe")
        with pytest.raises(KeyError):
            report.speedup_vs("NoSuchSchedule")

    def test_no_feasible_schedule_raises_on_best(self):
        report = tune(skewed_cost(4), 4, 8, memory_budget=0.5)
        assert not report.feasible
        with pytest.raises(ValueError, match="no feasible"):
            report.best

    def test_shape_incompatible_candidates_excluded_not_fatal(self):
        # interleaved needs n_mbs % p == 0; n_mbs = 6 over 4 ranks fails
        cm = CostModel.uniform(8)
        report = tune(cm, 4, 6, rounds=1)
        bad = [e for e in report.entries if not e.feasible]
        assert any("divisible" in e.reason for e in bad)
        assert report.best.feasible

    def test_second_round_shrinks_makespan_under_latency(self):
        # skewed costs + transfer latency: the wait profile shows the
        # downstream ranks parked, warmup shifts upstream, makespan drops
        cm = CostModel(fwd=(2.0, 1.0, 1.0, 1.0), bwd=(4.0, 2.0, 2.0, 2.0))
        cands = lambda: [core.GPipe(4), core.OneFOneB(4)]
        r1 = tune(cm, 4, 8, candidates=cands(), rounds=1, p2p_latency_s=0.5)
        r2 = tune(cm, 4, 8, candidates=cands(), rounds=2, p2p_latency_s=0.5)
        assert r2.rounds == 2
        assert r2.best.makespan < r1.best.makespan
        assert r2.best.round == 1  # a wait-profile proposal won
        assert type(r2.best.schedule).__name__ == "Hybrid1F1B"

    def test_refinement_never_hurts(self):
        cm = skewed_cost(4)
        r1 = tune(cm, 4, 8, rounds=1)
        r2 = tune(cm, 4, 8, rounds=2)
        assert r2.best.makespan <= r1.best.makespan

    def test_refinement_proposals_respect_memory_budget(self):
        cm = CostModel(fwd=(2.0, 1.0, 1.0, 1.0), bwd=(4.0, 2.0, 2.0, 2.0))
        budget = 5.0  # excludes the eager-style warmups (peak warmup+1)
        report = tune(cm, 4, 8, memory_budget=budget, p2p_latency_s=0.5)
        for e in report.feasible:
            assert e.peak_act_bytes <= budget

    def test_two_chunk_search_prices_zbv(self):
        cm = CostModel.uniform(8, fwd_time=0.5, bwd_time=1.0)
        report = tune(cm, 4, 8, rounds=1)
        priced = {e.name for e in report.feasible}
        assert "ZB-V" in priced
        assert report.best.name == "ZB-V"  # zero-bubble at v=2 design point

    def test_report_renders(self):
        from repro.viz import render_tune_report

        report = tune(skewed_cost(4), 4, 8, memory_budget=6.0)
        out = render_tune_report(report)
        assert "excluded" in out and "memory budget" in out
        assert report.best.name in out


def make_problem(widths, n_mbs=8, mbsz=6, seed=1):
    """A pipeline with per-stage widths (uneven = skewed stage costs)."""
    r = rng(seed)
    X = r.randn(n_mbs, mbsz, widths[0]).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, widths[-1]).astype(np.float32)
    params = {
        f"w{i}": (r.randn(widths[i], widths[i + 1]) * 0.3).astype(np.float32)
        for i in range(len(widths) - 1)
    }
    n_stages = len(widths) - 1

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages):
            h = ops.matmul(h, p[f"w{i}"])
            if i < n_stages - 1:
                h = pipeline_yield(nn.relu(h))
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        def mg(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(mg, None)(batch)
        new = ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.05, g)), params, grads)
        return new, loss

    return train_step, params, (X, Y), n_stages


class TestScheduleAuto:
    def test_auto_compiles_and_stores_report(self):
        ts, params, batch, p = make_problem([8, 8, 8, 8, 8])
        step = core.RemoteMesh((p,)).distributed(ts, schedule="auto")
        step(params, batch)
        assert step.compiled.tune_report is not None
        assert step.compiled.schedule is step.compiled.tune_report.best.schedule

    def test_auto_matches_explicit_schedule_bit_for_bit(self):
        ts, params, batch, p = make_problem([8, 8, 8, 8, 8])
        mesh = core.RemoteMesh((p,))
        auto = mesh.distributed(ts, schedule="auto")(params, batch)
        picked = None
        # recompile with the winner passed explicitly
        step2 = core.RemoteMesh((p,)).distributed(ts, schedule="auto")
        step2(params, batch)
        picked = step2.compiled.schedule
        explicit = mesh.distributed(ts, schedule=picked)(params, batch)
        for a, b in zip(ir.tree_leaves(auto), ir.tree_leaves(explicit)):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_auto_cost_model_sees_width_skew(self):
        # one wide stage: its flops estimate must dominate the table
        ts, params, batch, p = make_problem([4, 32, 4, 4])
        step = core.RemoteMesh((p,)).distributed(ts, schedule="auto")
        step(params, batch)
        cm = step.compiled.tune_report.cost_model
        assert cm.fwd[0] > cm.fwd[2]  # stage 0 (4 -> 32 matmul + 32-wide relu)
        assert cm.skew > 1.5

    def test_auto_respects_memory_budget(self):
        ts, params, batch, p = make_problem([8, 8, 8, 8, 8])
        step = core.RemoteMesh((p,)).distributed(ts, schedule="auto")
        step(params, batch)
        unbounded = step.compiled.tune_report
        # budget at the 1F1B byte level excludes the doubled-warmup family
        budget = max(
            e.peak_act_bytes for e in unbounded.entries if e.name == "OneFOneB"
        )
        step2 = core.RemoteMesh((p,)).distributed(
            ts, schedule="auto", memory_budget=budget
        )
        step2(params, batch)
        report = step2.compiled.tune_report
        assert report.memory_budget == budget
        assert {"GPipe", "ZB-H2"} <= {
            e.name for e in report.entries if not e.feasible
        }
        assert report.best.peak_act_bytes <= budget

    def test_unknown_schedule_string_rejected(self):
        ts, params, batch, p = make_problem([8, 8, 8])
        with pytest.raises(ValueError, match="auto"):
            core.RemoteMesh((p,)).distributed(ts, schedule="fastest")

    def test_compile_level_auto_without_mesh(self):
        ts, params, batch, p = make_problem([8, 8, 8, 8, 8])
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = core.compile_train_step(jaxpr, "auto")
        assert compiled.tune_report is not None
        assert compiled.schedule.n_stages == p
