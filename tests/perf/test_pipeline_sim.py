"""Pipeline-simulator tests: bubble behaviour, overlap, and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import DGX_H100
from repro.perf.kernels import JAX_KERNELS
from repro.perf.pipeline_sim import PipelineSimConfig, simulate_pipeline
from repro.perf.transformer import GPT3_175B, model_flops_per_step
from repro.runtime.executor import CommMode


def cfg(**kw):
    base = dict(
        model=GPT3_175B, node=DGX_H100, pp=8, tp=8, dp=1, v=1, mbs=2, n_mbs=16,
        kernels=JAX_KERNELS, schedule="1f1b", comm_mode=CommMode.ASYNC,
    )
    base.update(kw)
    return PipelineSimConfig(**base)


class TestBasics:
    def test_step_time_positive_and_bounded(self):
        r = simulate_pipeline(cfg())
        ideal = model_flops_per_step(GPT3_175B, 32) / (64 * DGX_H100.gpu.peak_flops)
        assert r.step_time > ideal  # can't beat peak
        assert r.step_time < 20 * ideal

    def test_breakdown_sums_to_makespan(self):
        r = simulate_pipeline(cfg())
        b = r.breakdown
        total = b["compute"] + b["remat"] + b["p2p"] + b["bubble"] + b["dispatch"]
        assert total == pytest.approx(r.makespan, rel=1e-6)

    def test_layers_must_divide(self):
        with pytest.raises(ValueError):
            simulate_pipeline(cfg(v=5))  # 96 / (8*5) not integer

    def test_more_microbatches_lower_bubble_fraction(self):
        r8 = simulate_pipeline(cfg(n_mbs=8))
        r64 = simulate_pipeline(cfg(n_mbs=64))
        assert r64.breakdown["bubble"] / r64.makespan < r8.breakdown["bubble"] / r8.makespan

    def test_interleaving_cuts_bubble(self):
        plain = simulate_pipeline(cfg(n_mbs=16))
        inter = simulate_pipeline(cfg(schedule="interleaved", v=6, n_mbs=16))
        assert inter.breakdown["bubble"] < plain.breakdown["bubble"]

    def test_gpipe_equals_1f1b_makespan_without_memory_pressure(self):
        # with no remat and same costs, GPipe and 1F1B have the same bubble
        small = dict(pp=4, n_mbs=8, mbs=1)
        g = simulate_pipeline(cfg(schedule="gpipe", **small))
        o = simulate_pipeline(cfg(schedule="1f1b", **small))
        if g.remat.kind == o.remat.kind == "none":
            assert g.makespan == pytest.approx(o.makespan, rel=0.02)

    def test_dp_adds_allreduce_time(self):
        r1 = simulate_pipeline(cfg(dp=1))
        r4 = simulate_pipeline(cfg(dp=4))
        assert r4.step_time > r1.step_time
        assert r4.breakdown["dp_allreduce"] > 0

    def test_sync_mode_slower_than_async(self):
        # the §5.3 claim: overlapped P2P beats the synchronous counterpart
        a = simulate_pipeline(cfg(comm_mode=CommMode.ASYNC))
        s = simulate_pipeline(cfg(comm_mode=CommMode.SYNC))
        assert s.makespan > a.makespan

    def test_sync_gpipe_naive_placement(self):
        # frameworks.jax_spmd_pp's configuration: GPipe under blocking P2P
        # runs on the naive (per-iteration recv -> compute -> send) placement
        small = dict(schedule="gpipe", pp=4, n_mbs=8)
        a = simulate_pipeline(cfg(comm_mode=CommMode.ASYNC, **small))
        s = simulate_pipeline(cfg(comm_mode=CommMode.SYNC, **small))
        b = s.breakdown
        total = b["compute"] + b["remat"] + b["p2p"] + b["bubble"] + b["dispatch"]
        assert total == pytest.approx(s.makespan, rel=1e-6)
        assert b["p2p"] > 0
        assert s.makespan >= a.makespan

    def test_build_schedule_checks_chunks_per_actor(self):
        assert cfg(schedule="zbv", v=2).build_schedule().n_stages == 16
        assert cfg(schedule="looped_bfs", v=3).build_schedule().n_stages == 24
        for name, v in [("gpipe", 2), ("1f1b", 2), ("zbv", 1), ("zbh1", 3)]:
            with pytest.raises(ValueError, match="per actor"):
                cfg(schedule=name, v=v).build_schedule()
        with pytest.raises(ValueError, match="unknown schedule"):
            cfg(schedule="2f2b").build_schedule()

    def test_p2p_bytes_scale_with_microbatches(self):
        r16 = simulate_pipeline(cfg(n_mbs=16))
        r32 = simulate_pipeline(cfg(n_mbs=32))
        assert r32.p2p_bytes == pytest.approx(2 * r16.p2p_bytes, rel=0.01)

    def test_global_batch_property(self):
        c = cfg(mbs=4, n_mbs=32, dp=2)
        assert c.global_batch == 256
        assert c.n_gpus == 128


class TestSimProperties:
    @given(
        pp=st.sampled_from([2, 4, 8]),
        v=st.sampled_from([1, 2, 3]),
        mbs=st.sampled_from([1, 2, 4]),
        m_mult=st.integers(1, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_makespan_at_least_critical_path(self, pp, v, mbs, m_mult):
        n_mbs = pp * m_mult
        c = cfg(pp=pp, v=v, n_mbs=n_mbs, mbs=mbs,
                schedule="interleaved" if v > 1 else "1f1b")
        if GPT3_175B.n_layers % (pp * v) != 0:
            return
        r = simulate_pipeline(c)
        # per-actor busy time is a lower bound on the makespan
        busy = r.breakdown["compute"] + r.breakdown["remat"] + r.breakdown["dispatch"]
        assert r.makespan >= busy - 1e-9

    @given(n_mbs=st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=8, deadline=None)
    def test_step_time_monotone_in_microbatches(self, n_mbs):
        a = simulate_pipeline(cfg(n_mbs=n_mbs)).step_time
        b = simulate_pipeline(cfg(n_mbs=2 * n_mbs)).step_time
        assert b > a
