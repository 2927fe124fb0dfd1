"""Schedule tests: validity, memory/bubble characteristics (§2.2.1), and
hypothesis properties over random configurations."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedules import (
    BWD_I,
    BWD_W,
    Eager1F1B,
    GPipe,
    Hybrid1F1B,
    Interleaved1F1B,
    InterleavedZB,
    LoopedBFS,
    OneFOneB,
    Unit,
    ZBH1,
    ZBH2,
    ZBV,
    schedule_stats,
    validate_schedule,
)


class TestGPipe:
    def test_valid(self):
        validate_schedule(GPipe(4), 8)

    def test_all_forwards_before_backwards(self):
        for seq in GPipe(3).units(5):
            kinds = [u.kind for u in seq]
            assert kinds == ["fwd"] * 5 + ["bwd"] * 5

    def test_backward_reverse_order(self):
        seq = GPipe(2).units(4)[0]
        bwd_mbs = [u.mb for u in seq if u.kind == "bwd"]
        assert bwd_mbs == [3, 2, 1, 0]

    def test_peak_memory_scales_with_microbatches(self):
        stats = schedule_stats(GPipe(4), 16)
        assert stats["peak_live_activations"][0] == 16

    def test_one_stage_per_actor(self):
        with pytest.raises(ValueError):
            GPipe(4, n_actors=2)


class TestOneFOneB:
    def test_valid(self):
        validate_schedule(OneFOneB(4), 8)

    def test_warmup_counts(self):
        per_actor = OneFOneB(4).units(8)
        for rank, seq in enumerate(per_actor):
            warmup = 0
            for u in seq:
                if u.kind != "fwd":
                    break
                warmup += 1
            assert warmup == 4 - rank - 1 + 1  # warmup fwds + first steady fwd

    def test_peak_memory_scales_with_stages(self):
        # §2.2.1: memory ∝ #stages, independent of #microbatches
        s8 = schedule_stats(OneFOneB(4), 8)
        s32 = schedule_stats(OneFOneB(4), 32)
        assert s8["peak_live_activations"] == s32["peak_live_activations"]
        assert s8["peak_live_activations"][0] == 4

    def test_memory_reduction_vs_gpipe(self):
        # the 2-3x activation memory reduction claim
        g = schedule_stats(GPipe(4), 12)["peak_live_activations"][0]
        o = schedule_stats(OneFOneB(4), 12)["peak_live_activations"][0]
        assert g / o == 3.0

    def test_same_bubble_as_gpipe(self):
        # 1F1B improves memory, not the bubble: (p-1)/(m+p-1) for both
        g = schedule_stats(GPipe(4), 8)["bubble_fraction"]
        o = schedule_stats(OneFOneB(4), 8)["bubble_fraction"]
        assert g == pytest.approx(o, rel=1e-9)

    def test_fewer_microbatches_than_stages(self):
        validate_schedule(OneFOneB(4), 2)


class TestInterleaved:
    def test_valid(self):
        validate_schedule(Interleaved1F1B(4, 2), 8)
        validate_schedule(Interleaved1F1B(2, 3), 4)

    def test_stage_to_actor_round_robin(self):
        s = Interleaved1F1B(4, 2)
        assert [s.actor_of_stage(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_stages_of_actor(self):
        s = Interleaved1F1B(2, 3)
        assert s.stages_of_actor(0) == [0, 2, 4]
        assert s.stages_of_actor(1) == [1, 3, 5]

    def test_requires_divisible_microbatches(self):
        with pytest.raises(ValueError):
            Interleaved1F1B(4, 2).units(6)

    def test_smaller_bubble_than_1f1b(self):
        # interleaving's raison d'être (§2.2.1 / Fig 6): with v chunks the
        # per-unit cost is 1/v, so compare bubble fractions at equal work.
        plain = schedule_stats(OneFOneB(4), 8, fwd_time=1.0, bwd_time=2.0)
        inter = schedule_stats(Interleaved1F1B(4, 2), 8, fwd_time=0.5, bwd_time=1.0)
        assert inter["bubble_fraction"] < plain["bubble_fraction"]

    def test_v1_equals_plain_1f1b_bubble(self):
        a = schedule_stats(Interleaved1F1B(4, 1), 8)
        b = schedule_stats(OneFOneB(4), 8)
        assert a["makespan"] == b["makespan"]

    def test_circular_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            Interleaved1F1B(4, 0)


class TestEager1F1B:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 6), (4, 4), (4, 8), (4, 13), (6, 12), (8, 32)])
    def test_valid_on_grid(self, p, m):
        validate_schedule(Eager1F1B(p), m)

    def test_doubled_warmup(self):
        for rank, seq in enumerate(Eager1F1B(4).units(16)):
            warmup = 0
            for u in seq:
                if u.kind != "fwd":
                    break
                warmup += 1
            # warmup forwards + the first steady-state forward
            assert warmup == min(2 * (4 - 1 - rank), 16) + 1

    def test_last_rank_matches_plain_1f1b(self):
        assert Eager1F1B(4).units(8)[3] == OneFOneB(4).units(8)[3]

    def test_memory_roughly_doubles_but_stays_stage_bounded(self):
        eager = schedule_stats(Eager1F1B(4), 32)["peak_live_activations"]
        plain = schedule_stats(OneFOneB(4), 32)["peak_live_activations"]
        assert eager[0] == 2 * plain[0] - 1  # 2(p-1)+1 vs p
        # still independent of the microbatch count
        assert eager == schedule_stats(Eager1F1B(4), 8)["peak_live_activations"]

    def test_same_makespan_as_1f1b_under_uniform_costs(self):
        e = schedule_stats(Eager1F1B(4), 8)
        o = schedule_stats(OneFOneB(4), 8)
        assert e["makespan"] == pytest.approx(o["makespan"])

    def test_one_stage_per_actor(self):
        with pytest.raises(ValueError):
            Eager1F1B(4, n_actors=2)

    def test_misordered_variant_rejected(self):
        class Bad(Eager1F1B):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                out[0] = list(reversed(out[0]))
                return out

        with pytest.raises(ValueError):
            validate_schedule(Bad(3), 6)


class TestZBH1:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 5), (3, 6), (4, 4), (4, 8), (4, 11), (8, 32)])
    def test_valid_on_grid(self, p, m):
        validate_schedule(ZBH1(p), m)

    def test_backward_is_split(self):
        kinds = {u.kind for seq in ZBH1(4).units(8) for u in seq}
        assert kinds == {"fwd", BWD_I, BWD_W}

    def test_weight_grad_follows_input_grad_locally(self):
        for seq in ZBH1(4).units(12):
            pos = {(u.mb, u.kind): i for i, u in enumerate(seq)}
            for mb in range(12):
                assert pos[(mb, BWD_I)] < pos[(mb, BWD_W)]

    def test_same_peak_memory_as_1f1b(self):
        z = schedule_stats(ZBH1(4), 16)["peak_live_activations"]
        o = schedule_stats(OneFOneB(4), 16)["peak_live_activations"]
        assert z == o

    def test_smaller_bubble_than_1f1b(self):
        # the zero-bubble claim: W units fill the cooldown bubble and the
        # backward sweep's critical path shrinks to the bwd_i chain
        z = schedule_stats(ZBH1(4), 8, fwd_time=1.0, bwd_time=2.0)
        o = schedule_stats(OneFOneB(4), 8, fwd_time=1.0, bwd_time=2.0)
        assert z["makespan"] < o["makespan"]
        assert z["bubble_fraction"] < o["bubble_fraction"]

    def test_work_conserved(self):
        # splitting must not change total busy time per actor
        z = schedule_stats(ZBH1(4), 8, fwd_time=1.0, bwd_time=2.0)
        o = schedule_stats(OneFOneB(4), 8, fwd_time=1.0, bwd_time=2.0)
        assert z["busy"] == pytest.approx(o["busy"])

    def test_w_before_its_i_rejected(self):
        class Bad(ZBH1):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                for seq in out:
                    for i, u in enumerate(seq):
                        if u.kind == BWD_W:
                            # hoist the first W to the front of the program
                            seq.insert(0, seq.pop(i))
                            break
                return out

        with pytest.raises(ValueError, match="deadlock"):
            validate_schedule(Bad(3), 6)

    def test_monolithic_bwd_in_split_schedule_rejected(self):
        class Bad(ZBH1):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                u = out[0][-1]
                out[0][-1] = Unit(u.mb, u.stage, "bwd")
                return out

        with pytest.raises(ValueError, match="may only emit"):
            validate_schedule(Bad(3), 6)

    def test_split_kind_in_monolithic_schedule_rejected(self):
        class Bad(OneFOneB):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                u = out[0][-1]
                out[0][-1] = Unit(u.mb, u.stage, BWD_I)
                return out

        with pytest.raises(ValueError, match="may only emit"):
            validate_schedule(Bad(2), 2)

    def test_one_stage_per_actor(self):
        with pytest.raises(ValueError):
            ZBH1(4, n_actors=2)


class TestZBH2:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 5), (3, 6), (4, 4), (4, 8), (4, 11), (8, 32)])
    def test_valid_on_grid(self, p, m):
        validate_schedule(ZBH2(p), m)

    def test_smaller_bubble_than_zbh1(self):
        # the relaxed memory bound buys a smaller warmup bubble and a
        # faster bwd_i critical chain (weight-gradients deferred on every
        # rank, including the last)
        z2 = schedule_stats(ZBH2(4), 8, fwd_time=1.0, bwd_time=2.0)
        z1 = schedule_stats(ZBH1(4), 8, fwd_time=1.0, bwd_time=2.0)
        assert z2["makespan"] < z1["makespan"]
        assert z2["bubble_fraction"] < z1["bubble_fraction"]

    def test_memory_roughly_doubles_but_stays_stage_bounded(self):
        z2 = schedule_stats(ZBH2(4), 32)["peak_live_activations"]
        z1 = schedule_stats(ZBH1(4), 32)["peak_live_activations"]
        assert max(z2) == 2 * max(z1) - 1  # 2p - 1 vs p
        # still independent of the microbatch count
        assert z2 == schedule_stats(ZBH2(4), 16)["peak_live_activations"]

    def test_work_conserved(self):
        z2 = schedule_stats(ZBH2(4), 8, fwd_time=1.0, bwd_time=2.0)
        o = schedule_stats(OneFOneB(4), 8, fwd_time=1.0, bwd_time=2.0)
        assert z2["busy"] == pytest.approx(o["busy"])

    def test_one_stage_per_actor(self):
        with pytest.raises(ValueError):
            ZBH2(4, n_actors=2)


class TestLoopedBFS:
    @pytest.mark.parametrize("p,v,m", [(2, 2, 4), (2, 3, 5), (4, 2, 8), (4, 3, 4), (3, 2, 7)])
    def test_valid_on_grid(self, p, v, m):
        validate_schedule(LoopedBFS(p, v), m)

    def test_breadth_first_sweeps(self):
        # per actor: all microbatches through chunk 0, then chunk 1, ...;
        # backward chunks reversed, microbatches drained LIFO
        for rank, seq in enumerate(LoopedBFS(2, 2).units(3)):
            stages = [u.stage for u in seq]
            assert stages == [rank] * 3 + [2 + rank] * 3 + [2 + rank] * 3 + [rank] * 3
            fwd_mbs = [u.mb for u in seq if u.kind == "fwd"]
            bwd_mbs = [u.mb for u in seq if u.kind == "bwd"]
            assert fwd_mbs == [0, 1, 2, 0, 1, 2]
            assert bwd_mbs == [2, 1, 0, 2, 1, 0]

    def test_round_robin_placement(self):
        s = LoopedBFS(4, 2)
        assert [s.actor_of_stage(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_memory_grows_with_microbatches(self):
        # the BFS trade-off: GPipe-like memory, scaled by circular repeat
        small = schedule_stats(LoopedBFS(2, 2), 4)["peak_live_activations"]
        large = schedule_stats(LoopedBFS(2, 2), 8)["peak_live_activations"]
        assert large[0] == 2 * small[0] == 16

    def test_no_divisibility_constraint(self):
        # unlike Interleaved1F1B, BFS sweeps need no n_mbs % p == 0
        validate_schedule(LoopedBFS(4, 2), 5)

    def test_circular_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            LoopedBFS(4, 0)


class TestInterleavedZB:
    @pytest.mark.parametrize("p,v,m", [(2, 2, 4), (2, 3, 6), (4, 2, 8), (4, 3, 12)])
    def test_valid_on_grid(self, p, v, m):
        validate_schedule(InterleavedZB(p, v), m)

    def test_backward_is_split(self):
        kinds = {u.kind for seq in InterleavedZB(2, 2).units(4) for u in seq}
        assert kinds == {"fwd", BWD_I, BWD_W}

    def test_same_peak_memory_as_interleaved(self):
        iz = schedule_stats(InterleavedZB(4, 2), 8)["peak_live_activations"]
        ib = schedule_stats(Interleaved1F1B(4, 2), 8)["peak_live_activations"]
        assert iz == ib

    def test_smaller_makespan_than_interleaved(self):
        # zero-bubble inside the circular-repeat family: same memory,
        # smaller bubble, because downstream chunks wait only on bwd_i
        iz = schedule_stats(InterleavedZB(4, 2), 8, fwd_time=1.0, bwd_time=2.0)
        ib = schedule_stats(Interleaved1F1B(4, 2), 8, fwd_time=1.0, bwd_time=2.0)
        assert iz["makespan"] < ib["makespan"]

    def test_work_conserved(self):
        iz = schedule_stats(InterleavedZB(4, 2), 8, fwd_time=1.0, bwd_time=2.0)
        ib = schedule_stats(Interleaved1F1B(4, 2), 8, fwd_time=1.0, bwd_time=2.0)
        assert iz["busy"] == pytest.approx(ib["busy"])

    def test_requires_divisible_microbatches(self):
        with pytest.raises(ValueError):
            InterleavedZB(4, 2).units(6)

    def test_weight_grad_follows_input_grad_locally(self):
        for seq in InterleavedZB(2, 2).units(6):
            pos = {(u.mb, u.stage, u.kind): i for i, u in enumerate(seq)}
            for (mb, stage, kind), i in pos.items():
                if kind == BWD_W:
                    assert pos[(mb, stage, BWD_I)] < i


class TestZBV:
    @pytest.mark.parametrize("p,m", [(1, 2), (2, 2), (2, 5), (3, 6), (4, 8), (4, 11), (8, 16)])
    def test_valid_on_grid(self, p, m):
        validate_schedule(ZBV(p), m)

    def test_v_shape_placement(self):
        # descending chunk on actor s, ascending chunk folded back up:
        # actor 0 owns the first and last stage, actor p-1 the middle two
        s = ZBV(4)
        assert [s.actor_of_stage(i) for i in range(8)] == [0, 1, 2, 3, 3, 2, 1, 0]
        assert s.stages_of_actor(0) == [0, 7]
        assert s.stages_of_actor(3) == [3, 4]

    def test_two_chunks_per_actor(self):
        s = ZBV(3)
        assert s.n_stages == 6
        for rank in range(3):
            assert len(s.stages_of_actor(rank)) == 2

    def test_backward_is_split(self):
        kinds = {u.kind for seq in ZBV(2).units(4) for u in seq}
        assert kinds == {"fwd", BWD_I, BWD_W}

    def test_memory_balanced_at_1f1b_bytes(self):
        # ZB-V's claim: ~2p live *chunk* activations per rank (each chunk
        # is half the layers), i.e. 1F1B's byte budget, uniformly
        p, m = 4, 16
        peaks = schedule_stats(ZBV(p), m)["peak_live_activations"]
        assert max(peaks) <= 2 * p
        # and independent of the microbatch count
        assert peaks == schedule_stats(ZBV(p), 8)["peak_live_activations"]

    def test_smaller_makespan_than_zbh2_and_interleaved_zb(self):
        # the ZB-V selling point at its design point (fwd = bwd_i = bwd_w):
        # beats ZB-H2's makespan at roughly half its activation memory
        # (compare at equal per-rank work: ZBV chunks are half stages)
        p, m = 4, 8
        zv = schedule_stats(ZBV(p), m, fwd_time=0.5, bwd_time=1.0)
        z2 = schedule_stats(ZBH2(p), m, fwd_time=1.0, bwd_time=2.0)
        iz = schedule_stats(InterleavedZB(p, 2), m, fwd_time=0.5, bwd_time=1.0)
        assert zv["makespan"] < z2["makespan"]
        assert zv["makespan"] < iz["makespan"]

    def test_work_conserved(self):
        zv = schedule_stats(ZBV(4), 8, fwd_time=0.5, bwd_time=1.0)
        o = schedule_stats(OneFOneB(4), 8, fwd_time=1.0, bwd_time=2.0)
        assert zv["busy"] == pytest.approx(o["busy"])

    def test_weight_grad_follows_input_grad_locally(self):
        for seq in ZBV(3).units(6):
            pos = {(u.mb, u.stage, u.kind): i for i, u in enumerate(seq)}
            for (mb, stage, kind), i in pos.items():
                if kind == BWD_W:
                    assert pos[(mb, stage, BWD_I)] < i

    def test_units_deterministic_and_cached(self):
        s = ZBV(3)
        a = s.units(6)
        b = s.units(6)
        assert a == b
        assert a is not b  # each call builds fresh lists
        assert a == ZBV(3).units(6)  # fresh instance, same order

    def test_needs_at_least_one_actor(self):
        with pytest.raises(ValueError):
            ZBV(0)

    def test_bound_is_the_budget_not_the_measured_peak(self):
        # with fewer microbatches than ranks the order peaks below 2p; the
        # declared bound stays the greedy scheduler's 2p budget
        s = ZBV(4)
        assert schedule_stats(s, 2)["peak_live_activations"] == [4] * 4
        assert [s.activation_bound(r, 2) for r in range(4)] == [8] * 4


class TestHybrid1F1B:
    def test_1f1b_warmup_reproduces_onefoneb(self):
        p, m = 4, 8
        hybrid = Hybrid1F1B(p, [p - 1 - r for r in range(p)])
        assert hybrid.units(m) == OneFOneB(p).units(m)

    def test_eager_warmup_reproduces_eager(self):
        p, m = 4, 16
        hybrid = Hybrid1F1B(p, [2 * (p - 1 - r) for r in range(p)])
        assert hybrid.units(m) == Eager1F1B(p).units(m)

    @pytest.mark.parametrize("warmup", [(5, 3, 2, 0), (8, 8, 8, 8), (1, 1, 1, 0), (0, 0, 0, 0)])
    def test_non_increasing_vectors_valid(self, warmup):
        validate_schedule(Hybrid1F1B(4, warmup), 8)

    def test_increasing_vector_deadlocks(self):
        # a downstream rank warming up more than its upstream deadlocks
        with pytest.raises(ValueError, match="deadlock"):
            validate_schedule(Hybrid1F1B(4, (0, 0, 0, 1)), 8)

    def test_activation_bound_tracks_warmup(self):
        s = Hybrid1F1B(4, (5, 3, 2, 0))
        peaks = schedule_stats(s, 8)["peak_live_activations"]
        for rank, peak in enumerate(peaks):
            assert peak <= s.activation_bound(rank, 8)

    def test_rejects_wrong_length_or_negative(self):
        with pytest.raises(ValueError):
            Hybrid1F1B(4, (1, 0))
        with pytest.raises(ValueError):
            Hybrid1F1B(2, (-1, 0))


class TestValidation:
    def test_detects_duplicate(self):
        class Bad(OneFOneB):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                out[0].append(out[0][0])
                return out

        with pytest.raises(ValueError, match="twice"):
            validate_schedule(Bad(2), 2)

    def test_detects_missing(self):
        class Bad(OneFOneB):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                out[0] = out[0][:-1]
                return out

        with pytest.raises(ValueError, match="incomplete"):
            validate_schedule(Bad(2), 2)

    def test_detects_wrong_actor(self):
        class Bad(OneFOneB):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                out[0], out[1] = out[1], out[0]
                return out

        with pytest.raises(ValueError, match="belongs to"):
            validate_schedule(Bad(2), 2)

    def test_detects_deadlock(self):
        class Bad(OneFOneB):
            def units(self, n_mbs):
                out = super().units(n_mbs)
                out[0] = list(reversed(out[0]))
                return out

        with pytest.raises(ValueError):
            validate_schedule(Bad(2), 2)


class TestScheduleProperties:
    @given(
        p=st.integers(2, 6),
        m_mult=st.integers(1, 4),
        v=st.integers(1, 3),
        kind=st.sampled_from(
            ["gpipe", "1f1b", "interleaved", "eager1f1b", "zbh1",
             "zbh2", "zbv", "looped_bfs", "interleaved_zb"]
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_configs_valid(self, p, m_mult, v, kind):
        m = p * m_mult
        if kind == "gpipe":
            sched = GPipe(p)
        elif kind == "zbv":
            sched = ZBV(p)
        elif kind == "1f1b":
            sched = OneFOneB(p)
        elif kind == "eager1f1b":
            sched = Eager1F1B(p)
        elif kind == "zbh1":
            sched = ZBH1(p)
        elif kind == "zbh2":
            sched = ZBH2(p)
        elif kind == "looped_bfs":
            sched = LoopedBFS(p, v)
        elif kind == "interleaved_zb":
            sched = InterleavedZB(p, v)
        else:
            sched = Interleaved1F1B(p, v)
        validate_schedule(sched, m)

    @given(p=st.integers(2, 5), m_mult=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_1f1b_memory_bounded_by_stages(self, p, m_mult):
        stats = schedule_stats(OneFOneB(p), p * m_mult)
        for rank, peak in enumerate(stats["peak_live_activations"]):
            assert peak <= p - rank

    @given(p=st.integers(2, 4), m_mult=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_bubble_decreases_with_microbatches(self, p, m_mult):
        few = schedule_stats(OneFOneB(p), p)["bubble_fraction"]
        many = schedule_stats(OneFOneB(p), p * m_mult)["bubble_fraction"]
        assert many < few


#: every gallery class, built from ``(p, v)`` (``v`` ignored by the
#: one-stage-per-actor classes and ZB-V)
GALLERY_CLASSES = {
    "GPipe": lambda p, v: GPipe(p),
    "OneFOneB": lambda p, v: OneFOneB(p),
    "Eager1F1B": lambda p, v: Eager1F1B(p),
    "Hybrid1F1B": lambda p, v: Hybrid1F1B(p, [p - r for r in range(p)]),
    "Interleaved1F1B": Interleaved1F1B,
    "ZBH1": lambda p, v: ZBH1(p),
    "ZBH2": lambda p, v: ZBH2(p),
    "ZBV": lambda p, v: ZBV(p),
    "LoopedBFS": LoopedBFS,
    "InterleavedZB": InterleavedZB,
}


class TestGalleryPinned:
    """Exact per-actor orders, pinned: the property tests above check
    validity, peaks and bubbles, not which order a schedule emits."""

    GRID = [(1, 2, 1), (2, 4, 2), (3, 3, 3), (3, 9, 2), (4, 8, 2), (4, 12, 1), (5, 10, 3)]
    #: sha256 prefixes over ``repr(units(n_mbs))`` and over the per-rank
    #: ``activation_bound`` lists along ``GRID`` (ZB-V's bound has its own
    #: test in ``TestZBV``)
    DIGESTS = {
        "GPipe": ("8ed4cfa88b822bd6", "4c5e62a6bb432778"),
        "OneFOneB": ("697fba58f4d76839", "edd3993a3c6c348c"),
        "Eager1F1B": ("cb11e54c1bd0ce3e", "bccdca42f47420f2"),
        "Hybrid1F1B": ("6c024fc97b07871c", "ecf0cef68e200431"),
        "Interleaved1F1B": ("91746c4b921dd6de", "abaae997c0b49309"),
        "ZBH1": ("1424fabf08c6da0b", "edd3993a3c6c348c"),
        "ZBH2": ("f784c139190aa6ec", "333e7467a623dac2"),
        "ZBV": ("8515640e8c661fc9", None),
        "LoopedBFS": ("c18662bb4edd6962", "862366db9dbf4c38"),
        "InterleavedZB": ("fff6e51ad79d0978", "551a16b12c0b5c56"),
    }

    @pytest.mark.parametrize("name", sorted(GALLERY_CLASSES))
    def test_orders_and_bounds(self, name):
        units, bounds = hashlib.sha256(), hashlib.sha256()
        for p, m, v in self.GRID:
            s = GALLERY_CLASSES[name](p, v)
            units.update(repr(s.units(m)).encode())
            bounds.update(repr([s.activation_bound(r, m) for r in range(p)]).encode())
        want_units, want_bounds = self.DIGESTS[name]
        assert units.hexdigest()[:16] == want_units
        if want_bounds is not None:
            assert bounds.hexdigest()[:16] == want_bounds


@pytest.mark.parametrize("name", sorted(GALLERY_CLASSES))
@pytest.mark.parametrize("p", [0, -1])
def test_gallery_rejects_empty_pipeline(name, p):
    with pytest.raises(ValueError, match="at least one actor"):
        GALLERY_CLASSES[name](p, 2)
