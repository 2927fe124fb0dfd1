"""Differential suite for the algebraic optimizer at the compile level.

The optimizer (:mod:`repro.ir.opt`) rewrites stage jaxprs before
linearization, so the whole execution stack sits downstream of it.  The
contract mirrors the repo's backend/engine differentials: an optimized
compiled step is **bit-identical** to the unoptimized one — for every
schedule in the gallery, every task backend, every engine, and under
data parallelism.  Wiring assertions pin what lands on
:class:`CompiledStep`: the report (``None`` when ``optimize=False``) and
the ``.L1`` / ``.L0`` program-key variant that keeps warm worker caches
from mixing optimized and unoptimized programs.
"""

import pytest

from repro import core, ir
from repro.core.autotune import CostModel
from repro.core.compile import compile_train_step
from repro.runtime.instructions import RunTask
from tests.core.test_linear_backend import (
    GALLERY,
    assert_bit_identical,
    make_problem,
)


def _step(schedule, ts, *, optimize, backend="linear", engine="event",
          mesh_shape=None, **kw):
    mesh = core.RemoteMesh(mesh_shape or (schedule.n_actors,), engine=engine, **kw)
    return mesh, mesh.distributed(
        ts, schedule=schedule, task_backend=backend, optimize=optimize
    )


class TestLevel1BitIdentity:
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_gallery_event_engine(self, schedule):
        ts, params, batch = make_problem(4, n_mbs=8)
        _, base = _step(schedule, ts, optimize=False)
        _, opt = _step(schedule, ts, optimize=True)
        assert_bit_identical(base(params, batch), opt(params, batch))

    @pytest.mark.parametrize("backend", ["interpret", "codegen"])
    def test_task_backends(self, backend):
        schedule = core.OneFOneB(4)
        ts, params, batch = make_problem(4, n_mbs=6)
        _, base = _step(schedule, ts, optimize=False, backend=backend)
        _, opt = _step(schedule, ts, optimize=True, backend=backend)
        assert_bit_identical(base(params, batch), opt(params, batch))

    def test_roundrobin_engine(self):
        schedule = core.ZBH1(4)
        ts, params, batch = make_problem(4, n_mbs=6)
        _, base = _step(schedule, ts, optimize=False, engine="roundrobin")
        _, opt = _step(schedule, ts, optimize=True, engine="roundrobin")
        assert_bit_identical(base(params, batch), opt(params, batch))

    def test_mp_pool_engine(self):
        """Optimized programs — memo prologues, pruned boundaries and all
        — run on real OS processes bit-identically to the event engine."""
        schedule = core.OneFOneB(2)
        ts, params, batch = make_problem(2, n_mbs=4)
        _, ref = _step(schedule, ts, optimize=True)
        want = ref(params, batch)
        mesh, opt = _step(
            schedule, ts, optimize=True, engine="mp", mp_watchdog_s=60.0
        )
        try:
            assert_bit_identical(want, opt(params, batch))
        finally:
            mesh.close()

    def test_data_parallel(self):
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        schedule = core.OneFOneB(2)
        _, base = _step(schedule, ts, optimize=False, mesh_shape=(2, 2))
        _, opt = _step(schedule, ts, optimize=True, mesh_shape=(2, 2))
        assert_bit_identical(base(params, batch), opt(params, batch))

    def test_single_microbatch_still_exact(self):
        # n_mbs=1 disables memoization but not CSE/DCE
        ts, params, batch = make_problem(3, n_mbs=1)
        schedule = core.GPipe(3)
        _, base = _step(schedule, ts, optimize=False)
        _, opt = _step(schedule, ts, optimize=True)
        assert_bit_identical(base(params, batch), opt(params, batch))


class TestCompiledStepWiring:
    def test_default_is_level1_with_report(self):
        ts, params, batch = make_problem(3, n_mbs=4)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(3))
        rep = compiled.opt_report
        assert rep is not None
        assert rep.eqns_after < rep.eqns_before
        assert ".L1" in compiled.program_key

    def test_optimize_false_is_level0(self):
        ts, params, batch = make_problem(2)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(2), optimize=False)
        assert compiled.opt_report is None
        assert ".L0" in compiled.program_key

    def test_program_keys_distinguish_levels(self):
        ts, params, batch = make_problem(2)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        keys = {
            compile_train_step(
                jaxpr, core.OneFOneB(2), optimize=lvl
            ).program_key
            for lvl in (False, True)
        }
        assert len(keys) == 2

    def test_memo_prologues_emitted_once_per_step(self):
        # the MLP backward hoists weight transposes: memo tasks must
        # appear in the per-actor programs, tagged phase="memo", exactly
        # once each (once per *step*, not per microbatch)
        ts, params, batch = make_problem(3, n_mbs=6)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(3))
        memo = [
            instr
            for prog in compiled.programs
            for instr in prog
            if isinstance(instr, RunTask) and instr.meta.get("phase") == "memo"
        ]
        assert memo, "expected hoisted memo prologues on this workload"
        names = [m.name for m in memo]
        assert len(names) == len(set(names))
        for m in memo:
            assert m.meta.get("kind") == "memo"
            assert "stage" in m.meta

    @pytest.mark.parametrize("bad", [2, 7, -1, 3, "1", None])
    def test_invalid_level_rejected(self, bad):
        ts, params, batch = make_problem(2)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        with pytest.raises(ValueError, match="optimize.*level 2 was removed"):
            compile_train_step(jaxpr, core.OneFOneB(2), optimize=bad)

    @pytest.mark.parametrize("flag", [False, True, 0, 1])
    def test_bools_and_their_int_equals_accepted(self, flag):
        # 0 and 1 compare equal to the bools, and callers pass them
        ts, params, batch = make_problem(2)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(2), optimize=flag)
        assert (compiled.opt_report is not None) is bool(flag)
        assert compiled.program_key.endswith(f".L{int(flag)}")

    def test_removed_level_rejected_through_the_mesh(self):
        ts, params, batch = make_problem(2)
        _, step = _step(core.OneFOneB(2), ts, optimize=2)
        with pytest.raises(ValueError, match="level 2 was removed"):
            step(params, batch)

    def test_from_tasks_boundary_shrinks(self):
        # the cost model built from the optimized split budgets less
        # wire traffic — the same accounting ScheduleIR.stats() totals
        # as cross_boundary_bytes
        ts, params, batch = make_problem(4, n_mbs=4)
        jaxpr, _, _ = ir.trace(ts, params, batch)
        base = compile_train_step(jaxpr, core.OneFOneB(4), optimize=False)
        opt = compile_train_step(jaxpr, core.OneFOneB(4), optimize=True)
        cm_base = CostModel.from_tasks(base.split)
        cm_opt = CostModel.from_tasks(opt.split)
        assert sum(cm_opt.boundary) <= sum(cm_base.boundary)
        ir_sched = core.OneFOneB(4).lower(4)
        assert (
            ir_sched.stats(cost_model=cm_opt)["cross_boundary_bytes"]
            <= ir_sched.stats(cost_model=cm_base)["cross_boundary_bytes"]
        )


class TestReplayTuneOnOptimizedRun:
    def test_from_result_excludes_memo_phase(self):
        # adversarial timeline: a memo-phase event claiming unit="fwd"
        # must not vote — only loop-phase (or phase-less simulator)
        # events feed the per-(stage, kind) means
        from repro.runtime.executor import ExecutionResult, TimelineEvent

        def ev(name, start, end, meta):
            return TimelineEvent(
                actor=0, kind="task", name=name, start=start, end=end, meta=meta
            )

        res = ExecutionResult(
            makespan=60.0,
            timeline=[
                ev("memo.t0", 0.0, 50.0, {"phase": "memo", "stage": 0, "unit": "fwd"}),
                ev("f0", 50.0, 51.0, {"phase": "loop", "stage": 0, "unit": "fwd", "kind": "fwd"}),
                ev("f1", 51.0, 52.0, {"phase": "loop", "stage": 0, "unit": "fwd", "kind": "fwd"}),
                ev("b0", 52.0, 54.0, {"phase": "loop", "stage": 0, "unit": "bwd", "kind": "bwd"}),
            ],
            actor_finish=[54.0],
            p2p_bytes=0,
            p2p_count=0,
        )
        cm = CostModel.from_result(res, 1)
        assert cm.fwd[0] == pytest.approx(1.0)  # not skewed by the 50s memo
        assert cm.bwd[0] == pytest.approx(2.0)

    def test_replay_tune_round_trip_on_real_optimized_run(self):
        # measure an optimized run, rebuild the cost table, and compare
        # against the table from an unoptimized run of the same step: the
        # memo prologue must not inflate any stage's per-microbatch rate
        ts, params, batch = make_problem(3, n_mbs=6)
        _, base = _step(core.OneFOneB(3), ts, optimize=False)
        base(params, batch)
        cm_base = CostModel.from_result(base.last_result, 3)
        _, opt = _step(core.OneFOneB(3), ts, optimize=True)
        opt(params, batch)
        # the optimized timeline genuinely carries memo-phase events —
        # the hazard this sweep guards against is present, not absent
        assert any(
            e.kind == "task" and e.meta.get("phase") == "memo"
            for e in opt.last_result.timeline
        )
        cm_opt = CostModel.from_result(opt.last_result, 3)
        assert cm_opt.n_stages == cm_base.n_stages == 3
        assert all(f >= 0 for f in cm_opt.fwd)
        assert all(b >= 0 for b in cm_opt.bwd)
        # wall-clock is noisy, but a memo leak would add the *whole*
        # prologue to one microbatch's vote — an order-of-magnitude
        # skew, far outside any plausible timing jitter
        for s in range(3):
            assert cm_opt.fwd[s] < 50 * cm_base.fwd[s] + 1e-3
            assert cm_opt.bwd[s] < 50 * cm_base.bwd[s] + 1e-3
