"""The record and its replay: a compiled step runs on the event engine
once, every warm call runs the fused whole-mesh driver.

Besides values, an ``engine="event"`` run depends only on the programs,
the placements, the cost model and the comm mode, so ``StepFunction``
records the first run's ``ExecutionResult`` and store peaks per
``CompiledStep`` and every later call of that step replays them while
:func:`repro.runtime.actorgen.fuse_mesh`'s driver computes the values.
Checked here against a fresh event-engine run of the same programs and
placements (``tests.helpers.event_run``), across the schedule gallery,
two cost models and both comm modes; ``engine="roundrobin"`` (the
reference) is not recorded, a run that raised records nothing, and a
recompile or new programs record again.  The generated source a
traceback shows lives as long as the generated function.
"""

import gc
import importlib
import linecache
import traceback

import numpy as np
import pytest

from repro import core
from repro.ir.linearize import RecentPins
from repro.runtime import CommMode, DeadlockError, LinearCost
from repro.runtime.instructions import RunTask
from tests.core.test_linear_backend import GALLERY, assert_bit_identical, make_problem
from tests.helpers import count_constructions, event_run, fused_driver

# the module: ``repro.ir.codegen`` as an attribute is the function
codegen_mod = importlib.import_module("repro.ir.codegen")

COST_MODELS = [
    pytest.param(None, id="default"),
    pytest.param(
        LinearCost(dispatch=1e-5, p2p_latency=2e-5, p2p_bandwidth=1e9,
                   allreduce_latency=3e-5, allreduce_bandwidth=5e8),
        id="linear",
    ),
]
MODES = [pytest.param(m, id=m.name) for m in (CommMode.ASYNC, CommMode.SYNC)]


class TestReplay:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("cost_model", COST_MODELS)
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_warm_result_is_a_fresh_event_run(self, schedule, cost_model, mode):
        ts, params, batch = make_problem(4, n_mbs=8)
        mesh = core.RemoteMesh((schedule.n_actors,), cost_model=cost_model, comm_mode=mode)
        step = mesh.distributed(ts, schedule=schedule)
        state = params
        for _ in range(3):
            state, _ = step(state, batch)
        assert fused_driver(step) is not None
        values, result, peaks = event_run(step, state, batch)
        assert_bit_identical(step(state, batch), values)
        assert step.last_result == result
        assert step.last_result.to_json() == result.to_json()
        assert step.peak_bytes_per_actor == peaks

    def test_data_parallel_warm_result_is_a_fresh_event_run(self):
        ts, params, batch = make_problem(2, n_mbs=4, mbsz=8)
        step = core.RemoteMesh((2, 2)).distributed(ts, schedule=core.OneFOneB(2))
        step(params, batch)
        values, result, peaks = event_run(step, params, batch)
        assert_bit_identical(step(params, batch), values)
        assert fused_driver(step) is not None
        assert (step.last_result, step.peak_bytes_per_actor) == (result, peaks)

    def test_warm_step_constructs_no_executor(self, monkeypatch):
        ts, params, batch = make_problem(4, n_mbs=4)
        step = core.RemoteMesh((4,)).distributed(ts, schedule=core.OneFOneB(4))
        state, _ = step(params, batch)
        built = count_constructions(monkeypatch)
        for _ in range(3):
            state, loss = step(state, batch)
        assert built == []
        assert np.isfinite(np.asarray(loss)).all()

    def test_roundrobin_constructs_one_every_call(self, monkeypatch):
        ts, params, batch = make_problem(4, n_mbs=4)
        step = core.RemoteMesh((4,), engine="roundrobin").distributed(
            ts, schedule=core.OneFOneB(4)
        )
        built = count_constructions(monkeypatch)
        results = []
        for _ in range(3):
            step(params, batch)
            results.append(step.last_result)
        assert built.count("MpmdExecutor") == 3
        assert step._record is None
        assert [r.engine for r in results] == ["roundrobin"] * 3
        assert len({id(r) for r in results}) == 3

    def test_deadlocking_sync_program_raises_every_call(self, monkeypatch):
        ts, params, batch = make_problem(4, n_mbs=4)
        mesh = core.RemoteMesh((4,), comm_mode=CommMode.SYNC)
        step = mesh.distributed(ts, schedule=core.OneFOneB(4), comm_strategy="naive")
        built = count_constructions(monkeypatch)
        for _ in range(3):
            with pytest.raises(DeadlockError):
                step(params, batch)
        assert built.count("MpmdExecutor") == 3
        assert step._record is None and step.last_result is None

    def test_a_new_shape_records_again(self, monkeypatch):
        ts, params, batch4 = make_problem(4, n_mbs=4)
        _, _, batch8 = make_problem(4, n_mbs=8)
        step = core.RemoteMesh((4,)).distributed(ts, schedule=core.OneFOneB(4))
        built = count_constructions(monkeypatch)
        seen = []
        for batch in (batch4, batch4, batch8, batch8, batch4):
            step(params, batch)
            seen.append((built.count("MpmdExecutor"), step.compiled, step.last_result))
        assert [n for n, _, _ in seen] == [1, 1, 2, 2, 3]
        assert seen[1][1:] == seen[0][1:]
        assert seen[2][1] is not seen[0][1] and seen[3][1:] == seen[2][1:]
        assert seen[2][2].p2p_bytes == 2 * seen[0][2].p2p_bytes
        _, result, peaks = event_run(step, params, batch4)
        assert (step.last_result, step.peak_bytes_per_actor) == (result, peaks)


    def test_new_programs_record_again(self, monkeypatch):
        """The record is keyed on the programs too: a step whose
        ``compiled.programs`` is replaced runs the new ones on the event
        engine once, then fuses them."""
        ts, params, batch = make_problem(4, n_mbs=4)
        step = core.RemoteMesh((4,)).distributed(ts, schedule=core.OneFOneB(4))
        want = step(params, batch)
        step(params, batch)
        old = fused_driver(step)
        step.compiled.programs = [list(p) for p in step.compiled.programs]
        built = count_constructions(monkeypatch)
        for n in (1, 1):
            assert_bit_identical(step(params, batch), want)
            assert built.count("MpmdExecutor") == n
        assert fused_driver(step) not in (None, old)
        assert step._record[1] is step.compiled.programs


class TestDriverTraceback:
    def test_payload_error_shows_its_task_line(self):
        """A payload that raises on a warm step is reported at its own line
        of the fused driver: ``# <task name>``."""
        ts, params, batch = make_problem(4, n_mbs=4)
        step = core.RemoteMesh((4,)).distributed(ts, schedule=core.OneFOneB(4))
        step(params, batch)
        task = next(i for i in step.compiled.programs[2] if isinstance(i, RunTask))

        def broken(vals):
            raise FloatingPointError("injected")

        task.fn = broken
        with pytest.raises(FloatingPointError) as info:
            step(params, batch)
        frames = [f for f in traceback.extract_tb(info.tb) if f.name == "_driver"]
        assert len(frames) == 1
        assert frames[0].filename.startswith("<repro.actorgen:")
        assert frames[0].line.endswith(f"# {task.name}")

    def test_generated_source_goes_with_its_function(self, monkeypatch):
        """The linecache entries of a fused driver and of a codegen payload
        are removed when the function dies, so recompiling a step for new
        shapes does not pile them up."""
        monkeypatch.setattr(codegen_mod, "_recent", RecentPins())
        ts, params, _ = make_problem(2, n_mbs=4)
        step = core.RemoteMesh((2,)).distributed(ts, schedule=core.OneFOneB(2))
        before = set(linecache.cache)
        drivers = []
        for mbsz in (2, 4, 6, 8):
            _, _, batch = make_problem(2, n_mbs=4, mbsz=mbsz)
            for _ in range(2):
                step(params, batch)
            drivers.append(fused_driver(step)._fn.__code__.co_filename)
        gc.collect()
        assert [f in linecache.cache for f in drivers] == [False] * 3 + [True]
        made = {f for f in set(linecache.cache) - before if f.startswith("<repro.codegen:")}
        assert made
        del step
        codegen_mod._recent.clear()  # this test's pins: the programs' last holder
        gc.collect()
        assert not (made | set(drivers)) & set(linecache.cache)
