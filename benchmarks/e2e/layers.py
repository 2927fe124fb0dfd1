"""Per-layer metrics of one traced segment.

Every number comes from a span recorded by :mod:`benchmarks.e2e.trace`
or from a public result object (``StepFunction.compiled`` /
``.last_result`` / ``.peak_bytes_per_actor``, ``ActorPool.ship_count``,
``CodegenProgram.stats`` / ``.source``, ``OptReport``,
``ScheduleIR.stats()``).  Layer names are module names under
``src/repro``.  Times are in reference ms (see ``calib.py``) except
``core.api.step_wall_ms``, the one raw number kept for the record.  A
metric that does not exist on a workload (``runtime.mp.*`` in process,
``ir.codegen.*`` on the linear back end, ...) reads 0.

README.md lists, for each metric, the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
from typing import Any

from benchmarks.e2e import calib
from benchmarks.e2e.trace import SETUP, Tracer, count_eqns

#: every per-layer metric ``run.py --trace 1`` reports, with its unit.
#: The first block is measured by the traced segment (this module), the
#: second by its untraced companion and by ``run.py``.
UNITS = {
    "core.api.import_ms": "ref-ms",
    "ir.tracer.trace_ms": "ref-ms",
    "ir.tracer.eqns": "count",
    "core.compile.ms": "ref-ms",
    "core.compile.self_ms": "ref-ms",
    "core.compile.instructions": "count",
    "core.compile.run_tasks": "count",
    "core.stage_split.ms": "ref-ms",
    "core.stage_split.tasks": "count",
    "core.schedule_ir.lower_ms": "ref-ms",
    "core.schedule_ir.bubble_share": "share",
    "ir.opt.ms": "ref-ms",
    "ir.opt.eqns_in": "count",
    "ir.opt.eqns_out": "count",
    "ir.opt.boundary_bytes": "bytes",
    "ir.linearize.ms": "ref-ms",
    "ir.linearize.calls": "count",
    "ir.linearize.cache_hits": "count",
    "ir.linearize.instructions": "count",
    "ir.codegen.ms": "ref-ms",
    "ir.codegen.calls": "count",
    "ir.codegen.source_lines": "count",
    "ir.codegen.residual_checks": "count",
    "runtime.actorgen.fuse_ms": "ref-ms",
    "runtime.actorgen.instructions": "count",
    "runtime.actorgen.task_calls": "count",
    "runtime.pool.spawn_ms": "ref-ms",
    "runtime.pool.first_submit_ms": "ref-ms",
    "runtime.pool.ship_count": "count",
    "core.autotune.tune_ms": "ref-ms",
    "core.autotune.candidates": "count",
    "perf.pipeline_sim.price_ms": "ref-ms",
    "core.api.step_wall_ms": "ms",
    "core.api.glue_ms": "ref-ms",
    "runtime.executor.place_ms": "ref-ms",
    "runtime.executor.execute_ms": "ref-ms",
    "runtime.executor.fetch_ms": "ref-ms",
    "runtime.executor.visits": "count",
    "runtime.executor.repolls": "count",
    "runtime.executor.instructions": "count",
    "ir.linearize.task_ms": "ref-ms",
    "ir.linearize.task_calls": "count",
    "runtime.executor.dispatch_ms": "ref-ms",
    "runtime.actorgen.driver_ms": "ref-ms",
    "runtime.store.peak_bytes": "bytes",
    "runtime.pool.submit_ms": "ref-ms",
    "runtime.pool.wait_ms": "ref-ms",
    "runtime.mp.makespan_ms": "ref-ms",
    "runtime.mp.task_busy_ms": "ref-ms",
    "runtime.mp.comm_ms": "ref-ms",
    "runtime.mp.idle_share": "share",
    "runtime.mp.wait_top_ms": "ref-ms",
    "runtime.mp.p2p_bytes": "bytes",
    "runtime.mp.p2p_count": "count",
    "runtime.mp.driver_overhead_ms": "ref-ms",
    # -- untraced companion segment / run.py ------------------------------
    "core.api.py_calls_per_step": "count",
    "models.baseline_step_ms": "ref-ms",
    "models.scaling_x": "x",
    "data.synthetic.batch_ms": "ms",
    "trace.overhead_pct": "%",
    "calib.ms_median": "ms",
    "calib.ms_iqr": "ms",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _distinct(kept: list[tuple[int, Any]], step: int) -> list[Any]:
    seen: dict[int, Any] = {}
    for s, obj in kept:
        if s == step:
            seen.setdefault(id(obj), obj)
    return list(seen.values())


def _mp_step(result: Any) -> dict[str, float]:
    """One step's numbers from the wall-clock ``ExecutionResult`` the mp
    engine returns (seconds -> ms; shares and counts as they are)."""
    ranks = len(result.actor_finish)
    busy = [0.0] * ranks
    comm = 0.0
    for ev in result.timeline:
        if ev.kind == "task":
            busy[ev.actor] += ev.end - ev.start
        elif ev.kind in ("send", "recv"):
            comm += ev.end - ev.start
    top = result.top_waits(1)
    return {
        "makespan_ms": result.makespan * 1e3,
        "task_busy_ms": max(busy) * 1e3,
        "comm_ms": comm * 1e3,
        "idle_share": 1.0 - sum(busy) / (ranks * result.makespan) if result.makespan else 0.0,
        "wait_top_ms": top[0][1].total * 1e3 if top else 0.0,
        "p2p_bytes": result.p2p_bytes,
        "p2p_count": result.p2p_count,
    }


def layer_metrics(
    tracer: Tracer,
    step_fn: Any,
    setup_calib_ms: tuple[float, float],
    samples: list[tuple[float, float, float, int]],
    results: list[Any],
) -> dict[str, float]:
    """The traced segment's per-layer numbers.

    ``samples`` are ``(wall_ms, calib_before_ms, calib_after_ms, step)``
    per timed step and ``results`` the matching ``step_fn.last_result``.
    """
    m = dict.fromkeys(UNITS, 0.0)
    compiled = step_fn.compiled
    setup_scale = calib.reference(1.0, *setup_calib_ms)

    def setup_ms(name: str) -> float:
        return tracer.total_ms(name, SETUP) * setup_scale

    # ---- set-up path -------------------------------------------------------
    m["core.api.import_ms"] = setup_ms("core.api.import")
    m["ir.tracer.trace_ms"] = setup_ms("ir.tracer.trace")
    traced = [obj for s, obj in tracer.kept["ir.tracer.trace"] if s == SETUP]
    m["ir.tracer.eqns"] = count_eqns(traced[0][0]) if traced else 0
    m["core.compile.ms"] = setup_ms("core.compile")
    m["core.compile.self_ms"] = tracer.self_ms("core.compile", SETUP) * setup_scale
    counts = compiled.instruction_counts
    m["core.compile.instructions"] = sum(counts.values())
    m["core.compile.run_tasks"] = counts.get("RunTask", 0)
    m["core.stage_split.ms"] = setup_ms("core.stage_split")
    m["core.stage_split.tasks"] = len(compiled.split.tasks)
    m["core.schedule_ir.lower_ms"] = setup_ms("core.schedule_ir.lower")
    m["core.schedule_ir.bubble_share"] = compiled.schedule_ir.stats()["bubble_fraction"]
    m["ir.opt.ms"] = setup_ms("ir.opt")
    report = compiled.opt_report
    if report is not None:
        m["ir.opt.eqns_in"] = report.eqns_before
        m["ir.opt.eqns_out"] = report.eqns_after
        m["ir.opt.boundary_bytes"] = report.boundary_bytes_after

    m["ir.linearize.ms"] = setup_ms("ir.linearize")
    m["ir.linearize.calls"] = tracer.count("ir.linearize", SETUP)
    linear = _distinct(tracer.kept["ir.linearize"], SETUP)
    m["ir.linearize.cache_hits"] = m["ir.linearize.calls"] - len(linear)
    m["ir.linearize.instructions"] = sum(p.n_instructions for p in linear)
    m["ir.codegen.ms"] = setup_ms("ir.codegen")
    m["ir.codegen.calls"] = tracer.count("ir.codegen", SETUP)
    generated = _distinct(tracer.kept["ir.codegen"], SETUP)
    m["ir.codegen.source_lines"] = sum(len(p.source.splitlines()) for p in generated)
    m["ir.codegen.residual_checks"] = sum(
        p.stats["codegen_residual_checks"] for p in generated
    )
    m["runtime.actorgen.fuse_ms"] = setup_ms("runtime.actorgen.fuse")
    for driver in _distinct(tracer.kept["runtime.actorgen.fuse"], SETUP):
        m["runtime.actorgen.instructions"] += driver.n_instructions
        m["runtime.actorgen.task_calls"] += driver.n_tasks
    m["runtime.pool.spawn_ms"] = setup_ms("runtime.pool.spawn")
    m["runtime.pool.first_submit_ms"] = setup_ms("runtime.pool.submit") + setup_ms("runtime.pool.wait")
    for pool in _distinct(tracer.kept["runtime.pool.spawn"], SETUP):
        m["runtime.pool.ship_count"] += pool.ship_count

    # the extra schedule="auto" compile runs after the timed steps
    last_scale = calib.reference(1.0, samples[-1][2], samples[-1][2])
    m["core.autotune.tune_ms"] = tracer.total_ms("core.autotune.tune") * last_scale
    m["perf.pipeline_sim.price_ms"] = tracer.total_ms("perf.pipeline_sim.price") * last_scale
    for _, tune_report in tracer.kept["core.autotune.tune"]:
        m["core.autotune.candidates"] += len(tune_report.entries)

    # ---- steady state: per-step values, then the median over steps --------
    steps = [s[3] for s in samples]
    scale = [calib.reference(1.0, s[1], s[2]) for s in samples]
    wall = [s[0] for s in samples]

    def per_step(name: str) -> list[float]:
        return [v * k for v, k in zip(tracer.per_step_ms(name, steps), scale)]

    m["core.api.step_wall_ms"] = _median(wall)
    place, execute, fetch = (
        per_step(f"runtime.executor.{n}") for n in ("place", "execute", "fetch")
    )
    task = per_step("ir.linearize.task")
    m["runtime.executor.place_ms"] = _median(place)
    m["runtime.executor.execute_ms"] = _median(execute)
    m["runtime.executor.fetch_ms"] = _median(fetch)
    m["ir.linearize.task_ms"] = _median(task)
    m["ir.linearize.task_calls"] = tracer.count("ir.linearize.task", steps[-1])
    m["runtime.pool.submit_ms"] = _median(per_step("runtime.pool.submit"))
    m["runtime.pool.wait_ms"] = _median(per_step("runtime.pool.wait"))

    last = results[-1]
    step_ref = [w * k for w, k in zip(wall, scale)]
    if last.engine == "fused":
        driver = [r.makespan * 1e3 * k for r, k in zip(results, scale)]
        m["runtime.actorgen.driver_ms"] = _median(driver)
        m["core.api.glue_ms"] = _median([s - d for s, d in zip(step_ref, driver)])
    else:
        m["core.api.glue_ms"] = _median(
            [s - p - e - f for s, p, e, f in zip(step_ref, place, execute, fetch)]
        )
        m["runtime.executor.visits"] = last.visits
        m["runtime.executor.repolls"] = last.repolls
        m["runtime.executor.instructions"] = sum(len(p) for p in compiled.programs)
        m["runtime.store.peak_bytes"] = max(step_fn.peak_bytes_per_actor)
        if m["ir.linearize.task_calls"]:
            m["runtime.executor.dispatch_ms"] = _median(
                [e - t for e, t in zip(execute, task)]
            )
    if last.engine == "mp":
        rows = [_mp_step(r) for r in results]
        for key in ("makespan_ms", "task_busy_ms", "comm_ms", "wait_top_ms"):
            m[f"runtime.mp.{key}"] = _median([row[key] * k for row, k in zip(rows, scale)])
        for key in ("idle_share", "p2p_bytes", "p2p_count"):
            m[f"runtime.mp.{key}"] = _median([row[key] for row in rows])
        m["runtime.mp.driver_overhead_ms"] = _median(
            [s - row["makespan_ms"] * k for s, row, k in zip(step_ref, rows, scale)]
        )
    return m
