"""One benchmark segment: a fresh process that sets a workload up cold,
runs its training loop, checks the outputs and prints one JSON line.

``run.py`` starts several of these per workload and pools their samples.
Spawn-context pool workers re-import this module as their main module, so
everything that does work sits under the ``__main__`` guard, and ``repro``
is first imported inside :func:`run_segment` -- which is also what lets a
segment time ``import repro`` as part of set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import time

import numpy as np

from benchmarks.e2e import calib, trace
from benchmarks.e2e.layers import layer_metrics
from benchmarks.e2e.workloads import LR, WORKLOADS, Workload, build

N_WARM = 3  # untimed steps incl. the first (set-up) one; checked against eager
N_BASELINE = 10  # eager single-worker steps behind models.baseline_step_ms
SETUP_CALIB_REPEATS = 5
MAX_FAILED = 10  # give up on a workload that fails this often
PARAM_ATOL = 0.05 * LR  # see check_against_eager


def params_sha256(params: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(params):
        a = np.ascontiguousarray(params[key])
        h.update(key.encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def peak_rss_mib() -> float:
    """Peak resident set (``VmHWM`` from ``/proc``) of this process plus
    its live children -- the pool workers -- in MiB."""
    total = 0.0
    for pid in [os.getpid()] + [p.pid for p in multiprocessing.active_children()]:
        with open(f"/proc/{pid}/status") as f:
            total += next(int(l.split()[1]) for l in f if l.startswith("VmHWM:")) / 1024.0
    return total


def time_batch_draw_ms(w: Workload, seed: int, draws: int = 5) -> float:
    """Cost of one ``token_batches`` draw.  The loop pre-generates its
    batches, so a step's wait-for-data is 0 by construction."""
    from repro.data import token_batches

    t0 = time.perf_counter()
    for _ in range(draws):
        list(token_batches(w.model["vocab"], w.model["seq"], w.n_mbs, w.mbsz, 1, seed=seed))
    return (time.perf_counter() - t0) * 1e3 / draws


def check_against_eager(built, outputs: list, n_ref: int) -> tuple[bool, list[float]]:
    """Run ``train_step`` eagerly (single worker, no mesh) from the same
    initial state and compare the pipelined run's first steps to it.

    Pipelined gradient accumulation reorders float sums, so the match is
    ``allclose``, not bit equality: ``rtol=1e-5, atol=1e-6`` on the losses,
    ``atol=PARAM_ATOL`` on the parameters.  Adam turns a gradient ``g`` into
    ``lr * g / (|g| + 1e-8)``, so where a tied-embedding gradient cancels to
    ~1e-9 the reordering noise (~1e-11) moves the parameter by a sliver of
    ``lr`` that no relative tolerance covers (seed 125 on ``gpt_mid_mp2``:
    one ``wte`` element of 16384 off by 1.5e-6).  A wrong gradient moves
    most elements by ~``lr`` and the next step's loss by ~1e-2.  Returns
    the verdict and the eager step times in reference ms.
    """
    state, ok, times = built.state, True, []
    meter = calib.Meter()  # one lane: the eager run is a single worker
    before = meter.measure_ms()
    for i in range(n_ref):
        t0 = time.perf_counter()
        state, losses = built.train_step(state, built.batches[i % len(built.batches)])
        wall_ms = (time.perf_counter() - t0) * 1e3
        after = meter.measure_ms()
        times.append(calib.reference(wall_ms, before, after))
        before = after
        if i < len(outputs):
            got_losses, got_params = outputs[i]
            ok = ok and np.allclose(got_losses, losses, rtol=1e-5, atol=1e-6)
            ok = ok and all(
                np.allclose(got_params[k], state.params[k], rtol=1e-5, atol=PARAM_ATOL)
                for k in state.params
            )
    return bool(ok), times


def steady_state(step_fn, state, batches: list, seconds: float, checksum_step: int,
                 meter: calib.Meter, tracer: trace.Tracer | None) -> dict:
    """The timed loop: ``kernel, step, kernel, step, ...`` for ``seconds``
    and at least ``checksum_step`` steps, the state fed back.

    A step that raises or returns a non-finite loss is counted as failed
    and leaves the state where it was.
    """
    samples = []  # (wall_ms, calib_before_ms, calib_after_ms, step) per good step
    results = []  # step_fn.last_result per sample (traced segments only)
    checksum = peak_rss_mb = None
    n = failed = 0
    before = meter.measure_ms()
    deadline = time.perf_counter() + seconds
    while failed <= MAX_FAILED:
        batch = batches[(N_WARM + n) % len(batches)]
        if tracer is not None:
            tracer.step = n
            root = tracer.begin("core.api.step")
        t0 = time.perf_counter()
        try:
            new_state, losses = step_fn(state, batch)
            ok = bool(np.isfinite(np.asarray(losses)).all())
        except Exception as e:  # a failed step is a counted outcome, not a crash
            print(f"step {n} raised {e!r}", file=sys.stderr)
            ok = False
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(root)
        after = meter.measure_ms()
        if ok:
            state = new_state
            samples.append(((t1 - t0) * 1e3, before, after, n))
            if tracer is not None:
                results.append(step_fn.last_result)
        else:
            failed += 1
        before = after
        n += 1
        if n == checksum_step:
            # both at a fixed step count, so neither depends on how many
            # steps the machine managed in ``seconds`` (the collector's
            # arenas grow in jumps as steps accumulate)
            checksum = params_sha256(state.params)
            peak_rss_mb = peak_rss_mib()
        if n >= checksum_step and t1 >= deadline:
            break
    if not samples:
        raise RuntimeError("no timed step succeeded")
    if tracer is not None:
        tracer.step = n  # later spans belong to no timed step
    return {"state": state, "samples": samples, "results": results, "steps": n,
            "failed": failed, "checksum": checksum, "peak_rss_mb": peak_rss_mb}


def run_segment(w: Workload, seed: int, seconds: float, checksum_step: int,
                tracer: trace.Tracer | None, extras: bool) -> dict:
    shm_before = shm_names()
    meter = calib.Meter(w.busy_processes)
    for _ in range(3):
        calib.kernel()

    # ---- set-up: import, init, trace, compile, spawn, first step --------
    c0 = meter.measure_ms(SETUP_CALIB_REPEATS)
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    built = build(w, seed)
    step_fn, batches = built.step_fn, built.batches
    try:
        state, losses = step_fn(built.state, batches[0])
        losses = np.asarray(losses)
        setup_wall_s = time.perf_counter() - t0
        c1 = meter.measure_ms(SETUP_CALIB_REPEATS)
        if tracer is not None and w.event_engine:
            # the engine visits every RunTask in this process, so its
            # dispatch can be split from the task payloads
            tracer.wrap_tasks(step_fn.compiled.programs, "ir.linearize.task")

        outputs = [(losses, state.params)]  # (losses, params) of steps 0..N_WARM-1
        for i in range(1, N_WARM):
            state, losses = step_fn(state, batches[i])
            outputs.append((np.asarray(losses), state.params))
        warm_failed = sum(not np.isfinite(o[0]).all() for o in outputs)

        loop = steady_state(step_fn, state, batches, seconds, checksum_step, meter, tracer)
        state, samples = loop["state"], loop["samples"]
        calib_ms = [s[2] for s in samples]
        out = {
            "workload": w.name, "seed": seed, "steps": loop["steps"],
            "attempted": N_WARM + loop["steps"], "failed": warm_failed + loop["failed"],
            "setup_s": calib.reference(setup_wall_s, c0, c1), "setup_wall_s": setup_wall_s,
            "peak_rss_mb": loop["peak_rss_mb"],
            "checksum": loop["checksum"], "checksum_step": checksum_step,
            "step_ref_ms": [calib.reference(*s[:3]) for s in samples],
            "step_wall_ms": statistics.median(s[0] for s in samples),
            "calib_ms_median": statistics.median(calib_ms),
            "calib_ms_iqr": float(np.subtract(*np.percentile(calib_ms, [75, 25]))),
        }

        layers = {}
        if tracer is not None:
            if w.event_engine:
                # one extra schedule="auto" compile, so core.autotune.* and
                # perf.pipeline_sim.* have a baseline; no workload times it
                built.mesh.distributed(built.train_step, schedule="auto")(state, batches[0])
            layers = layer_metrics(tracer, step_fn, (c0, c1), samples, loop["results"])
        if extras:
            if w.in_process:
                layers["core.api.py_calls_per_step"] = trace.count_py_calls(
                    lambda: step_fn(state, batches[0])
                )
            layers["data.synthetic.batch_ms"] = time_batch_draw_ms(w, seed)
    finally:
        built.mesh.close()
        meter.close()
    out["stray_shm"] = sorted(
        n for n in shm_names() - shm_before if n.startswith("psm_")
    )

    # ---- correctness: first steps against the eager single worker --------
    out["matches_eager"], eager_ms = check_against_eager(
        built, outputs, N_BASELINE if extras else N_WARM
    )
    if extras:
        layers["models.baseline_step_ms"] = statistics.median(eager_ms)
    out["layers"] = layers
    if out["stray_shm"] or not out["matches_eager"]:
        # a leaking or wrong run has no valid steps
        out["failed"] = out["attempted"]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="steady-state measuring time (the loop also runs at "
                         "least --checksum-step steps)")
    ap.add_argument("--checksum-step", type=int, default=None,
                    help="hash state.params after this many timed steps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--extras", type=int, choices=(0, 1), default=0,
                    help="also measure the untraced per-layer numbers "
                         "(python calls per step, eager baseline, batch cost)")
    ap.add_argument("--trace-out", default=None, help="Chrome-trace JSON path")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    tracer = trace.Tracer() if args.trace else None
    checksum_step = w.checksum_step if args.checksum_step is None else args.checksum_step
    seed = args.seed % (2**32 - 1)  # any integer; RandomState takes seed + 1 <= 2**32 - 1
    out = run_segment(w, seed, args.seconds, checksum_step, tracer, bool(args.extras))
    if tracer is not None and args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
