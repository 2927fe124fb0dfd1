"""The repo's benchmark: four training-step workloads, end to end and
layer by layer.  README.md in this directory explains every metric.

    python3 benchmarks/e2e/run.py                       # everything, all workloads
    python3 benchmarks/e2e/run.py --workload gpt_small_event --seed 3 \\
        --seconds 15 --trace 0                           # one contract run
    python3 benchmarks/e2e/run.py --check-repeat 3      # repeatability

Each workload runs as several *segments* -- fresh ``segment.py``
processes, round-robin across workloads so machine-speed plateaus spread
evenly -- and a workload's value is the median over its segments of the
per-segment statistic.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}`` for a single
workload, ``{workload: that object}`` for several.  Exit status is
non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.layers import UNITS as LAYER_UNITS  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

SEGMENTS = 5  # timed segments per workload and run
DEFAULT_SECONDS = 15.0
SEGMENT_TIMEOUT_S = 150.0
E2E_UNITS = {
    "step_ms": "ref-ms", "step_p90_ms": "ref-ms", "tokens_per_s": "1/ref-s",
    "setup_s": "s", "peak_rss_mb": "MiB",  # setup_s: reference seconds; the contract fixes "s"
}


def child_env() -> dict[str, str]:
    """Single-threaded BLAS and a fixed hash seed, inherited by the
    spawn-context pool workers: at most 3 busy processes on 2 vCPUs, and
    no run differs from another by dict order."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return env


def run_segment(workload: str, seed: int, seconds: float, **flags) -> dict:
    """Run one ``segment.py`` process to completion; its JSON line."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.segment", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:.3f}"]
    for key, value in flags.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    # its own process group, so that a hung segment's pool workers can be
    # stopped with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=SEGMENT_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"segment {workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def machine_header() -> dict:
    """Where and on what the numbers were taken, so two result files can
    be compared offline."""
    import numpy

    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_end_to_end(names: list[str], seed: int, seconds: float, segments: int,
                       **flags) -> dict[str, list[dict]]:
    """``segments`` untraced segments per workload, A B C D A B C D ..."""
    out: dict[str, list[dict]] = {n: [] for n in names}
    for _ in range(segments):
        for name in names:
            out[name].append(run_segment(name, seed, seconds / segments, **flags))
    return out


def step_ms(segs: list[dict]) -> float:
    """Median calibrated step time over every timed step of ``segs``."""
    return statistics.median(x for s in segs for x in s["step_ref_ms"])


def end_to_end_metrics(name: str, segs: list[dict]) -> dict[str, float]:
    """Step statistics pool the timed steps of all segments; set-up time
    and memory have one sample per segment and take the median."""
    steps = sorted(x for s in segs for x in s["step_ref_ms"])
    median = step_ms(segs)
    return {
        "step_ms": median,
        "step_p90_ms": steps[int(0.9 * len(steps))],
        "tokens_per_s": WORKLOADS[name].tokens_per_step * 1000.0 / median,
        "setup_s": statistics.median(s["setup_s"] for s in segs),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in segs),
    }


def measure_layers(name: str, seed: int, seconds: float, checksum_step: int | None,
                   trace_out: str | None, plain: dict | None) -> tuple[list[dict], dict[str, float]]:
    """One untraced segment run with ``--extras`` (clean step time,
    python-call count, eager baseline; ``plain`` if the caller already has
    one) and one traced segment; the per-layer metrics of both."""
    segs = []
    if plain is None:
        plain = run_segment(name, seed, seconds / 2, checksum_step=checksum_step, extras=1)
        segs.append(plain)
    traced = run_segment(name, seed, seconds / 2, checksum_step=checksum_step,
                         trace=1, trace_out=trace_out)
    segs.append(traced)
    m = dict(traced["layers"])
    m.update(plain["layers"])
    m["models.scaling_x"] = m["models.baseline_step_ms"] / step_ms([plain])
    m["trace.overhead_pct"] = (step_ms([traced]) / step_ms([plain]) - 1.0) * 100.0
    m["calib.ms_median"] = plain["calib_ms_median"]
    m["calib.ms_iqr"] = plain["calib_ms_iqr"]
    return segs, m


def judge(segments_by_workload: dict[str, list[dict]]) -> tuple[dict[str, dict], list[str]]:
    """Per-workload ``{"correct", "attempted", "failed"}`` and the list of
    failed checks.  Workloads of one family run the same arithmetic on
    different runtimes, so every segment of a family must reach the same
    parameter checksum."""
    problems = []
    families: dict[str, set] = {}
    for name, segs in segments_by_workload.items():
        for s in segs:
            families.setdefault(WORKLOADS[name].family, set()).add(
                (s["checksum_step"], s["checksum"]))
            if s["stray_shm"]:
                problems.append(f"{name}: stray /dev/shm segments {s['stray_shm']}")
            if not s["matches_eager"]:
                problems.append(f"{name}: first steps differ from the eager single worker")
            if s["failed"]:
                problems.append(f"{name}: {s['failed']} of {s['attempted']} steps failed")
    bad_families = set()
    for family, sums in families.items():
        steps = {step for step, _ in sums}
        if len(sums) != len(steps):
            bad_families.add(family)
            problems.append(f"family {family}: parameter checksums differ: {sorted(sums)}")
    verdicts = {}
    for name, segs in segments_by_workload.items():
        failed = sum(s["failed"] for s in segs)
        verdicts[name] = {
            "correct": failed == 0 and WORKLOADS[name].family not in bad_families,
            "attempted": sum(s["attempted"] for s in segs),
            "failed": failed,
        }
    return verdicts, problems


def run_set(names: list[str], seed: int, seconds: float, trace: int | None,
            smoke: bool, trace_out: str | None = None) -> dict:
    """One full measurement of ``names``: the result document."""
    segments, checksum_step = (1, 5) if smoke else (SEGMENTS, None)
    seconds = 0.0 if smoke else seconds
    all_segments: dict[str, list[dict]] = {n: [] for n in names}
    metrics: dict[str, dict[str, float]] = {n: {} for n in names}
    timed: dict[str, list[dict]] = {}
    samples: dict[str, int] = {}  # timed steps behind the end-to-end step statistics
    if trace != 1:
        # a smoke run's single timed segment doubles as the traced
        # segment's untraced companion, which halves its process count
        timed = measure_end_to_end(names, seed, seconds, segments,
                                   checksum_step=checksum_step, extras=int(smoke))
        for name, segs in timed.items():
            all_segments[name] += segs
            metrics[name].update(end_to_end_metrics(name, segs))
            samples[name] = sum(len(s["step_ref_ms"]) for s in segs)
        if len(names) == 1:
            # a lone workload still gets its cross-runtime check: a short
            # witness segment of a sibling that runs the same arithmetic
            w = WORKLOADS[names[0]]
            sibling = next((x.name for x in WORKLOADS.values()
                            if x.family == w.family and x is not w), None)
            if sibling is not None:
                all_segments.setdefault(sibling, []).append(
                    run_segment(sibling, seed, 0.0, checksum_step=checksum_step))
    if trace != 0:
        for name in names:
            path = None
            if trace_out is not None:
                path = trace_out if len(names) == 1 else f"{trace_out}.{name}.json"
            plain = timed[name][0] if smoke and name in timed else None
            segs, layers = measure_layers(name, seed, seconds, checksum_step, path, plain)
            all_segments[name] += segs
            metrics[name].update(layers)
    verdicts, problems = judge(all_segments)
    return {
        "header": machine_header(), "seed": seed, "seconds": seconds,
        "segments": segments, "problems": problems,
        "workloads": {
            n: {
                **verdicts[n], "metrics": metrics[n],
                "samples": samples.get(n, 0),
                "steps_per_segment": [s["steps"] for s in all_segments[n]],
                "checksums": sorted({s["checksum"] for s in all_segments[n]}),
                "raw": {
                    "step_wall_ms": [s["step_wall_ms"] for s in all_segments[n]],
                    "setup_wall_s": [s["setup_wall_s"] for s in all_segments[n]],
                    "calib_ms_median": [s["calib_ms_median"] for s in all_segments[n]],
                },
            }
            for n in names
        },
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def unit_of(metric: str) -> str:
    return E2E_UNITS.get(metric) or LAYER_UNITS[metric]


def contract_object(doc_workload: dict) -> dict:
    return {
        "correct": doc_workload["correct"],
        "attempted": doc_workload["attempted"],
        "failed": doc_workload["failed"],
        "metrics": {
            k: {"value": v, "unit": unit_of(k)}
            for k, v in doc_workload["metrics"].items()
        },
    }


def print_report(doc: dict) -> None:
    h = doc["header"]
    print(f"# {h['cpu']} x{h['nproc']}  python {h['python']}  numpy {h['numpy']}  "
          f"git {h['git_sha'][:12]}  seed {doc['seed']}  "
          f"{doc['segments']} segments, {doc['seconds']:g} s per workload")
    names = list(doc["workloads"])
    keys = list(dict.fromkeys(k for n in names for k in doc["workloads"][n]["metrics"]))
    print(f"{'metric':<34}{'unit':<9}" + "".join(f"{n:>18}" for n in names))
    for key in keys:
        row = "".join(
            f"{doc['workloads'][n]['metrics'].get(key, float('nan')):>18.6g}" for n in names)
        print(f"{key:<34}{unit_of(key):<9}{row}")
    for label, field in (("steps_attempted", "attempted"), ("steps_failed", "failed"),
                         ("step samples", "samples")):
        print(f"{label:<43}" + "".join(f"{doc['workloads'][n][field]:>18}" for n in names))
    for n in names:
        print(f"checksum {n:<18} {' '.join(doc['workloads'][n]['checksums'])}")
    for p in doc["problems"]:
        print(f"FAILED CHECK: {p}")
        print(f"FAILED CHECK: {p}", file=sys.stderr)


def check_repeat(names: list[str], seed: int, seconds: float, n_sets: int) -> int:
    """Run ``n_sets`` full sets of the same code and print, per (metric,
    workload), every pairwise relative difference next to the bound."""
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    docs = [run_set(names, seed, seconds, 0, smoke=False) for _ in range(n_sets)]
    worst_ratio = 0.0
    status = 0
    print(f"{'metric':<14}{'workload':<18}{'bound':>7}  values -> pairwise differences")
    for metric, bound in bounds.items():
        for name in names:
            values = [d["workloads"][name]["metrics"][metric] for d in docs]
            diffs = [abs(a - b) / min(a, b) for a, b in itertools.combinations(values, 2)]
            worst_ratio = max(worst_ratio, max(diffs) / bound)
            flag = "" if max(diffs) <= bound else "  EXCEEDS BOUND"
            status |= bool(flag)
            print(f"{metric:<14}{name:<18}{bound:>7.1%}  "
                  + " ".join(f"{v:.5g}" for v in values) + " -> "
                  + " ".join(f"{d:.1%}" for d in diffs) + flag)
    for name in names:
        for key in ("step_wall_ms", "setup_wall_s"):
            raw = [statistics.median(d["workloads"][name]["raw"][key]) for d in docs]
            print(f"raw {key:<14}{name:<18} " + " ".join(f"{v:.5g}" for v in raw)
                  + f" -> spread {(max(raw) - min(raw)) / min(raw):.1%}")
    print(f"largest difference is {worst_ratio:.2f} of its bound")
    for d in docs:
        status |= bool(d["problems"])
        for p in d["problems"]:
            print(f"FAILED CHECK: {p}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds parameter init and the token stream")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="steady-state measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer metrics only; "
                         "default: both")
    ap.add_argument("--smoke", action="store_true",
                    help="1 segment x 5 steps per workload, plus the traced segments")
    ap.add_argument("--check-repeat", type=int, nargs="?", const=2, default=None,
                    metavar="N", help="run N full sets (default 2) and compare them")
    ap.add_argument("--out", default=None, help="write the full result document here")
    ap.add_argument("--trace-out", default=None,
                    help="write the traced segment's spans as Chrome-trace JSON")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark measures "
              "the program in this checkout", file=sys.stderr)
        return 2
    # the "build": byte-compile once so no segment pays for it in set-up
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(pathlib.Path(__file__).parent), quiet=2)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.check_repeat is not None:
        return check_repeat(names, args.seed, args.seconds, args.check_repeat)

    doc = run_set(names, args.seed, args.seconds, args.trace, args.smoke, args.trace_out)
    print_report(doc)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=1))
    objects = {n: contract_object(doc["workloads"][n]) for n in names}
    print(json.dumps(objects[names[0]] if len(names) == 1 else objects))
    return 1 if doc["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
