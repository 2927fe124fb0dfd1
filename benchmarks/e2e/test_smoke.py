"""Smoke test of the benchmark harness (auto-marked ``slow`` by
``benchmarks/conftest.py``): ``--smoke`` must emit exactly the workloads
and metrics ``BENCHMARK.json`` names, with no failed step, and the
calibration kernel must be the pinned one."""

import json
import pathlib
import re
import subprocess
import sys

from benchmarks.e2e import calib

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: changing the kernel changes the unit of every metric: re-baseline, then re-pin.
CALIB_SOURCE_SHA256 = "0ee07450b1c918ee3408ca387e0a1ad4cdb98e5801504c5a88183d5f3d365d98"


def test_calibration_kernel_is_frozen():
    assert calib.source_hash() == CALIB_SOURCE_SHA256


def test_smoke_run_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    assert list(result) == [w["name"] for w in spec["workloads"]]
    want = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(NAME.fullmatch(n) for n in [*want, *result])
    for name, obj in result.items():
        assert obj["correct"] and obj["failed"] == 0 and obj["attempted"] >= 1, name
        got = {k: v["unit"] for k, v in obj["metrics"].items()}
        assert got == want, name
        for m in spec["end_to_end"]:
            assert obj["metrics"][m["name"]]["value"] > 0, (name, m["name"])
