"""Frozen calibration kernel: the benchmark's unit of time.

The sandbox this benchmark runs on has shared vCPUs whose speed moves in
1-2 s plateaus, so raw wall-clock medians of identical code differ by
tens of percent between back-to-back runs.  Every timed interval is
therefore bracketed by this kernel and reported in *reference
milliseconds*::

    ref_ms = wall_ms * CALIB_NOMINAL_MS / mean(calib_before_ms, calib_after_ms)

The kernel has the same character as a training step of this repo (dict
stores, ``__slots__`` attribute traffic and Python function calls, then
many small numpy calls on fresh allocations), because a kernel of another
character tracks the plateaus poorly.  It imports only ``numpy`` and
builtins -- never ``repro`` -- so no change to the program can move it.

FROZEN: editing :func:`kernel` (or anything it calls) changes the unit of
every metric and is a re-baseline.  ``test_smoke.py`` pins the hash
returned by :func:`source_hash`.
"""

from __future__ import annotations

import hashlib
import inspect
import subprocess
import sys
import time

import numpy as np

#: nominal duration of one kernel call; the scale of a reference-ms.
CALIB_NOMINAL_MS = 2.0

_NUMPY_ROUNDS = 20
_PYTHON_ROUNDS = 4500
_X = (np.arange(8 * 12 * 32, dtype=np.float32).reshape(8, 12, 32) % 7.0) * 0.125 - 0.375
_W = (np.arange(32 * 32, dtype=np.float32).reshape(32, 32) % 5.0) * 0.0625 - 0.125
_B = np.full((32,), 0.01, dtype=np.float32)


class _Cell:
    __slots__ = ("value", "visits")

    def __init__(self):
        self.value = None
        self.visits = 0


def _add(a, b):
    return a + b


def _stage(x, w, b):
    h = np.matmul(x, w)
    h = np.add(h, b)
    h = np.maximum(h, 0.0)
    m = np.mean(h, axis=-1, keepdims=True)
    e = np.exp(np.subtract(h, m))
    s = np.sum(e, axis=-1, keepdims=True)
    return np.divide(e, s)


def kernel() -> float:
    """Run the frozen kernel once; returns a checksum so nothing is
    optimised away.

    Two halves of about equal duration, because a step of this repo is
    about half interpreter work (engine dispatch, slot bookkeeping) and
    half small numpy calls, and the two slow down by different factors
    when the machine does: with the numpy half alone, a 2x slower
    machine read 6-14 % *faster* in reference-ms on the in-process
    workloads; with both halves, 3-5 %.
    """
    # interpreter half: dict stores, __slots__ traffic, calls, small lists
    store = {}
    cells = [_Cell() for _ in range(8)]
    acc = 0
    for i in range(_PYTHON_ROUNDS):
        cell = cells[i & 7]
        cell.visits += 1
        cell.value = (i, acc)
        store[("buf", i & 63)] = cell
        acc = _add(acc, cell.visits)
        if i & 1:
            acc += len([acc, i, cell])
    # numpy half: small kernels on fresh allocations
    x = _X
    for _ in range(_NUMPY_ROUNDS):
        y = _stage(x, _W, _B)
        t = np.swapaxes(y, 1, 2)
        a = np.matmul(t, y).astype(np.float64)
        x = np.add(x, y).astype(np.float32)
    return float(x[0, 0, 0]) + float(a[0, 0, 0]) + acc + len(store)


def _time_kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


class Meter:
    """Times the kernel on ``lanes`` hardware threads at once.

    A workload is calibrated against the hardware threads it keeps busy:
    an in-process workload one (``lanes=1``, the kernel runs here), a
    process-per-rank workload one per rank.  The two vCPUs of this box
    change speed independently, and a step of two ranks ends when the
    slower one does, so a kernel on one thread sees half of what such a
    step sees.  With ``lanes=2`` a helper process runs the kernel at the
    same moment as this one and a reading is the mean of the two.
    Helpers sleep on their stdin between readings.
    """

    def __init__(self, lanes: int = 1):
        self._helpers = [
            subprocess.Popen(
                [sys.executable, "-m", __name__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1,
            )
            for _ in range(lanes - 1)
        ]
        for h in self._helpers:
            h.stdout.readline()  # "ready": imported and warm

    def measure_ms(self, repeats: int = 1) -> float:
        """Wall-clock milliseconds of one kernel call, averaged over the
        lanes (the minimum over ``repeats`` readings: the fastest is the
        one no interrupt hit)."""
        best = float("inf")
        for _ in range(repeats):
            for h in self._helpers:
                h.stdin.write("\n")
            times = [_time_kernel_ms()]
            times += [float(h.stdout.readline()) for h in self._helpers]
            best = min(best, sum(times) / len(times))
        return best

    def close(self) -> None:
        for h in self._helpers:
            h.stdin.close()
            h.wait()


def _serve() -> None:
    """Helper-process loop: one kernel timing per line read from stdin."""
    for _ in range(3):
        kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(_time_kernel_ms()), flush=True)


def reference(wall: float, before_ms: float, after_ms: float) -> float:
    """``wall`` (any unit) in reference units: scaled by how much slower
    than nominal the kernel ran just before and just after it."""
    return wall * CALIB_NOMINAL_MS / (0.5 * (before_ms + after_ms))


def source_hash() -> str:
    """SHA-256 over the source of everything :func:`kernel` executes."""
    src = "".join(inspect.getsource(o) for o in (_Cell, _add, _stage, kernel))
    src += repr((_NUMPY_ROUNDS, _PYTHON_ROUNDS, CALIB_NOMINAL_MS))
    src += hashlib.sha256(_X.tobytes() + _W.tobytes() + _B.tobytes()).hexdigest()
    return hashlib.sha256(src.encode()).hexdigest()


if __name__ == "__main__":
    _serve()
