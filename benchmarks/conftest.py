"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables/figures, printing the
series and writing it to its ``results_dir`` so the output survives
pytest's capture — a temporary directory, or ``benchmarks/results/`` when
pytest runs with ``--bench-write`` (registered in the root ``conftest.py``).
That directory is gitignored and nothing in it is tracked: the files are
regenerated figures, not a yardstick (``BENCHMARK.json`` +
``benchmarks/e2e/`` is). Heavy simulations run once per benchmark
(``benchmark.pedantic`` with a single round) — these are model evaluations,
not microbenchmarks.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS = pathlib.Path(__file__).parent / "results"
_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark as ``slow`` so `-m "not slow"` keeps the
    tier-1 lane fast; the CI smoke job runs this directory explicitly."""
    for item in items:
        try:
            in_benchmarks = _BENCH_DIR in pathlib.Path(str(item.fspath)).parents
        except (OSError, ValueError):  # pragma: no cover - exotic collectors
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> pathlib.Path:
    """Directory collecting the regenerated figures/tables."""
    if not request.config.getoption("--bench-write"):
        return tmp_path_factory.mktemp("bench-results")
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a regenerated artefact and persist it."""
    banner = f"\n{'=' * 74}\n{name}\n{'=' * 74}\n"
    print(banner + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
