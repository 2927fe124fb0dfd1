"""Repo-level pytest configuration.

Registers the ``slow`` marker that :mod:`benchmarks.conftest` applies to
every figure/table regeneration test, so the fast tier-1 suite can be run
with ``pytest -m "not slow"`` (what CI's tier-1 job does) while the full
``pytest`` invocation still runs everything, and the ``--bench-write``
flag without which the benchmarks write their artefacts to a temporary
directory instead of the (partly tracked) ``benchmarks/results/``.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--bench-write",
        action="store_true",
        help="benchmarks write their figures/tables and BENCH_*.json to "
        "benchmarks/results/ (default: a temporary directory)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: heavy benchmark / figure-regeneration tests "
        "(deselect with -m \"not slow\")",
    )
