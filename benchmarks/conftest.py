"""Benchmark fixtures: the sleep guard of ``tests/conftest.py``.

Importing that module replaces ``time.sleep`` before any benchmark
module imports ``repro``, and its autouse ``no_stray_sleep`` fixture
fails a benchmark in which package or benchmark code slept anywhere but
``repro.core.faults.wall_sleep``.
"""

from tests.conftest import no_stray_sleep  # noqa: F401
