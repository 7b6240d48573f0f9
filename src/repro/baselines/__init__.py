"""Baseline systems the paper compares against: ExAlg and RoadRunner.

Both are reimplemented from their papers (no prototypes survive in usable
form) behind a common interface, so the comparison harness can run
ObjectRunner, ExAlg and RoadRunner on identical sources.
"""

from repro.baselines.exalg import ExAlgSystem
from repro.baselines.interface import SystemOutput, TableRecord
from repro.baselines.roadrunner import RoadRunnerSystem

__all__ = [
    "SystemOutput",
    "TableRecord",
    "ExAlgSystem",
    "RoadRunnerSystem",
]
