"""The profile's garbage-collector table: counted through ``gc.callbacks``."""

import gc

from repro.metrics.profiling import CollectorTally, ProfileReport, render_profile


class _Cycle:
    def __init__(self):
        self.me = self


def test_tally_counts_collections_and_objects_per_generation():
    tally = CollectorTally()
    with tally:
        assert tally in gc.callbacks
        for __ in range(3):
            _Cycle()
        gc.collect()
    assert tally not in gc.callbacks
    assert tally.collections[2] == 1
    # Three cycles of an object and its ``__dict__`` at least.
    assert tally.collected[2] >= 6
    gc.collect()
    assert tally.collections[2] == 1


def test_render_profile_prints_the_collector_table():
    report = ProfileReport(scale=0.1, systems=("objectrunner",))
    report.collector.collections[:] = [120, 11, 2]
    report.collector.collected[:] = [3400, 560, 78]
    lines = render_profile(report).splitlines()
    start = lines.index("garbage collector (gc.callbacks)")
    assert lines[start + 1].split() == ["generation", "collections", "collected"]
    assert [line.split() for line in lines[start + 2:start + 5]] == [
        ["0", "120", "3400"],
        ["1", "11", "560"],
        ["2", "2", "78"],
    ]
