"""Tests of the benchmark itself: inputs, tracing, percentiles, oracle.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import report, run, spans, workloads
from repro.datasets import catalog_entries
from repro.recognizers.gazetteer import GazetteerRecognizer

CHECKOUT = Path(__file__).resolve().parents[2]


def _small_entries(seed: int) -> list:
    """Three clean sources plus the catalog's unstructured one."""
    entries = workloads.replica_entries(seed, len(catalog_entries(0.1)))
    picked = entries[:2] + [e for e in entries if e.spec.archetype == "unstructured"]
    return picked


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = workloads.build_inputs(4, _small_entries(4), rounds=1)
    again = workloads.build_inputs(4, _small_entries(4), rounds=1)
    other = workloads.build_inputs(5, _small_entries(5), rounds=1)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_replicas_keep_names_across_seeds_and_reach_the_count():
    one = workloads.replica_entries(1, workloads.MIN_BATCH_SOURCES)
    two = workloads.replica_entries(2, workloads.MIN_BATCH_SOURCES)
    assert len(one) == workloads.MIN_BATCH_SOURCES
    assert [e.spec.name for e in one] == [e.spec.name for e in two]
    assert len({e.spec.name for e in one}) == len(one)
    assert [e.spec.seed for e in one] != [e.spec.seed for e in two]


def test_recrawl_growth_keeps_old_pages_as_prefix():
    entry = _small_entries(3)[0]
    inputs = workloads.build_inputs(3, [entry], rounds=2)
    first = inputs.sources[entry.spec.name].pages
    grown = inputs.recrawl[1][1].pages
    assert len(grown) > len(first)
    assert grown[: len(first) - 1] == first[:-1]


def test_percentile_smooths_over_a_gap():
    # Ten large items above ninety small ones: nearest rank would jump
    # between the clusters as one item crosses; the estimate moves a bit.
    base = [100.0] * 89 + [500.0] + [900.0] * 10
    lower, __ = workloads.percentile(base, 0.9)
    shifted = [100.0] * 90 + [900.0] * 10
    upper, __ = workloads.percentile(shifted, 0.9)
    assert 100.0 < upper < lower < 900.0
    assert lower - upper < 100.0


def test_p90_needs_ten_samples_beyond_it():
    value, beyond = workloads.percentile([float(i) for i in range(100)], 0.9)
    assert beyond == 10 and value == pytest.approx(89.5)
    with pytest.raises(ValueError, match="needs 10"):
        workloads.percentile([float(i) for i in range(99)], 0.9)
    value, beyond = workloads.percentile([float(i) for i in range(21)], 0.5)
    assert beyond == 10 and value == pytest.approx(10.0)


def test_batch_floor_leaves_ten_samples_beyond_p90():
    size = workloads.batch_size(1)
    __, beyond = workloads.percentile([1.0] * size, 0.9)
    assert beyond >= 10


def test_traced_restores_every_original(tmp_path):
    before = spans.originals()
    find = GazetteerRecognizer.find
    inputs = workloads.build_inputs(6, _small_entries(6)[:1], rounds=0)
    workload = workloads.BatchWorkload(inputs, tmp_path, processes=False)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert GazetteerRecognizer.find is not find
        workload.setup()
        workload.run()
    assert GazetteerRecognizer.find is find
    assert spans.originals() == before
    assert {span.layer for span in tracer.spans} >= {
        "htmlkit", "vision", "annotation", "wrapper", "extraction", "core",
    }


def test_traced_restores_originals_when_the_block_raises():
    before = spans.originals()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("boom")
    assert spans.originals() == before


def _traced_batch(tmp_path, processes: bool):
    inputs = workloads.build_inputs(7, _small_entries(7), rounds=0)
    workload = workloads.BatchWorkload(inputs, tmp_path, processes=processes)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        workload.setup()
        phase = workload.run()
    lanes = spans.lanes(tracer, phase.start, phase.end)
    values, accounting = report.per_layer(
        lanes, lanes, phase.attempted, phase.wall_s, phase.wall_s
    )
    return phase, lanes, values, accounting


@pytest.mark.parametrize("processes", [False, True], ids=["serial", "process"])
def test_traced_accounting_closes(tmp_path, processes):
    phase, lanes, values, accounting = _traced_batch(tmp_path, processes)
    assert not phase.problems
    assert accounting["error"] <= report.ACCOUNTING_TOLERANCE
    assert set(values) == {name for name, __, __ in report.PER_LAYER}
    if processes:
        # Worker spans came home: one lane per worker besides the parent.
        assert len(lanes) > 1
        assert values["core.worker_busy_ratio"] > 0
    assert values["annotation.find_calls_per_source"] > 0


def test_self_time_subtracts_children():
    parent = spans.Span("core", "run", 0.0, 10.0)
    first = spans.Span("htmlkit", "tidy", 1.0, 3.0, parent=0)
    second = spans.Span("vision", "segment_page", 4.0, 5.0, parent=0)
    assert spans.self_times([parent, first, second]) == [7.0, 2.0, 1.0]
    lane = spans.Lane([parent, first, second], wall=12.0)
    assert lane.unattributed == 2.0


def test_serial_and_process_batches_agree(tmp_path):
    inputs = workloads.build_inputs(8, _small_entries(8), rounds=0)
    digests = []
    for processes in (False, True):
        workload = workloads.BatchWorkload(inputs, tmp_path, processes=processes)
        workload.setup()
        phase = workload.run()
        assert not phase.problems
        assert phase.discards == 1
        digests.append(phase.digest)
    assert digests[0] == digests[1]


def test_warm_recrawl_requests_are_all_registry_hits(tmp_path):
    inputs = workloads.build_inputs(9, _small_entries(9), rounds=2)
    workload = workloads.RecrawlWorkload(inputs, tmp_path)
    workload.setup()
    assert workload.populate() == []
    phase = workload.run()
    assert phase.problems == []
    assert phase.attempted == len(inputs.recrawl) == 2 * len(inputs.entries)
    assert phase.hits == phase.attempted
    assert phase.discards == 2  # the unstructured site, replayed each round
    assert phase.failed == 0


def test_digest_pair_flags_a_mismatch(tmp_path):
    assert workloads.check_digest_pair(tmp_path, "cold-batch", 3, "a") == []
    assert workloads.check_digest_pair(tmp_path, "cold-batch-proc", 3, "a") == []
    problems = workloads.check_digest_pair(tmp_path, "cold-batch-proc", 3, "b")
    assert problems == ["objects_digest differs from cold-batch for seed 3"]
    assert workloads.check_digest_pair(tmp_path, "warm-recrawl", 3, "z") == []


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(metric) for metric in report.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in report.PER_LAYER
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        CHECKOUT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
