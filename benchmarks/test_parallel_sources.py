"""Parallel multi-source execution: correctness and wall-clock.

``RunParams.max_workers`` above 1 runs independent sources concurrently
in worker processes that share one per-source queue.  Correctness bar: the
parallel run must be byte-identical to the serial run (same objects,
same order).  Wall-clock is reported for both; the speedup is bounded by
the host's cores and by process start-up, pickling and the merge, which
weigh heavily on a batch this small, so the assertion only requires
that parallelism never costs meaningfully more than serial.
"""

import json
import time

from repro.core import ObjectRunner, RunParams
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec

SOURCE_COUNT = 6


def _make_sources():
    domain = domain_spec("albums")
    knowledge = build_knowledge(domain, coverage=0.25)
    sources = {}
    for index in range(SOURCE_COUNT):
        spec = SiteSpec(
            name=f"parbench-{index}",
            domain="albums",
            archetype="clean",
            total_objects=25,
            seed=("parbench", index),
        )
        sources[spec.name] = generate_source(spec, domain).pages
    return domain, knowledge, sources


def _run(domain, knowledge, sources, max_workers):
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(max_workers=max_workers),
    )
    started = time.perf_counter()
    outcome = runner.run_sources(sources)
    return outcome, time.perf_counter() - started


def test_parallel_matches_serial_and_reports_wallclock():
    domain, knowledge, sources = _make_sources()
    serial, serial_seconds = _run(domain, knowledge, sources, max_workers=1)
    parallel, parallel_seconds = _run(domain, knowledge, sources, max_workers=4)

    serial_bytes = json.dumps(
        [instance.values for instance in serial.objects], sort_keys=True
    ).encode()
    parallel_bytes = json.dumps(
        [instance.values for instance in parallel.objects], sort_keys=True
    ).encode()
    assert parallel_bytes == serial_bytes
    assert list(parallel.results) == list(serial.results)
    assert parallel.sources_ok == serial.sources_ok == SOURCE_COUNT

    print()
    print(f"RUN_SOURCES over {SOURCE_COUNT} sources")
    print("=" * 60)
    print(f"serial   (max_workers=1) {serial_seconds * 1000:9.1f} ms")
    print(f"parallel (max_workers=4) {parallel_seconds * 1000:9.1f} ms")
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    print(f"speedup  {speedup:.2f}x (bounded by cores and pool start-up)")
    # Parallel execution must never cost meaningfully more than serial.
    assert parallel_seconds < serial_seconds * 1.5
