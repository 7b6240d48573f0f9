"""Parallel multi-source execution (worker processes) equals serial exactly."""

import json

import pytest

from repro.core import ObjectRunner, RunParams
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec


@pytest.fixture(scope="module")
def four_sources():
    """Four independent album sites of the same domain."""
    domain = domain_spec("albums")
    knowledge = build_knowledge(domain, coverage=0.25)
    sources = {}
    for index in range(4):
        spec = SiteSpec(
            name=f"par-{index}",
            domain="albums",
            archetype="clean",
            total_objects=15,
            seed=("parallel", index),
        )
        sources[spec.name] = generate_source(spec, domain).pages
    return domain, knowledge, sources


def run_with_workers(domain, knowledge, sources, workers, **params):
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(max_workers=workers, **params),
    )
    return runner.run_sources(sources)


def as_bytes(outcome):
    return json.dumps(
        [instance.values for instance in outcome.objects], sort_keys=True
    ).encode()


class TestParallelEqualsSerial:
    def test_byte_identical_objects(self, four_sources):
        domain, knowledge, sources = four_sources
        serial = run_with_workers(domain, knowledge, sources, workers=1)
        parallel = run_with_workers(domain, knowledge, sources, workers=4)
        assert as_bytes(parallel) == as_bytes(serial)

    def test_result_ordering_preserved(self, four_sources):
        domain, knowledge, sources = four_sources
        parallel = run_with_workers(domain, knowledge, sources, workers=4)
        assert list(parallel.results) == list(sources)
        assert parallel.sources_ok == 4

    def test_per_source_results_match(self, four_sources):
        domain, knowledge, sources = four_sources
        serial = run_with_workers(domain, knowledge, sources, workers=1)
        parallel = run_with_workers(domain, knowledge, sources, workers=4)
        for name in sources:
            left = serial.results[name]
            right = parallel.results[name]
            assert left.support_used == right.support_used
            assert left.supports_attempted == right.supports_attempted
            assert [o.values for o in left.objects] == [
                o.values for o in right.objects
            ]

    def test_more_workers_than_sources(self, four_sources):
        domain, knowledge, sources = four_sources
        outcome = run_with_workers(domain, knowledge, sources, workers=32)
        assert outcome.sources_ok == 4

    def test_discarded_source_in_parallel_run(self, four_sources):
        domain, knowledge, sources = four_sources
        mixed = dict(sources)
        mixed["junk"] = ["<html><body><p>nothing</p></body></html>"] * 3
        outcome = run_with_workers(domain, knowledge, mixed, workers=4)
        assert outcome.sources_ok == 4
        assert outcome.sources_discarded == 1
        assert outcome.results["junk"].discarded

    def test_parallel_dedup_matches_serial(self, four_sources):
        domain, knowledge, sources = four_sources
        mirrored = dict(sources)
        first = next(iter(sources))
        mirrored[f"{first}-mirror"] = sources[first]
        # Dedup happens after pooling, so parity must survive it too.
        runner_args = dict(deduplicate_across=True, dedup_keys=("title", "artist"))
        serial_runner = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=RunParams(max_workers=1),
        )
        parallel_runner = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=RunParams(max_workers=4),
        )
        serial = serial_runner.run_sources(mirrored, **runner_args)
        parallel = parallel_runner.run_sources(mirrored, **runner_args)
        assert serial.duplicates_merged == parallel.duplicates_merged
        assert as_bytes(parallel) == as_bytes(serial)


class TestEnrichmentForcesSerial:
    def test_enrichment_runs_stay_deterministic(self, four_sources):
        # Gazetteer growth is order-dependent, so enrichment runs ignore
        # max_workers; two "parallel" runs must agree with each other and
        # with an explicitly serial run.
        domain, knowledge, sources = four_sources
        first = run_with_workers(
            domain, knowledge, sources, workers=4,
            enrich_dictionaries=True, enrichment_passes=2,
        )
        second = run_with_workers(
            domain, knowledge, sources, workers=1,
            enrich_dictionaries=True, enrichment_passes=2,
        )
        assert as_bytes(first) == as_bytes(second)
