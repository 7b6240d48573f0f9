"""Tests for the registry-first pipeline path (match -> induce -> extract)."""

import json
from pathlib import Path

import pytest

from repro.annotation.annotator import annotate_page
from repro.core import ObjectRunner, RunParams
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.htmlkit import clean_tree, pages_fingerprint, tidy
from repro.recognizers import RecognizerRegistry
from repro.registry import StoredDiscard, WrapperRegistry
from repro.sod.dsl import parse_sod
from repro.wrapper.generate import WrapperConfig, generate_wrapper
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3

SOD = parse_sod(
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)

FIGURE3_RAW = [FIGURE3_P1, FIGURE3_P2, FIGURE3_P3]

#: The running example re-rendered by a different template: same records,
#: different structure, so a figure3 wrapper extracts nothing here.
VARIANT_RAW = [
    raw.replace("<div>", "<p>").replace("</div>", "</p>")
    .replace("<span>", "<em>").replace("</span>", "</em>")
    for raw in FIGURE3_RAW
]


def make_runner(figure3_recognizers, wrapper_registry=None, **params):
    registry = RecognizerRegistry()
    for recognizer in figure3_recognizers:
        registry.register(recognizer)
    return ObjectRunner(
        SOD,
        registry=registry,
        params=RunParams(**params),
        wrapper_registry=wrapper_registry,
    )


def values_of(result):
    return [instance.values for instance in result.objects]


def poisoned_registry(root, figure3_recognizers):
    """A registry holding a variant-template wrapper under fig3's key.

    The first registry-first run of the figure3 pages hits the stale
    wrapper, demotes it and re-induces.
    """
    variant_pages = [clean_tree(tidy(raw)) for raw in VARIANT_RAW]
    for page in variant_pages:
        annotate_page(page, figure3_recognizers)
    stale = generate_wrapper(
        "variant", variant_pages, SOD, WrapperConfig(support=2)
    )
    registry = WrapperRegistry(root)
    fingerprint = pages_fingerprint(
        [clean_tree(tidy(raw)) for raw in FIGURE3_RAW]
    )
    registry.put(SOD, fingerprint, stale)
    return registry


class TestRegistryFirstRun:
    def test_cold_run_matches_classic_and_stores(
        self, tmp_path, figure3_recognizers
    ):
        classic = make_runner(figure3_recognizers).run_source(
            "fig3", FIGURE3_RAW
        )
        registry = WrapperRegistry(tmp_path)
        cold = make_runner(
            figure3_recognizers, wrapper_registry=registry
        ).run_source("fig3", FIGURE3_RAW)
        assert values_of(cold) == values_of(classic)
        assert registry.stats()["misses"] == 1
        assert registry.stats()["stores"] == 1

    def test_warm_run_skips_induction(self, tmp_path, figure3_recognizers):
        registry = WrapperRegistry(tmp_path)
        cold = make_runner(
            figure3_recognizers, wrapper_registry=registry
        ).run_source("fig3", FIGURE3_RAW)
        assert cold.timings.wrapping > 0
        warm = make_runner(
            figure3_recognizers, wrapper_registry=registry
        ).run_source("fig3", FIGURE3_RAW)
        assert warm.timings.wrapping == 0
        assert warm.timings.annotation == 0
        assert values_of(warm) == values_of(cold)
        assert registry.stats()["hits"] == 1

    def test_prepared_pages_take_the_registry_path(
        self, tmp_path, figure3_recognizers
    ):
        registry = WrapperRegistry(tmp_path)
        runner = make_runner(figure3_recognizers, wrapper_registry=registry)
        cold = runner.run_source("fig3", FIGURE3_RAW)
        prepared = [clean_tree(tidy(raw)) for raw in FIGURE3_RAW]
        warm = runner.run_source_prepared("fig3", prepared)
        assert values_of(warm) == values_of(cold)
        assert registry.stats()["hits"] == 1


class TestDemotion:
    def test_stale_wrapper_is_demoted_and_reinduced(
        self, tmp_path, figure3_recognizers
    ):
        registry = poisoned_registry(tmp_path, figure3_recognizers)

        classic = make_runner(figure3_recognizers).run_source(
            "fig3", FIGURE3_RAW
        )
        result = make_runner(
            figure3_recognizers, wrapper_registry=registry
        ).run_source("fig3", FIGURE3_RAW)
        assert values_of(result) == values_of(classic)
        stats = registry.stats()
        assert stats["demotions"] == 1
        assert stats["stores"] == 2  # the poison entry, then the re-induced one
        # The demoted entry was replaced: a fresh run now hits cleanly.
        warm = make_runner(
            figure3_recognizers, wrapper_registry=registry
        ).run_source("fig3", FIGURE3_RAW)
        assert values_of(warm) == values_of(classic)
        assert registry.stats()["demotions"] == 1


@pytest.fixture(scope="module")
def album_sources():
    """Four album sites, two pairs sharing a template archetype."""
    domain = domain_spec("albums")
    knowledge = build_knowledge(domain, coverage=0.25)
    sources = {}
    for index in range(4):
        spec = SiteSpec(
            name=f"reg-{index}",
            domain="albums",
            archetype="clean",
            total_objects=12,
            seed=("registry-batch", index),
        )
        sources[spec.name] = generate_source(spec, domain).pages
    return domain, knowledge, sources


def run_batch(domain, knowledge, sources, root, workers):
    registry = WrapperRegistry(root)
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(max_workers=workers),
        wrapper_registry=registry,
    )
    outcome = runner.run_sources(sources)
    return registry, outcome


def registry_bytes(root):
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestBatchDeterminism:
    def test_parallel_registry_bytes_equal_serial(
        self, tmp_path, album_sources
    ):
        domain, knowledge, sources = album_sources
        serial_reg, serial = run_batch(
            domain, knowledge, sources, tmp_path / "serial", workers=1
        )
        parallel_reg, parallel = run_batch(
            domain, knowledge, sources, tmp_path / "parallel", workers=4
        )
        assert registry_bytes(tmp_path / "parallel") == registry_bytes(
            tmp_path / "serial"
        )
        assert serial_reg.stats() == parallel_reg.stats()
        serial_values = json.dumps(
            [i.values for i in serial.objects], sort_keys=True
        )
        parallel_values = json.dumps(
            [i.values for i in parallel.objects], sort_keys=True
        )
        assert parallel_values == serial_values

    def test_batch_objects_match_classic_pipeline(
        self, tmp_path, album_sources
    ):
        domain, knowledge, sources = album_sources
        classic = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=RunParams(max_workers=1),
        ).run_sources(sources)
        __, registered = run_batch(
            domain, knowledge, sources, tmp_path / "reg", workers=1
        )
        assert [i.values for i in registered.objects] == [
            i.values for i in classic.objects
        ]


class TestEnrichmentGating:
    def test_enrichment_runs_bypass_the_registry(
        self, tmp_path, figure3_recognizers
    ):
        registry = WrapperRegistry(tmp_path)
        runner = make_runner(
            figure3_recognizers,
            wrapper_registry=registry,
            enrich_dictionaries=True,
            enrichment_passes=2,
        )
        runner.run_source("fig3", FIGURE3_RAW)
        stats = registry.stats()
        assert stats == {
            "hits": 0, "misses": 0, "stores": 0, "races": 0, "demotions": 0,
        }


class TestDiscardTombstones:
    def doomed_runner(self, wrapper_registry=None):
        # No recognizers at all: the annotation gate (alpha) always fires,
        # so every induction of this source ends in a discard.
        return ObjectRunner(
            SOD,
            registry=RecognizerRegistry(),
            params=RunParams(),
            wrapper_registry=wrapper_registry,
        )

    def test_cold_discard_stores_a_tombstone(self, tmp_path):
        registry = WrapperRegistry(tmp_path)
        cold = self.doomed_runner(registry).run_source("doomed", FIGURE3_RAW)
        assert cold.discarded
        stats = registry.stats()
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert isinstance(
            registry.lookup(SOD, pages_fingerprint(
                [clean_tree(tidy(raw)) for raw in FIGURE3_RAW]
            )),
            StoredDiscard,
        )

    def test_warm_run_replays_the_discard_without_inducing(self, tmp_path):
        registry = WrapperRegistry(tmp_path)
        cold = self.doomed_runner(registry).run_source("doomed", FIGURE3_RAW)
        warm = self.doomed_runner(registry).run_source("doomed", FIGURE3_RAW)
        assert warm.discarded
        assert warm.discard_stage == cold.discard_stage
        assert warm.discard_reason == cold.discard_reason
        assert warm.timings.wrapping == 0
        assert warm.timings.annotation == 0
        assert registry.stats()["hits"] == 1

    def test_batch_discard_stores_through_staged_view(self, tmp_path):
        registry = WrapperRegistry(tmp_path)
        runner = self.doomed_runner(registry)
        batch = runner.run_sources({"doomed": FIGURE3_RAW})
        assert batch.results["doomed"].discarded
        assert registry.stats()["stores"] == 1
        warm = runner.run_sources({"doomed": FIGURE3_RAW})
        assert warm.results["doomed"].discarded
        assert registry.stats()["hits"] == 1
