"""Cached per-page fingerprints are the fingerprints an uncached run computes.

The registry keys a source on the majority of its pages' structural
fingerprints.  A :class:`PreprocessCache` entry keeps its page's
fingerprint once a registry match has asked for it, so a recrawl votes
over cached values instead of re-walking every tree.  Over every catalog
page at scale 0.1, the cached value must equal
``structural_fingerprint(clean_tree(tidy(raw)))`` on a miss, on a hit and
when recomputed after eviction; the source-level vote must agree with the
uncached one, ties included; and a registry written through the cache
must be byte-identical to one written by a ``cache=None`` pipeline.
"""

from pathlib import Path

import pytest

import repro.core.cache as cache_module
from repro.core import ObjectRunner, PreprocessCache, RunParams
from repro.core.pipeline import (
    REGISTRY_STAGE_ORDER,
    Pipeline,
    PipelineContext,
    build_stages,
)
from repro.datasets import catalog_entries, domain_spec
from repro.datasets.knowledge import completion_entries
from repro.htmlkit import (
    clean_tree,
    pages_fingerprint,
    structural_fingerprint,
    tidy,
)
from repro.metrics.bench import DICTIONARY_COVERAGE, CatalogCache
from repro.registry import WrapperRegistry

SCALE = 0.1


@pytest.fixture(scope="module")
def catalog():
    """``(entry, raw pages)`` of every catalog source, and the cache."""
    cache = CatalogCache()
    sources = [
        (entry, cache.source(entry).pages)
        for entry in catalog_entries(scale=SCALE)
    ]
    return cache, sources


@pytest.fixture(scope="module")
def expected(catalog):
    """The uncached fingerprint of every catalog page, by raw page."""
    __, sources = catalog
    return {
        raw: structural_fingerprint(clean_tree(tidy(raw)))
        for __, pages in sources
        for raw in pages
    }


def cached_fingerprints(cache, raw_pages):
    outcome = cache.clean_pages(raw_pages)
    return [
        cache.page_fingerprint(key, lambda page=page: page)
        for key, page in zip(outcome.keys, outcome.pages)
    ]


def cached_vote(cache, raw_pages):
    outcome = cache.clean_pages(raw_pages)
    return pages_fingerprint(
        list(zip(outcome.keys, outcome.pages)),
        lambda keyed: cache.page_fingerprint(keyed[0], lambda: keyed[1]),
    )


@pytest.fixture
def count_fingerprints(monkeypatch):
    """How many times the cache computed a fingerprint from a tree."""
    computed = []
    real = cache_module.structural_fingerprint

    def counting(page):
        computed.append(1)
        return real(page)

    monkeypatch.setattr(cache_module, "structural_fingerprint", counting)
    return computed


class TestPerPageFingerprint:
    def test_on_a_miss(self, catalog, expected, count_fingerprints):
        __, sources = catalog
        cache = PreprocessCache()
        for __, pages in sources:
            assert cached_fingerprints(cache, pages) == [
                expected[raw] for raw in pages
            ]
        # Computed once per resident page; asking again reads the entry.
        assert len(count_fingerprints) == len(cache) == len(expected)
        for __, pages in sources:
            cached_fingerprints(cache, pages)
        assert len(count_fingerprints) == len(expected)

    def test_on_a_hit(self, catalog, expected, count_fingerprints):
        __, sources = catalog
        cache = PreprocessCache()
        for __, pages in sources:
            cache.clean_pages(pages)
        assert count_fingerprints == []
        for __, pages in sources:
            assert cached_fingerprints(cache, pages) == [
                expected[raw] for raw in pages
            ]
        assert cache.stats()["hits"] == sum(len(p) for __, p in sources)
        assert len(count_fingerprints) == len(expected)

    def test_recomputed_after_eviction(self, catalog, expected):
        __, sources = catalog
        cache = PreprocessCache()
        for __, pages in sources:
            cache.clean_pages(pages)
        # Room for the largest page and little else: every source's pages
        # evict each other, and a second pass misses again.
        largest = max(entry[1] for entry in cache._entries.values())
        small = PreprocessCache(budget_bytes=largest)
        for __ in range(2):
            for __, pages in sources:
                assert cached_fingerprints(small, pages) == [
                    expected[raw] for raw in pages
                ]
        assert small.stats()["hits"] < len(expected)
        assert len(small) < len(expected)


class TestSourceFingerprint:
    def test_majority_matches_uncached(self, catalog):
        __, sources = catalog
        cache = PreprocessCache()
        for __ in range(2):  # cold, then warm
            for __, pages in sources:
                uncached = pages_fingerprint(
                    [clean_tree(tidy(raw)) for raw in pages]
                )
                assert cached_vote(cache, pages) == uncached

    def test_tie_break_matches_uncached(self, catalog, expected):
        __, sources = catalog
        cache = PreprocessCache()
        ties = 0
        for (__, first), (__, second) in zip(sources, sources[1:]):
            mixed = first[:2] + second[:2]
            if len({expected[raw] for raw in mixed}) != 2:
                continue
            ties += 1
            for pages in (mixed, mixed[::-1]):
                uncached = pages_fingerprint(
                    [clean_tree(tidy(raw)) for raw in pages]
                )
                assert uncached == min(expected[raw] for raw in pages)
                assert cached_vote(cache, pages) == uncached
        assert ties > 0


def registry_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_catalog(catalog, root, cache):
    """Registry-first pipeline over every catalog source, one registry."""
    sources_cache, sources = catalog
    registry = WrapperRegistry(root)
    stages = build_stages(REGISTRY_STAGE_ORDER)
    for entry, pages in sources:
        domain = domain_spec(entry.spec.domain)
        knowledge = sources_cache.knowledge(
            entry.spec.domain, DICTIONARY_COVERAGE
        )
        runner = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            extra_gazetteer_entries=completion_entries(
                domain,
                sources_cache.source(entry).gold,
                coverage=DICTIONARY_COVERAGE,
                seed=("completion", entry.spec.name),
            ),
        )
        ctx = PipelineContext(
            source=entry.spec.name,
            params=RunParams(),
            sod=domain.sod,
            recognizers=runner.recognizers,
            ontology=knowledge.ontology,
            raw_pages=list(pages),
            cache=cache,
            registry=registry,
        )
        Pipeline(stages).run(ctx)
    return registry


class TestRegistryFiles:
    def test_cached_run_writes_the_uncached_bytes(self, catalog, tmp_path):
        __, sources = catalog
        cache = PreprocessCache()
        # Every other source is already cached, so the cached run mixes
        # fingerprints taken on misses and on hits.
        for __, pages in sources[::2]:
            cache.clean_pages(pages)
        cached = run_catalog(catalog, tmp_path / "cached", cache)
        uncached = run_catalog(catalog, tmp_path / "uncached", None)
        assert cached.stats()["stores"] > 0
        assert registry_bytes(tmp_path / "cached") == registry_bytes(
            tmp_path / "uncached"
        )
