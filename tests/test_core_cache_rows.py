"""Cached extraction rows give the objects a fresh, empty-cache run gives.

A :class:`~repro.core.cache.PreprocessCache` entry keeps its page's
extracted rows under one wrapper, keyed by
:func:`~repro.wrapper.serialize.wrapper_digest`.  For every catalog
source at scale 0.1, a registry-backed runner crawls the site, then
recrawls it grown by a tenth (most old pages come back byte-identical).
The recrawl's objects must be byte-identical to those of a fresh runner
with an empty cache over the same registry — with the rows reused, with
the rows evicted by a tiny budget, after a stale wrapper was demoted and
re-induced, and with two SODs taking turns over the same pages in one
:class:`~repro.service.server.ExtractionService`.
"""

import dataclasses
import json
import shutil

import pytest

from repro.core import ObjectRunner, PreprocessCache
from repro.core.pipeline import PipelineObserver
from repro.datasets import catalog_entries, domain_spec, generate_source
from repro.datasets.knowledge import completion_entries
from repro.htmlkit import clean_tree, pages_fingerprint, tidy
from repro.metrics.bench import DICTIONARY_COVERAGE, CatalogCache
from repro.registry import WrapperRegistry
from repro.registry.store import signature_for
from repro.service.server import ExtractionService
from repro.wrapper.extraction import extract_objects
from repro.wrapper.serialize import (
    wrapper_digest,
    wrapper_from_dict,
    wrapper_to_dict,
)

SCALE = 0.1

#: A second SOD per domain: a projection of the domain's own SOD, so the
#: same pages are wrapped twice under different wrappers.
SECOND_SOD = {
    "albums": "album(title, artist)",
    "books": "book(title, authors:{author}+)",
    "cars": "car(brand)",
    "concerts": "concert(artist, date<kind=predefined>)",
    "publications": "publication(title, authors:{author}+)",
}


class ExtractionCounts(PipelineObserver):
    """Counter deltas of every extraction stage, in run order."""

    def __init__(self):
        self.runs = []

    def on_stage_end(self, event, ctx):
        if event.stage == "extraction":
            self.runs.append(dict(event.counters))


@dataclasses.dataclass
class Site:
    entry: object
    pages: list
    grown: list
    runner_kwargs: dict


@pytest.fixture(scope="module")
def sites():
    """Every catalog source: first crawl, grown recrawl, runner set-up."""
    catalog = CatalogCache()
    out = []
    for entry in catalog_entries(scale=SCALE):
        domain = domain_spec(entry.spec.domain)
        knowledge = catalog.knowledge(entry.spec.domain, DICTIONARY_COVERAGE)
        source = catalog.source(entry)
        spec = dataclasses.replace(
            entry.spec, total_objects=round(entry.spec.total_objects * 1.1)
        )
        out.append(
            Site(
                entry=entry,
                pages=source.pages,
                grown=generate_source(spec, domain).pages,
                runner_kwargs=dict(
                    sod=domain.sod,
                    ontology=knowledge.ontology,
                    corpus=knowledge.corpus,
                    gazetteer_classes=domain.gazetteer_classes,
                    extra_gazetteer_entries=completion_entries(
                        domain,
                        source.gold,
                        coverage=DICTIONARY_COVERAGE,
                        seed=("completion", entry.spec.name),
                    ),
                ),
            )
        )
    return out


def make_runner(site, registry, cache=None, observer=None):
    return ObjectRunner(
        **site.runner_kwargs,
        cache=cache,
        wrapper_registry=registry,
        observers=(observer,) if observer else (),
    )


def objects_bytes(result):
    """The objects of a result as bytes: values, page and source."""
    return json.dumps(
        [
            [instance.page_index, instance.source, instance.values]
            for instance in result.objects
        ]
    ).encode("utf-8")


@pytest.fixture(scope="module")
def populated(sites, tmp_path_factory):
    """A registry holding every site's first crawl, plus the references.

    The reference for a site is its grown recrawl by a fresh runner with
    an empty cache over this registry.  Returns ``(root, wrappers,
    references)``; ``wrappers`` maps the wrapped sources to the wrapper
    their first crawl induced.
    """
    root = tmp_path_factory.mktemp("rows") / "registry"
    registry = WrapperRegistry(root)
    wrappers = {}
    for site in sites:
        result = make_runner(site, registry).run_source(
            site.entry.spec.name, site.pages
        )
        if not result.discarded:
            wrappers[site.entry.spec.name] = result.wrapper
    references = {}
    for site in sites:
        result = make_runner(site, registry).run_source(
            site.entry.spec.name, site.grown
        )
        references[site.entry.spec.name] = objects_bytes(result)
    assert registry.stats()["demotions"] == 0
    assert len(wrappers) >= len(sites) - 2
    return root, wrappers, references


def registry_copy(populated, tmp_path):
    root, __, __ = populated
    copy = tmp_path / "registry"
    shutil.copytree(root, copy)
    return WrapperRegistry(copy)


class TestRecrawl:
    def test_reused_rows(self, sites, populated, tmp_path):
        __, wrappers, references = populated
        registry = WrapperRegistry(tmp_path / "fresh")
        reused = 0
        for site in sites:
            counts = ExtractionCounts()
            runner = make_runner(site, registry, PreprocessCache(), counts)
            name = site.entry.spec.name
            runner.run_source(name, site.pages)  # induces and stores
            result = runner.run_source(name, site.grown)
            assert objects_bytes(result) == references[name], name
            if name in wrappers:
                # The stored wrapper has the induced one's digest, so
                # every page both crawls share reuses its rows.
                shared = len(set(site.pages) & set(site.grown))
                assert counts.runs[-1].get("pages_reused", 0) == shared
                assert counts.runs[-1]["pages_extracted"] == len(
                    site.grown
                ) - shared
                reused += shared
        assert reused > 0

    def test_rows_evicted_by_a_tiny_budget(self, sites, populated, tmp_path):
        __, __, references = populated
        registry = registry_copy(populated, tmp_path)
        extracted = 0
        for site in sites:
            probe = PreprocessCache()
            probe.clean_pages(site.pages)
            largest = max(entry[1] for entry in probe._entries.values())
            cache = PreprocessCache(budget_bytes=largest + 64)
            counts = ExtractionCounts()
            runner = make_runner(site, registry, cache, counts)
            name = site.entry.spec.name
            runner.run_source(name, site.pages)
            first_crawl = len(counts.runs)
            result = runner.run_source(name, site.grown)
            assert objects_bytes(result) == references[name], name
            assert cache.resident_bytes <= cache.budget_bytes
            for run in counts.runs[first_crawl:]:
                extracted += run["pages_extracted"]
        assert extracted > 0

    def test_demoted_wrapper_is_reinduced(self, sites, populated, tmp_path):
        __, wrappers, __ = populated
        registry = registry_copy(populated, tmp_path)
        recomputed = 0
        for site in sites:
            name = site.entry.spec.name
            if name not in wrappers:
                continue
            sod = site.runner_kwargs["sod"]
            cache = PreprocessCache()
            counts = ExtractionCounts()
            runner = make_runner(site, registry, cache, counts)
            runner.run_source(name, site.pages)  # fills rows
            # Swap in a stale wrapper under the site's signature: it finds
            # no records, so the recrawl demotes it and re-induces.
            fingerprint = pages_fingerprint(
                [clean_tree(tidy(raw)) for raw in site.pages]
            )
            stale = dataclasses.replace(
                wrappers[name], record_path=wrappers[name].record_path + "/gone"
            )
            assert registry.demote(signature_for(sod, fingerprint))
            registry.put(sod, fingerprint, stale)
            before = registry.stats()["demotions"]
            result = runner.run_source(name, site.grown)
            assert registry.stats()["demotions"] == before + 1
            assert wrapper_digest(result.wrapper) != wrapper_digest(stale)
            # The stale wrapper's rows never stand in for the new one's.
            assert counts.runs[-2]["pages_extracted"] == len(site.grown)
            recomputed += counts.runs[-1]["pages_extracted"]
            reference = make_runner(site, registry).run_source(name, site.grown)
            assert objects_bytes(result) == objects_bytes(reference), name
        assert recomputed > 0


def service_dicts(site):
    runner = ObjectRunner(**site.runner_kwargs)
    return {
        type_name: sorted(gazetteer.entries())
        for type_name, gazetteer in sorted(runner.gazetteers().items())
    }


class TestTwoSods:
    def test_two_sods_over_the_same_pages(self, sites, tmp_path):
        registry = WrapperRegistry(tmp_path / "registry")
        service = ExtractionService(registry)
        alternated = 0
        for site in sites:
            domain = site.entry.spec.domain
            dicts = service_dicts(site)
            sods = (domain_spec(domain).sod_text, SECOND_SOD[domain])

            def request(sod, pages):
                return {
                    "sod": sod,
                    "pages": pages,
                    "source": site.entry.spec.name,
                    "dicts": dicts,
                }

            for pages in (site.pages, site.grown):
                warm = [service.handle(request(sod, pages)) for sod in sods]
            fresh = ExtractionService(registry)
            for sod, response in zip(sods, warm):
                expected = fresh.handle(request(sod, site.grown))
                assert response.get("objects") == expected.get("objects")
                assert response["ok"] == expected["ok"]
            if all(response.get("objects") for response in warm):
                alternated += 1
        assert alternated > 0


class TestWrapperRoundTrip:
    def test_extraction_and_digest_survive_serialization(
        self, sites, populated
    ):
        __, wrappers, __ = populated
        checked = 0
        for site in sites:
            wrapper = wrappers.get(site.entry.spec.name)
            if wrapper is None:
                continue
            loaded = wrapper_from_dict(wrapper_to_dict(wrapper))
            assert wrapper_digest(loaded) == wrapper_digest(wrapper)
            pages = [clean_tree(tidy(raw)) for raw in site.grown]
            induced = extract_objects(wrapper, pages, source="s")
            reloaded = extract_objects(loaded, pages, source="s")
            assert [(o.page_index, o.values) for o in induced] == [
                (o.page_index, o.values) for o in reloaded
            ]
            checked += 1
        assert checked == len(wrappers) > 0
