"""A run's page trees die by reference count, never as cyclic garbage.

A page tree is a web of reference cycles (``parent`` up, ``children``
down).  The trees a run builds from raw pages belong to that run, which
releases them when it ends (``LazyPages.release``), as does a bench
entry, and cleaning releases every subtree it drops.  The recursive
walks of a run build no self-referencing closure.  So what a cold run
leaves behind is freed by reference count, and the cyclic collector
finds none of it.  Trees a caller hands in stay the caller's.
"""

import gc
from collections import Counter
from types import CellType, FunctionType

import pytest

from repro.core import ObjectRunner, RunParams
from repro.core.cache import LazyPages, PreprocessCache
from repro.core.faults import CRASH, FaultInjector, FaultSpec
from repro.datasets import catalog_entries, domain_spec
from repro.datasets.knowledge import completion_entries
from repro.errors import InjectedFaultError
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, Text, freeze, release
from repro.htmlkit.tidy import tidy
from repro.metrics import MetricsObserver
from repro.metrics import bench as bench_module
from repro.metrics.bench import (
    DICTIONARY_COVERAGE,
    BenchConfig,
    BenchSession,
    CatalogCache,
)
from repro.registry.store import WrapperRegistry
from repro.wrapper.matching import MatchResult
from repro.wrapper.tokens import PageToken
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3

_CACHE = CatalogCache()


def _catalog_runner(entry, **kwargs):
    domain = domain_spec(entry.spec.domain)
    knowledge = _CACHE.knowledge(entry.spec.domain, DICTIONARY_COVERAGE)
    source = _CACHE.source(entry)
    extra = completion_entries(
        domain,
        source.gold,
        coverage=DICTIONARY_COVERAGE,
        seed=("completion", entry.spec.name),
    )
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(),
        extra_gazetteer_entries=extra,
        **kwargs,
    )
    return runner, source


def _released(tree):
    return all(node.parent is None for node in tree.iter())


def _intact(tree):
    return all(
        child.parent is element
        for element in tree.iter_elements()
        for child in element.children
    )


@pytest.fixture()
def served_pages(monkeypatch):
    """Every ``LazyPages`` the cache serves, as served."""
    served = []
    real = PreprocessCache.clean_pages

    def spy(self, raw_pages):
        outcome = real(self, raw_pages)
        served.append(outcome.pages)
        return outcome

    monkeypatch.setattr(PreprocessCache, "clean_pages", spy)
    return served


def test_cold_runs_leave_no_tree_as_cyclic_garbage():
    entries = catalog_entries(scale=0.1)[:2]
    runs = [_catalog_runner(entry) for entry in entries]
    objects = 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for entry, (runner, source) in zip(entries, runs):
            objects += len(runner.run_source(entry.spec.name, source.pages).objects)
        gc.collect()
        left = Counter(
            type(thing).__name__
            for thing in gc.garbage
            # Trees, and the recursive closures that once walked them.
            if isinstance(
                thing,
                (Element, Text, PageToken, FunctionType, CellType, MatchResult),
            )
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert objects
    assert not left


def test_a_run_releases_the_trees_it_built(served_pages):
    entry = catalog_entries(scale=0.1)[0]
    runner, source = _catalog_runner(entry)
    assert runner.run_source(entry.spec.name, source.pages).objects
    (pages,) = served_pages
    assert len(pages) == len(source.pages)
    assert all(_released(page) for page in pages)


def test_a_failing_run_releases_the_trees_it_built(served_pages):
    entry = catalog_entries(scale=0.1)[0]
    injector = FaultInjector([FaultSpec(stage="annotation", kind=CRASH)])
    runner, source = _catalog_runner(entry, fault_injector=injector)
    with pytest.raises(InjectedFaultError):
        runner.run_source(entry.spec.name, source.pages)
    (pages,) = served_pages
    assert all(_released(page) for page in pages)


def test_a_registry_hit_releases_the_trees_it_built(served_pages, tmp_path):
    entry = catalog_entries(scale=0.1)[0]
    runner, source = _catalog_runner(
        entry, wrapper_registry=WrapperRegistry(tmp_path)
    )
    runner.run_source(entry.spec.name, source.pages)
    served_pages.clear()
    # A fresh runner, so its cache misses and extraction reads every tree.
    registry = WrapperRegistry(tmp_path)
    fresh, __ = _catalog_runner(entry, wrapper_registry=registry)
    assert fresh.run_source(entry.spec.name, source.pages).objects
    assert registry.stats()["hits"] == 1
    (pages,) = served_pages
    assert all(_released(page) for page in pages)


def test_a_bench_entry_releases_its_trees_after_its_run(served_pages):
    session = BenchSession(BenchConfig(scale=0.01, systems=("objectrunner",)))
    entry = session.entries()[0]
    session._run_entry("objectrunner", entry, MetricsObserver(), None)
    (pages,) = served_pages
    assert len(pages) == len(session.catalog.source(entry).pages)
    assert all(_released(page) for page in pages)


def test_a_failing_bench_entry_releases_its_trees(served_pages, monkeypatch):
    def fail(*args):
        raise RuntimeError("grading failed")

    monkeypatch.setattr(bench_module, "grade_source", fail)
    session = BenchSession(BenchConfig(scale=0.01, systems=("objectrunner",)))
    with pytest.raises(RuntimeError):
        session._run_entry(
            "objectrunner", session.entries()[0], MetricsObserver(), None
        )
    (pages,) = served_pages
    assert all(_released(page) for page in pages)


def test_trees_the_caller_passes_are_never_touched():
    entry = catalog_entries(scale=0.1)[0]
    runner, source = _catalog_runner(entry)
    pages = runner.prepare_pages(source.pages)
    assert runner.run_source_prepared(entry.spec.name, pages).objects
    assert all(_intact(page) for page in pages)


def test_release_leaves_unthawed_snapshots_alone():
    cache = PreprocessCache()
    raw = [FIGURE3_P1, FIGURE3_P2, FIGURE3_P3]
    cache.clean_pages(raw)
    pages = cache.clean_pages(raw).pages
    assert isinstance(pages, LazyPages)
    thawed = pages[1]
    pages.release()
    assert _released(thawed)
    # The other two were never indexed: they thaw intact, after release.
    assert _intact(pages[0]) and _intact(pages[2])
    assert freeze(pages[0]) == freeze(cache.clean_page(FIGURE3_P1))


def test_release_cuts_every_parent_pointer():
    tree = tidy(FIGURE3_P1)
    snapshot = freeze(tree)
    children = [list(element.children) for element in tree.iter_elements()]
    release(tree)
    assert _released(tree)
    assert [list(element.children) for element in tree.iter_elements()] == children
    assert freeze(tree) == snapshot


def test_clean_tree_releases_the_subtrees_it_drops():
    body = Element("body")
    dropped = [
        Element("script", children=[Text("var x = 1;")]),
        Element("style", children=[Text("p {}")]),
        Element("div", {"hidden": ""}, children=[Element("p", children=[Text("x")])]),
        Element("img", {"src": "a.png"}),
        Element("span", children=[Element("b", children=[Text("  ")])]),
    ]
    for element in dropped:
        body.append(element)
    body.append(Element("p", children=[Text("kept")]))
    root = Element("html", children=[body])
    clean_tree(root)
    assert [child.tag for child in body.children] == ["p"]
    for element in dropped:
        assert _released(element), element.tag
    assert _intact(root)
