"""The preprocessing cache: correctness, isolation, reuse across passes."""

import io
import json

import pytest

import repro.core.cache as cache_module
from repro.core import ObjectRunner, PreprocessCache, RunParams
from repro.core.cache import snapshot_bytes
from repro.core.pipeline import TraceObserver
from repro.datasets import domain_spec, generate_source
from repro.datasets.knowledge import completion_entries
from repro.datasets.sites import SiteSpec
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import freeze
from repro.htmlkit.fingerprint import structural_fingerprint
from repro.htmlkit.serialize import to_html
from repro.htmlkit.tidy import tidy
from repro.metrics.observer import MetricsObserver
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.registry import WrapperRegistry

PAGE = "<html><body><div><p>hello <b>world</b></p></div></body></html>"
OTHER = "<html><body><ul><li>item</li></ul></body></html>"


def entry_bytes(raw):
    """What one cache entry for ``raw`` counts against the budget."""
    return snapshot_bytes(freeze(clean_tree(tidy(raw))))


def numbered(index):
    """Distinct pages whose snapshots all have the same size."""
    return f"<html><body><p>page-{index:03d}</p></body></html>"


class TestPreprocessCache:
    def test_hit_and_miss_accounting(self):
        cache = PreprocessCache()
        first = cache.clean_pages([PAGE, OTHER, PAGE])
        assert first.misses == 2
        assert first.hits == 1
        second = cache.clean_pages([PAGE, OTHER])
        assert second.misses == 0
        assert second.hits == 2
        assert cache.stats() == {
            "hits": 3, "misses": 2, "races": 0, "entries": 2,
        }

    def test_returns_equal_trees(self):
        cache = PreprocessCache()
        one = cache.clean_page(PAGE)
        two = cache.clean_page(PAGE)
        assert to_html(one) == to_html(two)

    def test_returned_trees_are_isolated_copies(self):
        cache = PreprocessCache()
        one = cache.clean_page(PAGE)
        two = cache.clean_page(PAGE)
        assert one is not two
        # Mutating one copy (as the annotation stage does) must not leak
        # into subsequently served copies.
        for node in one.iter_text_nodes():
            node.annotations.add("artist")
        three = cache.clean_page(PAGE)
        assert all(not node.annotations for node in three.iter_text_nodes())

    def test_lru_eviction(self):
        # A budget that holds either page alone but not both.
        budget = max(entry_bytes(PAGE), entry_bytes(OTHER))
        assert budget < entry_bytes(PAGE) + entry_bytes(OTHER)
        cache = PreprocessCache(budget_bytes=budget)
        cache.clean_page(PAGE)
        cache.clean_page(OTHER)  # evicts PAGE
        assert len(cache) == 1
        cache.clean_page(PAGE)
        assert cache.misses == 3

    def test_clear(self):
        cache = PreprocessCache()
        cache.clean_page(PAGE)
        cache.clear()
        assert len(cache) == 0
        cache.clean_page(PAGE)
        assert cache.misses == 2

    def test_same_key_race_counts_once(self, monkeypatch):
        """Regression: two threads computing the same page used to both
        count a miss.  The loser must count a ``race`` instead, and serve
        the winner's tree."""
        import threading

        barrier = threading.Barrier(2, timeout=10)
        real_tidy = cache_module.tidy

        def rendezvous_tidy(raw):
            # Hold both threads inside the compute window so each passes
            # the first lock before either reaches the second.
            barrier.wait()
            return real_tidy(raw)

        monkeypatch.setattr(cache_module, "tidy", rendezvous_tidy)
        cache = PreprocessCache()
        trees = []

        def request():
            trees.append(cache.clean_page(PAGE))

        threads = [threading.Thread(target=request) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.stats() == {
            "hits": 0, "misses": 1, "races": 1, "entries": 1,
        }
        assert to_html(trees[0]) == to_html(trees[1])


class TestByteBudget:
    def test_resident_bytes_never_exceed_the_budget(self):
        pages = [numbered(i) for i in range(12)] + [PAGE, OTHER]
        budget = 3 * entry_bytes(numbered(0)) + entry_bytes(PAGE) // 2
        cache = PreprocessCache(budget_bytes=budget)
        for raw in pages + pages[::-1]:
            cache.clean_page(raw)
            assert 0 < cache.resident_bytes <= budget
            assert cache.resident_bytes == sum(
                entry[1] for entry in cache._entries.values()
            )
        assert 0 < len(cache) < len(pages)

    def test_least_recently_used_entry_is_evicted_first(self):
        first, second, third = (numbered(i) for i in range(3))
        cache = PreprocessCache(budget_bytes=2 * entry_bytes(first))
        cache.clean_page(first)
        cache.clean_page(second)
        cache.clean_page(first)  # hit: ``second`` is now the oldest
        cache.clean_page(third)  # evicts ``second``
        assert len(cache) == 2
        assert cache.stats()["hits"] == 1
        cache.clean_page(first)
        assert cache.stats()["hits"] == 2
        cache.clean_page(second)
        assert cache.stats()["misses"] == 4

    def test_page_larger_than_the_budget_is_served_but_not_kept(self):
        cache = PreprocessCache(budget_bytes=entry_bytes(PAGE) - 1)
        for __ in range(2):
            tree = cache.clean_page(PAGE)
            assert to_html(tree) == to_html(clean_tree(tidy(PAGE)))
        assert len(cache) == 0
        assert cache.resident_bytes == 0
        assert cache.stats() == {
            "hits": 0, "misses": 2, "races": 0, "entries": 0,
        }

    def test_oversized_page_evicts_nothing(self):
        cache = PreprocessCache(budget_bytes=entry_bytes(OTHER))
        cache.clean_page(OTHER)
        cache.clean_page(PAGE)  # larger than the whole budget
        assert len(cache) == 1
        cache.clean_page(OTHER)
        assert cache.stats()["hits"] == 1

    def test_concurrent_requests_keep_the_byte_account(self):
        import sys
        import threading

        pages = [numbered(i) for i in range(16)]
        expected = {
            raw: structural_fingerprint(clean_tree(tidy(raw))) for raw in pages
        }
        budget = 5 * entry_bytes(pages[0])
        cache = PreprocessCache(budget_bytes=budget)
        wrong = []

        def rows_of(raw, wrapper_key):
            return json.dumps([{"page": raw[-30:], "wrapper": wrapper_key}])

        def request(offset, wrapper_key):
            for round_index in range(20):
                raws = pages[offset + round_index % 4::3]
                outcome = cache.clean_pages(raws)
                for raw, key, tree in zip(raws, outcome.keys, outcome.pages):
                    fingerprint = cache.page_fingerprint(key, lambda: tree)
                    if fingerprint != expected[raw]:
                        wrong.append(raw)
                    rows = cache.page_rows(key, wrapper_key)
                    if rows not in (None, rows_of(raw, wrapper_key)):
                        wrong.append(raw)
                    cache.store_rows(key, wrapper_key, rows_of(raw, wrapper_key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=request, args=(i % 3, f"w{i % 2}"))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert cache.resident_bytes == sum(
            entry[1] for entry in cache._entries.values()
        )
        assert cache.resident_bytes <= budget

    def test_filling_rows_keeps_resident_bytes_within_the_budget(self):
        pages = [numbered(i) for i in range(8)]
        budget = 4 * entry_bytes(pages[0])
        cache = PreprocessCache(budget_bytes=budget)
        for index, raw in enumerate(pages):
            cache.clean_page(raw)
            rows = json.dumps([{"title": "x" * 40 * index}])
            cache.store_rows(cache.key_for(raw), "w" * 64, rows)
            assert cache.resident_bytes <= budget
            assert cache.resident_bytes == sum(
                entry[1] for entry in cache._entries.values()
            )
        # The rows take room the snapshots alone would have left.
        assert len(cache) < 4

    def test_filling_rows_evicts_the_least_recently_used_entry(self):
        first, second = numbered(0), numbered(1)
        cache = PreprocessCache(budget_bytes=2 * entry_bytes(first) + 200)
        cache.clean_page(first)
        cache.clean_page(second)
        key = cache.key_for(second)
        cache.store_rows(key, "w", "[]")
        assert len(cache) == 2
        cache.store_rows(key, "w", json.dumps([{"title": "x" * 300}]))
        assert list(cache._entries) == [key]
        assert cache.page_rows(key, "w") is not None
        # An entry whose rows alone overrun the budget is dropped.
        cache.store_rows(key, "w", "x" * cache.budget_bytes)
        assert len(cache) == 0 and cache.resident_bytes == 0

    def test_rows_are_kept_for_one_wrapper_key(self):
        cache = PreprocessCache()
        cache.clean_page(PAGE)
        key = cache.key_for(PAGE)
        assert cache.page_rows(key, "a") is None
        cache.store_rows(key, "a", '[{"t":"1"}]')
        assert cache.page_rows(key, "a") == '[{"t":"1"}]'
        cache.store_rows(key, "b", "[]")
        assert cache.page_rows(key, "a") is None
        assert cache.page_rows(key, "b") == "[]"
        assert cache.resident_bytes == sum(
            entry[1] for entry in cache._entries.values()
        )
        # Rows are only kept for a resident page.
        cache.store_rows(cache.key_for(OTHER), "a", "[]")
        assert len(cache) == 1

    def test_hit_thaws_a_fresh_tree(self):
        cache = PreprocessCache(budget_bytes=entry_bytes(PAGE))
        miss = cache.clean_page(PAGE)
        hits = [cache.clean_page(PAGE) for __ in range(2)]
        assert cache.stats()["hits"] == 2
        assert len({id(miss), *map(id, hits)}) == 3
        for tree in hits:
            assert tree.parent is None
            assert to_html(tree) == to_html(miss)


class TestRunnerCacheReuse:
    @pytest.fixture(scope="class")
    def albums_source(self):
        domain = domain_spec("albums")
        spec = SiteSpec(
            name="cache-albums",
            domain="albums",
            archetype="clean",
            total_objects=40,
            seed=("cache", "albums"),
        )
        return domain, generate_source(spec, domain)

    def _enrichment_runner(self, domain, source, passes):
        completion = completion_entries(domain, source.gold, coverage=0.15)
        registry = RecognizerRegistry()
        registry.register(
            GazetteerRecognizer("artist", completion.get("artist", {}))
        )
        registry.register(
            GazetteerRecognizer("title", completion.get("title", {}))
        )
        return ObjectRunner(
            domain.sod,
            registry=registry,
            params=RunParams(
                enrich_dictionaries=True, enrichment_passes=passes
            ),
        )

    def test_enrichment_passes_reuse_cached_preprocessing(
        self, albums_source, monkeypatch
    ):
        """Regression: pass 2+ must not re-tidy the raw pages."""
        domain, source = albums_source
        tidy_calls = []
        real_tidy = cache_module.tidy

        def counting_tidy(raw):
            tidy_calls.append(1)
            return real_tidy(raw)

        monkeypatch.setattr(cache_module, "tidy", counting_tidy)
        runner = self._enrichment_runner(domain, source, passes=3)
        result = runner.run_source("cache-albums", source.pages)
        assert result.ok
        # Every page tidied exactly once despite three full passes.
        assert len(tidy_calls) == len(source.pages)
        assert runner.cache.hits >= 2 * len(source.pages)

    def test_repeated_runs_share_the_runner_cache(self, albums_source):
        domain, source = albums_source
        runner = self._enrichment_runner(domain, source, passes=1)
        runner.run_source("cache-albums", source.pages)
        misses_after_first = runner.cache.misses
        runner.run_source("cache-albums", source.pages)
        assert runner.cache.misses == misses_after_first

    def test_injected_cache_shared_across_runners(self, albums_source):
        domain, source = albums_source
        shared = PreprocessCache()
        first = self._enrichment_runner(domain, source, passes=1)
        first.cache = shared
        first.run_source("cache-albums", source.pages)
        second = ObjectRunner(
            domain.sod,
            registry=RecognizerRegistry(),
            params=RunParams(),
            cache=shared,
        )
        pages = second.prepare_pages(source.pages)
        assert len(pages) == len(source.pages)
        assert shared.misses == len(source.pages)

    def _registry_runner(self, domain, source, root, cache=None, observers=()):
        completion = completion_entries(domain, source.gold, coverage=0.15)
        registry = RecognizerRegistry()
        for type_name in ("artist", "title"):
            registry.register(
                GazetteerRecognizer(type_name, completion.get(type_name, {}))
            )
        return ObjectRunner(
            domain.sod,
            registry=registry,
            cache=cache,
            wrapper_registry=WrapperRegistry(root),
            observers=observers,
        )

    @pytest.fixture
    def thawed(self, monkeypatch):
        """Every tree thawed from a cache snapshot."""
        trees = []
        real = cache_module.thaw

        def counting(snapshot):
            trees.append(real(snapshot))
            return trees[-1]

        monkeypatch.setattr(cache_module, "thaw", counting)
        return trees

    def test_fully_reused_registry_hit_thaws_no_page(
        self, albums_source, tmp_path, thawed
    ):
        domain, source = albums_source
        runner = self._registry_runner(domain, source, tmp_path)
        cold = runner.run_source("cache-albums", source.pages)
        assert cold.ok and cold.objects and thawed == []
        warm = runner.run_source("cache-albums", source.pages)
        assert runner.wrapper_registry.stats()["hits"] == 1
        assert runner.cache.stats()["hits"] == len(source.pages)
        assert thawed == []
        assert [(o.page_index, o.values) for o in warm.objects] == [
            (o.page_index, o.values) for o in cold.objects
        ]

    def test_registry_miss_gets_every_page(
        self, albums_source, tmp_path, thawed
    ):
        domain, source = albums_source
        warm_cache = PreprocessCache()
        warm_cache.clean_pages(source.pages)
        first = self._registry_runner(domain, source, tmp_path / "a")
        cold = first.run_source("cache-albums", source.pages)
        runner = self._registry_runner(
            domain, source, tmp_path / "b", cache=warm_cache
        )
        result = runner.run_source("cache-albums", source.pages)
        assert runner.wrapper_registry.stats()["misses"] == 1
        # Induction reads every page, so every cache hit is thawed once.
        assert len(thawed) == len(source.pages)
        assert len({id(tree) for tree in thawed}) == len(source.pages)
        assert [(o.page_index, o.values) for o in result.objects] == [
            (o.page_index, o.values) for o in cold.objects
        ]

    def test_reuse_counts_reach_traces_and_metrics(
        self, albums_source, tmp_path
    ):
        domain, source = albums_source
        sink = io.StringIO()
        metrics = MetricsObserver()
        runner = self._registry_runner(
            domain,
            source,
            tmp_path,
            observers=(TraceObserver(sink), metrics),
        )
        for __ in range(2):  # cold, then fully reused
            runner.run_source("cache-albums", source.pages)
        pages = len(source.pages)
        extraction = [
            event["counters"]
            for event in map(json.loads, sink.getvalue().splitlines())
            if event["event"] == "stage_end"
            and event.get("stage") == "extraction"
        ]
        assert extraction[0]["pages_extracted"] == pages
        assert "pages_reused" not in extraction[0]
        assert extraction[1]["pages_reused"] == pages
        assert "pages_extracted" not in extraction[1]
        counters = metrics.merged_registry().snapshot()["counters"]
        assert counters["pages_reused"] == pages
        assert counters["pages_extracted"] == pages
        assert set(metrics.cache_stats()) == {
            "hits", "misses", "races", "entries",
        }

    def test_enrichment_results_unchanged_by_caching(self, albums_source):
        # The cached trees must be byte-equivalent to freshly tidied ones:
        # a run with a cold cache and one with a warm cache agree exactly.
        domain, source = albums_source
        cold = self._enrichment_runner(domain, source, passes=2).run_source(
            "cache-albums", source.pages
        )
        warm_runner = self._enrichment_runner(domain, source, passes=2)
        warm_runner.prepare_pages(source.pages)  # pre-warm
        warm = warm_runner.run_source("cache-albums", source.pages)
        assert cold.ok and warm.ok
        assert [o.values for o in cold.objects] == [
            o.values for o in warm.objects
        ]
