"""The preprocessing cache keeps flat snapshots, not live trees.

Entries are one plain tuple per page — a flat ``str``/``int`` snapshot,
its size, its fingerprint once asked for and its extracted rows once
filled: the garbage collector untracks them within two collections, no
DOM node stays reachable from the cache, a miss serves the tree it just
built (no deep copy), and a hit thaws a fresh tree the first time it is
indexed, never one another context holds.
Every path that prepares a page — uncached, miss, hit — yields the same
element paths, so a wrapper learned on one applies on the others.
"""

import gc

import repro.core.cache as cache_module
import repro.htmlkit.dom as dom_module
from repro.core import PreprocessCache, RunParams
from repro.core.pipeline import PipelineContext, build_stages
from repro.datasets import domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, Node, Text, freeze, thaw
from repro.htmlkit.serialize import to_html
from repro.htmlkit.tidy import tidy
from repro.sod.dsl import parse_sod


def _source_pages(count=6):
    spec = SiteSpec(
        name="snapshot-albums",
        domain="albums",
        archetype="clean",
        total_objects=40,
        seed=("snapshot", "albums"),
    )
    return generate_source(spec, domain_spec("albums")).pages[:count]


def _reachable(root):
    """Every object reachable from ``root``, not descending into types."""
    seen = {id(root)}
    queue = [root]
    found = []
    while queue:
        obj = queue.pop()
        found.append(obj)
        for referent in gc.get_referents(obj):
            if isinstance(referent, type) or id(referent) in seen:
                continue
            seen.add(id(referent))
            queue.append(referent)
    return found


def _paths(tree):
    return [element.dom_path() for element in tree.iter_elements()]


class TestRetention:
    def test_entries_are_flat_untracked_tuples(self):
        cache = PreprocessCache()
        cache.clean_pages(_source_pages())
        # A collection may examine a new entry before its snapshot, so
        # the entry is untracked by the second collection at the latest.
        gc.collect()
        gc.collect()
        entries = list(cache._entries.values())
        assert len(entries) == len(cache) > 0
        for entry in entries:
            assert type(entry) is tuple
            assert not gc.is_tracked(entry)
            snapshot = entry[0]
            assert isinstance(snapshot, tuple)
            assert all(isinstance(item, (str, int)) for item in snapshot)
            assert not gc.is_tracked(snapshot)

    def test_entries_stay_untracked_once_fingerprinted(self):
        cache = PreprocessCache()
        pages = _source_pages()
        outcome = cache.clean_pages(pages)
        for key, tree in zip(outcome.keys, outcome.pages):
            cache.page_fingerprint(key, lambda tree=tree: tree)
        gc.collect()
        gc.collect()
        entries = list(cache._entries.values())
        assert len(entries) == len(cache) > 0
        for entry in entries:
            assert type(entry) is tuple
            assert isinstance(entry[2], str)
            assert not gc.is_tracked(entry)

    def test_entries_stay_untracked_once_rows_fill(self):
        cache = PreprocessCache()
        outcome = cache.clean_pages(_source_pages())
        for key in outcome.keys:
            cache.store_rows(key, "w" * 64, '[{"title":"t"}]')
        gc.collect()
        gc.collect()
        entries = list(cache._entries.values())
        assert len(entries) == len(cache) > 0
        for entry in entries:
            assert type(entry) is tuple
            assert isinstance(entry[4], str)
            assert not gc.is_tracked(entry)

    def test_no_dom_node_reachable_from_the_cache(self):
        cache = PreprocessCache()
        pages = _source_pages()
        cache.clean_pages(pages)
        cache.clean_pages(pages)  # hits too
        gc.collect()
        assert not any(isinstance(obj, Node) for obj in _reachable(cache))

    def test_miss_never_clones(self, monkeypatch):
        clones = []
        real_clone = dom_module.clone

        def counting_clone(node):
            clones.append(1)
            return real_clone(node)

        monkeypatch.setattr(dom_module, "clone", counting_clone)
        if hasattr(cache_module, "clone"):
            monkeypatch.setattr(cache_module, "clone", counting_clone)
        cache = PreprocessCache()
        outcome = cache.clean_pages(_source_pages())
        assert outcome.misses > 0 and outcome.hits == 0
        assert clones == []


class TestLazyPages:
    def test_hits_thaw_on_first_index_only(self, monkeypatch):
        thawed = []
        real = cache_module.thaw

        def counting(snapshot):
            thawed.append(1)
            return real(snapshot)

        monkeypatch.setattr(cache_module, "thaw", counting)
        cache = PreprocessCache()
        pages = _source_pages()
        cache.clean_pages(pages)
        outcome = cache.clean_pages(pages)
        assert outcome.hits == len(outcome.pages) == len(pages)
        assert thawed == []
        assert outcome.pages[1] is outcome.pages[1]
        assert len(thawed) == 1
        assert list(outcome.pages)[1] is outcome.pages[1]
        assert len(thawed) == len(pages)

    def test_two_contexts_never_share_a_tree(self):
        cache = PreprocessCache()
        pages = _source_pages()
        (stage,) = build_stages(("preprocess",))
        contexts = []
        for __ in range(3):  # a miss, then two hits
            ctx = PipelineContext(
                source="s",
                params=RunParams(),
                sod=parse_sod("album(title)"),
                raw_pages=list(pages),
                cache=cache,
            )
            stage.run(ctx)
            contexts.append(ctx)  # alive, so no id is recycled
        assert cache.stats()["hits"] == 2 * len(pages)
        nodes = [
            {id(node) for page in ctx.pages for node in page.iter()}
            for ctx in contexts
        ]
        assert nodes[0].isdisjoint(nodes[1])
        assert nodes[1].isdisjoint(nodes[2])
        assert nodes[0].isdisjoint(nodes[2])


class TestPathsAgree:
    def test_uncached_miss_and_hit_give_the_same_dom_paths(self):
        raw = _source_pages(1)[0]
        uncached = clean_tree(tidy(raw))
        cache = PreprocessCache()
        miss = cache.clean_page(raw)
        hit = cache.clean_page(raw)
        assert cache.stats()["hits"] == 1
        assert uncached.parent is miss.parent is hit.parent is None
        assert _paths(uncached)[0] == "html"
        assert _paths(uncached) == _paths(miss) == _paths(hit)

    def test_hit_trees_are_independent(self):
        raw = _source_pages(1)[0]
        cache = PreprocessCache()
        miss = cache.clean_page(raw)
        for node in miss.iter():
            node.annotations.add("mutated")
        miss.children.clear()
        hit = cache.clean_page(raw)
        assert to_html(hit) == to_html(clean_tree(tidy(raw)))
        assert not any(node.annotations for node in hit.iter())


class TestSnapshot:
    def test_round_trip_keeps_structure_and_parents(self):
        root = Element("html")
        body = root.append(Element("body", {"class": "c", "id": "x"}))
        body.append(Text("a"))
        body.append(Text("b"))
        body.append(Element("br"))
        root.append(Element("div", {"k": ""}))
        copy = thaw(freeze(root))
        assert copy.parent is None
        assert to_html(copy) == to_html(root)
        assert [type(node) for node in copy.iter()] == [
            type(node) for node in root.iter()
        ]
        assert list(copy.find("body").attributes.items()) == [
            ("class", "c"), ("id", "x"),
        ]
        for node in copy.iter():
            if isinstance(node, Element):
                assert all(child.parent is node for child in node.children)

    def test_annotations_are_not_kept(self):
        root = Element("p")
        root.append(Text("x")).annotations.add("artist")
        root.annotations.add("artist")
        copy = thaw(freeze(root))
        assert not any(node.annotations for node in copy.iter())

    def test_cleaned_pages_round_trip(self):
        for raw in _source_pages():
            tree = clean_tree(tidy(raw))
            assert freeze(thaw(freeze(tree))) == freeze(tree)
