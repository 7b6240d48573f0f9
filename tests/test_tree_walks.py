"""The explicit-stack page walks against the recursive forms they replace.

:func:`~repro.htmlkit.dom.freeze` and
:func:`~repro.wrapper.tokens.tokenize_element` walk a tree with one
explicit stack instead of a recursive closure.  Below are verbatim copies
of the recursive forms.  On every scale-0.1 catalog page the loops must
give the same snapshot, and the same tokens interned in the same order
(so the same role ids); they must not raise ``RecursionError`` on a
5,000-deep chain; and, timed with the garbage collector off, they must
be no slower than the recursive forms.
"""

import gc
import time

import pytest

from repro.datasets import catalog_entries
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import _CLOSE, Element, Text, freeze, release, thaw
from repro.htmlkit.tidy import tidy
from repro.metrics.bench import CatalogCache
from repro.utils.text import tokenize_words
from repro.wrapper.tokens import (
    KIND_CLOSE,
    KIND_OPEN,
    KIND_WORD,
    PageToken,
    TokenizedPage,
    TokenTable,
    tokenize_element,
)

CATALOG_SCALE = 0.1

#: How much slower than its recursive form a loop may time before the
#: test calls it slower: room for a shared host's jitter, well under the
#: 30% a first explicit-stack ``freeze`` cost.
TIMING_SLACK = 1.15


def recursive_freeze(root):
    out = []
    append = out.append
    extend = out.extend

    def visit(element):
        attributes = element.attributes
        append(len(attributes))
        append(element.tag)
        for item in attributes.items():
            extend(item)
        for child in element.children:
            if isinstance(child, Text):
                append(child.text)
            else:
                visit(child)
        append(_CLOSE)

    visit(root)
    return tuple(out)


def recursive_tokenize_element(
    element, page_index=-1, include_words=True, table=None
):
    tokens = []
    append = tokens.append
    if table is None:
        table = TokenTable()
    intern = table.intern

    def visit(node, path):
        tag = node.tag
        attr_class = node.attributes.get("class", "")
        node_annotations = frozenset(node.annotations)
        append(
            PageToken(
                KIND_OPEN, tag, path, node_annotations, None, node,
                attr_class, intern((KIND_OPEN, tag, path, attr_class)),
            )
        )
        for child in node.children:
            if isinstance(child, Text):
                if not include_words:
                    continue
                text_annotations = frozenset(child.annotations)
                for word in tokenize_words(child.text):
                    append(
                        PageToken(
                            KIND_WORD, word, path, text_annotations, child,
                            None, "", intern((KIND_WORD, word, path, "")),
                        )
                    )
                continue
            assert isinstance(child, Element)
            visit(child, f"{path}/{child.tag}")
        append(
            PageToken(
                KIND_CLOSE, tag, path, node_annotations, None, node,
                attr_class, intern((KIND_CLOSE, tag, path, attr_class)),
            )
        )

    visit(element, element.dom_path())
    return TokenizedPage(tokens=tokens, page_index=page_index, table=table)


@pytest.fixture(scope="module")
def catalog_trees():
    """Every catalog page, cleaned, with some nodes annotated."""
    cache = CatalogCache()
    trees = []
    for entry in catalog_entries(scale=CATALOG_SCALE):
        trees.extend(clean_tree(tidy(raw)) for raw in cache.source(entry).pages)
    for tree in trees:
        for position, node in enumerate(tree.iter()):
            if position % 7 == 3:
                node.annotations.add("Artist")
            if position % 11 == 5:
                node.annotations.add("Date")
    return trees


def _token_rows(page):
    return [
        (
            token.kind,
            token.value,
            token.path,
            token.annotations,
            id(token.text_node),
            id(token.element),
            token.attr_class,
            token.role_id,
        )
        for token in page.tokens
    ]


def _deep_chain():
    return tidy("<div>" * 5000 + "x")


def test_freeze_matches_the_recursive_form(catalog_trees):
    assert len(catalog_trees) > 500
    for tree in catalog_trees:
        assert freeze(tree) == recursive_freeze(tree)
    # Inner subtrees too: the walk must not depend on starting at a root.
    for tree in catalog_trees[:50]:
        for element in tree.iter_elements():
            assert freeze(element) == recursive_freeze(element)


@pytest.mark.parametrize("include_words", [True, False])
def test_tokens_and_role_ids_match_the_recursive_form(
    catalog_trees, include_words
):
    table, reference_table = TokenTable(), TokenTable()
    for index, tree in enumerate(catalog_trees):
        # Start inside the page now and then, so paths start from dom_path.
        root = tree.children[-1] if index % 5 == 0 and tree.children else tree
        page = tokenize_element(root, index, include_words, table)
        expected = recursive_tokenize_element(
            root, index, include_words, reference_table
        )
        assert _token_rows(page) == _token_rows(expected)
        assert page.page_index == index
    assert table.keys_by_id() == reference_table.keys_by_id()


def test_unannotated_tokens_share_one_empty_set():
    page = tokenize_element(Element("div", children=[Text("a b"), Element("p")]))
    assert len({id(token.annotations) for token in page.tokens}) == 1
    assert not page.tokens[0].annotations


def test_walks_survive_a_5000_deep_chain():
    tree = _deep_chain()
    elements = sum(1 for __ in tree.iter_elements())
    assert elements > 5000
    snapshot = freeze(tree)
    assert snapshot.count(_CLOSE) == elements
    assert freeze(thaw(snapshot)) == snapshot
    page = tokenize_element(tree)
    kinds = [token.kind for token in page.tokens]
    assert kinds.count(KIND_OPEN) == kinds.count(KIND_CLOSE) == elements
    (word,) = [token for token in page.tokens if token.kind == KIND_WORD]
    assert word.value == "x"
    assert word.path.count("/div") == 5000
    release(tree)
    assert all(node.parent is None for node in tree.iter())


def _timed(walks, trees, rounds=8, chunk=25):
    """Each walk's time over ``trees``, as the sum of per-chunk best times.

    The pages are cut into chunks, and each round times every walk on
    every chunk, the walks interleaved, and the order of the walks turns
    every round, so none always meets the chunk cold in the cache.  A
    walk's time is the sum, over chunks, of its fastest pass over that
    chunk, so one quiet moment per chunk is enough, not one quiet pass
    over every page.  A round keeps
    what it builds, and the garbage is collected after it, outside the
    timed region: the recursive forms' closures are cycles that hold
    their output until a collection, so freeing the loops' output by
    reference count inside a pass would charge them alone for a cost
    both forms pay.
    """
    chunks = [trees[start:start + chunk] for start in range(0, len(trees), chunk)]
    best = [[float("inf")] * len(chunks) for __ in walks]
    enabled = gc.isenabled()
    gc.disable()
    try:
        timed = list(zip(walks, best))
        for __ in range(rounds):
            kept = []
            keep = kept.append
            for index, pages in enumerate(chunks):
                for walk, times in timed:
                    start = time.perf_counter()
                    for tree in pages:
                        keep(walk(tree))
                    times[index] = min(times[index], time.perf_counter() - start)
            del kept, keep
            gc.collect()
            timed.reverse()
    finally:
        if enabled:
            gc.enable()
    return [sum(times) for times in best]


def _assert_no_slower(loop, recursive, trees):
    """``loop`` times within :data:`TIMING_SLACK` of ``recursive``.

    A host busy through a whole measurement can still tip it, so a miss
    is measured again, up to three times; a walk that is really slower
    misses every time.
    """
    for __ in range(3):
        loop_s, recursive_s = _timed((loop, recursive), trees)
        if loop_s <= recursive_s * TIMING_SLACK:
            return
    pytest.fail(f"loop {loop_s:.4f} s, recursive form {recursive_s:.4f} s")


def test_freeze_is_no_slower_than_the_recursive_form(catalog_trees):
    _assert_no_slower(freeze, recursive_freeze, catalog_trees)


def test_tokenize_element_is_no_slower_than_the_recursive_form(catalog_trees):
    def shared(walk):
        table = TokenTable()
        return lambda tree: walk(tree, table=table)

    _assert_no_slower(
        shared(tokenize_element),
        shared(recursive_tokenize_element),
        catalog_trees,
    )
