"""The explicit-stack page walks against the recursive forms they replace.

:func:`~repro.htmlkit.dom.freeze`, :func:`~repro.htmlkit.dom.clone`,
:func:`~repro.htmlkit.clean.clean_tree`,
:func:`~repro.htmlkit.serialize.to_html`,
:func:`~repro.htmlkit.fingerprint.structural_fingerprint`,
:func:`~repro.annotation.propagation.propagate_annotations`,
:func:`~repro.wrapper.tokens.tokenize_element` and the vision layout and
block tree walk a tree with one explicit stack instead of recursing.
Below are verbatim copies of the recursive forms.  On every scale-0.1
catalog page the loops must give the same snapshot, tokens (interned in
the same order, so the same role ids), HTML, fingerprint, annotations and
block tree; they must not raise ``RecursionError`` on a 5,000-deep
chain; and the ones on the hot path (``freeze``, ``tokenize_element``,
``clean_tree``), timed with the garbage collector off, must be no slower
than the recursive forms.
"""

import gc
import hashlib
import html as _htmlmod
import time

import pytest

from repro.annotation.propagation import (
    _absorb_children,
    propagate_annotations,
)
from repro.datasets import catalog_entries
from repro.htmlkit.clean import CleanerConfig, _is_hidden, clean_tree
from repro.htmlkit.dom import (
    _CLOSE,
    Element,
    Text,
    clone,
    freeze,
    release,
    thaw,
)
from repro.htmlkit.fingerprint import FINGERPRINT_VERSION, structural_fingerprint
from repro.htmlkit.parser import VOID_ELEMENTS
from repro.htmlkit.serialize import to_html
from repro.htmlkit.tidy import tidy
from repro.metrics.bench import CatalogCache
from repro.utils.text import tokenize_words
from repro.vision.boxes import Rect
from repro.vision.layout import (
    _INLINE_TAGS,
    _SIDE_FRACTION,
    _SIDE_TAGS,
    CANVAS_WIDTH,
    CHAR_WIDTH,
    LINE_HEIGHT,
)
from repro.vision.segmentation import _BLOCK_TAGS, _MIN_BLOCK_AREA, segment_page
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


def _recursive_drop(element):
    release(element)
    return []


def _recursive_clean(element, config):
    if element.tag in config.drop_tags:
        return _recursive_drop(element)
    if config.drop_hidden and _is_hidden(element):
        return _recursive_drop(element)
    if config.drop_images and element.tag == "img":
        return _recursive_drop(element)

    new_children = []
    for child in element.children:
        if isinstance(child, Text):
            if child.text.strip():
                new_children.append(child)
            continue
        new_children.extend(_recursive_clean(child, config))

    element.replace_children(new_children)
    element.attributes = {
        key: value
        for key, value in element.attributes.items()
        if key in config.keep_attributes
    }

    if element.tag in config.unwrap_tags:
        return new_children
    if (
        config.drop_empty
        and not new_children
        and element.tag not in config.protected_tags
        and element.tag not in VOID_ELEMENTS
    ):
        return _recursive_drop(element)
    return [element]


def recursive_clean_tree(root, config=None):
    config = config or CleanerConfig()
    new_children = []
    for child in list(root.children):
        if isinstance(child, Text):
            if child.text.strip():
                new_children.append(child)
            continue
        new_children.extend(_recursive_clean(child, config))
    root.replace_children(new_children)
    root.attributes = {
        key: value
        for key, value in root.attributes.items()
        if key in config.keep_attributes
    }
    return root


def recursive_clone(node):
    if isinstance(node, Text):
        copy = Text(node.text)
        copy.annotations = set(node.annotations)
        return copy
    assert isinstance(node, Element)
    copy_element = Element(node.tag, dict(node.attributes))
    copy_element.annotations = set(node.annotations)
    for child in node.children:
        copy_element.append(recursive_clone(child))
    return copy_element


def _recursive_serialize(node, parts, indent, pretty):
    pad = "  " * indent if pretty else ""
    newline = "\n" if pretty else ""
    if isinstance(node, Text):
        text = _htmlmod.escape(node.text, quote=False)
        if text.strip() or not pretty:
            parts.append(f"{pad}{text.strip() if pretty else text}{newline}")
        return
    assert isinstance(node, Element)
    if node.tag == "#document":
        for child in node.children:
            _recursive_serialize(child, parts, indent, pretty)
        return
    attrs = "".join(
        f' {key}="{_htmlmod.escape(value, quote=True)}"'
        for key, value in node.attributes.items()
    )
    if node.tag in VOID_ELEMENTS:
        parts.append(f"{pad}<{node.tag}{attrs}/>{newline}")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>{newline}")
    for child in node.children:
        _recursive_serialize(child, parts, indent + 1, pretty)
    parts.append(f"{pad}</{node.tag}>{newline}")


def recursive_to_html(node, pretty=False):
    parts = []
    _recursive_serialize(node, parts, 0, pretty)
    return "".join(parts)


def recursive_shape_of(node):
    if isinstance(node, Text):
        return "t"
    assert isinstance(node, Element)
    class_value = node.attributes.get("class", "")
    other_attrs = ",".join(
        sorted(name for name in node.attributes if name != "class")
    )
    child_shapes = sorted({recursive_shape_of(child) for child in node.children})
    inner = ";".join(child_shapes)
    return f"{node.tag}.{class_value}[{other_attrs}]({inner})"


def recursive_structural_fingerprint(page):
    text = f"{FINGERPRINT_VERSION}\n{recursive_shape_of(page)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recursive_propagate_annotations(root):
    def visit(element):
        for child in element.children:
            if isinstance(child, Element):
                visit(child)
        _absorb_children(element)

    visit(root)


def _recursive_text_mass(node):
    if isinstance(node, Text):
        return len(node.text_content())
    assert isinstance(node, Element)
    return sum(_recursive_text_mass(child) for child in node.children)


def _recursive_estimate_height(element, width):
    mass = _recursive_text_mass(element)
    chars_per_line = max(1.0, width / CHAR_WIDTH)
    lines = max(1.0, mass / chars_per_line) if mass else 1.0
    return lines * LINE_HEIGHT


def recursive_layout(root):
    """``(boxes by element id, canvas)`` of the recursive layout pass."""
    boxes = {}
    elements = {}
    body = root.find("body") or root
    total_height = _recursive_layout_block(
        body, x=0.0, y=0.0, width=CANVAS_WIDTH, boxes=boxes, elements=elements
    )
    canvas = Rect(0.0, 0.0, CANVAS_WIDTH, max(total_height, LINE_HEIGHT))
    boxes[id(root)] = canvas
    elements[id(root)] = root
    for element in root.iter_elements():
        if id(element) not in boxes:
            boxes[id(element)] = Rect(0.0, 0.0, 0.0, 0.0)
            elements[id(element)] = element
    return boxes, canvas


def _recursive_layout_block(element, x, y, width, boxes, elements):
    element_children = [c for c in element.children if isinstance(c, Element)]
    side_children = [c for c in element_children if c.tag in _SIDE_TAGS]
    flow_children = [c for c in element_children if c.tag not in _SIDE_TAGS]

    content_x = x
    content_width = width
    if side_children:
        side_width = width * _SIDE_FRACTION
        content_width = width - side_width * len(side_children)
        content_x = x + side_width * sum(
            1 for c in side_children if c.index_in_parent() < (
                flow_children[0].index_in_parent() if flow_children else 1 << 30
            )
        )

    cursor_y = y
    inline_x = content_x
    inline_row_height = 0.0

    def flush_inline_row():
        nonlocal cursor_y, inline_x, inline_row_height
        if inline_row_height > 0:
            cursor_y += inline_row_height
        inline_x = content_x
        inline_row_height = 0.0

    for child in element.children:
        if isinstance(child, Text):
            text = child.text_content()
            if not text:
                continue
            total_width = len(text) * CHAR_WIDTH
            if total_width > content_width:
                flush_inline_row()
                rows = max(1, int(total_width // content_width))
                cursor_y += rows * LINE_HEIGHT
                inline_x = content_x + (total_width % content_width)
                inline_row_height = LINE_HEIGHT
                continue
            if inline_x + total_width > content_x + content_width:
                flush_inline_row()
            inline_x += total_width
            inline_row_height = max(inline_row_height, LINE_HEIGHT)
            continue
        assert isinstance(child, Element)
        if child.tag in _SIDE_TAGS:
            continue
        if child.tag in _INLINE_TAGS:
            child_width = min(
                content_width,
                max(CHAR_WIDTH, len(child.text_content()) * CHAR_WIDTH),
            )
            if inline_x + child_width > content_x + content_width:
                flush_inline_row()
            child_height = _recursive_estimate_height(child, child_width)
            boxes[id(child)] = Rect(inline_x, cursor_y, child_width, child_height)
            elements[id(child)] = child
            _recursive_layout_inline_descendants(child, boxes, elements)
            inline_x += child_width
            inline_row_height = max(inline_row_height, child_height)
            continue
        flush_inline_row()
        child_height = _recursive_layout_block(
            child, content_x, cursor_y, content_width, boxes, elements
        )
        cursor_y += child_height
    flush_inline_row()

    height = max(cursor_y - y, LINE_HEIGHT)
    side_x = x + width
    for side in side_children:
        side_width = width * _SIDE_FRACTION
        side_x -= side_width
        boxes[id(side)] = Rect(side_x, y, side_width, height)
        elements[id(side)] = side
        _recursive_layout_inline_descendants(side, boxes, elements)

    boxes[id(element)] = Rect(x, y, width, height)
    elements[id(element)] = element
    return height


def _recursive_layout_inline_descendants(element, boxes, elements):
    container = boxes[id(element)]
    for descendant in element.iter_elements():
        if id(descendant) not in boxes:
            boxes[id(descendant)] = container
            elements[id(descendant)] = descendant


def _recursive_build_block(element, boxes, out):
    """Pre-order ``(signature, rect, child count)`` rows of the block tree."""
    row = [element.signature(), boxes[id(element)], 0]
    out.append(row)
    for child in element.children:
        if not isinstance(child, Element):
            continue
        if id(child) not in boxes:
            continue
        if child.tag in _BLOCK_TAGS and boxes[id(child)].area >= _MIN_BLOCK_AREA:
            row[2] += 1
            _recursive_build_block(child, boxes, out)
    return out


def recursive_block_rows(root):
    boxes, canvas = recursive_layout(root)
    body = root.find("body") or root
    return canvas, [tuple(row) for row in _recursive_build_block(body, boxes, [])]


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


@pytest.fixture(scope="module")
def tidied_snapshots():
    """Every catalog page, tidied but not cleaned, as a snapshot."""
    cache = CatalogCache()
    return [
        freeze(tidy(raw))
        for entry in catalog_entries(scale=CATALOG_SCALE)
        for raw in cache.source(entry).pages
    ]


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


def _assert_parents_consistent(tree):
    for element in tree.iter_elements():
        for child in element.children:
            assert child.parent is element


#: Every option of :class:`CleanerConfig` turned away from its default.
_OTHER_CLEANER = CleanerConfig(
    drop_tags=frozenset({"ul"}),
    unwrap_tags=frozenset({"span", "b"}),
    drop_empty=False,
    drop_hidden=False,
    drop_images=False,
    keep_attributes=frozenset({"class"}),
    protected_tags=frozenset({"html", "body", "p"}),
)


@pytest.mark.parametrize("config", [None, _OTHER_CLEANER])
def test_clean_tree_matches_the_recursive_form(tidied_snapshots, config):
    assert len(tidied_snapshots) > 500
    for snapshot in tidied_snapshots:
        cleaned = clean_tree(thaw(snapshot), config)
        assert freeze(cleaned) == freeze(recursive_clean_tree(thaw(snapshot), config))
        _assert_parents_consistent(cleaned)


def _node_rows(tree):
    return [
        (type(node).__name__, sorted(node.annotations)) for node in tree.iter()
    ]


def test_clone_to_html_and_fingerprint_match_the_recursive_forms(catalog_trees):
    for tree in catalog_trees:
        copy = clone(tree)
        assert freeze(copy) == freeze(tree)
        assert _node_rows(copy) == _node_rows(recursive_clone(tree))
        _assert_parents_consistent(copy)
        for pretty in (False, True):
            assert to_html(tree, pretty) == recursive_to_html(tree, pretty)
        assert structural_fingerprint(tree) == recursive_structural_fingerprint(
            tree
        )
    # Inner subtrees too: the walks must not depend on starting at a root.
    for tree in catalog_trees[:50]:
        for element in list(tree.iter_elements())[::7]:
            assert freeze(clone(element)) == freeze(element)
            assert to_html(element, True) == recursive_to_html(element, True)
            assert structural_fingerprint(element) == (
                recursive_structural_fingerprint(element)
            )


def test_propagate_annotations_matches_the_recursive_form(catalog_trees):
    for tree in catalog_trees:
        loop, recursive = recursive_clone(tree), recursive_clone(tree)
        propagate_annotations(loop)
        recursive_propagate_annotations(recursive)
        assert _node_rows(loop) == _node_rows(recursive)


def test_block_trees_match_the_recursive_form(catalog_trees):
    for tree in catalog_trees:
        blocks = segment_page(tree)
        canvas, rows = recursive_block_rows(tree)
        assert blocks.layout.canvas == canvas
        assert [
            (block.signature, block.rect, len(block.children))
            for block in blocks.all_blocks()
        ] == rows
        boxes, __ = recursive_layout(tree)
        for element in tree.iter_elements():
            assert blocks.layout.rect_of(element) == boxes[id(element)]


def test_the_other_walks_survive_a_5000_deep_chain():
    tree = clean_tree(_deep_chain())
    divs = [element for element in tree.iter_elements() if element.tag == "div"]
    assert len(divs) == 5000
    copy = clone(tree)
    assert freeze(copy) == freeze(tree)
    assert to_html(tree).count("<div>") == 5000
    assert structural_fingerprint(tree) == structural_fingerprint(copy)
    (text,) = tree.iter_text_nodes()
    text.annotations.add("Artist")
    propagate_annotations(tree)
    assert all("Artist" in div.annotations for div in divs)
    blocks = segment_page(tree).all_blocks()
    assert [block.element for block in blocks[1:]] == divs
    assert blocks[-1].signature.count("/div") == 5000


def test_layout_and_fingerprint_survive_an_8000_deep_anchor_chain():
    # A new <a> does not close an open one, so this is a chain too.
    tree = clean_tree(tidy("<a href=x>y" * 8000))
    anchors = [element for element in tree.iter_elements() if element.tag == "a"]
    assert len(anchors) == 8000
    blocks = segment_page(tree)
    rect = blocks.layout.rect_of(anchors[0])
    assert rect.area > 0
    assert blocks.layout.rect_of(anchors[-1]) == rect
    assert len(structural_fingerprint(tree)) == 64


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


def test_clean_tree_is_no_slower_than_the_recursive_form(tidied_snapshots):
    # Each pass cleans a tree thawed for it, the thaw timed in both forms.
    _assert_no_slower(
        lambda snapshot: clean_tree(thaw(snapshot)),
        lambda snapshot: recursive_clean_tree(thaw(snapshot)),
        tidied_snapshots,
    )
