"""Differential tests: the one-pass lexer/builder against the original passes.

``tests/htmlkit_reference.py`` keeps the original tokenizer, tree builder and
tidy pass verbatim.  The rewrite lexes once, builds the tree straight from
the lexer loop and normalizes text while it builds; it must produce the
same trees: the same tags, attribute items in the same order, the same
text-node boundaries and text, and consistent parent pointers — both for
:func:`tidy` alone and after :func:`clean_tree`.  The only intended
difference is that :func:`tidy` now returns a detached ``<html>`` root
(the original left it parented to the synthetic ``#document``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import catalog_entries
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, Node, Text
from repro.htmlkit.parser import parse_html
from repro.htmlkit.tidy import tidy
from repro.htmlkit.tokenizer import tokenize_html
from repro.metrics.bench import CatalogCache
from tests import htmlkit_reference as reference
from tests.test_property_htmlkit import _soup

CATALOG_SCALE = 0.1

#: Markup fragments that exercise what the character-level soup rarely
#: reaches: document-shape elements, duplicate roots, comments and
#: declarations splitting text, stray "<", implicit closers and
#: whitespace-only runs.
_FRAGMENTS = (
    "<html>", "</html>", "<head>", "</head>", "<body>", "</body>",
    "<title>t</title>", "<meta x=1>", "<style>s</style>", "<script>", "</script>",
    "<div>", "</div>", "<p>", "</p>", "<li>", "<ul>", "</ul>", "<td>", "<tr>",
    "<table>", "</table>", "<span class='c'>", "</span>", "<b>", "</b>",
    "<br/>", "<img src=x>", "<div/>", "<!-- c -->", "<!doctype html>", "<?pi?>",
    "</x>", "< ", "</ ", "a", "b c", "&amp;", "&", " ", "  ", "\n", "\t",
)

_fragment_soup = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


def shape(node: Node, parent: Element | None) -> tuple:
    """Everything the comparison covers, checking parent pointers on the way."""
    assert node.parent is parent
    if isinstance(node, Text):
        return ("#text", node.text)
    assert isinstance(node, Element)
    return (
        node.tag,
        tuple(node.attributes.items()),
        tuple(shape(child, node) for child in node.children),
    )


def assert_same_tidy(source: str) -> None:
    expected = reference.tidy(source)
    actual = tidy(source)
    assert actual.parent is None
    assert shape(actual, None) == shape(expected, expected.parent)
    assert shape(clean_tree(actual), None) == shape(
        clean_tree(expected), expected.parent
    )


def assert_same_lexing(source: str) -> None:
    assert list(tokenize_html(source)) == list(reference.tokenize_html(source))
    assert shape(parse_html(source), None) == shape(reference.parse_html(source), None)


@pytest.fixture(scope="module")
def catalog_pages():
    cache = CatalogCache()
    pages = []
    for entry in catalog_entries(scale=CATALOG_SCALE):
        pages.extend(cache.source(entry).pages)
    return pages


class TestCatalog:
    def test_tidy_and_clean_match_the_reference(self, catalog_pages):
        assert catalog_pages
        for page in catalog_pages:
            assert_same_tidy(page)

    def test_tokens_and_raw_parse_match_the_reference(self, catalog_pages):
        for page in catalog_pages:
            assert_same_lexing(page)


class TestTagSoup:
    @settings(max_examples=300, deadline=None)
    @given(_soup)
    def test_character_soup(self, source):
        assert_same_tidy(source)
        assert_same_lexing(source)

    @settings(max_examples=300, deadline=None)
    @given(_fragment_soup)
    def test_fragment_soup(self, source):
        assert_same_tidy(source)
        assert_same_lexing(source)

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "x",
            "a<!---->  ",
            "a</b> ",
            "<html><head></head>a<body>b</body></html>c<html>d </html>",
            "<html><head></head>a  <p>x</p>  b</html>",
            "<body> a <!-- c --> </body><body>b</body>",
            "<html></html><html><body> <b>x</b> </body><head><title>t",
            "<div> <p> a</p> \n<p>b </p> </div>",
            "<div><body> x </body></div>",
            "<ul><li> a <li> <li>b</ul>",
            "<table><div></table> </div>",
            "<div><ul><li>x</div>y",
            "<div><table><td>x</div>y</table>",
            "<p><b><i>x</b>y</i>z</p>",
            "<script>a<b</script> <style></style>",
        ],
    )
    def test_document_shape_edges(self, source):
        assert_same_tidy(source)
        assert_same_lexing(source)
