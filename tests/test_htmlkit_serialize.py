"""Tests for DOM serialization."""

from hypothesis import given
from hypothesis import strategies as st

from repro.htmlkit.dom import Element, Text
from repro.htmlkit.parser import build_tree
from repro.htmlkit.serialize import to_html
from repro.htmlkit.tidy import tidy


def parse(source):
    """The DOM the pipeline's tree builder makes of ``source``."""
    return build_tree(source).root


class TestSerialize:
    def test_simple_roundtrip(self):
        source = "<div class=\"x\"><span>hi</span></div>"
        html = to_html(parse(source))
        assert html == '<div class="x"><span>hi</span></div>'

    def test_void_elements(self):
        assert to_html(Element("br")) == "<br/>"

    def test_text_escaped(self):
        node = Element("p", children=[Text("a < b & c")])
        assert to_html(node) == "<p>a &lt; b &amp; c</p>"

    def test_attribute_escaped(self):
        node = Element("a", {"title": 'say "hi"'})
        assert 'title="say &quot;hi&quot;"' in to_html(node)

    def test_pretty_indents(self):
        node = Element("div", children=[Element("p", children=[Text("x")])])
        pretty = to_html(node, pretty=True)
        assert pretty.splitlines()[0] == "<div>"
        assert pretty.splitlines()[1].startswith("  <p>")

    def test_document_root_transparent(self):
        document = parse("<p>x</p>")
        assert to_html(document) == "<p>x</p>"


class TestRoundtripStability:
    @given(st.text(alphabet="<>/ab divspanli clsx=\"' ", max_size=150))
    def test_parse_serialize_parse_fixpoint(self, source):
        first = tidy(source)
        serialized = to_html(first)
        second = tidy(serialized)
        assert to_html(second) == serialized

    def test_entities_roundtrip(self):
        source = "<p>a &amp; b &lt; c</p>"
        once = to_html(parse(source))
        twice = to_html(parse(once))
        assert once == twice
