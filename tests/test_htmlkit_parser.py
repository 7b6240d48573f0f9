"""Tests for the tolerant tree builder."""

from hypothesis import given
from hypothesis import strategies as st

from repro.htmlkit.dom import Element, Text
from repro.htmlkit.parser import build_tree


def parse(source):
    """The DOM the pipeline's tree builder makes of ``source``."""
    return build_tree(source).root


def body_of(source):
    document = parse(source)
    html = document.find("html")
    return (html or document).find("body") or document


class TestWellFormed:
    def test_nested_structure(self):
        document = parse("<div><span>a</span><span>b</span></div>")
        div = document.find("div")
        assert div is not None
        assert [c.tag for c in div.children if isinstance(c, Element)] == [
            "span",
            "span",
        ]

    def test_text_nodes_attached(self):
        document = parse("<p>hello <b>world</b></p>")
        p = document.find("p")
        assert isinstance(p.children[0], Text)
        assert p.children[0].text == "hello "

    def test_attributes_preserved(self):
        document = parse('<div id="main" class="x y"></div>')
        div = document.find("div")
        assert div.attributes == {"id": "main", "class": "x y"}

    def test_void_elements_have_no_children(self):
        document = parse("<div><br>text</div>")
        div = document.find("div")
        br = div.find("br")
        assert br.children == []
        assert "text" in div.text_content()


class TestTagSoupRecovery:
    def test_unclosed_li_auto_closes(self):
        document = parse("<ul><li>a<li>b<li>c</ul>")
        ul = document.find("ul")
        items = [c for c in ul.children if isinstance(c, Element) and c.tag == "li"]
        assert len(items) == 3
        assert [i.text_content() for i in items] == ["a", "b", "c"]

    def test_unclosed_p_auto_closes(self):
        document = parse("<div><p>one<p>two</div>")
        div = document.find("div")
        paragraphs = div.find_all("p")
        assert [p.text_content() for p in paragraphs] == ["one", "two"]

    def test_td_closes_td(self):
        document = parse("<tr><td>a<td>b</tr>")
        tr = document.find("tr")
        assert len(tr.find_all("td")) == 2

    def test_stray_end_tag_ignored(self):
        document = parse("<div>a</span>b</div>")
        div = document.find("div")
        assert div.find("span") is None
        assert div.text_content() == "a b"  # both texts stay inside the div

    def test_unclosed_elements_closed_at_eof(self):
        document = parse("<div><span>deep")
        span = document.find("span")
        assert span is not None
        assert span.text_content() == "deep"

    def test_mismatched_close_through_inline(self):
        # </div> closes the still-open <span> too.
        document = parse("<div><span>x</div>after")
        div = document.find("div")
        assert div.text_content() == "x"

    def test_never_raises_on_soup(self):
        for nasty in [
            "<div></div></div>",
            "<a><b><c></a>",
            "</html>",
            "<li></ul><li>",
        ]:
            parse(nasty)

    @given(st.text(alphabet="<>/abspan divli ", max_size=200))
    def test_arbitrary_soup_never_raises(self, source):
        parse(source)

    @given(st.text(max_size=300))
    def test_arbitrary_text_roundtrips_content(self, source):
        document = parse(source)
        assert document.tag == "#document"


class TestParentPointers:
    def test_parents_consistent(self):
        document = parse("<div><p><b>x</b></p></div>")
        for node in document.iter():
            if isinstance(node, Element):
                for child in node.children:
                    assert child.parent is node
