"""Tests for upward annotation propagation."""

from repro.htmlkit.dom import Element, Text
from repro.annotation.propagation import propagate_annotations


def annotated_text(text, *annotations):
    node = Text(text)
    node.annotations.update(annotations)
    return node


class TestPropagation:
    def test_linear_path_propagates(self):
        # <div><span>Metallica</span></div> with the text annotated:
        # the annotation climbs both levels (single-child chain).
        div = Element("div")
        span = div.append(Element("span"))
        span.append(annotated_text("Metallica", "artist"))
        propagate_annotations(div)
        assert "artist" in span.annotations
        assert "artist" in div.annotations

    def test_uniform_children_propagate(self):
        div = Element("div")
        for name in ("A", "B"):
            span = div.append(Element("span"))
            span.append(annotated_text(name, "author"))
        propagate_annotations(div)
        assert "author" in div.annotations

    def test_mixed_children_block_propagation(self):
        div = Element("div")
        artist_span = div.append(Element("span"))
        artist_span.append(annotated_text("Muse", "artist"))
        date_span = div.append(Element("span"))
        date_span.append(annotated_text("May 11", "date"))
        propagate_annotations(div)
        assert div.annotations == set()
        assert "artist" in artist_span.annotations
        assert "date" in date_span.annotations

    def test_common_subset_propagates(self):
        div = Element("div")
        a = div.append(Element("span"))
        a.append(annotated_text("x", "address", "date"))
        b = div.append(Element("span"))
        b.append(annotated_text("y", "address"))
        propagate_annotations(div)
        assert div.annotations == {"address"}

    def test_whitespace_text_ignored(self):
        div = Element("div")
        div.append(Text("   "))
        span = div.append(Element("span"))
        span.append(annotated_text("Muse", "artist"))
        propagate_annotations(div)
        assert "artist" in div.annotations

    def test_unannotated_sibling_blocks(self):
        div = Element("div")
        span = div.append(Element("span"))
        span.append(annotated_text("Muse", "artist"))
        div.append(Text("tonight"))
        propagate_annotations(div)
        assert div.annotations == set()

    def test_deep_propagation(self):
        root = Element("li")
        level1 = root.append(Element("div"))
        level2 = level1.append(Element("span"))
        level3 = level2.append(Element("a"))
        level3.append(annotated_text("Venue Hall", "theater"))
        propagate_annotations(root)
        assert "theater" in level1.annotations
        assert "theater" in root.annotations

