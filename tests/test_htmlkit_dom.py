"""Tests for DOM node operations."""

import pytest

from repro.htmlkit.dom import Element, Text, clone, freeze, thaw
from repro.htmlkit.tidy import tidy


@pytest.fixture()
def tree():
    root = Element("html")
    body = root.append(Element("body"))
    div = body.append(Element("div", {"class": "main", "id": "x"}))
    div.append(Text("hello "))
    span = div.append(Element("span"))
    span.append(Text("world"))
    return root, body, div, span


class TestGeometry:
    def test_ancestors(self, tree):
        root, body, div, span = tree
        assert list(span.ancestors()) == [div, body, root]

    def test_root(self, tree):
        root, __, __, span = tree
        assert span.root() is root

    def test_depth(self, tree):
        root, __, __, span = tree
        assert root.depth() == 0
        assert span.depth() == 3

    def test_index_in_parent(self, tree):
        __, __, div, span = tree
        assert span.index_in_parent() == 1
        assert div.index_in_parent() == 0


class TestMutation:
    def test_append_sets_parent(self):
        parent = Element("div")
        child = Element("p")
        parent.append(child)
        assert child.parent is parent

    def test_remove_clears_parent(self):
        parent = Element("div")
        child = parent.append(Element("p"))
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_insert(self):
        parent = Element("div")
        parent.append(Element("a"))
        parent.insert(0, Element("b"))
        assert [c.tag for c in parent.children] == ["b", "a"]

    def test_replace_children(self):
        parent = Element("div")
        old = parent.append(Element("a"))
        new = Element("b")
        parent.replace_children([new])
        assert old.parent is None
        assert new.parent is parent


class TestTraversal:
    def test_iter_preorder(self, tree):
        root, __, __, __ = tree
        tags = [n.tag for n in root.iter() if isinstance(n, Element)]
        assert tags == ["html", "body", "div", "span"]

    def test_find_all_with_predicate(self, tree):
        root, __, div, __ = tree
        found = root.find_all("div", predicate=lambda e: e.attributes.get("id") == "x")
        assert found == [div]

    def test_find_first(self, tree):
        root, __, __, span = tree
        assert root.find("span") is span

    def test_iter_text_nodes(self, tree):
        root, __, __, __ = tree
        texts = [t.text for t in root.iter_text_nodes()]
        assert texts == ["hello ", "world"]


class TestPathsAndText:
    def test_dom_path(self, tree):
        __, __, __, span = tree
        assert span.dom_path() == "html/body/div/span"

    def test_indexed_path_distinguishes_siblings(self):
        parent = Element("div")
        a = parent.append(Element("p"))
        b = parent.append(Element("p"))
        assert a.indexed_path() != b.indexed_path()

    def test_signature_includes_attributes(self, tree):
        __, __, div, __ = tree
        assert "class=main" in div.signature()
        assert "id=x" in div.signature()

    def test_text_content_collapses(self, tree):
        __, __, div, __ = tree
        assert div.text_content() == "hello world"

    def test_own_text_excludes_descendants(self, tree):
        __, __, div, __ = tree
        assert div.own_text() == "hello"


class TestClone:
    def test_deep_copy_with_annotations(self, tree):
        root, __, div, __ = tree
        div.annotations.add("artist")
        copy = clone(root)
        copied_div = copy.find("div")
        assert copied_div is not div
        assert copied_div.annotations == {"artist"}
        # Mutating the copy leaves the original untouched.
        copied_div.annotations.add("other")
        assert div.annotations == {"artist"}

    def test_clone_text(self):
        text = Text("x")
        text.annotations.add("date")
        copy = clone(text)
        assert isinstance(copy, Text)
        assert copy.text == "x"
        assert copy.annotations == {"date"}


class TestCollapsedText:
    """``Text.text_content`` collapses once and stays right on every way a
    text node comes to be."""

    def test_repeated_calls_agree(self):
        text = Text("  two \n  words ")
        assert text.text_content() == "two words"
        assert text.text_content() == "two words"

    def test_after_thaw(self, tree):
        root, *__ = tree
        root.find("span").append(Text("\t and   more "))
        expected = [
            node.text_content() for node in root.iter_text_nodes()
        ]
        thawed = thaw(freeze(root))
        assert [
            node.text_content() for node in thawed.iter_text_nodes()
        ] == expected == ["hello", "world", "and more"]
        assert thawed.text_content() == root.text_content()

    def test_after_clone(self, tree):
        root, __, div, __ = tree
        assert div.text_content() == "hello world"
        copy = clone(root)
        assert copy.find("div").text_content() == "hello world"
        assert [node.text_content() for node in copy.iter_text_nodes()] == [
            "hello",
            "world",
        ]

    def test_after_tidy_text_merge(self):
        # The second document's body text is hoisted next to the first's
        # and tidy merges the two into one new text node.
        root = tidy(
            "<html><body>one\n  </body></html><html><body>  two <i>x</i></body></html>"
        )
        body = root.find("body")
        merged = body.children[0]
        assert isinstance(merged, Text)
        assert merged.text_content() == "one two"
        assert body.text_content() == "one two x"
