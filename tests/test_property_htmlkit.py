"""Property tests on the HTML substrate's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, Text
from repro.htmlkit.tidy import tidy

_soup = st.text(
    alphabet="<>/ab divspanliscript style img ='\"#x&;", max_size=200
)


class TestCleanInvariants:
    @settings(max_examples=100, deadline=None)
    @given(_soup)
    def test_no_dropped_tags_survive(self, source):
        root = clean_tree(tidy(source))
        for element in root.iter_elements():
            assert element.tag not in ("script", "style", "iframe", "noscript")

    @settings(max_examples=100, deadline=None)
    @given(_soup)
    def test_no_empty_nonprotected_elements(self, source):
        root = clean_tree(tidy(source))
        for element in root.iter_elements():
            if element.tag in ("html", "head", "body", "br", "hr", "img"):
                continue
            assert element.children, element.tag

    @settings(max_examples=100, deadline=None)
    @given(_soup)
    def test_attributes_whitelisted(self, source):
        root = clean_tree(tidy(source))
        allowed = {"id", "class", "type", "href"}
        for element in root.iter_elements():
            assert set(element.attributes) <= allowed

    @settings(max_examples=100, deadline=None)
    @given(_soup)
    def test_idempotent(self, source):
        from repro.htmlkit.serialize import to_html

        once = clean_tree(tidy(source))
        rendered = to_html(once)
        twice = clean_tree(tidy(rendered))
        assert to_html(twice) == rendered

    @settings(max_examples=100, deadline=None)
    @given(_soup)
    def test_parent_pointers_consistent_after_clean(self, source):
        root = clean_tree(tidy(source))
        for node in root.iter():
            if isinstance(node, Element):
                for child in node.children:
                    assert child.parent is node

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=100))
    def test_visible_text_preserved(self, text):
        # Plain visible text must survive tidy+clean (modulo whitespace).
        from repro.utils.text import normalize_text

        source = f"<body><div>{text.replace('<', ' ').replace('&', ' ')}</div></body>"
        root = clean_tree(tidy(source))
        assert normalize_text(root.text_content()) == normalize_text(
            text.replace("<", " ").replace("&", " ")
        )


def _recursive_iter(node):
    """The recursive pre-order walk the explicit-stack walks replace."""
    yield node
    if isinstance(node, Element):
        for child in node.children:
            yield from _recursive_iter(child)


@st.composite
def _trees(draw):
    """A random tree: each node's parent is drawn among earlier elements."""
    root = Element("r0")
    elements = [root]
    for index in range(draw(st.integers(min_value=0, max_value=60))):
        parent = elements[draw(st.integers(0, len(elements) - 1))]
        if draw(st.booleans()):
            elements.append(parent.append(Element(f"e{index}")))
        else:
            parent.append(Text(f"t{index}"))
    return root


class TestWalks:
    @settings(max_examples=200, deadline=None)
    @given(_trees())
    def test_walks_equal_recursive_reference(self, root):
        reference = list(_recursive_iter(root))
        assert list(root.iter()) == reference
        assert list(root.iter_elements()) == [
            node for node in reference if isinstance(node, Element)
        ]
        assert list(root.iter_text_nodes()) == [
            node for node in reference if isinstance(node, Text)
        ]
        for element in root.iter_elements():
            assert list(element.iter()) == list(_recursive_iter(element))

    def test_deep_chain_does_not_hit_the_recursion_limit(self):
        root = Element("d0")
        chain = [root]
        for depth in range(1, 5000):
            chain.append(chain[-1].append(Element(f"d{depth}")))
        leaf = chain[-1].append(Text("leaf"))
        assert list(root.iter()) == [*chain, leaf]
        assert list(root.iter_elements()) == chain
        assert root.text_content() == "leaf"
