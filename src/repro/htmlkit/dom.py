"""A small DOM: element and text nodes with paths, traversal and search.

The annotation stage attaches semantic types to nodes (the paper's
``<div type="Artist">`` markup), so nodes carry an ``annotations`` set in
addition to their HTML attributes.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.utils.text import collapse_whitespace

#: A flat, immutable copy of a tree; see :func:`freeze`.
Snapshot = tuple[str | int, ...]

#: The record that closes the element opened last in a :data:`Snapshot`.
_CLOSE = -1


class Node:
    """Base class for DOM nodes."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Element | None = None

    # -- tree geometry ---------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the root of the tree this node belongs to."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self) -> int:
        """Number of ancestors above this node."""
        return sum(1 for _ in self.ancestors())

    def index_in_parent(self) -> int:
        """Position among the parent's children (0 for a detached root)."""
        if self.parent is None:
            return 0
        return self.parent.children.index(self)

    # -- text ------------------------------------------------------------

    def text_content(self) -> str:
        """All descendant text, whitespace-collapsed."""
        raise NotImplementedError


class Text(Node):
    """A text node."""

    __slots__ = ("text", "annotations")

    def __init__(self, text: str):
        self.parent = None
        self.text = text
        #: Semantic entity-type names attached by the annotator.
        self.annotations: set[str] = set()

    def text_content(self) -> str:
        return collapse_whitespace(self.text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"Text({preview!r})"


class Element(Node):
    """An element node with a tag name, attributes and children."""

    __slots__ = ("tag", "attributes", "children", "annotations")

    def __init__(
        self,
        tag: str,
        attributes: dict[str, str] | None = None,
        children: list[Node] | None = None,
    ):
        self.parent = None
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}
        self.children: list[Node] = []
        #: Semantic entity-type names attached by the annotator.
        self.annotations: set[str] = set()
        if children:
            for child in children:
                self.append(child)

    # -- mutation ----------------------------------------------------------

    def append(self, child: Node) -> Node:
        """Append ``child`` and set its parent pointer."""
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert ``child`` at ``index``."""
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: Node) -> None:
        """Remove ``child`` (must be a direct child)."""
        self.children.remove(child)
        child.parent = None

    def replace_children(self, children: list[Node]) -> None:
        """Replace all children at once."""
        for child in self.children:
            child.parent = None
        self.children = list(children)
        for child in self.children:
            child.parent = self

    # -- traversal -----------------------------------------------------------

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal over this element and all descendants."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()
            else:
                yield child

    def iter_elements(self) -> Iterator["Element"]:
        """Pre-order traversal over descendant elements (self included)."""
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    def iter_text_nodes(self) -> Iterator[Text]:
        """All descendant text nodes in document order."""
        for node in self.iter():
            if isinstance(node, Text):
                yield node

    def find_all(
        self, tag: str | None = None, predicate: Callable[["Element"], bool] | None = None
    ) -> list["Element"]:
        """Descendant elements matching ``tag`` and/or ``predicate``."""
        out = []
        for element in self.iter_elements():
            if tag is not None and element.tag != tag:
                continue
            if predicate is not None and not predicate(element):
                continue
            out.append(element)
        return out

    def find(self, tag: str) -> "Element | None":
        """First descendant element with the given tag (self included)."""
        for element in self.iter_elements():
            if element.tag == tag:
                return element
        return None

    # -- identity --------------------------------------------------------

    def dom_path(self) -> str:
        """Tag path from the root to this node, e.g. ``html/body/div/span``.

        Used as the coarse "same path => same role" criterion of the wrapper
        algorithm's initial role assignment.
        """
        parts = [self.tag]
        for ancestor in self.ancestors():
            parts.append(ancestor.tag)
        return "/".join(reversed(parts))

    def indexed_path(self) -> str:
        """Path with sibling indexes, uniquely identifying the node position."""
        parts = [f"{self.tag}[{self.index_in_parent()}]"]
        node: Node = self
        for ancestor in self.ancestors():
            parts.append(f"{ancestor.tag}[{ancestor.index_in_parent()}]")
            node = ancestor
        return "/".join(reversed(parts))

    def signature(self) -> str:
        """Identity of a block across pages: tag, path and sorted attributes.

        The paper identifies the "best candidate block" across the pages of a
        source by tag name, DOM path and attribute names/values; this is that
        key.
        """
        attrs = ",".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
        return f"{self.dom_path()}|{attrs}"

    # -- text ------------------------------------------------------------

    def text_content(self) -> str:
        """All descendant text in document order, whitespace-collapsed."""
        parts = []
        for node in self.iter_text_nodes():
            text = node.text_content()
            if text:
                parts.append(text)
        return " ".join(parts)

    def own_text(self) -> str:
        """Text from direct Text children only, whitespace-collapsed."""
        parts = []
        for child in self.children:
            if isinstance(child, Text):
                text = child.text_content()
                if text:
                    parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element(<{self.tag}>, {len(self.children)} children)"


def clone(node: Node) -> Node:
    """Deep-copy a DOM subtree (annotations included)."""
    if isinstance(node, Text):
        copy = Text(node.text)
        copy.annotations = set(node.annotations)
        return copy
    assert isinstance(node, Element)
    copy_element = Element(node.tag, dict(node.attributes))
    copy_element.annotations = set(node.annotations)
    for child in node.children:
        copy_element.append(clone(child))
    return copy_element


def freeze(root: Element) -> Snapshot:
    """Flatten the tree under ``root`` into one tuple of ``str`` and ``int``.

    Records appear in pre-order.  An element opens with the ``int``
    number of its attributes, then its tag, then one name and one value
    per attribute; its children follow, and the ``int`` ``-1`` closes
    it.  A text node is its ``str`` alone.  Annotations and the parent
    of ``root`` are not kept.  Such a tuple references no container, so
    the garbage collector untracks it and never walks it again.
    """
    out: list[str | int] = []
    append = out.append
    extend = out.extend

    def visit(element: Element) -> None:
        attributes = element.attributes
        append(len(attributes))
        append(element.tag)
        for item in attributes.items():
            extend(item)
        for child in element.children:
            if isinstance(child, Text):
                append(child.text)
            else:
                visit(child)  # type: ignore[arg-type]
        append(_CLOSE)

    visit(root)
    return tuple(out)


def thaw(snapshot: Snapshot) -> Element:
    """Build a fresh, detached tree from a :func:`freeze` snapshot.

    Nodes are allocated without running their constructors: every slot
    is assigned here, with the parent and sibling list already known.
    """
    records = iter(snapshot)
    new = object.__new__
    holder = parent = Element("#snapshot")
    siblings = holder.children
    stack: list[Element] = []
    for record in records:
        if isinstance(record, str):
            text = new(Text)
            text.parent = parent
            text.text = record
            text.annotations = set()
            siblings.append(text)
        elif record == _CLOSE:
            parent = stack.pop()
            siblings = parent.children
        else:
            element = new(Element)
            element.parent = parent
            element.tag = next(records)
            element.attributes = (
                {next(records): next(records) for __ in range(record)}
                if record
                else {}
            )
            element.children = []
            element.annotations = set()
            siblings.append(element)
            stack.append(parent)
            parent = element
            siblings = element.children
    (tree,) = holder.children
    assert isinstance(tree, Element)
    tree.parent = None
    return tree
