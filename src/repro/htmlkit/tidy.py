"""JTidy-style document normalization.

The paper runs JTidy to turn often-malformed HTML into well-formed XML
before extraction.  :func:`tidy` plays that role here in one lexer walk:
the lexer feeds the tree builder directly, and the builder already

- merges adjacent text nodes as it appends them;
- drops pure-whitespace text runs inside block elements as each run ends.

What is left for :func:`tidy` is the document shape, so downstream
stages can assume a canonical ``html > body > ...`` tree:

- guarantees a single ``<html>`` root with a ``<body>``;
- hoists stray top-level nodes into the body;
- re-applies the two text rules to the ``html``/``head``/``body``
  elements only, the ones whose children the shape fix-up moves.
"""

from __future__ import annotations

from repro.htmlkit.dom import Element, Node, Text
from repro.htmlkit.parser import build_tree

_HEAD_ONLY = frozenset({"title", "meta", "link", "base", "style"})


def _normalize_text_children(element: Element) -> None:
    """Merge adjacent text children, then drop whitespace-only ones."""
    kept: list[Node] = []
    for child in element.children:
        if isinstance(child, Text) and kept and isinstance(kept[-1], Text):
            kept[-1] = Text(kept[-1].text + child.text)
        else:
            kept.append(child)
    kept = [
        child
        for child in kept
        if not isinstance(child, Text) or child.text.strip()
    ]
    if len(kept) != len(element.children):
        element.replace_children(kept)


def tidy(source: str) -> Element:
    """Parse and normalize an HTML document.

    Returns the ``<html>`` element of a well-formed tree, detached (its
    ``parent`` is ``None``), so element paths start at ``html``.
    Whatever the input looked like, the result has exactly one ``<body>``
    containing all content nodes, with head-only elements collected under
    ``<head>``.
    """
    builder = build_tree(source, tidy_text=True)
    document = builder.root

    html = None
    loose: list[Node] = []
    for child in list(document.children):
        if isinstance(child, Element) and child.tag == "html":
            if html is None:
                html = child
            else:
                loose.extend(child.children)
        else:
            loose.append(child)
    if html is None:
        html = Element("html")
    html.parent = None

    head = html.find("head")
    body = None
    for child in html.children:
        if isinstance(child, Element) and child.tag == "body":
            body = child
            break
    if head is None:
        head = Element("head")
        html.insert(0, head)
    if body is None:
        body = Element("body")
        # Everything directly under <html> that is not the head moves into
        # the body.
        strays = [
            child
            for child in list(html.children)
            if child is not head and child is not body
        ]
        for stray in strays:
            html.remove(stray)
        html.append(body)
        for stray in strays:
            body.append(stray)

    # Unwrap stray body/head wrappers (from duplicate <html> roots) so the
    # document keeps exactly one of each.
    flattened: list[Node] = []
    for node in loose:
        if isinstance(node, Element) and node.tag in ("body", "head"):
            flattened.extend(node.children)
        else:
            flattened.append(node)
    for node in flattened:
        if isinstance(node, Element) and node.tag in _HEAD_ONLY:
            head.append(node)
        elif isinstance(node, Text) and not node.text.strip():
            continue
        else:
            body.append(node)

    # The builder left the text of html/head/body elements unmerged; those
    # still in the document get it normalized now (the unwrapped ones were
    # discarded above).
    for element in dict.fromkeys([html, head, body, *builder.document_elements]):
        if element.root() is html:
            _normalize_text_children(element)
    return html
