"""Serialize a DOM back to HTML text (used by examples, datasets and tests)."""

from __future__ import annotations

import html as _htmlmod

from repro.htmlkit.dom import Element, Node, Text
from repro.htmlkit.parser import VOID_ELEMENTS


def _escape_text(text: str) -> str:
    return _htmlmod.escape(text, quote=False)


def _escape_attr(value: str) -> str:
    return _htmlmod.escape(value, quote=True)


def to_html(node: Node, pretty: bool = False) -> str:
    """Render a DOM subtree as HTML text.

    With ``pretty=True`` the output is indented one level per tree depth,
    which is convenient for debugging and for golden files in tests.

    One explicit stack holds the nodes still to render, each with its
    depth, and the close tags of the elements they sit in, so no depth
    exceeds the recursion limit.
    """
    parts: list[str] = []
    newline = "\n" if pretty else ""
    stack: list[tuple[Node, int] | str] = [(node, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, indent = item
        pad = "  " * indent if pretty else ""
        if isinstance(node, Text):
            text = _escape_text(node.text)
            if text.strip() or not pretty:
                parts.append(f"{pad}{text.strip() if pretty else text}{newline}")
            continue
        assert isinstance(node, Element)
        if node.tag == "#document":
            stack.extend((child, indent) for child in reversed(node.children))
            continue
        attrs = "".join(
            f' {key}="{_escape_attr(value)}"' for key, value in node.attributes.items()
        )
        if node.tag in VOID_ELEMENTS:
            parts.append(f"{pad}<{node.tag}{attrs}/>{newline}")
            continue
        parts.append(f"{pad}<{node.tag}{attrs}>{newline}")
        stack.append(f"{pad}</{node.tag}>{newline}")
        stack.extend((child, indent + 1) for child in reversed(node.children))
    return "".join(parts)
