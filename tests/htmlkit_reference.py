"""Verbatim copy of the original HTML lexer, tree builder and tidy pass.

The reference for ``tests/test_htmlkit_differential.py``: the one-pass
builder in :mod:`repro.htmlkit` must produce exactly the trees these
three naive passes produce (token objects, then a tree, then whole-tree
text merging and whitespace stripping).  Only the imports and the
concatenation into one module differ from the original files; the function
bodies are untouched so any divergence is a bug in the rewrite.
"""

from __future__ import annotations

import html as _htmlmod
import re
from typing import Iterator

from repro.htmlkit.dom import Element, Node, Text
from repro.htmlkit.tokens import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    MarkupToken,
    StartTagToken,
    TextToken,
)

# -- original src/repro/htmlkit/tokenizer.py --------------------------------

_TAG_NAME_RE = re.compile(r"[A-Za-z][-A-Za-z0-9:]*")
_ATTR_RE = re.compile(
    r"""
    \s*
    (?P<name>[^\s=/>"'][^\s=/>]*)           # attribute name
    (?:
        \s*=\s*
        (?P<value>
            "(?P<dq>[^"]*)"                 # double-quoted
          | '(?P<sq>[^']*)'                 # single-quoted
          | (?P<uq>[^\s>]*)                 # unquoted
        )
    )?
    """,
    re.VERBOSE,
)

#: Elements whose content is raw text until the matching end tag.
RAWTEXT_ELEMENTS = frozenset({"script", "style", "textarea", "title"})


def _decode(text: str) -> str:
    """Decode HTML entities (&amp;, &#65;, ...) into characters."""
    if "&" not in text:
        return text
    return _htmlmod.unescape(text)


def tokenize_html(source: str) -> Iterator[MarkupToken]:
    """Yield markup tokens for ``source``.

    The lexer handles comments, doctypes, CDATA-ish blocks, rawtext elements
    (``<script>``/``<style>`` content is one text token), quoted/unquoted
    attributes and self-closing tags.  It is deliberately permissive: any
    byte sequence produces *some* token stream.
    """
    pos = 0
    length = len(source)
    while pos < length:
        lt = source.find("<", pos)
        if lt == -1:
            yield TextToken(pos, text=_decode(source[pos:]))
            return
        if lt > pos:
            yield TextToken(pos, text=_decode(source[pos:lt]))
        pos = lt
        # Comment?
        if source.startswith("<!--", pos):
            end = source.find("-->", pos + 4)
            if end == -1:
                yield CommentToken(pos, text=source[pos + 4 :])
                return
            yield CommentToken(pos, text=source[pos + 4 : end])
            pos = end + 3
            continue
        # Doctype / other declarations?
        if source.startswith("<!", pos):
            end = source.find(">", pos + 2)
            if end == -1:
                yield DoctypeToken(pos, text=source[pos + 2 :])
                return
            yield DoctypeToken(pos, text=source[pos + 2 : end])
            pos = end + 1
            continue
        # Processing instruction (<? ... ?>) — skip like browsers treat bogus
        # comments.
        if source.startswith("<?", pos):
            end = source.find(">", pos + 2)
            if end == -1:
                return
            pos = end + 1
            continue
        # End tag?
        if source.startswith("</", pos):
            match = _TAG_NAME_RE.match(source, pos + 2)
            if match is None:
                # "</ " or similar garbage: emit "<" as text, move on.
                yield TextToken(pos, text="<")
                pos += 1
                continue
            name = match.group(0).lower()
            end = source.find(">", match.end())
            if end == -1:
                yield EndTagToken(pos, name=name)
                return
            yield EndTagToken(pos, name=name)
            pos = end + 1
            continue
        # Start tag?
        match = _TAG_NAME_RE.match(source, pos + 1)
        if match is None:
            # A lone "<" that does not begin a tag: literal text.
            yield TextToken(pos, text="<")
            pos += 1
            continue
        name = match.group(0).lower()
        cursor = match.end()
        attributes: list[tuple[str, str]] = []
        self_closing = False
        while cursor < length:
            if source[cursor] == ">":
                cursor += 1
                break
            if source.startswith("/>", cursor):
                self_closing = True
                cursor += 2
                break
            attr_match = _ATTR_RE.match(source, cursor)
            if attr_match is None or attr_match.end() == cursor:
                cursor += 1
                continue
            attr_name = attr_match.group("name").lower()
            raw_value = (
                attr_match.group("dq")
                if attr_match.group("dq") is not None
                else attr_match.group("sq")
                if attr_match.group("sq") is not None
                else attr_match.group("uq") or ""
            )
            attributes.append((attr_name, _decode(raw_value)))
            cursor = attr_match.end()
        yield StartTagToken(
            pos,
            name=name,
            attributes=tuple(attributes),
            self_closing=self_closing,
        )
        pos = cursor
        # Rawtext elements swallow everything up to their end tag.
        if name in RAWTEXT_ELEMENTS and not self_closing:
            close_re = re.compile(rf"</{name}\s*>", re.IGNORECASE)
            close = close_re.search(source, pos)
            if close is None:
                yield TextToken(pos, text=source[pos:])
                yield EndTagToken(length, name=name)
                return
            if close.start() > pos:
                yield TextToken(pos, text=source[pos : close.start()])
            yield EndTagToken(close.start(), name=name)
            pos = close.end()


# -- original src/repro/htmlkit/parser.py -----------------------------------

#: Elements that never have content (HTML void elements).
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

#: opening tag -> set of open tags it implicitly closes.
_IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "p": frozenset({"p"}),
    "option": frozenset({"option"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "thead": frozenset({"thead", "tbody", "tfoot"}),
    "tbody": frozenset({"thead", "tbody", "tfoot"}),
    "tfoot": frozenset({"thead", "tbody", "tfoot"}),
}

#: Elements whose end tag may legitimately be omitted; when a mismatched end
#: tag arrives we may close through them.
_CLOSABLE_THROUGH = frozenset(
    {"li", "p", "option", "tr", "td", "th", "dt", "dd", "tbody", "thead", "tfoot", "span", "a", "b", "i", "em", "strong", "small", "div"}
)


def parse_html(source: str) -> Element:
    """Parse HTML text into a DOM tree rooted at a synthetic ``#document``.

    Never raises on malformed markup.  The returned root is an element with
    tag ``#document``; its children are the top-level nodes found in the
    input (typically a single ``<html>`` element after tidying).
    """
    root = Element("#document")
    stack: list[Element] = [root]

    def current() -> Element:
        return stack[-1]

    def open_tags() -> list[str]:
        return [element.tag for element in stack[1:]]

    for token in tokenize_html(source):
        if isinstance(token, (CommentToken, DoctypeToken)):
            # Comments and doctypes carry no data for extraction; the paper's
            # cleaning step drops them, we simply never materialize them.
            continue
        if isinstance(token, TextToken):
            if token.text:
                current().append(Text(token.text))
            continue
        if isinstance(token, StartTagToken):
            closers = _IMPLICIT_CLOSERS.get(token.name)
            if closers:
                while len(stack) > 1 and current().tag in closers:
                    stack.pop()
            element = Element(token.name, dict(token.attributes))
            current().append(element)
            if token.name not in VOID_ELEMENTS and not token.self_closing:
                stack.append(element)
            continue
        if isinstance(token, EndTagToken):
            name = token.name
            if name in VOID_ELEMENTS:
                continue
            tags = open_tags()
            if name not in tags:
                # Stray end tag: ignore, like browsers do.
                continue
            # Close up to and including the matching open element, but only
            # pop through elements whose end tags are omissible; if we would
            # have to force-close something structural (e.g. a <table> to
            # match a stray </div> outside it), give up and ignore the tag.
            depth = len(stack) - 1 - open_tags()[::-1].index(name)
            for intermediate in stack[depth + 1 :]:
                if intermediate.tag not in _CLOSABLE_THROUGH:
                    break
            else:
                del stack[depth:]
                continue
            # Unpoppable intermediate: ignore the end tag.
            continue
    return root


# -- original src/repro/htmlkit/tidy.py -------------------------------------

#: Block-level elements between which whitespace-only text is insignificant.
_BLOCK_ELEMENTS = frozenset(
    {
        "html", "body", "head", "div", "ul", "ol", "li", "table", "thead",
        "tbody", "tfoot", "tr", "td", "th", "p", "h1", "h2", "h3", "h4",
        "h5", "h6", "section", "article", "nav", "header", "footer", "form",
        "dl", "dt", "dd", "blockquote", "pre",
    }
)

_HEAD_ONLY = frozenset({"title", "meta", "link", "base", "style"})


def _merge_text_nodes(element: Element) -> None:
    merged: list[Node] = []
    for child in element.children:
        if (
            isinstance(child, Text)
            and merged
            and isinstance(merged[-1], Text)
        ):
            merged[-1] = Text(merged[-1].text + child.text)
        else:
            merged.append(child)
    element.replace_children(merged)
    for child in element.children:
        if isinstance(child, Element):
            _merge_text_nodes(child)


def _strip_interblock_whitespace(element: Element) -> None:
    keep: list[Node] = []
    for child in element.children:
        if isinstance(child, Text) and not child.text.strip():
            if element.tag in _BLOCK_ELEMENTS:
                continue
        keep.append(child)
    element.replace_children(keep)
    for child in element.children:
        if isinstance(child, Element):
            _strip_interblock_whitespace(child)


def tidy(source: str) -> Element:
    """Parse and normalize an HTML document.

    Returns the ``<html>`` element of a well-formed tree.  Whatever the
    input looked like, the result has exactly one ``<body>`` containing all
    content nodes, with head-only elements collected under ``<head>``.
    """
    document = parse_html(source)

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

    _merge_text_nodes(html)
    _strip_interblock_whitespace(html)
    return html
