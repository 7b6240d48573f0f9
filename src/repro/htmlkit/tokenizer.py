"""A streaming, tolerant HTML lexer.

:func:`scan` is the one lexer loop.  It walks the raw text once and hands
every piece of markup straight to a :class:`MarkupSink` — the tree
builder of :mod:`repro.htmlkit.parser` in the parse/tidy path — so no
token object is allocated per tag.  :func:`tokenize_html` is a thin
wrapper over the same loop that collects the pieces as the public
:mod:`repro.htmlkit.tokens` dataclasses.

The lexer never raises on malformed input; it recovers the way browsers do
(a stray ``<`` that does not start a tag is emitted as text, unterminated
tags are closed at end of input, etc.).  Structural repair (nesting) is the
job of the tree builder and :mod:`repro.htmlkit.tidy`, not the lexer.
"""

from __future__ import annotations

import html as _htmlmod
import re
from typing import Iterator, Protocol

from repro.htmlkit.tokens import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    MarkupToken,
    StartTagToken,
    TextToken,
)

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

#: The end-tag pattern that closes each rawtext element, compiled once.
_RAWTEXT_CLOSE = {
    name: re.compile(rf"</{name}\s*>", re.IGNORECASE) for name in RAWTEXT_ELEMENTS
}


def _decode(text: str) -> str:
    """Decode HTML entities (&amp;, &#65;, ...) into characters."""
    if "&" not in text:
        return text
    return _htmlmod.unescape(text)


class MarkupSink(Protocol):
    """Receiver of the pieces :func:`scan` finds, in source order.

    ``position`` is the character offset where the piece starts.
    Attribute values and text arrive with entities already decoded;
    ``attributes`` lists ``(name, value)`` pairs in source order,
    duplicates included.
    """

    def start_tag(
        self,
        name: str,
        attributes: list[tuple[str, str]],
        self_closing: bool,
        position: int,
    ) -> None:
        """An opening tag such as ``<div class="x">`` or ``<br/>``."""

    def end_tag(self, name: str, position: int) -> None:
        """A closing tag such as ``</div>``."""

    def text(self, text: str, position: int) -> None:
        """A run of character data between two pieces of markup."""

    def comment(self, text: str, position: int) -> None:
        """An HTML comment ``<!-- ... -->`` (its inner text)."""

    def doctype(self, text: str, position: int) -> None:
        """A ``<!DOCTYPE ...>`` or other ``<!`` declaration."""


def scan(source: str, sink: MarkupSink) -> None:
    """Lex ``source`` once, feeding every piece of markup to ``sink``.

    The lexer handles comments, doctypes, CDATA-ish blocks, rawtext
    elements (``<script>``/``<style>`` content is one text piece),
    quoted/unquoted attributes and self-closing tags.  It is deliberately
    permissive: any character sequence produces *some* piece sequence.
    """
    on_start = sink.start_tag
    on_end = sink.end_tag
    on_text = sink.text
    find = source.find
    startswith = source.startswith
    tag_name = _TAG_NAME_RE.match
    attribute = _ATTR_RE.match
    pos = 0
    length = len(source)
    while pos < length:
        lt = find("<", pos)
        if lt == -1:
            on_text(_decode(source[pos:]), pos)
            return
        if lt > pos:
            on_text(_decode(source[pos:lt]), pos)
        pos = lt
        if startswith("<!", pos):
            # Comment?
            if startswith("<!--", pos):
                end = find("-->", pos + 4)
                if end == -1:
                    sink.comment(source[pos + 4 :], pos)
                    return
                sink.comment(source[pos + 4 : end], pos)
                pos = end + 3
                continue
            # Doctype / other declarations.
            end = find(">", pos + 2)
            if end == -1:
                sink.doctype(source[pos + 2 :], pos)
                return
            sink.doctype(source[pos + 2 : end], pos)
            pos = end + 1
            continue
        # Processing instruction (<? ... ?>) — skip like browsers treat bogus
        # comments.
        if startswith("<?", pos):
            end = find(">", pos + 2)
            if end == -1:
                return
            pos = end + 1
            continue
        # End tag?
        if startswith("</", pos):
            match = tag_name(source, pos + 2)
            if match is None:
                # "</ " or similar garbage: emit "<" as text, move on.
                on_text("<", pos)
                pos += 1
                continue
            name = match.group().lower()
            end = find(">", match.end())
            on_end(name, pos)
            if end == -1:
                return
            pos = end + 1
            continue
        # Start tag?
        match = tag_name(source, pos + 1)
        if match is None:
            # A lone "<" that does not begin a tag: literal text.
            on_text("<", pos)
            pos += 1
            continue
        name = match.group().lower()
        cursor = match.end()
        attributes: list[tuple[str, str]] = []
        self_closing = False
        while cursor < length:
            char = source[cursor]
            if char == ">":
                cursor += 1
                break
            if char == "/" and startswith("/>", cursor):
                self_closing = True
                cursor += 2
                break
            attr_match = attribute(source, cursor)
            if attr_match is None or attr_match.end() == cursor:
                cursor += 1
                continue
            attr_name, __, dq, sq, uq = attr_match.groups()
            raw_value = dq if dq is not None else sq if sq is not None else uq or ""
            attributes.append((attr_name.lower(), _decode(raw_value)))
            cursor = attr_match.end()
        on_start(name, attributes, self_closing, pos)
        pos = cursor
        # Rawtext elements swallow everything up to their end tag.
        if name in RAWTEXT_ELEMENTS and not self_closing:
            close = _RAWTEXT_CLOSE[name].search(source, pos)
            if close is None:
                on_text(source[pos:], pos)
                on_end(name, length)
                return
            if close.start() > pos:
                on_text(source[pos : close.start()], pos)
            on_end(name, close.start())
            pos = close.end()


class _TokenCollector:
    """A :class:`MarkupSink` that records the public token dataclasses."""

    def __init__(self) -> None:
        self.tokens: list[MarkupToken] = []

    def start_tag(
        self,
        name: str,
        attributes: list[tuple[str, str]],
        self_closing: bool,
        position: int,
    ) -> None:
        self.tokens.append(
            StartTagToken(
                position,
                name=name,
                attributes=tuple(attributes),
                self_closing=self_closing,
            )
        )

    def end_tag(self, name: str, position: int) -> None:
        self.tokens.append(EndTagToken(position, name=name))

    def text(self, text: str, position: int) -> None:
        self.tokens.append(TextToken(position, text=text))

    def comment(self, text: str, position: int) -> None:
        self.tokens.append(CommentToken(position, text=text))

    def doctype(self, text: str, position: int) -> None:
        self.tokens.append(DoctypeToken(position, text=text))


def tokenize_html(source: str) -> Iterator[MarkupToken]:
    """Yield markup tokens for ``source``.

    A thin wrapper over :func:`scan` for callers that want token objects
    (tests, debugging): the same lexer loop, its pieces collected as
    :mod:`repro.htmlkit.tokens` dataclasses.
    """
    collector = _TokenCollector()
    scan(source, collector)
    return iter(collector.tokens)
