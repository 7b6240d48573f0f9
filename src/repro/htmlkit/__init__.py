"""From-scratch HTML substrate: tokenizer, tag-soup parser, DOM and tidying.

The paper pre-processes pages with JTidy (malformed HTML -> well-formed XML)
and then works on the resulting tree.  We rebuild that stack here with no
third-party dependencies:

- :mod:`repro.htmlkit.tokens` — lexical token types for markup.
- :mod:`repro.htmlkit.tokenizer` — a streaming HTML lexer.
- :mod:`repro.htmlkit.dom` — element/text nodes, paths, traversal.
- :mod:`repro.htmlkit.parser` — a tolerant tree builder (tag soup allowed).
- :mod:`repro.htmlkit.tidy` — JTidy-style repair to a well-formed tree.
- :mod:`repro.htmlkit.clean` — removal of scripts, comments, hidden tags,
  empty nodes and other template chrome, per the paper's cleaning step.
- :mod:`repro.htmlkit.serialize` — render a DOM back to HTML text.
- :mod:`repro.htmlkit.fingerprint` — content-free structural fingerprints
  identifying a page's template (registry keys).
"""

from repro.htmlkit.clean import CleanerConfig, clean_tree
from repro.htmlkit.dom import Element, Node, Text
from repro.htmlkit.fingerprint import (
    pages_fingerprint,
    structural_fingerprint,
)
from repro.htmlkit.serialize import to_html
from repro.htmlkit.tidy import tidy
from repro.htmlkit.tokenizer import tokenize_html
from repro.htmlkit.tokens import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    MarkupToken,
    StartTagToken,
    TextToken,
)

__all__ = [
    "CleanerConfig",
    "clean_tree",
    "Element",
    "Node",
    "Text",
    "pages_fingerprint",
    "structural_fingerprint",
    "to_html",
    "tidy",
    "tokenize_html",
    "CommentToken",
    "DoctypeToken",
    "EndTagToken",
    "MarkupToken",
    "StartTagToken",
    "TextToken",
]
