"""Tolerant tree builder: lexer pieces -> DOM, tag soup allowed.

:class:`TreeBuilder` is the :class:`~repro.htmlkit.tokenizer.MarkupSink`
the lexer loop feeds directly.  It applies browser-like recovery rules
(auto-closing ``<li>``, ``<p>``, table parts; ignoring stray end tags;
closing open elements at end of input) and tracks open tags in a count
map, so a stray end tag costs one dictionary lookup.  The output tree is
already structurally sound; :mod:`tidy` wraps this with whole-document
normalization (ensuring html/body, etc.).

In ``tidy_text`` mode the builder also does tidy's text normalization as
it goes: adjacent text merges into one node, and a whitespace-only run
inside a block element is dropped when the run ends.  The document-shape
elements (``html``, ``head``, ``body`` and the synthetic root) keep one
text node per piece, because :func:`~repro.htmlkit.tidy.tidy` still
moves their children around; it normalizes those few elements itself.
"""

from __future__ import annotations

from repro.htmlkit.dom import Element, Text
from repro.htmlkit.tokenizer import scan

#: Elements that never have content (HTML void elements).
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

#: Block-level elements between which whitespace-only text is insignificant.
_BLOCK_ELEMENTS = frozenset(
    {
        "html", "body", "head", "div", "ul", "ol", "li", "table", "thead",
        "tbody", "tfoot", "tr", "td", "th", "p", "h1", "h2", "h3", "h4",
        "h5", "h6", "section", "article", "nav", "header", "footer", "form",
        "dl", "dt", "dd", "blockquote", "pre",
    }
)

#: Elements whose children tidy rearranges; their text is normalized by
#: :func:`~repro.htmlkit.tidy.tidy` after the rearrangement.
_DOCUMENT_TAGS = frozenset({"#document", "html", "head", "body"})

#: Blocks whose whitespace-only text runs the builder drops itself.
_STRIPPED_BLOCKS = _BLOCK_ELEMENTS - _DOCUMENT_TAGS

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


class TreeBuilder:
    """Build a DOM under a synthetic ``#document`` root from lexer pieces.

    Comments and doctypes carry no data for extraction; the paper's
    cleaning step drops them, the builder simply never materializes them.
    With ``tidy_text`` the builder merges and strips text as described in
    the module docstring, and lists every ``html``/``head``/``body``
    element it creates in :attr:`document_elements`.
    """

    __slots__ = ("root", "document_elements", "_stack", "_open", "_run", "_tidy")

    def __init__(self, tidy_text: bool = False):
        self.root = Element("#document")
        #: The ``html``/``head``/``body`` elements created, in source order.
        self.document_elements: list[Element] = []
        self._stack: list[Element] = [self.root]
        #: tag -> number of open elements with that tag (root excluded).
        self._open: dict[str, int] = {}
        #: The top element's current text run, not yet a node (``tidy_text``).
        self._run: str | None = None
        self._tidy = tidy_text

    def start_tag(
        self,
        name: str,
        attributes: list[tuple[str, str]],
        self_closing: bool,
        position: int,
    ) -> None:
        """Open (or, for void/self-closing tags, just append) an element."""
        if self._run is not None:
            self._flush()
        stack = self._stack
        closers = _IMPLICIT_CLOSERS.get(name)
        if closers:
            while len(stack) > 1 and stack[-1].tag in closers:
                self._open[stack.pop().tag] -= 1
        element = Element(name)
        if attributes:
            element.attributes = dict(attributes)
        parent = stack[-1]
        element.parent = parent
        parent.children.append(element)
        if name in _DOCUMENT_TAGS:
            self.document_elements.append(element)
        if name not in VOID_ELEMENTS and not self_closing:
            stack.append(element)
            self._open[name] = self._open.get(name, 0) + 1

    def end_tag(self, name: str, position: int) -> None:
        """Close the innermost open ``name`` element, if recovery allows.

        Stray end tags are ignored, like browsers do.  Closing pops only
        through elements whose end tags are omissible; if a structural
        element (e.g. a ``<table>`` to match a stray ``</div>`` outside
        it) would have to be force-closed, the end tag is ignored too.
        """
        stack = self._stack
        if stack[-1].tag == name:
            # The common case: the end tag closes the innermost element.
            if self._run is not None:
                self._flush()
            self._open[name] -= 1
            stack.pop()
            return
        if not self._open.get(name) or name in VOID_ELEMENTS:
            return
        depth = len(stack) - 1
        while stack[depth].tag != name:
            if stack[depth].tag not in _CLOSABLE_THROUGH:
                return
            depth -= 1
        if self._run is not None:
            self._flush()
        open_counts = self._open
        for element in stack[depth:]:
            open_counts[element.tag] -= 1
        del stack[depth:]

    def text(self, text: str, position: int) -> None:
        """Append character data to the innermost open element."""
        if not text:
            return
        top = self._stack[-1]
        if self._tidy and top.tag not in _DOCUMENT_TAGS:
            run = self._run
            self._run = text if run is None else run + text
        else:
            node = Text(text)
            node.parent = top
            top.children.append(node)

    def comment(self, text: str, position: int) -> None:
        """Comments are dropped."""

    def doctype(self, text: str, position: int) -> None:
        """Doctypes are dropped."""

    def finish(self) -> Element:
        """End of input: settle pending text and return the root."""
        if self._run is not None:
            self._flush()
        return self.root

    def _flush(self) -> None:
        """Append the top element's finished text run as one node.

        Called only when the run cannot grow any more — a child element
        is about to be appended or the element is about to close — so a
        whitespace-only run in a block element can be dropped right here.
        """
        text = self._run
        self._run = None
        assert text is not None
        top = self._stack[-1]
        if top.tag in _STRIPPED_BLOCKS and not text.strip():
            return
        node = Text(text)
        node.parent = top
        top.children.append(node)


def build_tree(source: str, tidy_text: bool = False) -> TreeBuilder:
    """Run the lexer over ``source`` into a :class:`TreeBuilder`."""
    builder = TreeBuilder(tidy_text)
    scan(source, builder)
    builder.finish()
    return builder
