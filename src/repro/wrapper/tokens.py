"""Flat token sequences over pages.

The ExAlg family reasons over page *tokens*: HTML tags and words.  Each
token occurrence keeps its DOM path (the initial role criterion — "tokens
having the same value and the same path in the DOM will have the same
role"), the annotations of its enclosing node, and a link back to the DOM
text node for extraction.

Roles are 4-string tuples, which makes them expensive to hash and compare
in the occurrence/equivalence hot loops (millions of tuple constructions
per source at benchmark scale).  :class:`TokenTable` interns each distinct
role to a dense integer id at tokenize time; the analysis layers compare
ids and only translate back to tuples at their public boundaries.  Ids are
assigned in interning order — document order when the table is filled by
:func:`tokenize_element` — so they are independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htmlkit.dom import Element, Node, Text
from repro.utils.text import tokenize_words

KIND_OPEN = "open"
KIND_CLOSE = "close"
KIND_WORD = "word"

#: The initial role of a token: (kind, value, DOM path, class attribute).
RoleKey = tuple[str, str, str, str]

#: The annotations of every unannotated token: one shared empty set
#: instead of a new (garbage-collector tracked) one per node.
_NO_ANNOTATIONS: frozenset[str] = frozenset()


class TokenTable:
    """Interns role keys to dense integer ids.

    One table is shared by every tokenized page of a source (threaded
    through ``PipelineContext.token_table``), so two tokens play the same
    role exactly when they carry the same ``role_id``.  Ids count up from
    zero in interning order, which is first-appearance document order for
    tables filled by :func:`tokenize_element` — deterministic under any
    ``PYTHONHASHSEED``.
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[RoleKey, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, key: RoleKey) -> int:
        """The id of ``key``, assigning the next free id on first sight."""
        role_id = self._ids.get(key)
        if role_id is None:
            role_id = len(self._ids)
            self._ids[key] = role_id
        return role_id

    def id_of(self, key: RoleKey) -> int | None:
        """The id of an already-interned key, or ``None``."""
        return self._ids.get(key)

    def keys_by_id(self) -> list[RoleKey]:
        """Every interned key, indexed by its id (insertion order)."""
        return list(self._ids)


@dataclass(slots=True)
class PageToken:
    """One token occurrence on a page (slotted: a sample holds many)."""

    kind: str
    value: str
    path: str
    annotations: frozenset[str] = frozenset()
    #: The text node a word token came from (None for tags).
    text_node: Text | None = None
    #: The element a tag token came from (None for words).
    element: Element | None = None
    #: The element's class attribute (tags only) — part of the role, so
    #: ``<div class=title>`` and ``<div class=price>`` play different roles.
    attr_class: str = ""
    #: Dense id of :attr:`role_key` in the page's shared
    #: :class:`TokenTable` (-1 until interned).
    role_id: int = -1

    @property
    def role_key(self) -> RoleKey:
        """The initial role: kind, value, DOM path, class (HTML features)."""
        return (self.kind, self.value, self.path, self.attr_class)

    @property
    def is_tag(self) -> bool:
        return self.kind in (KIND_OPEN, KIND_CLOSE)

    def display(self) -> str:
        """Human-readable form, used in template dumps."""
        if self.kind == KIND_OPEN:
            return f"<{self.value}>"
        if self.kind == KIND_CLOSE:
            return f"</{self.value}>"
        return self.value


@dataclass
class TokenizedPage:
    """The token sequence of one page (or one page region)."""

    tokens: list[PageToken] = field(default_factory=list)
    page_index: int = -1
    #: The role table the tokens' ``role_id`` values refer to (shared by
    #: every page of one source); ``None`` for hand-built pages until
    #: :func:`ensure_shared_table` normalizes them.
    table: TokenTable | None = None
    #: Lazily built caches over the (immutable once analyzed) token list.
    _id_sequence: list[int] | None = field(
        default=None, repr=False, compare=False
    )
    _positions: dict[int, list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    _tag_ids: list[int] | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def tag_tokens(self) -> list[PageToken]:
        return [token for token in self.tokens if token.is_tag]

    def invalidate_caches(self) -> None:
        """Drop the cached id sequences/position index (after re-interning)."""
        self._id_sequence = None
        self._positions = None
        self._tag_ids = None

    def role_id_sequence(self) -> list[int]:
        """The tokens' role ids in document order (cached)."""
        if self._id_sequence is None:
            self._id_sequence = [token.role_id for token in self.tokens]
        return self._id_sequence

    def tag_role_ids(self) -> list[int]:
        """The tokens' role ids in document order, -1 for words (cached).

        A span's tag-role multiset is then one C-level ``Counter`` over a
        slice of this list, minus the -1 key.
        """
        if self._tag_ids is None:
            self._tag_ids = [
                -1 if token.kind == KIND_WORD else token.role_id
                for token in self.tokens
            ]
        return self._tag_ids

    def positions_of(self, role_id: int) -> list[int]:
        """Token indexes playing ``role_id``, ascending (cached index)."""
        if self._positions is None:
            positions: dict[int, list[int]] = {}
            for index, rid in enumerate(self.role_id_sequence()):
                bucket = positions.get(rid)
                if bucket is None:
                    positions[rid] = [index]
                else:
                    bucket.append(index)
            self._positions = positions
        return self._positions.get(role_id, [])


def ensure_shared_table(pages: list[TokenizedPage]) -> TokenTable:
    """Make every page's ``role_id`` refer to one shared :class:`TokenTable`.

    Pages tokenized with a common table (the pipeline path) are returned
    as-is; anything else — hand-built pages, pages tokenized one-by-one
    with private tables — is re-interned into a fresh shared table in
    document order.  Either way the result is deterministic and
    independent of ``PYTHONHASHSEED``.
    """
    if pages:
        first = pages[0].table
        if first is not None and all(page.table is first for page in pages):
            return first
    table = TokenTable()
    intern = table.intern
    for page in pages:
        for token in page.tokens:
            token.role_id = intern(token.role_key)
        page.table = table
        page.invalidate_caches()
    return table


def tokenize_element(
    element: Element,
    page_index: int = -1,
    include_words: bool = True,
    table: TokenTable | None = None,
) -> TokenizedPage:
    """Flatten a DOM subtree into a token sequence.

    Tag tokens carry their element's annotations; word tokens carry their
    text node's annotations.  Word tokens remember their source text node
    so the extractor can recover exact values later.

    DOM paths are pushed down the walk (child path = parent path +
    ``"/"`` + tag, matching :meth:`~repro.htmlkit.dom.Element.dom_path`)
    instead of re-walking the ancestor chain per node, and every token's
    role is interned into ``table`` (a fresh one when not given — share
    one table across the pages of a source so role ids are comparable).
    """
    tokens: list[PageToken] = []
    append = tokens.append
    if table is None:
        table = TokenTable()
    intern = table.intern

    # PageToken fields are passed positionally (kind, value, path,
    # annotations, text_node, element, attr_class, role_id): keyword
    # arguments cost about twice as much per token on this hot path.
    # Roles are interned in document order: an element's open token, its
    # children, then its close token.  One explicit stack holds a frame
    # per open element (its children iterator and what its close token
    # needs), so no depth exceeds the recursion limit and no
    # self-referencing closure is left for the collector.  Everything is
    # inlined, and an element holding one text node, as most do, is
    # tokenized whole without a frame: that keeps the loop as fast as
    # the recursion it replaced.
    path = element.dom_path()
    tag = element.tag
    attr_class = element.attributes.get("class", "")
    annotations = (
        frozenset(element.annotations) if element.annotations else _NO_ANNOTATIONS
    )
    append(
        PageToken(
            KIND_OPEN, tag, path, annotations, None, element,
            attr_class, intern((KIND_OPEN, tag, path, attr_class)),
        )
    )
    stack = [(iter(element.children), element, path, annotations, attr_class)]
    push = stack.append
    pop = stack.pop
    while stack:
        children, node, path, annotations, attr_class = stack[-1]
        for child in children:
            if isinstance(child, Text):
                if include_words:
                    # One frozen annotation set per text node, shared by
                    # its words.
                    text_annotations = (
                        frozenset(child.annotations)
                        if child.annotations
                        else _NO_ANNOTATIONS
                    )
                    for word in tokenize_words(child.text):
                        append(
                            PageToken(
                                KIND_WORD, word, path, text_annotations, child,
                                None, "", intern((KIND_WORD, word, path, "")),
                            )
                        )
                continue
            assert isinstance(child, Element)
            tag = child.tag
            child_path = f"{path}/{tag}"
            child_class = child.attributes.get("class", "")
            child_annotations = (
                frozenset(child.annotations)
                if child.annotations
                else _NO_ANNOTATIONS
            )
            append(
                PageToken(
                    KIND_OPEN, tag, child_path, child_annotations, None, child,
                    child_class, intern((KIND_OPEN, tag, child_path, child_class)),
                )
            )
            grandchildren = child.children
            if len(grandchildren) != 1 or not isinstance(grandchildren[0], Text):
                push(
                    (
                        iter(grandchildren), child, child_path,
                        child_annotations, child_class,
                    )
                )
                break
            if include_words:
                text = grandchildren[0]
                text_annotations = (
                    frozenset(text.annotations)
                    if text.annotations
                    else _NO_ANNOTATIONS
                )
                for word in tokenize_words(text.text):
                    append(
                        PageToken(
                            KIND_WORD, word, child_path, text_annotations, text,
                            None, "", intern((KIND_WORD, word, child_path, "")),
                        )
                    )
            append(
                PageToken(
                    KIND_CLOSE, tag, child_path, child_annotations, None, child,
                    child_class, intern((KIND_CLOSE, tag, child_path, child_class)),
                )
            )
        else:
            pop()
            tag = node.tag
            append(
                PageToken(
                    KIND_CLOSE, tag, path, annotations, None, node,
                    attr_class, intern((KIND_CLOSE, tag, path, attr_class)),
                )
            )
    return TokenizedPage(tokens=tokens, page_index=page_index, table=table)
