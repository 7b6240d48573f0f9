"""Annotating DOM trees with entity-type matches.

A text node whose content matches a recognizer gets that type name added
to its ``annotations`` set (the paper's ``<div type="Artist">`` marking),
and the annotation propagates upward per
:mod:`repro.annotation.propagation`.  Multiple annotations per node are
allowed — conflicts are meaningful downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotation.propagation import propagate_annotations, propagate_upward
from repro.htmlkit.dom import Element, Text
from repro.recognizers.base import Match, Recognizer, prune_overlaps


@dataclass
class AnnotatedPage:
    """One page plus its annotation bookkeeping.

    ``matches_by_type`` records, per entity type, the concrete matches
    found anywhere on the page; ``scores`` is filled by the sampling stage.
    """

    root: Element
    index: int = -1
    matches_by_type: dict[str, list[Match]] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)
    #: The scope last annotated and its non-empty text nodes with their
    #: collapsed text, reused by every later round over the same scope.
    _scope: Element | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _texts: list[tuple[Text, str]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Every annotated element of the scopes annotated so far, each once,
    #: in the order it gained its first annotation; see
    #: :meth:`PageAnnotator.annotate`.
    marked: list[Element] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def annotation_count(self, type_name: str | None = None) -> int:
        """Total matches (for one type, or across all types)."""
        if type_name is not None:
            return len(self.matches_by_type.get(type_name, []))
        return sum(len(matches) for matches in self.matches_by_type.values())

    def annotated_types(self) -> set[str]:
        return {name for name, matches in self.matches_by_type.items() if matches}


class PageAnnotator:
    """Runs recognizers over a page's text nodes and annotates the DOM.

    ``full_node_bonus`` raises confidence in the bookkeeping when a match
    covers an entire text node — such matches are strong signals that the
    node is a data slot of the template (the paper mentions value/textual
    rules of this form).

    An annotator keeps, for its lifetime, the scored matches of every
    (recognizer, text) pair it scanned, so template text repeated on
    every page of a source is scanned once.  That relies on
    :meth:`Recognizer.find` being a pure function of its text: a
    recognizer must not change while an annotator that used it is
    still in use.  Build one annotator per annotation pass.
    """

    def __init__(self, full_node_bonus: float = 0.1):
        self._full_node_bonus = full_node_bonus
        #: id(recognizer) -> (recognizer, collapsed text -> scored matches).
        #: The recognizer is held so its id is not reused.
        self._memo: dict[int, tuple[Recognizer, dict[str, list[Match]]]] = {}

    def annotate(
        self,
        page: AnnotatedPage,
        recognizer: Recognizer,
        within: Element | None = None,
    ) -> list[Match]:
        """Apply one recognizer to a page; returns the matches found.

        ``within`` restricts the scan to a subtree (the selected central
        block); by default the whole page is scanned.

        Cost model: the scope's text nodes are listed (and their text
        collapsed) on the first call for a scope and reused by later
        calls over the same scope.  Each call then looks up, per
        non-empty text node, the matches of its text, running the
        recognizer only on a text this annotator has not scanned with
        it, and re-propagates only along the ancestors of the nodes it
        annotated.  The page's tree must not be changed between calls
        except by this annotator.

        ``page.marked`` gains every element that gets its first
        annotation here.  On the first call for a scope whose subtree
        already held annotations, propagation runs over the whole scope
        and every annotated element of it is marked, so ``marked`` holds
        exactly the annotated elements of the scopes annotated.
        """
        scope = within if within is not None else page.root
        at_fixpoint = True
        if page._scope is not scope:
            page._texts, at_fixpoint = _scan_scope(scope)
            page._scope = scope
        type_name = recognizer.type_name
        memo = self._memo.get(id(recognizer))
        if memo is None:
            memo = self._memo[id(recognizer)] = (recognizer, {})
        scored = memo[1]
        marked = page.marked
        found: list[Match] = []
        annotated: list[Text] = []
        for text_node, text in page._texts:
            matches = scored.get(text)
            if matches is None:
                matches = scored[text] = self._scored(recognizer, text)
            if not matches:
                continue
            text_node.annotations.add(type_name)
            parent = text_node.parent
            if parent is not None:
                if not parent.annotations:
                    marked.append(parent)
                parent.annotations.add(type_name)
            annotated.append(text_node)
            found.extend(matches)
        page.matches_by_type.setdefault(type_name, []).extend(found)
        if at_fixpoint:
            marked.extend(propagate_upward(annotated, scope))
        else:
            propagate_annotations(scope)
            seen = {id(element) for element in marked}
            marked.extend(
                element
                for element in scope.iter_elements()
                if element.annotations and id(element) not in seen
            )
        return found

    def _scored(self, recognizer: Recognizer, text: str) -> list[Match]:
        """The recognizer's pruned matches in ``text``, a match covering
        the whole text raised by the full-node bonus."""
        matches = recognizer.find(text)
        if not matches:
            return []
        scored: list[Match] = []
        for match in prune_overlaps(matches):
            confidence = match.confidence
            if match.length >= len(text):
                confidence = min(1.0, confidence + self._full_node_bonus)
            scored.append(
                Match(
                    start=match.start,
                    end=match.end,
                    value=match.value,
                    type_name=match.type_name,
                    confidence=confidence,
                )
            )
        return scored


def _scan_scope(scope: Element) -> tuple[list[tuple[Text, str]], bool]:
    """Non-empty text nodes of ``scope`` with their collapsed text, and
    whether the subtree carried no annotations yet.

    An unannotated subtree is trivially at a propagation fixpoint; one
    annotated by someone else may not be, so its first round propagates
    over the whole scope.
    """
    texts: list[tuple[Text, str]] = []
    unannotated = True
    for node in scope.iter():
        if node.annotations:
            unannotated = False
        if isinstance(node, Text):
            text = node.text_content()
            if text:
                texts.append((node, text))
    return texts, unannotated


def annotate_page(
    root: Element,
    recognizers: list[Recognizer],
    index: int = -1,
) -> AnnotatedPage:
    """Annotate a page with every recognizer at once (convenience)."""
    page = AnnotatedPage(root=root, index=index)
    annotator = PageAnnotator()
    for recognizer in recognizers:
        annotator.annotate(page, recognizer)
    return page
