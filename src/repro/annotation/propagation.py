"""Upward propagation of annotations in the DOM.

Per the paper, an annotation assigned to a node propagates to its ancestors
as long as those ancestors sit on a linear path (single child) or all their
children carry the same annotation.  This lets annotations reach the tag
level at which the template repeats (e.g. the ``<div>`` wrapping an artist
name), where the wrapper algorithm consumes them.
"""

from __future__ import annotations

from typing import Iterable

from repro.htmlkit.dom import Element, Node, Text


def _child_annotation_sets(element: Element) -> list[set[str]]:
    """Annotation sets of children that carry content (text or elements)."""
    sets: list[set[str]] = []
    for child in element.children:
        if isinstance(child, Text):
            if child.text_content():
                sets.append(child.annotations)
        else:
            assert isinstance(child, Element)
            sets.append(child.annotations)
    return sets


def _absorb_children(element: Element) -> None:
    """One propagation step: ``element`` inherits from its children.

    An element inherits annotation ``t`` if it has exactly one
    content-bearing child (linear path) and that child is annotated ``t``,
    or if *all* its content-bearing children are annotated ``t``.
    """
    child_sets = _child_annotation_sets(element)
    if not child_sets:
        return
    if len(child_sets) == 1:
        element.annotations |= child_sets[0]
        return
    common = set(child_sets[0])
    for annotations in child_sets[1:]:
        common &= annotations
        if not common:
            return
    element.annotations |= common


def propagate_annotations(root: Element) -> None:
    """Propagate annotations upward throughout the subtree of ``root``.

    One bottom-up pass of :func:`_absorb_children` over every element; it
    leaves the subtree at a fixpoint (another pass would change nothing).
    The pass is the pre-order of :meth:`Element.iter_elements` reversed,
    which reaches every element after all of its descendants and does
    not recurse.
    """
    for element in reversed(list(root.iter_elements())):
        _absorb_children(element)


def propagate_upward(nodes: Iterable[Node], root: Element) -> list[Element]:
    """Re-propagate only along the ancestor paths of ``nodes`` up to ``root``.

    Equivalent to :func:`propagate_annotations` on ``root`` when the
    subtree was at a propagation fixpoint before annotations were added to
    ``nodes`` (and to their parents): inheritance is monotone and
    independent per type, so only the ancestors of changed nodes can
    change.  Ancestors are updated deepest first, children before parents.

    Returns the ancestors that held no annotation before and hold one
    now, in the order they were updated.
    """
    depth_of: dict[int, int] = {}
    affected: list[tuple[int, Element]] = []
    for node in nodes:
        path: list[Element] = []
        base = -1  # depth of the already-collected ancestor the walk stops at
        element = node.parent
        while element is not None:
            known = depth_of.get(id(element))
            if known is not None:
                base = known
                break
            path.append(element)
            if element is root:
                break
            element = element.parent
        for position, element in enumerate(path):
            depth = base + len(path) - position
            depth_of[id(element)] = depth
            affected.append((depth, element))
    affected.sort(key=lambda item: -item[0])
    gained: list[Element] = []
    for __, element in affected:
        was_empty = not element.annotations
        _absorb_children(element)
        if was_empty and element.annotations:
            gained.append(element)
    return gained
