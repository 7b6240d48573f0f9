"""Page cleaning: remove chrome that carries no extractable data.

The paper's pre-processing removes headers, scripts, styles, comments,
images, hidden tags, empty tags and the like before extraction, because
they slow processing down and can skew the template statistics.  This
module implements that cleaning pass over our DOM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.htmlkit.dom import Element, Node, Text, release
from repro.htmlkit.parser import VOID_ELEMENTS

#: Tags removed wholesale, subtree included.
DEFAULT_DROP_TAGS = frozenset(
    {"script", "style", "noscript", "iframe", "svg", "canvas", "template"}
)

#: Tags that are dropped but whose children are kept (unwrapped).
DEFAULT_UNWRAP_TAGS = frozenset({"font", "center"})

#: Attributes whose mere presence hides the element.
_HIDING_ATTRIBUTES = ("hidden",)


@dataclass(frozen=True)
class CleanerConfig:
    """Tuning knobs for :func:`clean_tree`.

    The defaults mirror the paper's cleaning step.  ``keep_attributes``
    lists the attributes preserved on elements; everything else (style,
    event handlers, data-*) is stripped since tag properties are noise for
    template inference.
    """

    drop_tags: frozenset[str] = DEFAULT_DROP_TAGS
    unwrap_tags: frozenset[str] = DEFAULT_UNWRAP_TAGS
    drop_empty: bool = True
    drop_hidden: bool = True
    drop_images: bool = True
    keep_attributes: frozenset[str] = frozenset({"id", "class", "type", "href"})
    protected_tags: frozenset[str] = frozenset({"html", "head", "body", "br", "hr"})


def _is_hidden(element: Element) -> bool:
    if not element.attributes:
        return False
    for attribute in _HIDING_ATTRIBUTES:
        if attribute in element.attributes:
            return True
    style = element.attributes.get("style", "")
    style = style.replace(" ", "").lower()
    return "display:none" in style or "visibility:hidden" in style


def clean_tree(root: Element, config: CleanerConfig | None = None) -> Element:
    """Clean ``root`` in place and return it.

    Removes script/style/comment-like content, hidden and empty elements,
    images, and non-whitelisted attributes.  The root element itself is
    never removed.

    One post-order pass with an explicit stack of ``(element, child
    iterator, kept children)`` frames, so no depth exceeds the recursion
    limit.  An element is dropped, subtree and all, before its children
    are visited; otherwise, once its children are done, it takes the
    kept ones and then hands its parent itself, its kept children (an
    unwrapped tag) or nothing (an empty element).  A dropped subtree is
    released (:func:`~repro.htmlkit.dom.release`) so it dies by reference
    count at once.
    """
    config = config or CleanerConfig()
    drop_tags = config.drop_tags
    unwrap_tags = config.unwrap_tags
    drop_hidden = config.drop_hidden
    drop_images = config.drop_images
    keep_attributes = config.keep_attributes
    # Tags an element with no kept children survives under.
    keep_empty = (
        config.protected_tags | VOID_ELEMENTS if config.drop_empty else None
    )
    stack: list[tuple[Element, Iterator[Node], list[Node]]] = [
        (root, iter(root.children), [])
    ]
    push = stack.append
    pop = stack.pop
    while stack:
        element, children, kept = stack[-1]
        for child in children:
            if isinstance(child, Text):
                if child.text.strip():
                    kept.append(child)
                continue
            tag = child.tag  # type: ignore[attr-defined]
            if (
                tag in drop_tags
                or (drop_hidden and _is_hidden(child))  # type: ignore[arg-type]
                or (drop_images and tag == "img")
            ):
                release(child)  # type: ignore[arg-type]
                continue
            push((child, iter(child.children), []))  # type: ignore[attr-defined]
            break
        else:
            pop()
            element.replace_children(kept)
            attributes = element.attributes
            if attributes:
                element.attributes = {
                    key: value
                    for key, value in attributes.items()
                    if key in keep_attributes
                }
            if not stack:
                break
            tag = element.tag
            if tag in unwrap_tags:
                stack[-1][2].extend(kept)
            elif keep_empty is not None and not kept and tag not in keep_empty:
                release(element)
            else:
                stack[-1][2].append(element)
    return root
