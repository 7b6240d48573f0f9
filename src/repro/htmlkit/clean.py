"""Page cleaning: remove chrome that carries no extractable data.

The paper's pre-processing removes headers, scripts, styles, comments,
images, hidden tags, empty tags and the like before extraction, because
they slow processing down and can skew the template statistics.  This
module implements that cleaning pass over our DOM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htmlkit.dom import Element, Node, Text
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


def _clean(element: Element, config: CleanerConfig) -> list[Node]:
    """Return the cleaned replacement nodes for ``element``."""
    if element.tag in config.drop_tags:
        return []
    if config.drop_hidden and _is_hidden(element):
        return []
    if config.drop_images and element.tag == "img":
        return []

    new_children: list[Node] = []
    for child in element.children:
        if isinstance(child, Text):
            if child.text.strip():
                new_children.append(child)
            continue
        new_children.extend(_clean(child, config))

    element.replace_children(new_children)
    element.attributes = {
        key: value
        for key, value in element.attributes.items()
        if key in config.keep_attributes
    }

    if element.tag in config.unwrap_tags:
        return new_children
    if (
        config.drop_empty
        and not new_children
        and element.tag not in config.protected_tags
        and element.tag not in VOID_ELEMENTS
    ):
        return []
    return [element]


def clean_tree(root: Element, config: CleanerConfig | None = None) -> Element:
    """Clean ``root`` in place and return it.

    Removes script/style/comment-like content, hidden and empty elements,
    images, and non-whitelisted attributes.  The root element itself is
    never removed.
    """
    config = config or CleanerConfig()
    new_children: list[Node] = []
    for child in list(root.children):
        if isinstance(child, Text):
            if child.text.strip():
                new_children.append(child)
            continue
        new_children.extend(_clean(child, config))
    root.replace_children(new_children)
    root.attributes = {
        key: value
        for key, value in root.attributes.items()
        if key in config.keep_attributes
    }
    return root
