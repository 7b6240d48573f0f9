"""A deterministic box-model layout estimator.

Assigns every element a rectangle on an abstract 1000x(variable) canvas.
The model is intentionally simple — it only needs to rank blocks by size
and centrality the way a real renderer would:

- block-level elements stack vertically and take their parent's width
  (minus padding for semantic side regions such as ``nav``/``aside``);
- inline elements flow horizontally, width proportional to text length;
- element height grows with the text mass it contains;
- known chrome regions (``header``, ``footer``, ``nav``, ``aside``) are
  pinned to the edges, so the main content naturally ends up largest and
  most central, as on real pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htmlkit.dom import Element, Text
from repro.vision.boxes import Rect

#: Canvas width in abstract pixels (a typical page viewport).
CANVAS_WIDTH = 1000.0
#: Height of one text line in abstract pixels.
LINE_HEIGHT = 18.0
#: Average character width in abstract pixels.
CHAR_WIDTH = 7.0

_INLINE_TAGS = frozenset(
    {
        "a", "span", "b", "i", "em", "strong", "small", "u", "sub", "sup",
        "abbr", "cite", "code", "label", "time",
    }
)

#: Fraction of parent width taken by side chrome.
_SIDE_FRACTION = 0.18
_SIDE_TAGS = frozenset({"nav", "aside"})
_TOP_TAGS = frozenset({"header"})
_BOTTOM_TAGS = frozenset({"footer"})


#: The rectangle of an element that is not rendered (outside ``<body>``).
_NO_BOX = Rect(0.0, 0.0, 0.0, 0.0)


@dataclass
class LayoutResult:
    """Output of a layout pass: element -> rect, plus the page canvas.

    ``boxes`` holds the rectangles the pass computed: the root (the
    canvas), every flow element, and the direct inline and side children
    of flow elements.  Every other element of the tree is resolved when
    asked for: it inherits the rectangle of its nearest ancestor in
    ``boxes``, and an element outside ``<body>`` (one whose walk up
    reaches the root first) gets a zero-area rectangle.
    """

    boxes: dict[Element, Rect]
    canvas: Rect
    root: Element

    def get(self, element: Element) -> Rect | None:
        """The rectangle of ``element``, or ``None`` if it is not in the tree."""
        boxes = self.boxes
        rect = boxes.get(element)
        if rect is not None:
            return rect
        root = self.root
        node = element.parent
        while node is not None:
            if node is root:
                return _NO_BOX
            rect = boxes.get(node)
            if rect is not None:
                return rect
            node = node.parent
        return None

    def rect_of(self, element: Element) -> Rect:
        """The rectangle computed for ``element``."""
        rect = self.get(element)
        if rect is None:
            raise KeyError(element)
        return rect

    def has(self, element: Element) -> bool:
        """Whether ``element`` belongs to the laid-out tree."""
        return self.get(element) is not None

    def elements(self) -> list[Element]:
        """Every element of the laid-out tree, in document order."""
        return list(self.root.iter_elements())


def _text_extent(element: Element) -> tuple[int, int]:
    """``(mass, length)`` of the text under ``element``, in characters.

    ``mass`` sums the collapsed text of every text node;
    ``length`` is ``len(element.text_content())``, which also counts one
    space between consecutive non-empty texts.  One walk of the subtree.
    """
    mass = 0
    parts = 0
    for node in element.iter():
        if isinstance(node, Text):
            size = len(node.text_content())
            if size:
                mass += size
                parts += 1
    return mass, mass + parts - 1 if parts else 0


def _estimate_height(mass: int, width: float) -> float:
    """Rough height: text ``mass`` wrapped at ``width``, one line minimum."""
    chars_per_line = max(1.0, width / CHAR_WIDTH)
    lines = max(1.0, mass / chars_per_line) if mass else 1.0
    return lines * LINE_HEIGHT


def _open_frame(element: Element, x: float, y: float, width: float) -> list:
    """The layout state of a flow element about to lay out its children.

    ``[element, x, y, width, content_x, content_width, children,
    side_children, cursor_y, inline_x, inline_row_height]``: side chrome
    takes a share of the width, and the content starts right of the side
    children placed before the first flow child.
    """
    side_children: list[Element] = []
    first_flow = -1
    for index, child in enumerate(element.children):
        if isinstance(child, Element):
            if child.tag in _SIDE_TAGS:
                side_children.append(child)
            elif first_flow < 0:
                first_flow = index
    content_x = x
    content_width = width
    if side_children:
        side_width = width * _SIDE_FRACTION
        content_width = width - side_width * len(side_children)
        if first_flow < 0:
            before = len(side_children)
        else:
            children = element.children
            before = sum(
                1 for side in side_children if children.index(side) < first_flow
            )
        content_x = x + side_width * before
    return [
        element, x, y, width, content_x, content_width,
        iter(element.children), side_children, y, content_x, 0.0,
    ]


class LayoutEngine:
    """Computes rectangles for the elements of a page."""

    def layout(self, root: Element) -> LayoutResult:
        """Lay out the tree under ``root`` and return the box map.

        ``root`` is typically the ``<html>`` element from :func:`tidy`.

        Block-level elements stack inside their parent, so a flow element's
        height is known only once its children are laid out.  One explicit
        stack of :func:`_open_frame` states holds the flow elements still
        open, so no depth exceeds the recursion limit.
        """
        boxes: dict[Element, Rect] = {}
        body = root.find("body") or root
        stack = [_open_frame(body, 0.0, 0.0, CANVAS_WIDTH)]
        while True:
            frame = stack[-1]
            (
                element, x, y, width, content_x, content_width,
                children, side_children, cursor_y, inline_x, inline_row_height,
            ) = frame
            row_end = content_x + content_width
            for child in children:
                if isinstance(child, Text):
                    text = child.text_content()
                    if not text:
                        continue
                    total_width = len(text) * CHAR_WIDTH
                    if total_width > content_width:
                        # Long text wraps over several rows.
                        if inline_row_height > 0:
                            cursor_y += inline_row_height
                        rows = max(1, int(total_width // content_width))
                        cursor_y += rows * LINE_HEIGHT
                        inline_x = content_x + (total_width % content_width)
                        inline_row_height = LINE_HEIGHT
                        continue
                    if inline_x + total_width > row_end:
                        if inline_row_height > 0:
                            cursor_y += inline_row_height
                        inline_x = content_x
                        inline_row_height = 0.0
                    inline_x += total_width
                    inline_row_height = max(inline_row_height, LINE_HEIGHT)
                    continue
                assert isinstance(child, Element)
                tag = child.tag
                if tag in _SIDE_TAGS:
                    continue  # handled after flow
                if tag in _INLINE_TAGS:
                    mass, length = _text_extent(child)
                    child_width = min(
                        content_width, max(CHAR_WIDTH, length * CHAR_WIDTH)
                    )
                    if inline_x + child_width > row_end:
                        if inline_row_height > 0:
                            cursor_y += inline_row_height
                        inline_x = content_x
                        inline_row_height = 0.0
                    child_height = _estimate_height(mass, child_width)
                    boxes[child] = Rect(inline_x, cursor_y, child_width, child_height)
                    inline_x += child_width
                    inline_row_height = max(inline_row_height, child_height)
                    continue
                # A flow child: end the inline row, and lay the child out
                # below it before going on with this element.
                if inline_row_height > 0:
                    cursor_y += inline_row_height
                frame[8] = cursor_y
                frame[9] = content_x
                frame[10] = 0.0
                stack.append(_open_frame(child, content_x, cursor_y, content_width))
                break
            else:
                if inline_row_height > 0:
                    cursor_y += inline_row_height
                height = max(cursor_y - y, LINE_HEIGHT)
                # Side chrome spans the full height of the parent, pinned
                # to an edge.
                side_x = x + width
                for side in side_children:
                    side_width = width * _SIDE_FRACTION
                    side_x -= side_width
                    boxes[side] = Rect(side_x, y, side_width, height)
                boxes[element] = Rect(x, y, width, height)
                stack.pop()
                if not stack:
                    break
                stack[-1][8] += height
        canvas = Rect(0.0, 0.0, CANVAS_WIDTH, max(height, LINE_HEIGHT))
        boxes[root] = canvas
        return LayoutResult(boxes=boxes, canvas=canvas, root=root)
