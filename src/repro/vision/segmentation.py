"""VIPS-style block segmentation and central-block selection.

A page is represented as a tree of visual *blocks* delimited by the DOM
structure and geometric separators (in the spirit of VIPS/ViNTs).  The
paper's heuristic then picks, per source, the block described by the
"largest and most central rectangle", identified *across pages* by its tag
name, DOM path and attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.htmlkit.dom import Element
from repro.vision.boxes import Rect
from repro.vision.layout import LayoutEngine, LayoutResult

#: Tags that start a new visual block when encountered.
_BLOCK_TAGS = frozenset(
    {
        "body", "div", "ul", "ol", "table", "section", "article", "form",
        "nav", "header", "footer", "aside", "main", "dl",
    }
)

#: Minimum area (abstract px^2) for a subtree to count as its own block.
_MIN_BLOCK_AREA = 400.0


@dataclass
class Block:
    """A visual block: a DOM element plus its rectangle and children."""

    element: Element
    rect: Rect
    #: Cross-page identity of the block (tag + path + attributes), as
    #: :meth:`~repro.htmlkit.dom.Element.signature` gives it.
    signature: str
    children: list["Block"] = field(default_factory=list)

    def iter(self) -> Iterator["Block"]:
        """Pre-order traversal over this block and its descendants."""
        stack = [self]
        while stack:
            block = stack.pop()
            yield block
            stack.extend(reversed(block.children))

    def text_length(self) -> int:
        return len(self.element.text_content())


@dataclass
class BlockTree:
    """The block hierarchy of one page plus its layout."""

    root: Block
    layout: LayoutResult

    def all_blocks(self) -> list[Block]:
        return list(self.root.iter())


def _build_block(element: Element, layout: LayoutResult) -> Block:
    """The block of ``element`` and, below it, of every large block element.

    One explicit stack of blocks whose children are still to be found.  A
    block's signature extends its parent block's DOM path by one tag, so
    no block walks up to the root for it.
    """
    path = element.dom_path()
    root = Block(element, layout.rect_of(element), element.signature(path))
    stack = [(root, path)]
    while stack:
        block, path = stack.pop()
        for child in block.element.children:
            if not isinstance(child, Element) or child.tag not in _BLOCK_TAGS:
                continue
            rect = layout.get(child)
            if rect is None or rect.area < _MIN_BLOCK_AREA:
                continue
            child_path = f"{path}/{child.tag}"
            child_block = Block(child, rect, child.signature(child_path))
            block.children.append(child_block)
            stack.append((child_block, child_path))
    return root


def segment_page(root: Element, engine: LayoutEngine | None = None) -> BlockTree:
    """Segment one page into a block tree.

    ``root`` should be the tidied ``<html>`` element.  Blocks are the
    block-level elements whose estimated rectangle is large enough to be a
    visual region of its own.
    """
    engine = engine or LayoutEngine()
    layout = engine.layout(root)
    body = root.find("body") or root
    return BlockTree(root=_build_block(body, layout), layout=layout)


def select_central_block(tree: BlockTree) -> Block:
    """Pick the block with the best (area x centrality) score on one page.

    This is the paper's "largest and most central rectangle" heuristic.  The
    root body block is excluded unless it has no children, so chrome-bearing
    pages resolve to their true content region.
    """
    canvas = tree.layout.canvas
    candidates = [
        block for block in tree.all_blocks() if block is not tree.root
    ] or [tree.root]
    def score(block: Block) -> float:
        area_share = block.rect.area / max(canvas.area, 1.0)
        return area_share * (0.25 + 0.75 * block.rect.centrality(canvas))
    return max(candidates, key=score)


def main_content_block(trees: list[BlockTree]) -> str | None:
    """Choose the cross-page main-content block signature for a source.

    Runs the central-block heuristic on every page and returns the signature
    (tag + DOM path + attributes) winning on the most pages, so that page-
    to-page block-size jitter does not flip the selection — exactly the
    paper's mechanism of identifying the best candidate block by tag name,
    path and attribute names/values across all pages.  Returns ``None`` for
    an empty input.
    """
    votes: dict[str, int] = {}
    for tree in trees:
        winner = select_central_block(tree)
        votes[winner.signature] = votes.get(winner.signature, 0) + 1
    if not votes:
        return None
    return max(votes.items(), key=lambda item: item[1])[0]


def find_block_by_signature(tree: BlockTree, signature: str) -> Block | None:
    """Locate the block with ``signature`` on one page, if present."""
    for block in tree.all_blocks():
        if block.signature == signature:
            return block
    return None
