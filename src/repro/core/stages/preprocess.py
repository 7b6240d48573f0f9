"""Pre-processing stages: tidy/clean and VIPS-style segmentation.

Tidying repairs tag soup into a well-formed tree and cleaning drops
scripts, styles, hidden and empty elements (paper Section III-B).  Both
are deterministic, so the stage memoizes through the context's
:class:`~repro.core.cache.PreprocessCache` — enrichment passes beyond the
first and repeated runs over the same pages rebuild a tree from a flat
snapshot instead of re-parsing, and only when a later stage first indexes
the page.  The stage leaves each page's cache key in
``ctx.artifacts[PAGE_KEYS_KEY]``, so the registry match can vote over the
cached per-page fingerprints and extraction can reuse cached rows.

Segmentation estimates a render box for every element and selects, by
majority across pages, the largest and most central block — the region
holding the records.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineContext, Stage, register_stage
from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element
from repro.htmlkit.tidy import tidy
from repro.vision.segmentation import (
    find_block_by_signature,
    main_content_block,
    segment_page,
)

#: ``ctx.artifacts`` key holding the cache key of each page, in page
#: order; set only when the pages went through the context's cache.
PAGE_KEYS_KEY = "page_keys"


@register_stage
class PreprocessStage(Stage):
    """Tidy and clean every raw page (content-hash cached)."""

    name = "preprocess"
    timing_field = "preprocess"
    reads = ("raw_pages", "cache", "pages")
    writes = ("pages",)

    def enabled(self, ctx: PipelineContext) -> bool:
        """Skip when the caller already supplied prepared page trees."""
        return not ctx.pages

    def run(self, ctx: PipelineContext) -> None:
        """Fill ``ctx.pages`` with cleaned trees for ``ctx.raw_pages``."""
        if ctx.cache is None:
            ctx.pages = [clean_tree(tidy(raw)) for raw in ctx.raw_pages]
        else:
            outcome = ctx.cache.clean_pages(ctx.raw_pages)
            ctx.pages = outcome.pages
            ctx.artifacts[PAGE_KEYS_KEY] = outcome.keys
            ctx.count("preprocess_cache_hits", outcome.hits)
            ctx.count("preprocess_cache_misses", outcome.misses)
        ctx.count("pages_prepared", len(ctx.pages))


@register_stage
class SegmentationStage(Stage):
    """Select the main content block shared by the source's pages.

    With ``params.use_segmentation`` off, the whole pages become the
    regions (the ablation configuration).
    """

    name = "segmentation"
    timing_field = "preprocess"
    reads = ("pages", "params", "wrapper")
    writes = ("regions", "block_trees")

    def enabled(self, ctx: PipelineContext) -> bool:
        """Skip when a wrapper is already in play (registry hit/preset)."""
        return ctx.wrapper is None

    def run(self, ctx: PipelineContext) -> None:
        """Fill ``ctx.regions`` (and ``ctx.block_trees`` when segmenting)."""
        ctx.regions = list(ctx.pages)
        if not ctx.params.use_segmentation:
            return
        ctx.block_trees = [segment_page(page) for page in ctx.pages]
        ctx.count("pages_segmented", len(ctx.block_trees))
        signature = main_content_block(ctx.block_trees)
        if signature is None:
            return
        resolved: list[Element] = []
        for page, tree in zip(ctx.pages, ctx.block_trees):
            block = find_block_by_signature(tree, signature)
            resolved.append(block.element if block else page)
        ctx.regions = resolved
        ctx.count("content_blocks_resolved", len(resolved))
