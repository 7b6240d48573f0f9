"""Extraction: apply the learned wrapper to every page of the source.

Each page is segmented with the learned record identity, records align
against the template, and slot values assemble into instance trees shaped
like the SOD.  The stage reads ``ctx.wrapper``, which is set either by the
wrapper-generation stage upstream or directly by the wrap-once /
extract-often entry point (:meth:`repro.core.objectrunner.ObjectRunner.
extract_with`).

Extraction is a pure function of the page and the wrapper, so pages that
came through the preprocessing cache keep their rows in their cache entry,
keyed by :func:`~repro.wrapper.serialize.wrapper_digest`.  A recrawl
extracts only the pages whose entry holds no rows for the wrapper in play.
"""

from __future__ import annotations

import json

from repro.core.pipeline import PipelineContext, Stage, register_stage
from repro.core.stages.preprocess import PAGE_KEYS_KEY
from repro.sod.instances import ObjectInstance
from repro.wrapper.extraction import extract_objects
from repro.wrapper.serialize import wrapper_digest


@register_stage
class ExtractionStage(Stage):
    """Extract object instances from all pages with the wrapper.

    When the pages came through the context's cache, a page whose entry
    holds rows for this wrapper reuses them (its tree is never indexed,
    so a cache hit is never thawed); the other pages go through one
    :func:`extract_objects` call and their rows fill their entries.  The
    ``pages_reused`` and ``pages_extracted`` counters say which was which.
    Prepared pages, which bypass the cache, are always extracted.
    """

    name = "extraction"
    timing_field = "extraction"
    reads = ("wrapper", "pages", "source", "cache")
    writes = ("result",)

    def run(self, ctx: PipelineContext) -> None:
        """Fill ``ctx.result.objects`` from ``ctx.pages``."""
        assert ctx.wrapper is not None, "extraction requires a wrapper"
        keys = ctx.artifacts.get(PAGE_KEYS_KEY)
        if keys is None:
            ctx.result.objects = extract_objects(
                ctx.wrapper, ctx.pages, source=ctx.source
            )
        else:
            ctx.result.objects = self._extract_cached(ctx, keys)
        ctx.count("objects_extracted", len(ctx.result.objects))

    @staticmethod
    def _extract_cached(
        ctx: PipelineContext, keys: list[str]
    ) -> list[ObjectInstance]:
        """Reuse cached rows where present, extract and cache the rest."""
        cache = ctx.cache
        wrapper_key = wrapper_digest(ctx.wrapper)
        per_page: list[list[ObjectInstance]] = []
        missing: list[int] = []
        for page_index, key in enumerate(keys):
            rows = cache.page_rows(key, wrapper_key)
            if rows is None:
                missing.append(page_index)
                per_page.append([])
                continue
            per_page.append(
                [
                    ObjectInstance(
                        values=values, source=ctx.source, page_index=page_index
                    )
                    for values in json.loads(rows)
                ]
            )
        if missing:
            pages = ctx.pages
            extracted = extract_objects(
                ctx.wrapper,
                [pages[page_index] for page_index in missing],
                source=ctx.source,
            )
            for instance in extracted:
                instance.page_index = missing[instance.page_index]
                per_page[instance.page_index].append(instance)
            for page_index in missing:
                rows = json.dumps(
                    [instance.values for instance in per_page[page_index]],
                    separators=(",", ":"),
                )
                cache.store_rows(keys[page_index], wrapper_key, rows)
        ctx.count("pages_reused", len(keys) - len(missing))
        ctx.count("pages_extracted", len(missing))
        return [instance for objects in per_page for instance in objects]
