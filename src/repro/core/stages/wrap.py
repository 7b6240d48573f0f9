"""Wrapper generation with automatic parameter variation (Section IV).

Every support value in ``params.support_values`` is tried; the matched
wrapper with the fewest conflicting annotations wins (the paper's
self-validation loop).  Ties on the full preference tuple break toward
the *smaller* support — more records agreed on the template — rather than
silently keeping whichever was attempted first, and every attempted
support is recorded on the result for diagnostics.

One :class:`~repro.wrapper.generate.WrapperSample` per run carries the
support-independent work across the loop.  Once per source: tokenizing the
sample, scanning its annotation types, finding the equivalence classes (at
the smallest support; larger supports filter them), measuring each
candidate record class, and aligning and matching each distinct chosen
record class.  Per support: filtering the classes, selecting the record
class, and one ``generate_wrapper`` call, which returns the wrapper of an
already-seen record class relabelled with the current support.  Every
support that yields a wrapper, built or reused, counts toward
``wrappers_generated``.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineContext, Stage, register_stage
from repro.errors import SourceDiscardedError
from repro.wrapper.generate import (
    Wrapper,
    WrapperConfig,
    WrapperSample,
    annotation_types_on,
    generate_wrapper,
)
from repro.wrapper.tokens import TokenTable, tokenize_element


def wrapper_preference(wrapper: Wrapper) -> tuple[int, int, int]:
    """Ordering key: matched first, then fewer conflicts, then more slots."""
    return (
        1 if wrapper.match.matched else 0,
        -wrapper.conflicts,
        len(wrapper.template.field_slots()),
    )


def prefer_wrapper(best: Wrapper | None, candidate: Wrapper) -> Wrapper:
    """The better of ``best`` and ``candidate`` under the preference key.

    Strictly greater preference wins; on an exactly equal preference tuple
    the smaller support wins deterministically (independent of the order
    supports were attempted in).
    """
    if best is None:
        return candidate
    best_key = wrapper_preference(best)
    candidate_key = wrapper_preference(candidate)
    if candidate_key > best_key:
        return candidate
    if candidate_key == best_key and candidate.support < best.support:
        return candidate
    return best


@register_stage
class WrapperGenerationStage(Stage):
    """Generate the wrapper, varying the support parameter."""

    name = "wrapping"
    timing_field = "wrapping"
    reads = ("params", "source", "sample_regions", "sod", "wrapper")
    writes = ("wrapper", "result", "token_table")

    def enabled(self, ctx: PipelineContext) -> bool:
        """Skip when a wrapper is already in play (registry hit/preset)."""
        return ctx.wrapper is None

    def run(self, ctx: PipelineContext) -> None:
        """Set ``ctx.wrapper`` to the preferred wrapper across supports."""
        params = ctx.params
        # The sample is fixed across the support loop: tokenize it once
        # into one shared role table, and let one WrapperSample carry the
        # support-independent work from one support to the next.
        table = TokenTable()
        token_pages = [
            tokenize_element(region, page_index=index, table=table)
            for index, region in enumerate(ctx.sample_regions)
        ]
        ctx.token_table = table
        sample = WrapperSample(
            token_pages,
            annotation_types_on(ctx.sample_regions),
            min_support=min(params.support_values, default=WrapperConfig.support),
        )
        best: Wrapper | None = None
        last_error: SourceDiscardedError | None = None
        attempted: list[int] = []
        for support in params.support_values:
            attempted.append(support)
            config = WrapperConfig(
                support=support,
                use_annotations=True,
                generalization_threshold=params.generalization_threshold,
                chaos_ratio=params.chaos_ratio,
            )
            try:
                wrapper = generate_wrapper(
                    ctx.source,
                    ctx.sample_regions,
                    ctx.sod,
                    config,
                    sample=sample,
                )
            except SourceDiscardedError as exc:
                last_error = exc
                continue
            ctx.count("wrappers_generated")
            best = prefer_wrapper(best, wrapper)
            if best.match.matched and best.conflicts == 0:
                break
        ctx.result.supports_attempted = attempted
        ctx.count("supports_tried", len(attempted))
        if best is None:
            assert last_error is not None
            raise last_error
        ctx.wrapper = best
        ctx.result.wrapper = best
        ctx.result.support_used = best.support
        ctx.result.conflicts = best.conflicts
        ctx.count("template_slots_built", len(best.template.field_slots()))
