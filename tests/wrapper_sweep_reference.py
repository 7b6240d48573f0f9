"""Verbatim copy of the wrapper support loop before classes, candidate
measurements and wrappers were shared across supports.

The reference for ``tests/test_wrapper_support_sweep.py``: the wrapping
stage, which now carries one :class:`~repro.wrapper.generate.WrapperSample`
through its support loop, must give exactly what this loop gives, where
every support recomputes the equivalence classes, every candidate
measurement and every wrapper.  The bodies are the original
``WrapperGenerationStage.run``, ``generate_wrapper``, ``segment_records``
and their record-measurement helpers (``_tag_profile``, ``_similarity``,
``_measure_candidate``), plus ``EquivalenceClass.spans`` as the free
function ``linear_spans``.  Only the imports, the concatenation into one
module, the stage method becoming ``run_support_loop(ctx)`` and
``_measure_candidate`` calling ``linear_spans`` differ from the originals.
``lcs_align_dp`` is the original ``_lcs_align`` of
``src/repro/wrapper/alignment.py``, which always ran the DP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.pipeline import PipelineContext
from repro.core.stages.wrap import prefer_wrapper
from repro.errors import SourceDiscardedError
from repro.htmlkit.dom import Element
from repro.sod.types import SodType, required_entity_types
from repro.wrapper.alignment import Shape, TemplateBuilder
from repro.wrapper.equivalence import (
    EquivalenceClass,
    _role_token_positions,
    find_equivalence_classes,
    record_class_candidates,
)
from repro.wrapper.generate import (
    Wrapper,
    WrapperConfig,
    _spans_to_records,
    annotation_types_on,
)
from repro.wrapper.matching import (
    match_sod,
    never_partially_matchable,
    partially_matchable,
)
from repro.wrapper.records import RecordSegmentation
from repro.wrapper.tokens import (
    PageToken,
    TokenizedPage,
    TokenTable,
    tokenize_element,
)

# -- original EquivalenceClass.spans (src/repro/wrapper/equivalence.py) -----


def linear_spans(
    self: EquivalenceClass, page: TokenizedPage
) -> list[tuple[int, int]]:
    """The token spans of this EQ's repetitions on one page.

    Each repetition runs from one occurrence of the first ordered role
    to just before the next one (the last span extends to the last
    occurrence of the final role, inclusive).
    """
    if not self.ordered_roles:
        return []
    first_role = self.ordered_roles[0]
    last_role = self.ordered_roles[-1]
    starts = _role_token_positions(page, first_role)
    if not starts:
        return []
    ends = _role_token_positions(page, last_role)
    spans: list[tuple[int, int]] = []
    for i, start in enumerate(starts):
        next_start = starts[i + 1] if i + 1 < len(starts) else len(page.tokens)
        # Close at the last occurrence of the final role before the
        # next repetition begins.
        closing = [end for end in ends if start <= end < next_start]
        stop = (closing[-1] + 1) if closing else next_start
        spans.append((start, stop))
    return spans


# -- original src/repro/wrapper/records.py ---------------------------------


def _tag_profile(tokens: list[PageToken]) -> Counter:
    """Multiset of tag roles in a span (words ignored — they are data).

    Counts interned role ids: by the time spans are measured the pages
    have been through the shared role table, so ids are comparable and
    much cheaper to hash than 4-string role tuples.
    """
    return Counter(token.role_id for token in tokens if token.is_tag)


def _similarity(a: Counter, b: Counter) -> float:
    """Multiset Jaccard similarity of two tag profiles."""
    if not a and not b:
        return 1.0
    intersection = sum((a & b).values())
    union = sum((a | b).values())
    return intersection / union if union else 0.0


@dataclass
class _CandidateStats:
    """Measured quality of one candidate record EQ."""

    eq: EquivalenceClass
    spans_per_page: list[list[tuple[int, int]]]
    coverage: float
    similarity: float
    depth: int


def _measure_candidate(
    eq: EquivalenceClass, pages: list[TokenizedPage]
) -> _CandidateStats:
    """Coverage, span self-similarity and nesting depth of one candidate."""
    spans_per_page = [linear_spans(eq, page) for page in pages]
    total_tokens = sum(len(page.tokens) for page in pages)
    covered = sum(
        stop - start for spans in spans_per_page for start, stop in spans
    )
    coverage = covered / total_tokens if total_tokens else 0.0

    profiles = [
        _tag_profile(page.tokens[start:stop])
        for page, spans in zip(pages, spans_per_page)
        for start, stop in spans
    ]
    if len(profiles) < 2:
        similarity = 1.0 if profiles else 0.0
    else:
        # Lower-quartile similarity to the reference: true records are all
        # alike, whereas a field sequence mistaken for records (artist p,
        # date p, location p, ...) is bimodal — some spans match the
        # reference, the rest do not.  The 25th percentile exposes that.
        reference = profiles[0]
        similarities = sorted(
            _similarity(reference, profile) for profile in profiles[1:]
        )
        quartile_index = max(0, (len(similarities) + 3) // 4 - 1)
        p25 = similarities[quartile_index]
        mean = sum(similarities) / len(similarities)
        similarity = 0.25 * mean + 0.75 * p25

    first_role = eq.ordered_roles[0] if eq.ordered_roles else ("", "", "", "")
    depth = first_role[2].count("/")
    return _CandidateStats(
        eq=eq,
        spans_per_page=spans_per_page,
        coverage=coverage,
        similarity=similarity,
        depth=depth,
    )


def segment_records(
    pages: list[TokenizedPage],
    min_support: int = 3,
    min_similarity: float = 0.4,
    min_coverage: float = 0.15,
    record_coverage: float = 0.55,
) -> RecordSegmentation | None:
    """Find the record EQ and segment every page into record spans.

    Selection follows the equivalence-class hierarchy: among acceptable
    candidates (similar spans, enough coverage), a *repeating* EQ whose
    spans tile most of the region (``record_coverage``) is preferred, and
    among those the **outermost** (smallest DOM depth) wins — that is the
    data-record level of the class hierarchy.  The coverage requirement
    keeps leaf repetitions (a run of address ``<span>`` fields) from
    masquerading as records on detail pages.  Pages whose records appear
    once per page (detail pages) fall back to the best single-occurrence
    EQ.  Returns ``None`` when nothing qualifies — the signature of an
    unstructured source.
    """
    classes = find_equivalence_classes(pages, min_support=min_support)
    candidates = record_class_candidates(classes)
    if not candidates:
        return None

    acceptable: list[_CandidateStats] = []
    for eq in candidates[:32]:  # candidates are pre-sorted; cap the search
        stats = _measure_candidate(eq, pages)
        if stats.similarity < min_similarity:
            continue
        if stats.coverage < min_coverage:
            continue
        acceptable.append(stats)
    if not acceptable:
        return None

    repeating = [
        stats
        for stats in acceptable
        if stats.eq.vector.counts
        and max(stats.eq.vector.counts) >= 2
        and stats.coverage >= record_coverage
    ]
    if repeating:
        best = min(repeating, key=lambda s: (s.depth, -s.coverage, -s.similarity))
        is_list = True
    else:
        best = max(acceptable, key=lambda s: (s.coverage * s.similarity))
        is_list = best.eq.vector.per_page_mean >= 2.0
    return RecordSegmentation(
        record_class=best.eq,
        spans_per_page=best.spans_per_page,
        is_list_source=is_list,
    )


# -- original src/repro/wrapper/generate.py --------------------------------


def generate_wrapper(
    source: str,
    sample_regions: list[Element],
    sod: SodType,
    config: WrapperConfig | None = None,
    token_pages: list[TokenizedPage] | None = None,
    annotation_types: set[str] | None = None,
) -> Wrapper:
    """Generate a wrapper for one source from its annotated sample regions.

    ``sample_regions`` are the central-content elements of the sample pages
    (already annotated).  Raises :class:`SourceDiscardedError` when the
    source shows no usable template structure, or when the SOD is not even
    partially matchable against the inferred template.

    ``token_pages`` and ``annotation_types`` let the caller reuse one
    tokenization/annotation scan across the support-variation loop (the
    sample never changes between supports); both are recomputed here when
    not given.
    """
    config = config or WrapperConfig()
    if annotation_types is None:
        annotation_types = annotation_types_on(sample_regions)

    # Hoisted early-stop (Section III-E): when no template over these pages
    # can ever partially match the SOD, skip the whole EQ/template
    # construction.  The abstract test is sound — any source it aborts
    # would reach the template-based ``partially_matchable`` check below
    # and discard with the same reason.
    if config.use_annotations:
        required = {entity.name for entity in required_entity_types(sod)}
        if required and never_partially_matchable(sod, annotation_types):
            raise SourceDiscardedError(
                source,
                stage="wrapper",
                reason="no partial SOD matching can be completed on this template",
            )

    if token_pages is None:
        token_pages = [
            tokenize_element(region, page_index=index)
            for index, region in enumerate(sample_regions)
        ]
    segmentation = segment_records(
        token_pages,
        min_support=config.support,
        min_similarity=config.min_record_similarity,
    )
    if segmentation is None:
        raise SourceDiscardedError(
            source, stage="wrapper", reason="no repeating template structure found"
        )
    records, single = _spans_to_records(token_pages, segmentation)
    if not records:
        raise SourceDiscardedError(
            source, stage="wrapper", reason="record segmentation produced no records"
        )

    builder = TemplateBuilder(
        use_annotations=config.use_annotations,
        generalization_threshold=config.generalization_threshold,
        chaos_ratio=config.chaos_ratio,
    )
    template = builder.build(records)

    if config.use_annotations:
        required = {entity.name for entity in required_entity_types(sod)}
        if required and not partially_matchable(
            sod, template, annotation_types, config.generalization_threshold
        ):
            raise SourceDiscardedError(
                source,
                stage="wrapper",
                reason="no partial SOD matching can be completed on this template",
            )

    match = match_sod(sod, template, config.generalization_threshold)
    if config.enforce_match and not match.matched:
        raise SourceDiscardedError(
            source,
            stage="wrapper",
            reason=f"SOD not fully matched; missing {match.missing}",
        )

    first_role = segmentation.record_class.ordered_roles[0]
    __, record_tag, record_path, record_class_attr = first_role
    return Wrapper(
        source=source,
        sod=sod,
        template=template,
        match=match,
        record_tag=record_tag,
        record_path=record_path,
        record_class_attr=record_class_attr,
        record_single_element=single,
        is_list_source=segmentation.is_list_source,
        support=config.support,
        conflicts=template.conflicts,
        annotation_types_seen=annotation_types,
    )


# -- original WrapperGenerationStage.run (src/repro/core/stages/wrap.py) ----


def run_support_loop(ctx: PipelineContext) -> None:
    """Set ``ctx.wrapper`` to the preferred wrapper across supports."""
    params = ctx.params
    # The sample is fixed across the support loop: tokenize it once
    # into one shared role table and scan its annotation types once,
    # instead of redoing both per support value.
    table = TokenTable()
    token_pages = [
        tokenize_element(region, page_index=index, table=table)
        for index, region in enumerate(ctx.sample_regions)
    ]
    ctx.token_table = table
    annotation_types = annotation_types_on(ctx.sample_regions)
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
                token_pages=token_pages,
                annotation_types=annotation_types,
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


# -- original _lcs_align (src/repro/wrapper/alignment.py) -------------------


def lcs_align_dp(
    consensus_shapes: list[Shape], item_shapes: list[Shape]
) -> list[tuple[int | None, int | None]]:
    """Longest-common-subsequence alignment of two shape sequences.

    Returns pairs of (consensus index, item index); ``None`` marks a gap on
    that side.
    """
    n, m = len(consensus_shapes), len(item_shapes)
    # DP table of LCS lengths.
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if consensus_shapes[i] == item_shapes[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    pairs: list[tuple[int | None, int | None]] = []
    i = j = 0
    while i < n and j < m:
        if consensus_shapes[i] == item_shapes[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            pairs.append((i, None))
            i += 1
        else:
            pairs.append((None, j))
            j += 1
    while i < n:
        pairs.append((i, None))
        i += 1
    while j < m:
        pairs.append((None, j))
        j += 1
    return pairs
