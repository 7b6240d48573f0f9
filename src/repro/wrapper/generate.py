"""Wrapper generation orchestration (paper Algorithm 2 + Section III-E).

``generate_wrapper`` ties the pieces together for one source: tokenize the
sample, find the record equivalence class, align records into the
annotated template, match the SOD, and package everything into a
:class:`Wrapper` that can segment and extract any page of the source.
The early-stop gates raise :class:`~repro.errors.SourceDiscardedError`.

The support-variation loop calls ``generate_wrapper`` once per support
over one sample.  A :class:`WrapperSample` carries what does not depend on
the support across those calls: the token pages, the annotation types,
the equivalence classes and candidate measurements
(:class:`~repro.wrapper.records.SupportSweep`), and the outcome of each
record class already turned into a wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SourceDiscardedError
from repro.htmlkit.dom import Element, Node
from repro.sod.types import SodType, required_entity_types
from repro.wrapper.alignment import TemplateBuilder
from repro.wrapper.matching import (
    MatchResult,
    match_sod,
    never_partially_matchable,
    partially_matchable,
)
from repro.wrapper.records import (
    RecordSegmentation,
    SupportSweep,
    segment_records,
)
from repro.wrapper.template import Template
from repro.wrapper.tokens import KIND_OPEN, PageToken, TokenizedPage, tokenize_element


@dataclass(frozen=True)
class WrapperConfig:
    """Knobs of the wrapper generator.

    ``support`` is the paper's support parameter (tokens must appear in at
    least this many sample pages; varied between 3 and 5 by the automatic
    parameter-variation loop).  ``use_annotations=False`` yields the
    annotation-blind ExAlg-style behaviour used as a baseline ablation.
    """

    support: int = 3
    use_annotations: bool = True
    generalization_threshold: float = 0.7
    chaos_ratio: float = 0.5
    min_record_similarity: float = 0.3
    enforce_match: bool = False


@dataclass
class Wrapper:
    """A generated wrapper: template, SOD mapping and record identity."""

    source: str
    sod: SodType
    template: Template
    match: MatchResult
    record_tag: str
    record_path: str
    record_class_attr: str
    record_single_element: bool
    is_list_source: bool
    support: int
    conflicts: int = 0
    annotation_types_seen: set[str] = field(default_factory=set)

    def segment_page(self, page: Element) -> list[list[Node]]:
        """Split one page into record node lists using the learned identity."""
        # Tag and class are dict/attribute reads; dom_path() walks up to the
        # root, so only elements passing both pay for it.
        occurrences: list[Element] = [
            element
            for element in page.iter_elements()
            if element.tag == self.record_tag
            and element.attributes.get("class", "") == self.record_class_attr
            and element.dom_path() == self.record_path
        ]
        if not occurrences:
            return []
        if self.record_single_element:
            return [[element] for element in occurrences]
        # Sibling-run style: records run from one occurrence to the next
        # within the same parent.
        records: list[list[Node]] = []
        by_parent: dict[int, list[Element]] = {}
        parents: dict[int, Element] = {}
        for element in occurrences:
            parent = element.parent
            if parent is None:
                continue
            by_parent.setdefault(id(parent), []).append(element)
            parents[id(parent)] = parent
        for parent_id, starts in by_parent.items():
            parent = parents[parent_id]
            children = parent.children
            indexes = [children.index(start) for start in starts]
            for ordinal, start_index in enumerate(indexes):
                stop_index = (
                    indexes[ordinal + 1]
                    if ordinal + 1 < len(indexes)
                    else len(children)
                )
                records.append(list(children[start_index:stop_index]))
        return records


def _spans_to_records(
    pages: list[TokenizedPage], segmentation: RecordSegmentation
) -> tuple[list[list[Node]], bool]:
    """Turn token spans into record node lists; detect single-element style.

    A span whose first token's element subtree covers the entire span means
    the record is that one element; otherwise the record is the run of
    top-level sibling nodes inside the span.
    """
    records: list[list[Node]] = []
    single_votes = 0
    total = 0
    for page, spans in zip(pages, segmentation.spans_per_page):
        for start, stop in spans:
            span_tokens = page.tokens[start:stop]
            if not span_tokens:
                continue
            total += 1
            first = span_tokens[0]
            if first.kind == KIND_OPEN and first.element is not None:
                closing_index = _closing_index(span_tokens, first)
                if closing_index == len(span_tokens) - 1:
                    single_votes += 1
                    records.append([first.element])
                    continue
            records.append(_top_level_nodes(span_tokens))
    single = total > 0 and single_votes / total >= 0.8
    if single:
        # Keep only single-element records for a consistent template.
        records = [record for record in records if len(record) == 1]
    return records, single


def _closing_index(span_tokens: list[PageToken], open_token: PageToken) -> int:
    for index in range(len(span_tokens) - 1, -1, -1):
        token = span_tokens[index]
        if token.kind == "close" and token.element is open_token.element:
            return index
    return -1


def _top_level_nodes(span_tokens: list[PageToken]) -> list[Node]:
    """The maximal nodes fully covered by the span, in document order."""
    elements_in_span = {
        id(token.element) for token in span_tokens if token.element is not None
    }
    nodes: list[Node] = []
    seen: set[int] = set()
    for token in span_tokens:
        node: Node | None
        if token.element is not None:
            node = token.element
        else:
            node = token.text_node
        if node is None or id(node) in seen:
            continue
        # Walk up while the parent is also fully inside the span.
        while (
            node.parent is not None
            and id(node.parent) in elements_in_span
        ):
            node = node.parent
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
    # Deduplicate descendants of already-kept nodes.
    kept: list[Node] = []
    kept_ids: set[int] = set()
    for node in nodes:
        ancestor = node.parent
        inside = False
        while ancestor is not None:
            if id(ancestor) in kept_ids:
                inside = True
                break
            ancestor = ancestor.parent
        if not inside:
            kept.append(node)
            kept_ids.add(id(node))
    return kept


def annotation_types_on(pages: list[Element]) -> set[str]:
    """Every entity type annotated anywhere on ``pages`` (shared helper)."""
    types: set[str] = set()
    for page in pages:
        for node in page.iter():
            annotations = getattr(node, "annotations", None)
            if annotations:
                types.update(annotations)
    return types


class WrapperSample:
    """The support-independent induction state of one source's sample.

    Built once per wrap-stage run and passed to every
    :func:`generate_wrapper` call of its support loop.  It holds the token
    pages and annotation types of the sample, the
    :class:`~repro.wrapper.records.SupportSweep` that computes the
    equivalence classes once (at ``min_support``) and measures each
    candidate record class once, and the outcome of every record class
    already turned into a wrapper.

    The wrapper is a function of the chosen record class alone (its spans
    come from the class; :class:`~repro.wrapper.alignment.TemplateBuilder`
    never reads the support), so a later support that picks the same class
    reuses that outcome: the cached wrapper relabelled with the support,
    or the same discard.  A sample serves one source and one SOD; it is
    not a cross-source cache.
    """

    def __init__(
        self,
        token_pages: list[TokenizedPage],
        annotation_types: set[str],
        min_support: int,
    ) -> None:
        self.token_pages = token_pages
        self.annotation_types = annotation_types
        self.sweep = SupportSweep(token_pages, min_support)
        #: (record class id, config without its support) -> the wrapper
        #: built for it, or the (stage, reason) of the discard it raised.
        #: The sweep keeps every measured class alive, so an id is never
        #: reused.
        self.outcomes: dict[
            tuple[int, WrapperConfig], Wrapper | tuple[str, str]
        ] = {}


def generate_wrapper(
    source: str,
    sample_regions: list[Element],
    sod: SodType,
    config: WrapperConfig | None = None,
    sample: WrapperSample | None = None,
) -> Wrapper:
    """Generate a wrapper for one source from its annotated sample regions.

    ``sample_regions`` are the central-content elements of the sample pages
    (already annotated).  Raises :class:`SourceDiscardedError` when the
    source shows no usable template structure, or when the SOD is not even
    partially matchable against the inferred template.

    ``sample`` carries the support-independent work across the
    support-variation loop (see :class:`WrapperSample`): each call then
    only filters the classes for its support and reruns the record-class
    selection.  Template alignment and SOD matching run once per distinct
    record class; a support that lands on a class seen before gets that
    wrapper with its own ``support``, or the same discard.  Without a
    sample, this call tokenizes ``sample_regions`` and does all the work.
    """
    config = config or WrapperConfig()
    if sample is None:
        sample = WrapperSample(
            [
                tokenize_element(region, page_index=index)
                for index, region in enumerate(sample_regions)
            ],
            annotation_types_on(sample_regions),
            min_support=config.support,
        )

    # Hoisted early-stop (Section III-E): when no template over these pages
    # can ever partially match the SOD, skip the whole EQ/template
    # construction.  The abstract test is sound — any source it aborts
    # would reach the template-based ``partially_matchable`` check below
    # and discard with the same reason.
    if config.use_annotations:
        required = {entity.name for entity in required_entity_types(sod)}
        if required and never_partially_matchable(sod, sample.annotation_types):
            raise SourceDiscardedError(
                source,
                stage="wrapper",
                reason="no partial SOD matching can be completed on this template",
            )

    segmentation = segment_records(
        sample.token_pages,
        min_support=config.support,
        min_similarity=config.min_record_similarity,
        sweep=sample.sweep,
    )
    if segmentation is None:
        raise SourceDiscardedError(
            source, stage="wrapper", reason="no repeating template structure found"
        )
    key = (id(segmentation.record_class), replace(config, support=0))
    outcome = sample.outcomes.get(key)
    if outcome is None:
        try:
            outcome = _wrapper_for(source, sod, config, sample, segmentation)
        except SourceDiscardedError as exc:
            sample.outcomes[key] = (exc.stage, exc.reason)
            raise
        sample.outcomes[key] = outcome
        return outcome
    if isinstance(outcome, Wrapper):
        return replace(outcome, support=config.support)
    stage, reason = outcome
    raise SourceDiscardedError(source, stage=stage, reason=reason)


def _wrapper_for(
    source: str,
    sod: SodType,
    config: WrapperConfig,
    sample: WrapperSample,
    segmentation: RecordSegmentation,
) -> Wrapper:
    """Align the segmented records into a template and match the SOD."""
    records, single = _spans_to_records(sample.token_pages, segmentation)
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
            sod, template, sample.annotation_types, config.generalization_threshold
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
        annotation_types_seen=sample.annotation_types,
    )
