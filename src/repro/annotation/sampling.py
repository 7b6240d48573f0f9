"""Page-sample selection — paper Algorithm 1 plus the alpha gate.

Given a source (a list of pages) and the SOD's recognizers, annotate the
pages greedily in decreasing type-selectivity order, narrowing after each
round to the best-scoring pages, and return the top-k annotated pages as
the wrapper-training sample.  The block-level annotation-rate gate
(threshold ``alpha``) can discard the source outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotation.annotator import AnnotatedPage, PageAnnotator
from repro.annotation.selectivity import (
    TermFrequency,
    min_page_score,
    page_score,
    type_selectivity,
)
from repro.errors import SourceDiscardedError
from repro.htmlkit.dom import Element
from repro.recognizers.base import Recognizer
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.vision.segmentation import BlockTree


@dataclass(frozen=True)
class SampleSelectionConfig:
    """Parameters of Algorithm 1.

    ``sample_size`` is the paper's k (~20 pages).  ``narrowing_factor``
    controls how aggressively the candidate set shrinks per annotation
    round (the paper strives "to minimize the number of pages to be
    annotated at the next round").  ``alpha`` is the per-block annotation
    rate threshold (50% in the paper's experiments); ``enforce_alpha``
    turns the gate off for ablations.
    """

    sample_size: int = 20
    narrowing_factor: float = 0.6
    min_candidates: int = 25
    alpha: float = 0.5
    enforce_alpha: bool = True


@dataclass
class AnnotationRun:
    """Everything the annotation stage produced for one source."""

    source: str
    sample: list[AnnotatedPage]
    all_pages: list[AnnotatedPage]
    type_order: list[str]
    discarded: bool = False
    discard_reason: str = ""
    block_rates: dict[str, float] = field(default_factory=dict)


def _order_types(
    recognizers: list[Recognizer], term_frequency: TermFrequency | None
) -> list[Recognizer]:
    """isInstanceOf types first (by Eq. 2), then predefined/regex types.

    The paper processes the open dictionary types first ("once the top
    annotated pages are selected over all isInstanceOf types, the
    predefined and regular expression types are processed"), each group in
    decreasing selectivity order.
    """
    gazetteers = [r for r in recognizers if isinstance(r, GazetteerRecognizer)]
    others = [r for r in recognizers if not isinstance(r, GazetteerRecognizer)]
    gazetteers.sort(key=lambda r: -type_selectivity(r, term_frequency))
    others.sort(key=lambda r: -type_selectivity(r, term_frequency))
    return gazetteers + others


def _block_annotation_rate(
    pages: list[AnnotatedPage], block_signature_of: dict[int, str]
) -> dict[str, float]:
    """Average per-page annotation count per block signature.

    The paper checks, per visual block, ``sum_k (annotations in block) / k``
    against ``alpha``: blocks must be annotated on average on at least
    ``alpha`` ... we interpret the condition as "mean annotated-node count
    per page in the block reaches alpha", which matches the formula given.
    """
    totals: dict[str, float] = {}
    for page in pages:
        per_block: dict[str, int] = {}
        for node in page.root.iter_elements():
            if not node.annotations:
                continue
            signature = block_signature_of.get(id(node))
            if signature is None:
                continue
            per_block[signature] = per_block.get(signature, 0) + 1
        for signature, count in per_block.items():
            totals[signature] = totals.get(signature, 0.0) + count
    if not pages:
        return {}
    return {signature: total / len(pages) for signature, total in totals.items()}


def _enclosing_block_signatures(
    pages: list[AnnotatedPage], block_trees: list[BlockTree] | None
) -> dict[int, str]:
    """Map node id -> signature of the innermost block containing it."""
    mapping: dict[int, str] = {}
    if block_trees is None:
        # No segmentation available: treat each page body as one block.
        for page in pages:
            body = page.root.find("body") or page.root
            for node in body.iter_elements():
                mapping[id(node)] = "page-body"
        return mapping
    for tree in block_trees:
        # One DFS per tree, carrying the innermost enclosing block's
        # signature down; block elements nest as their blocks do.
        signature_at = {
            id(block.element): block.signature for block in tree.all_blocks()
        }
        root = tree.root.element
        stack = [(root, signature_at[id(root)])]
        while stack:
            element, signature = stack.pop()
            signature = signature_at.get(id(element), signature)
            mapping[id(element)] = signature
            for child in element.children:
                if isinstance(child, Element):
                    stack.append((child, signature))
    return mapping


def select_sample(
    source: str,
    pages: list[Element],
    recognizers: list[Recognizer],
    config: SampleSelectionConfig | None = None,
    term_frequency: TermFrequency | None = None,
    block_trees: list[BlockTree] | None = None,
) -> AnnotationRun:
    """Run Algorithm 1 over one source.

    Raises :class:`~repro.errors.SourceDiscardedError` when the alpha gate
    fires (no visual block reaches the annotation-rate threshold for the
    processed types).
    """
    config = config or SampleSelectionConfig()
    annotator = PageAnnotator()
    annotated = [AnnotatedPage(root=page, index=i) for i, page in enumerate(pages)]
    ordered = _order_types(recognizers, term_frequency)
    type_order = [recognizer.type_name for recognizer in ordered]

    candidates = list(annotated)
    processed: list[str] = []
    signature_of = _enclosing_block_signatures(annotated, block_trees)
    block_rates: dict[str, float] = {}

    for round_index, recognizer in enumerate(ordered):
        for page in candidates:
            matches = annotator.annotate(page, recognizer)
            page.scores[recognizer.type_name] = page_score(matches, term_frequency)
        processed.append(recognizer.type_name)

        # Alpha gate: at least one visual block must hold annotations at a
        # satisfactory rate across the candidate pages.  Dictionaries are
        # incomplete (the paper assumes ~20% coverage), so intermediate
        # rounds only need a weak signal; the full threshold applies once
        # every type has been processed.
        block_rates = _block_annotation_rate(candidates, signature_of)
        if config.enforce_alpha:
            final_round = round_index == len(ordered) - 1
            threshold = config.alpha if final_round else config.alpha * 0.2
            if not block_rates or max(block_rates.values()) < threshold:
                raise SourceDiscardedError(
                    source,
                    stage="annotation",
                    reason=(
                        f"no block reaches annotation rate alpha={config.alpha} "
                        f"after type {recognizer.type_name!r}"
                    ),
                )

        # Narrow to the richest pages before the next (cheaper rounds on
        # fewer pages), keeping at least min_candidates and never fewer
        # than the sample size.
        keep = max(
            config.sample_size,
            min(
                len(candidates),
                max(config.min_candidates, int(len(candidates) * config.narrowing_factor)),
            ),
        )
        candidates.sort(
            key=lambda page: -min_page_score(page.scores, processed)
        )
        candidates = candidates[:keep]

    candidates.sort(key=lambda page: (-page.annotation_count(), page.index))
    sample = candidates[: config.sample_size]
    return AnnotationRun(
        source=source,
        sample=sample,
        all_pages=annotated,
        type_order=type_order,
        block_rates=block_rates,
    )
