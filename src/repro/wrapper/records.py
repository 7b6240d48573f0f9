"""Record detection: choosing the record-level equivalence class.

On a list page, the tokens that occur once per data record (``<li>``, the
record's ``<div>`` skeleton, ...) share an occurrence vector and form the
*record EQ*; its spans are the record instances.  On a detail page the
record EQ has vector ``<1, 1, ..., 1>`` and its single span per page is
the record.  Among candidate EQs we pick the one whose spans are most
template-like: they should cover much of the region and strongly resemble
each other.

The automatic parameter variation segments the same sample once per
support value.  :class:`SupportSweep` carries the support-independent
part of that work across the supports of one source: the equivalence
classes (computed once, at the smallest support, and filtered for larger
ones) and each candidate class's measured spans and similarity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.wrapper.equivalence import (
    EquivalenceClass,
    find_equivalence_classes,
    record_class_candidates,
)
from repro.wrapper.tokens import PageToken, TokenizedPage


@dataclass
class RecordSegmentation:
    """The chosen record EQ plus per-page record token spans."""

    record_class: EquivalenceClass
    #: per page: list of (start, stop) token index spans.
    spans_per_page: list[list[tuple[int, int]]]
    is_list_source: bool

    def record_sequences(self, pages: list[TokenizedPage]) -> list[list[PageToken]]:
        """All record token subsequences, across all pages, in order."""
        sequences: list[list[PageToken]] = []
        for page, spans in zip(pages, self.spans_per_page):
            for start, stop in spans:
                sequences.append(page.tokens[start:stop])
        return sequences


def _tag_profile(tag_ids: list[int]) -> Counter:
    """Multiset of tag roles in a span (words ignored — they are data).

    ``tag_ids`` is a slice of :meth:`TokenizedPage.tag_role_ids`, where
    words are -1.  Counts interned role ids: by the time spans are
    measured the pages have been through the shared role table, so ids
    are comparable and much cheaper to hash than 4-string role tuples.
    """
    profile = Counter(tag_ids)
    profile.pop(-1, None)
    return profile


def _similarity(a: Counter, b: Counter) -> float:
    """Multiset Jaccard similarity of two tag profiles.

    The intersection sums the smaller count of every role in the smaller
    profile; the union is the two totals minus the intersection.  This
    equals ``sum((a & b).values()) / sum((a | b).values())`` for the
    positive counts a profile holds, without building either multiset.
    """
    if not a and not b:
        return 1.0
    if len(a) > len(b):
        a, b = b, a
    intersection = 0
    for role_id, count in a.items():
        other = b.get(role_id)
        if other:
            intersection += count if count < other else other
    union = sum(a.values()) + sum(b.values()) - intersection
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
    spans_per_page = [eq.spans(page) for page in pages]
    total_tokens = sum(len(page.tokens) for page in pages)
    covered = sum(
        stop - start for spans in spans_per_page for start, stop in spans
    )
    coverage = covered / total_tokens if total_tokens else 0.0

    profiles = [
        _tag_profile(tag_ids[start:stop])
        for tag_ids, spans in zip(
            [page.tag_role_ids() for page in pages], spans_per_page
        )
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


class SupportSweep:
    """Support-independent segmentation state of one source's sample pages.

    Every role of an equivalence class shares one occurrence vector, so the
    support (pages the roles occur on) belongs to the class: the classes at
    a support ``s'`` are exactly the classes at any ``s <= s'`` whose
    ``vector.support`` reaches ``s'``, in the same order (filtering keeps
    both the group order and the stable sort).  :meth:`classes` therefore
    runs :func:`find_equivalence_classes` once, at the smallest support
    asked for, and filters for larger ones.  A candidate's spans, coverage
    and similarity do not depend on the support either, so :meth:`measure`
    memoises them per class.

    The memo is keyed by class identity and keeps every measured class
    alive, so a key is never reused within a sweep.  One sweep serves one
    source: it is not a cross-source cache.
    """

    def __init__(self, pages: list[TokenizedPage], min_support: int) -> None:
        self.pages = pages
        self._min_support = self._effective(min_support)
        self._classes: list[EquivalenceClass] | None = None
        self._stats: dict[int, _CandidateStats] = {}

    def _effective(self, support: int) -> int:
        """``support`` clamped to the sample size, as occurrence vectors do."""
        return min(support, len(self.pages)) if self.pages else support

    def classes(self, support: int) -> list[EquivalenceClass]:
        """The equivalence classes at ``support`` (computed once per sweep).

        A support below the one the classes were computed at recomputes
        them there, so any order of supports gives the classes
        :func:`find_equivalence_classes` would.
        """
        effective = self._effective(support)
        if self._classes is None or effective < self._min_support:
            self._min_support = min(self._min_support, effective)
            self._classes = find_equivalence_classes(
                self.pages, min_support=self._min_support
            )
        if effective == self._min_support:
            return self._classes
        return [eq for eq in self._classes if eq.vector.support >= effective]

    def measure(self, eq: EquivalenceClass) -> _CandidateStats:
        """The measured quality of ``eq`` (once per class)."""
        stats = self._stats.get(id(eq))
        if stats is None:
            stats = _measure_candidate(eq, self.pages)
            self._stats[id(eq)] = stats
        return stats


def segment_records(
    pages: list[TokenizedPage],
    min_support: int = 3,
    min_similarity: float = 0.4,
    min_coverage: float = 0.15,
    record_coverage: float = 0.55,
    sweep: SupportSweep | None = None,
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

    ``sweep`` carries the classes and candidate measurements of ``pages``
    across the calls of a support loop (see :class:`SupportSweep`); without
    one, a fresh sweep does this call's work.  The selection itself is
    re-run per call: it is cheap, and its thresholds may differ.
    """
    if sweep is None:
        sweep = SupportSweep(pages, min_support)
    candidates = record_class_candidates(sweep.classes(min_support))
    if not candidates:
        return None

    acceptable: list[_CandidateStats] = []
    for eq in candidates[:32]:  # candidates are pre-sorted; cap the search
        stats = sweep.measure(eq)
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
