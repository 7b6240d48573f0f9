"""Recognizer protocol and match representation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@dataclass(frozen=True)
class Match:
    """One recognized entity mention inside a text string.

    ``start``/``end`` are character offsets into the scanned text,
    ``value`` is the matched surface form, ``confidence`` is in (0, 1].
    """

    start: int
    end: int
    value: str
    type_name: str
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid match span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Match") -> bool:
        """True if the two spans share at least one character."""
        return self.start < other.end and other.start < self.end


@runtime_checkable
class Recognizer(Protocol):
    """What every recognizer must provide."""

    @property
    def type_name(self) -> str:
        """The entity-type name this recognizer serves."""
        ...

    def find(self, text: str) -> list[Match]:
        """All matches in ``text``, in document order (may overlap).

        Must be a pure function of ``text``: the same text gives the same
        matches for as long as an annotator that used this recognizer is
        in use, because :class:`~repro.annotation.annotator.PageAnnotator`
        scans each distinct text once and reuses the result.  A recognizer
        whose dictionary grows (a gazetteer between enrichment passes)
        must change only while no such annotator is in use.
        """
        ...

    def accepts(self, text: str) -> bool:
        """True if the whole of ``text`` is a valid instance of the type."""
        ...

    def selectivity_weight(self) -> float:
        """Relative selectivity estimate used to order annotation rounds.

        Higher means "rarer / more selective"; the annotator processes
        highly selective types first (paper Algorithm 1 line 3).
        """
        ...


def prune_overlaps(matches: list[Match]) -> list[Match]:
    """Resolve overlapping matches of the *same* type, keeping the best.

    Longer matches win over shorter ones; ties break on confidence then on
    start offset.  Matches of different types are never pruned against each
    other — conflicting annotations are meaningful to the wrapper stage.
    """
    by_type: dict[str, list[Match]] = {}
    for match in matches:
        by_type.setdefault(match.type_name, []).append(match)
    kept: list[Match] = []
    for type_matches in by_type.values():
        ordered = sorted(
            type_matches, key=lambda m: (-m.length, -m.confidence, m.start)
        )
        chosen: list[Match] = []
        for match in ordered:
            if not any(match.overlaps(existing) for existing in chosen):
                chosen.append(match)
        kept.extend(chosen)
    return sorted(kept, key=lambda m: (m.start, m.end, m.type_name))
