"""Str-ICNorm-Thresh confidence scoring (paper Eq. 1).

For a candidate instance ``i`` of type ``t``::

    score(i, t) = sum_p count(i, t, p) / (max(count(i), count25) * count(t))

where ``count(i, t, p)`` is the number of corpus hits of the pair under
pattern ``p``, ``count(i)`` the hits of the bare instance string,
``count(t)`` the hits of the type name, and ``count25`` the 25th-percentile
instance hit count (the *threshold* part, damping very rare strings).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.corpus.hearst import HearstMatch
from repro.corpus.store import Corpus


def _percentile_25(values: list[int]) -> int:
    """The 25th percentile (nearest-rank) of a list of counts, minimum 1."""
    if not values:
        return 1
    ordered = sorted(values)
    index = max(0, (len(ordered) + 3) // 4 - 1)
    return max(1, ordered[index])


@dataclass
class StrICNormThresh:
    """Computes Eq. 1 scores from Hearst matches over a corpus."""

    corpus: Corpus
    #: pattern-indexed pair hit counts: (instance, type) -> pattern -> count
    _pair_counts: dict[tuple[str, str], Counter] = field(default_factory=dict)

    def ingest(self, matches: list[HearstMatch]) -> None:
        """Accumulate hit counts from pattern matches."""
        for match in matches:
            key = (match.instance, match.type_name)
            if key not in self._pair_counts:
                self._pair_counts[key] = Counter()
            self._pair_counts[key][match.pattern] += 1

    def score(self, instance: str, type_name: str, count25: int) -> float:
        """Eq. 1 score for one (instance, type) pair."""
        pair = self._pair_counts.get((instance, type_name))
        if not pair:
            return 0.0
        pattern_hits = sum(pair.values())
        count_i = self.corpus.count_phrase(instance)
        count_t = max(1, self.corpus.count_phrase(type_name))
        denominator = max(count_i, count25) * count_t
        return pattern_hits / denominator

    def score_all(self, type_name: str) -> dict[str, float]:
        """Scores for every candidate instance of ``type_name``."""
        instances = [
            instance
            for (instance, candidate_type) in self._pair_counts
            if candidate_type == type_name
        ]
        counts = [self.corpus.count_phrase(instance) for instance in instances]
        count25 = _percentile_25(counts)
        return {
            instance: self.score(instance, type_name, count25)
            for instance in instances
        }
