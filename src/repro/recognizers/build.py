"""On-the-fly gazetteer construction for isInstanceOf types.

When an SOD declares an entity type by class name only (say ``Artist``),
ObjectRunner builds its dictionary automatically from two complementary
sources (paper Section III-A):

1. the ontology, via semantic-neighborhood lookup (YAGO confidences kept);
2. the Web corpus, via Hearst patterns scored with Str-ICNorm-Thresh.

Both channels can be enabled at once; confidences merge by max.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.hearst import HearstPattern, find_matches
from repro.corpus.scoring import StrICNormThresh
from repro.corpus.store import Corpus
from repro.kb.neighborhood import NeighborhoodQuery, semantic_neighborhood
from repro.kb.ontology import Ontology
from repro.recognizers.gazetteer import GazetteerRecognizer


@dataclass
class DictionaryBuilder:
    """Builds gazetteers for class names from an ontology and/or corpus.

    ``min_corpus_score`` filters Hearst candidates whose Eq. 1 score is too
    low (noise damping); ``neighborhood_radius`` bounds the class-graph
    walk.  Corpus scores are rescaled so the best candidate gets
    ``corpus_confidence_cap``, keeping them comparable to ontology
    confidences.
    """

    ontology: Ontology | None = None
    corpus: Corpus | None = None
    patterns: list[HearstPattern] | None = None
    neighborhood_radius: int = 2
    min_corpus_score: float = 0.0
    corpus_confidence_cap: float = 0.9

    def instances_from_ontology(self, class_name: str) -> dict[str, float]:
        """Neighborhood instances with decayed YAGO-style confidences."""
        if self.ontology is None:
            return {}
        query = NeighborhoodQuery(
            class_name=class_name, radius=self.neighborhood_radius
        )
        return semantic_neighborhood(self.ontology, query).instances

    def instances_from_corpus(self, class_name: str) -> dict[str, float]:
        """Hearst-pattern candidates scored with Eq. 1, rescaled to (0, cap]."""
        if self.corpus is None:
            return {}
        matches = find_matches(self.corpus, class_name, self.patterns)
        if not matches:
            return {}
        scorer = StrICNormThresh(self.corpus)
        scorer.ingest(matches)
        raw = scorer.score_all(class_name)
        raw = {
            instance: score
            for instance, score in raw.items()
            if score > self.min_corpus_score
        }
        if not raw:
            return {}
        top = max(raw.values())
        return {
            instance: self.corpus_confidence_cap * score / top
            for instance, score in raw.items()
        }

    def build(self, class_name: str, type_name: str | None = None) -> GazetteerRecognizer:
        """Build the gazetteer recognizer for ``class_name``.

        ``type_name`` sets the label emitted in matches (defaults to the
        class name).  Instances found by both channels keep the higher
        confidence.
        """
        entries = self.instances_from_ontology(class_name)
        for instance, confidence in self.instances_from_corpus(class_name).items():
            if confidence > entries.get(instance, 0.0):
                entries[instance] = confidence
        return GazetteerRecognizer(type_name or class_name, entries)
