"""Knowledge-base substrate: a YAGO-like ontology, scaled to this repo.

The paper builds *isInstanceOf* recognizers by querying YAGO, looking not
only at direct ``isInstanceOf`` facts but at a *semantic neighborhood* of
the requested class (e.g. ``Metallica isInstanceOf Band`` and ``Band``
is close to ``Artist``).  :class:`repro.kb.ontology.Ontology` stores typed
facts with confidences; :mod:`repro.kb.neighborhood` implements the
neighborhood search over the class graph.
"""

from repro.kb.discovery import discover_classes, expand_instances
from repro.kb.neighborhood import NeighborhoodQuery, semantic_neighborhood
from repro.kb.ontology import Fact, Ontology

__all__ = [
    "Fact",
    "Ontology",
    "NeighborhoodQuery",
    "semantic_neighborhood",
    "discover_classes",
    "expand_instances",
]
