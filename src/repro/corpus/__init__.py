"""Web-corpus substrate: Hearst-pattern gazetteer population.

The paper's second way to populate an *isInstanceOf* dictionary is to run
Hearst patterns ("Artist such as X", "X is an Artist", ...) over a large
pre-processed Web text corpus (ClueWeb-scale), scoring candidates with the
Str-ICNorm-Thresh metric (paper Eq. 1).  We rebuild this stack:

- :mod:`repro.corpus.store` — an indexed corpus of sentences with hit
  counting;
- :mod:`repro.corpus.hearst` — the parameterized patterns and matcher;
- :mod:`repro.corpus.scoring` — Eq. 1 confidence scoring;
- :mod:`repro.corpus.generator` — a deterministic synthetic corpus standing
  in for ClueWeb (substitution documented in DESIGN.md).
"""

from repro.corpus.generator import CorpusGenerator, CorpusSpec
from repro.corpus.hearst import HearstMatch, HearstPattern, default_patterns, find_matches
from repro.corpus.scoring import StrICNormThresh
from repro.corpus.store import Corpus

__all__ = [
    "Corpus",
    "CorpusGenerator",
    "CorpusSpec",
    "HearstMatch",
    "HearstPattern",
    "default_patterns",
    "find_matches",
    "StrICNormThresh",
]
