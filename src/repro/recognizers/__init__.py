"""Type recognizers: the "domain knowledge" half of ObjectRunner.

Each entity type of an SOD carries a recognizer.  Per the paper there are
three kinds:

1. user-defined regular expressions (:class:`RegexRecognizer`);
2. system-predefined ones for common entities — dates, addresses, prices,
   phone numbers, etc. (:mod:`repro.recognizers.predefined`);
3. open, dictionary-based *isInstanceOf* recognizers
   (:class:`GazetteerRecognizer`), whose dictionaries are built on the fly
   from the ontology and/or the Web corpus
   (:mod:`repro.recognizers.build`).

Recognizers are *never assumed precise nor complete*: every match carries a
confidence, and the downstream algorithm tolerates both misses and false
positives.
"""

from repro.recognizers.base import Match, Recognizer
from repro.recognizers.build import DictionaryBuilder
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.predefined import predefined_recognizer, predefined_names
from repro.recognizers.regexes import RegexRecognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.recognizers.rules import FullNodeRecognizer, ValueFilterRecognizer

__all__ = [
    "Match",
    "Recognizer",
    "RegexRecognizer",
    "GazetteerRecognizer",
    "RecognizerRegistry",
    "DictionaryBuilder",
    "predefined_recognizer",
    "predefined_names",
    "FullNodeRecognizer",
    "ValueFilterRecognizer",
]
