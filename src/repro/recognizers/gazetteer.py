"""Dictionary-based (isInstanceOf) recognizers.

A gazetteer maps instance surface forms to confidences.  Matching is done
over word boundaries with a longest-match-first strategy.  A first-token
index (first word of each entry -> entries starting with it, plus the
word's offset inside the entry) is maintained by :meth:`add` and
:meth:`remove`, so :meth:`GazetteerRecognizer.find` never passes over the
dictionary: a scan costs one tokenisation of the text, O(words in the
text), plus one comparison per candidate entry sharing a word's token.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from repro.recognizers.base import Match
from repro.utils.text import collapse_whitespace

#: What counts as a word for the first-token index.
_WORD_RE = re.compile(r"[\w$€£]+")


def _is_word_char(char: str) -> bool:
    return char.isalnum() or char == "_"


class GazetteerRecognizer:
    """A recognizer backed by a dictionary of instances with confidences.

    ``selectivity`` defaults to the paper's intuition for open types: a
    dictionary with few, long, distinctive entries is highly selective; a
    huge one of short strings is not.  It can be overridden.
    """

    def __init__(
        self,
        type_name: str,
        entries: Mapping[str, float] | Iterable[str],
        selectivity: float | None = None,
        case_sensitive: bool = False,
    ):
        if not isinstance(entries, Mapping):
            entries = {entry: 1.0 for entry in entries}
        self._type_name = type_name
        self._case_sensitive = case_sensitive
        self._entries: dict[str, float] = {}
        self._surface: dict[str, str] = {}
        #: First word token -> {entry key: offset of that token in the key}.
        self._first_token_index: dict[str, dict[str, int]] = {}
        for value, confidence in entries.items():
            self.add(value, confidence)
        self._explicit_selectivity = selectivity

    # -- dictionary management -------------------------------------------

    def _key(self, value: str) -> str:
        """The lookup key of ``value``: whitespace-collapsed, and lowered
        unless the gazetteer is case sensitive."""
        surface = collapse_whitespace(value)
        return surface if self._case_sensitive else surface.lower()

    def add(self, value: str, confidence: float = 1.0) -> None:
        """Add (or raise the confidence of) one dictionary entry."""
        key = self._key(value)
        if not key or confidence < self._entries.get(key, 0.0):
            return
        if key not in self._entries:
            first = _WORD_RE.search(key)
            if first is not None:
                bucket = self._first_token_index.setdefault(first.group(0), {})
                bucket[key] = first.start()
        self._entries[key] = confidence
        self._surface[key] = collapse_whitespace(value)

    def remove(self, value: str) -> None:
        """Drop an entry if present."""
        key = self._key(value)
        if self._entries.pop(key, None) is None:
            return
        self._surface.pop(key, None)
        first = _WORD_RE.search(key)
        if first is not None:
            bucket = self._first_token_index[first.group(0)]
            del bucket[key]
            if not bucket:
                del self._first_token_index[first.group(0)]

    def entries(self) -> dict[str, float]:
        """Surface form -> confidence for every entry."""
        return {self._surface[key]: conf for key, conf in self._entries.items()}

    def confidence_of(self, value: str) -> float:
        """Confidence of ``value`` (0.0 if absent)."""
        return self._entries.get(self._key(value), 0.0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, value: str) -> bool:
        return self._key(value) in self._entries

    # -- Recognizer protocol ----------------------------------------------

    @property
    def type_name(self) -> str:
        return self._type_name

    def find(self, text: str) -> list[Match]:
        """All dictionary hits in ``text``, leftmost-longest per word.

        A candidate entry is compared at its own start (the word's offset
        minus the token's offset inside the entry), and must not extend a
        word on either side.  Hits never overlap: a candidate starting
        inside an earlier hit is skipped.
        """
        if not self._entries:
            return []
        haystack = text if self._case_sensitive else text.lower()
        index = self._first_token_index
        matches: list[Match] = []
        taken_until = 0
        for word in _WORD_RE.finditer(haystack):
            candidates = index.get(word.group(0))
            if not candidates:
                continue
            best: tuple[int, int, str] | None = None
            for key, offset in candidates.items():
                start = word.start() - offset
                if start < taken_until:
                    continue
                end = start + len(key)
                if haystack[start:end] != key:
                    continue
                if start > 0 and _is_word_char(haystack[start - 1]):
                    continue
                if end < len(haystack) and _is_word_char(haystack[end]):
                    continue
                if best is None or (start, -end) < (best[0], -best[1]):
                    best = (start, end, key)
            if best is None:
                continue
            start, end, key = best
            taken_until = end
            matches.append(
                Match(
                    start=start,
                    end=end,
                    value=text[start:end],
                    type_name=self._type_name,
                    confidence=self._entries[key],
                )
            )
        return matches

    def accepts(self, text: str) -> bool:
        return text.strip() != "" and (text.strip() in self)

    def selectivity_weight(self) -> float:
        """Eq. 2-style estimate: long distinctive entries are selective."""
        if self._explicit_selectivity is not None:
            return self._explicit_selectivity
        if not self._entries:
            return 0.0
        average_length = sum(len(key) for key in self._entries) / len(self._entries)
        # Long multi-word entries are distinctive; huge dictionaries less so.
        size_penalty = 1.0 + len(self._entries) / 10_000.0
        return average_length / (8.0 * size_penalty)
