"""Content-hash-keyed memoization of tidied/cleaned pages, as snapshots.

Tidying (tag-soup repair) and cleaning are deterministic functions of the
raw HTML, and enrichment passes and repeated runs ask for the same pages
again.  :class:`PreprocessCache` computes each page's tree once, keyed by
a hash of the raw bytes, and keeps it as a flat
:func:`~repro.htmlkit.dom.freeze` snapshot — one tuple of ``str`` and
``int`` per page, which the garbage collector untracks — rather than as a
live tree.  A miss hands out the tree it just built; a hit thaws a fresh
tree from the snapshot.  The annotation stage mutates trees in place, so
every request gets a tree of its own.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, Snapshot, freeze, thaw
from repro.htmlkit.tidy import tidy


@dataclass
class CachedPages:
    """Outcome of one :meth:`PreprocessCache.clean_pages` call."""

    pages: list[Element]
    hits: int = 0
    misses: int = 0


class PreprocessCache:
    """LRU cache of cleaned page snapshots, keyed by raw-content hash.

    Thread-safe: a single cache may serve a parallel multi-source run.
    The expensive tidy/clean computation happens outside the lock, so
    concurrent misses on *different* pages do not serialize.  Two threads
    racing on the *same* page may both compute it; the loser detects the
    winner's entry under the second lock, keeps the winner's snapshot and
    LRU recency (serving its own, identical tree) and counts the redundant
    computation as a ``race`` instead of a second ``miss`` — so ``misses``
    equals the number of computations that actually populated the cache,
    and ``hits + misses`` accounts for every request served without
    redundant work.
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max(1, max_entries)
        self._entries: OrderedDict[str, Snapshot] = OrderedDict()
        self._lock = threading.Lock()
        #: Lifetime hit/miss totals, for diagnostics.
        self.hits = 0
        self.misses = 0
        #: Same-key compute races lost: the tree was computed redundantly
        #: because another thread inserted the key first.
        self.races = 0

    @staticmethod
    def key_for(raw: str) -> str:
        """Content-hash key of one raw HTML page."""
        return hashlib.sha256(raw.encode("utf-8", "surrogatepass")).hexdigest()

    def clean_page(self, raw: str) -> Element:
        """The tidied+cleaned tree for ``raw``, never shared with another call."""
        tree, __ = self._clean_one(raw)
        return tree

    def clean_pages(self, raw_pages: list[str]) -> CachedPages:
        """Clean many pages at once, reporting per-call hit/miss counts."""
        outcome = CachedPages(pages=[])
        for raw in raw_pages:
            tree, hit = self._clean_one(raw)
            outcome.pages.append(tree)
            if hit:
                outcome.hits += 1
            else:
                outcome.misses += 1
        return outcome

    def _clean_one(self, raw: str) -> tuple[Element, bool]:
        key = self.key_for(raw)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if cached is not None:
            return thaw(cached), True
        tree = clean_tree(tidy(raw))
        snapshot = freeze(tree)
        with self._lock:
            if key in self._entries:
                # Another thread computed and inserted this key while we
                # were computing: keep the winner's entry and LRU recency.
                self.races += 1
            else:
                self.misses += 1
                self._entries[key] = snapshot
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        return tree, False

    def clear(self) -> None:
        """Drop every cached snapshot (hit/miss totals are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Number of pages currently cached."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Lifetime ``hits``/``misses``/``races``/``entries`` snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "races": self.races,
                "entries": len(self._entries),
            }
