"""Content-addressed page entries: cleaned snapshots under a byte budget.

Tidying (tag-soup repair) and cleaning are deterministic functions of the
raw HTML, and enrichment passes, repeated runs and recrawls ask for the
same pages again.  :class:`PreprocessCache` keeps one entry per page,
keyed by a hash of the raw bytes.  The entry is a plain
:data:`PageEntry` tuple: the page as a flat
:func:`~repro.htmlkit.dom.freeze` snapshot (one tuple of ``str`` and
``int``), the snapshot's size and, once a registry match has asked for
it, the page's :func:`~repro.htmlkit.fingerprint.structural_fingerprint`.
Every part of an entry is an atom or a tuple of atoms, so the garbage
collector untracks the whole entry by its second collection, and
resident pages add nothing to the ones after.  A miss hands
out the tree it just built; a hit thaws a fresh tree from the snapshot.
The annotation stage mutates trees in place, so every request gets a tree
of its own.

The cache is bounded by the bytes its snapshots hold, not by a number of
entries: pages differ in size, memory does not care how many there are.
The default budget is a share of the memory budget of one service
process; ``docs/PIPELINE.md`` states both.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, Snapshot, freeze, thaw
from repro.htmlkit.fingerprint import structural_fingerprint
from repro.htmlkit.tidy import tidy

#: Resident memory one extraction-service process is budgeted.
SERVICE_PROCESS_BYTES = 512 * 1024 * 1024

#: The preprocessing cache's share of :data:`SERVICE_PROCESS_BYTES`:
#: one eighth, 64 MiB.
DEFAULT_BUDGET_BYTES = SERVICE_PROCESS_BYTES // 8


def snapshot_bytes(snapshot: Snapshot) -> int:
    """Bytes a snapshot holds: its tuple plus every string it references.

    The integers in a snapshot are small and interned by the interpreter,
    so they cost nothing beyond their tuple slot.  A string referenced
    twice is counted twice, so the figure errs high.
    """
    getsizeof = sys.getsizeof
    return getsizeof(snapshot) + sum(
        [getsizeof(record) for record in snapshot if type(record) is str]
    )


#: One cached page: ``(snapshot, snapshot_bytes(snapshot), fingerprint)``.
#: The fingerprint is ``None`` until a registry match first asks for it;
#: filling it replaces the tuple.
PageEntry = tuple[Snapshot, int, str | None]


@dataclass
class CachedPages:
    """Outcome of one :meth:`PreprocessCache.clean_pages` call."""

    pages: list[Element]
    #: Content key of each page, in page order (see
    #: :meth:`PreprocessCache.page_fingerprint`).
    keys: list[str] = field(default_factory=list)
    hits: int = 0
    misses: int = 0


class PreprocessCache:
    """LRU cache of cleaned page entries under a byte budget.

    ``budget_bytes`` bounds the summed :func:`snapshot_bytes` of the
    resident entries.  Inserting an entry evicts least recently used ones
    until the total fits again; a page whose snapshot alone exceeds the
    budget is served but not kept.

    Thread-safe: a single cache may serve a parallel multi-source run.
    The expensive tidy/clean computation happens outside the lock, so
    concurrent misses on *different* pages do not serialize.  Two threads
    racing on the *same* page may both compute it; the loser detects the
    winner's entry under the second lock, keeps the winner's entry and
    LRU recency (serving its own, identical tree) and counts the redundant
    computation as a ``race`` instead of a second ``miss`` — so ``misses``
    equals the number of computations that actually populated the cache,
    and ``hits + misses`` accounts for every request served without
    redundant work.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[str, PageEntry] = OrderedDict()
        #: Summed ``nbytes`` of the resident entries.
        self.resident_bytes = 0
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
        tree, __ = self._clean_one(self.key_for(raw), raw)
        return tree

    def clean_pages(self, raw_pages: list[str]) -> CachedPages:
        """Clean many pages at once, reporting keys and hit/miss counts."""
        outcome = CachedPages(pages=[])
        for raw in raw_pages:
            key = self.key_for(raw)
            tree, hit = self._clean_one(key, raw)
            outcome.pages.append(tree)
            outcome.keys.append(key)
            if hit:
                outcome.hits += 1
            else:
                outcome.misses += 1
        return outcome

    def page_fingerprint(self, key: str, page: Element) -> str:
        """Structural fingerprint of the page cached under ``key``.

        ``page`` must be an unmutated tree of that page, as
        :meth:`clean_pages` served it.  The fingerprint is computed from
        it the first time it is asked for while the entry is resident,
        and read from the entry after that.  A page that is not resident
        is fingerprinted every time.  Two threads asking at once may both
        compute it; they store the same value.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry[2] is not None:
            return entry[2]
        fingerprint = structural_fingerprint(page)
        if entry is not None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    # Replacing a present key's value keeps its LRU place.
                    self._entries[key] = (entry[0], entry[1], fingerprint)
        return fingerprint

    def _clean_one(self, key: str, raw: str) -> tuple[Element, bool]:
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if cached is not None:
            return thaw(cached[0]), True
        tree = clean_tree(tidy(raw))
        snapshot = freeze(tree)
        nbytes = snapshot_bytes(snapshot)
        with self._lock:
            if key in self._entries:
                # Another thread computed and inserted this key while we
                # were computing: keep the winner's entry and LRU recency.
                self.races += 1
            else:
                self.misses += 1
                if nbytes <= self.budget_bytes:
                    self._entries[key] = (snapshot, nbytes, None)
                    self.resident_bytes += nbytes
                    while self.resident_bytes > self.budget_bytes:
                        __, evicted = self._entries.popitem(last=False)
                        self.resident_bytes -= evicted[1]
        return tree, False

    def clear(self) -> None:
        """Drop every cached entry (hit/miss totals are kept)."""
        with self._lock:
            self._entries.clear()
            self.resident_bytes = 0

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
