"""Content-addressed page entries: cleaned snapshots under a byte budget.

Tidying (tag-soup repair) and cleaning are deterministic functions of the
raw HTML, and enrichment passes, repeated runs and recrawls ask for the
same pages again.  :class:`PreprocessCache` keeps one entry per page,
keyed by a hash of the raw bytes.  The entry is a plain
:data:`PageEntry` tuple: the page as a flat
:func:`~repro.htmlkit.dom.freeze` snapshot (one tuple of ``str`` and
``int``), the entry's size, the page's
:func:`~repro.htmlkit.fingerprint.structural_fingerprint` once a registry
match has asked for it, and the page's extracted rows under the last
wrapper applied to it, keyed by that wrapper's
:func:`~repro.wrapper.serialize.wrapper_digest`.  Every part of an entry
is an atom or a tuple of atoms, so the garbage collector untracks the
whole entry by its second collection, and resident pages add nothing to
the ones after.

:meth:`PreprocessCache.clean_pages` hands out a :class:`LazyPages`
sequence: a miss serves the tree it just built, a hit thaws a fresh tree
from the snapshot the first time a stage indexes it.  A recrawl whose
pages all have a cached fingerprint and cached rows never builds a tree.
The annotation stage mutates trees in place, so every request gets trees
of its own.

The cache is bounded by the bytes its entries hold, not by a number of
entries: pages differ in size, memory does not care how many there are.
The default budget is a share of the memory budget of one service
process; ``docs/PIPELINE.md`` states both.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
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


def _rows_bytes(wrapper_key: str | None, rows: str | None) -> int:
    """Bytes a rows slot holds: its wrapper key and its rows string."""
    if rows is None:
        return 0
    return sys.getsizeof(wrapper_key) + sys.getsizeof(rows)


#: One cached page: ``(snapshot, nbytes, fingerprint, wrapper_key, rows)``.
#: ``nbytes`` is :func:`snapshot_bytes` plus what the rows slot holds.
#: The fingerprint is ``None`` until a registry match first asks for it;
#: ``wrapper_key`` and ``rows`` are ``None`` until an extraction fills
#: them.  Filling a slot replaces the tuple.
PageEntry = tuple[Snapshot, int, str | None, str | None, str | None]


class LazyPages(Sequence[Element]):
    """Page trees that thaw from their snapshots on first index.

    Each position holds either a tree (a miss, or a hit already thawed)
    or the snapshot of a hit.  Indexing a snapshot thaws it once and keeps
    the tree, so every stage of one run sees the same tree for a page.
    """

    __slots__ = ("_items",)

    def __init__(self, items: list[Element | Snapshot]) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        item = self._items[index]
        if type(item) is tuple:
            item = thaw(item)
            self._items[index] = item
        return item


@dataclass
class CachedPages:
    """Outcome of one :meth:`PreprocessCache.clean_pages` call."""

    pages: LazyPages
    #: Content key of each page, in page order (see
    #: :meth:`PreprocessCache.page_fingerprint`).
    keys: list[str] = field(default_factory=list)
    hits: int = 0
    misses: int = 0


class PreprocessCache:
    """LRU cache of cleaned page entries under a byte budget.

    ``budget_bytes`` bounds the summed bytes of the resident entries: each
    snapshot's :func:`snapshot_bytes` plus its rows slot.  Inserting an
    entry or filling its rows evicts least recently used ones until the
    total fits again; a page whose snapshot alone exceeds the budget is
    served but not kept.

    Safe to share across threads, for callers that run sources on
    their own threads over one cache.  The expensive tidy/clean computation happens outside the lock, so
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
        item, __ = self._clean_one(self.key_for(raw), raw)
        return thaw(item) if type(item) is tuple else item

    def clean_pages(self, raw_pages: list[str]) -> CachedPages:
        """Clean many pages at once, reporting keys and hit/miss counts.

        The pages come back as a :class:`LazyPages`: a hit is thawed only
        when a stage first indexes it.
        """
        items: list[Element | Snapshot] = []
        outcome = CachedPages(pages=LazyPages(items))
        for raw in raw_pages:
            key = self.key_for(raw)
            item, hit = self._clean_one(key, raw)
            items.append(item)
            outcome.keys.append(key)
            if hit:
                outcome.hits += 1
            else:
                outcome.misses += 1
        return outcome

    def page_fingerprint(self, key: str, page: Callable[[], Element]) -> str:
        """Structural fingerprint of the page cached under ``key``.

        ``page`` returns an unmutated tree of that page, as
        :meth:`clean_pages` served it; it is called only when the
        fingerprint is not cached.  The fingerprint is computed the first
        time it is asked for while the entry is resident, and read from
        the entry after that.  A page that is not resident is
        fingerprinted every time.  Two threads asking at once may both
        compute it; they store the same value.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry[2] is not None:
            return entry[2]
        fingerprint = structural_fingerprint(page())
        if entry is not None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    # Replacing a present key's value keeps its LRU place.
                    self._entries[key] = (
                        entry[0], entry[1], fingerprint, entry[3], entry[4]
                    )
        return fingerprint

    def page_rows(self, key: str, wrapper_key: str) -> str | None:
        """Rows the page cached under ``key`` gave the wrapper ``wrapper_key``.

        ``None`` unless the entry is resident and its rows slot was filled
        by :meth:`store_rows` under the same wrapper key.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry[3] == wrapper_key:
            return entry[4]
        return None

    def store_rows(self, key: str, wrapper_key: str, rows: str) -> None:
        """Fill the rows slot of the entry under ``key`` (if resident).

        The slot holds one wrapper's rows; filling it for another wrapper
        replaces them.  The rows count against the byte budget, so filling
        evicts least recently used entries until the total fits again.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            nbytes = (
                entry[1]
                - _rows_bytes(entry[3], entry[4])
                + _rows_bytes(wrapper_key, rows)
            )
            # Replacing a present key's value keeps its LRU place.
            self._entries[key] = (entry[0], nbytes, entry[2], wrapper_key, rows)
            self.resident_bytes += nbytes - entry[1]
            self._evict()

    def _evict(self) -> None:
        """Drop least recently used entries until the budget holds (locked)."""
        while self.resident_bytes > self.budget_bytes:
            __, evicted = self._entries.popitem(last=False)
            self.resident_bytes -= evicted[1]

    def _clean_one(self, key: str, raw: str) -> tuple[Element | Snapshot, bool]:
        """A fresh tree (miss) or the resident snapshot (hit) for ``raw``."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if cached is not None:
            return cached[0], True
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
                    self._entries[key] = (snapshot, nbytes, None, None, None)
                    self.resident_bytes += nbytes
                    self._evict()
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
