"""Content-addressed wrapper registry: the wrap-once / extract-often store.

A wrapper is keyed by its *template signature* — the canonical SOD text
plus the structural fingerprint of the tidied pages
(:mod:`repro.htmlkit.fingerprint`) — so any page rendered by a template
the registry has seen resolves to the stored wrapper without paying
induction again.

Layout on disk::

    <root>/index.json               # signature -> {kind, sod, fingerprint, source}
    <root>/wrappers/<signature>.json  # schema-versioned entry + wrapper/discard

Both files are JSON with sorted keys and are written atomically
(temp file + ``os.replace``), so a crashed writer never leaves a torn
file and two registries holding the same entries are byte-identical.
The store is thread-safe; batch runs additionally go through
:class:`StagedRegistryView` so parallel ``run_sources`` snapshots are
byte-identical to serial ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import RegistryError
from repro.sod.canonical import canonicalize
from repro.sod.dsl import format_sod
from repro.sod.types import SodType
from repro.wrapper.generate import Wrapper
from repro.wrapper.serialize import wrapper_from_dict, wrapper_to_dict

#: Version of the on-disk entry/index layout; bumped on breaking change.
#: The entry and index shapes are the ``registry_entry``/
#: ``registry_index`` artifact families of :mod:`repro.analysis.schemas`;
#: reprolint S502 demands a bump here when either shape changes.
#: v2: entries carry a ``kind`` ("wrapper" or "discard") and discard
#: tombstones (nullable ``wrapper``, ``discard`` stage/reason block), so
#: a source whose induction ended in a principled discard is *remembered*
#: instead of re-paying the doomed induction on every warm run.
REGISTRY_SCHEMA_VERSION = 2

#: ``RegistryEntry.kind`` values.
KIND_WRAPPER = "wrapper"
KIND_DISCARD = "discard"

#: Conflict precedence of entry kinds: a real wrapper always beats a
#: discard tombstone for the same signature.
_KIND_RANK = {KIND_WRAPPER: 0, KIND_DISCARD: 1}


def _entry_precedence(kind: str, source: str) -> tuple[int, str]:
    """Canonical order of conflicting entries for one signature.

    When two sources produce entries under the same key (replica sources
    sharing a template structure, or a concurrent race), the *minimum* of
    this tuple wins: wrappers before discard tombstones, then the smaller
    source id.  A minimum is associative and order-independent, so a
    registry built by applying staged writes in catalog order, by any
    thread interleaving, or by merging shard registries in any part order
    converges on the same bytes.
    """
    return (_KIND_RANK.get(kind, len(_KIND_RANK)), source)


@dataclass(frozen=True)
class StoredDiscard:
    """A remembered discard: this (SOD, template) can never be wrapped.

    Returned by :meth:`WrapperRegistry.lookup` in place of a wrapper when
    the stored entry is a tombstone; the registry-match stage replays the
    recorded discard so a warm run reports byte-identically to the cold
    run that created it.
    """

    source: str
    stage: str
    reason: str


def signature_for(sod: SodType, fingerprint: str) -> str:
    """The registry key: canonical SOD text + structural fingerprint.

    Two requests for the same domain (same canonical SOD) over pages of
    the same template resolve to the same signature regardless of SOD
    spelling (nesting sugar, whitespace) or page content.
    """
    canonical = format_sod(canonicalize(sod))
    text = f"{REGISTRY_SCHEMA_VERSION}\n{canonical}\n{fingerprint}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_for(
    sod: SodType, fingerprint: str, stored: "Wrapper | StoredDiscard"
) -> "RegistryEntry":
    """The registry entry a store of ``stored`` under this key produces.

    Shared by the live ``put``/``put_discard`` paths and the staged-view
    export, so an entry serialized in a worker process is byte-identical
    to the one a serial run would have written.
    """
    signature = signature_for(sod, fingerprint)
    canonical = format_sod(canonicalize(sod))
    if isinstance(stored, StoredDiscard):
        return RegistryEntry(
            signature=signature,
            sod=canonical,
            fingerprint=fingerprint,
            source=stored.source,
            wrapper=None,
            kind=KIND_DISCARD,
            discard={"stage": stored.stage, "reason": stored.reason},
        )
    return RegistryEntry(
        signature=signature,
        sod=canonical,
        fingerprint=fingerprint,
        source=stored.source,
        wrapper=wrapper_to_dict(stored),
    )


def write_json_atomic(path: Path, document: dict[str, Any]) -> None:
    """Write ``document`` as canonical JSON via a same-directory temp file.

    Sorted keys and a trailing newline make the bytes a pure function of
    the document; ``os.replace`` makes the update all-or-nothing.
    """
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@dataclass
class RegistryEntry:
    """One stored wrapper — or discard tombstone — with its keying identity."""

    signature: str
    sod: str
    fingerprint: str
    source: str
    #: Serialized wrapper for ``kind == "wrapper"`` entries, else ``None``.
    wrapper: dict[str, Any] | None
    kind: str = KIND_WRAPPER
    #: ``{"stage": ..., "reason": ...}`` for ``kind == "discard"``.
    discard: dict[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        """The schema-versioned on-disk form of this entry."""
        return {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "signature": self.signature,
            "kind": self.kind,
            "sod": self.sod,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "wrapper": self.wrapper,
            "discard": self.discard,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "entry") -> "RegistryEntry":
        """Validate and rebuild an entry; raises :class:`RegistryError`."""
        if not isinstance(data, dict):
            raise RegistryError(f"{where}: expected a JSON object")
        version = data.get("schema_version")
        if version != REGISTRY_SCHEMA_VERSION:
            raise RegistryError(
                f"{where}: unsupported registry schema version {version!r} "
                f"(expected {REGISTRY_SCHEMA_VERSION})"
            )
        kind = data.get("kind", KIND_WRAPPER)
        if kind not in (KIND_WRAPPER, KIND_DISCARD):
            raise RegistryError(f"{where}: unknown entry kind {kind!r}")
        try:
            entry = cls(
                signature=data["signature"],
                sod=data["sod"],
                fingerprint=data["fingerprint"],
                source=data["source"],
                wrapper=data["wrapper"],
                kind=kind,
                discard=data.get("discard"),
            )
        except KeyError as exc:
            raise RegistryError(f"{where}: missing field {exc}") from exc
        if entry.kind == KIND_WRAPPER and entry.wrapper is None:
            raise RegistryError(f"{where}: wrapper entry has no wrapper")
        if entry.kind == KIND_DISCARD and not isinstance(entry.discard, dict):
            raise RegistryError(f"{where}: discard entry has no discard block")
        return entry

    def stored_discard(self) -> StoredDiscard:
        """The tombstone payload of a ``kind == "discard"`` entry."""
        assert self.discard is not None
        return StoredDiscard(
            source=self.source,
            stage=str(self.discard.get("stage", "")),
            reason=str(self.discard.get("reason", "")),
        )


class WrapperRegistry:
    """Thread-safe content-addressed store of induced wrappers.

    Lookup/put/demote mirror the pipeline's ``match -> (induce on miss)
    -> extract -> check`` path; lifetime counters (hits, misses, stores,
    races, demotions) feed the metrics registry and BENCH artifacts.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._wrappers_dir = self.root / "wrappers"
        self._wrappers_dir.mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._stats = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "races": 0,
            "demotions": 0,
        }
        self._index: dict[str, dict[str, str]] = self._load_index()

    # -- persistence -------------------------------------------------------

    @property
    def index_path(self) -> Path:
        """Path of the deterministic-ordered index file."""
        return self.root / "index.json"

    def entry_path(self, signature: str) -> Path:
        """Path of the entry file holding ``signature``'s wrapper."""
        return self._wrappers_dir / f"{signature}.json"

    def _load_index(self) -> dict[str, dict[str, str]]:
        if not self.index_path.exists():
            return {}
        try:
            data = json.loads(self.index_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise RegistryError(f"{self.index_path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise RegistryError(f"{self.index_path}: expected a JSON object")
        version = data.get("schema_version")
        if version != REGISTRY_SCHEMA_VERSION:
            raise RegistryError(
                f"{self.index_path}: unsupported registry schema version "
                f"{version!r} (expected {REGISTRY_SCHEMA_VERSION})"
            )
        entries = data.get("entries")
        if not isinstance(entries, dict):
            raise RegistryError(f"{self.index_path}: missing 'entries' object")
        return {sig: dict(row) for sig, row in sorted(entries.items())}

    def _write_index(self) -> None:
        document = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "entries": {sig: self._index[sig] for sig in sorted(self._index)},
        }
        write_json_atomic(self.index_path, document)

    # -- core operations ---------------------------------------------------

    def lookup(
        self, sod: SodType, fingerprint: str
    ) -> Wrapper | StoredDiscard | None:
        """The stored wrapper or discard for this (SOD, template), or None.

        Counts a hit or a miss (a tombstone is a hit — the registry
        resolved the source); a present-but-unreadable entry raises
        :class:`RegistryError` rather than silently inducing again.
        """
        signature = signature_for(sod, fingerprint)
        with self._lock:
            present = signature in self._index
            self._count("hits" if present else "misses")
        if not present:
            return None
        return self.get(signature)

    def get(self, signature: str) -> Wrapper | StoredDiscard | None:
        """Load what ``signature`` stores (``None`` if absent)."""
        path = self.entry_path(signature)
        if not path.exists():
            return None
        entry = self._read_entry(path)
        if entry.signature != signature:
            raise RegistryError(
                f"{path}: entry signature {entry.signature!r} does not match "
                f"its address {signature!r}"
            )
        if entry.kind == KIND_DISCARD:
            return entry.stored_discard()
        assert entry.wrapper is not None
        return wrapper_from_dict(entry.wrapper)

    def put(
        self, sod: SodType, fingerprint: str, wrapper: Wrapper
    ) -> str:
        """Store an induced wrapper; returns its signature.

        Conflicts resolve canonically: if the signature is already
        present, the entry earlier in :func:`_entry_precedence` order
        (wrapper before tombstone, then smaller source id) is kept and a
        ``races`` count is recorded, so concurrent or differently-ordered
        inductions of the same template converge on one stored wrapper.
        """
        return self._store_entry(entry_for(sod, fingerprint, wrapper))

    def put_discard(
        self,
        sod: SodType,
        fingerprint: str,
        source: str,
        stage: str,
        reason: str,
    ) -> str:
        """Store a discard tombstone; returns its signature.

        Remembers that inducing this (SOD, template) ends in a principled
        discard, so warm runs replay the discard instead of re-paying the
        doomed induction.  Same canonical conflict semantics as
        :meth:`put` — and since a wrapper precedes a tombstone, a
        successful induction from any source shadows the discard.
        """
        stored = StoredDiscard(source=source, stage=stage, reason=reason)
        return self._store_entry(entry_for(sod, fingerprint, stored))

    def _store_entry(self, entry: RegistryEntry) -> str:
        """Canonical-winner store of one entry + its index row.

        The first store of a signature lands; a conflicting later store
        replaces it only when it precedes the incumbent in
        :func:`_entry_precedence` order.  The final entry is therefore
        the minimum over every entry ever offered for the key — a fold
        that does not depend on offer order, which is what makes a shard
        merge byte-identical to the serial catalog-order apply even when
        distinct sources induce under the same signature.
        """
        signature = entry.signature
        with self._lock:
            incumbent = self._index.get(signature)
            if incumbent is not None:
                self._count("races")
                offered = _entry_precedence(entry.kind, entry.source)
                kept = _entry_precedence(
                    incumbent["kind"], incumbent["source"]
                )
                if offered >= kept:
                    return signature
            write_json_atomic(self.entry_path(signature), entry.to_dict())
            self._index[signature] = {
                "kind": entry.kind,
                "sod": entry.sod,
                "fingerprint": entry.fingerprint,
                "source": entry.source,
            }
            self._write_index()
            if incumbent is None:
                self._count("stores")
        return signature

    def demote(self, signature: str) -> bool:
        """Evict a stale wrapper so the next request re-induces.

        Returns ``True`` if an entry was removed.  Fired by the
        post-extract annotation-rate check when a stored wrapper no
        longer extracts at threshold ``alpha``.
        """
        with self._lock:
            if signature not in self._index:
                return False
            del self._index[signature]
            self._write_index()
            path = self.entry_path(signature)
            if path.exists():
                path.unlink()
            self._count("demotions")
        return True

    # -- inspection ---------------------------------------------------------

    def entries(self) -> list[RegistryEntry]:
        """All stored entries in signature order (loads every entry file)."""
        with self._lock:
            signatures = sorted(self._index)
        out = []
        for signature in signatures:
            path = self.entry_path(signature)
            if path.exists():
                out.append(self._read_entry(path))
        return out

    def index_rows(self) -> list[tuple[str, dict[str, str]]]:
        """The index content as ``(signature, row)`` pairs, sorted."""
        with self._lock:
            return [(sig, dict(self._index[sig])) for sig in sorted(self._index)]

    def stats(self) -> dict[str, int]:
        """Lifetime counters: hits, misses, stores, races, demotions."""
        with self._lock:
            return dict(self._stats)

    def adopt_stats(self, stats: "dict[str, int]") -> None:
        """Add another registry's lifetime counters to this one's.

        The process backend opens a per-worker registry over the same
        root; the hits and misses it counted belong to the run, so the
        parent folds them in before reporting.  Unknown keys are ignored
        (stats from a newer schema stay additive).
        """
        with self._lock:
            for name, value in stats.items():
                if name in self._stats:
                    self._stats[name] += int(value)

    def _count(self, name: str) -> None:
        with self._lock:
            self._stats[name] += 1

    def _read_entry(self, path: Path) -> RegistryEntry:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise RegistryError(f"{path}: not valid JSON: {exc}") from exc
        return RegistryEntry.from_dict(data, where=str(path))

    # -- maintenance ---------------------------------------------------------

    def verify(self) -> list[str]:
        """Check index/entry consistency; returns sorted problem strings.

        Detects index rows without an entry file, unreadable or
        schema-incompatible entries, entries whose stored identity does
        not reproduce their address, and orphan entry files.
        """
        problems = []
        with self._lock:
            index = {sig: dict(row) for sig, row in self._index.items()}
        for signature in sorted(index):
            path = self.entry_path(signature)
            if not path.exists():
                problems.append(f"{signature}: index row has no entry file")
                continue
            try:
                entry = self._read_entry(path)
            except RegistryError as exc:
                problems.append(f"{signature}: {exc}")
                continue
            if entry.signature != signature:
                problems.append(
                    f"{signature}: entry file claims signature "
                    f"{entry.signature!r}"
                )
        for path in sorted(self._wrappers_dir.glob("*.json")):
            if path.stem not in index:
                problems.append(f"{path.name}: orphan entry file (not in index)")
        return sorted(problems)

    def gc(self, dry_run: bool = False) -> list[str]:
        """Delete orphan entry files; returns their names, sorted.

        With ``dry_run`` nothing is deleted — the returned list is the
        exact (deterministically sorted) set a real run would remove,
        so operators can preview a cleanup byte-for-byte.
        """
        removed = []
        with self._lock:
            for path in sorted(self._wrappers_dir.glob("*.json")):
                if path.stem not in self._index:
                    if not dry_run:
                        path.unlink()
                    removed.append(path.name)
        return removed

    @classmethod
    def merged(
        cls, root: str | Path, parts: Sequence["WrapperRegistry"]
    ) -> "WrapperRegistry":
        """Fold shard registries into a new registry at ``root``.

        Conflicts resolve canonically (the same rule as :meth:`put`), so
        the combined registry's bytes are a pure function of the *set* of
        shard entries — independent of part order, and byte-identical to
        the registry a serial whole-catalog run would have written even
        when replica sources in different shards induced under the same
        signature.
        """
        combined = cls(root)
        for part in parts:
            for entry in part.entries():
                combined._store_entry(entry)
        return combined


@dataclass(frozen=True)
class StagedWrites:
    """A picklable snapshot of one source's buffered registry writes.

    Worker processes cannot ship a :class:`StagedRegistryView` home (it
    holds the live, lock-bearing base registry), so they export this
    value object instead: the sorted demotions plus the staged entries in
    insertion order.  :meth:`apply_to` replays them with exactly the
    semantics of :meth:`StagedRegistryView.apply_to`, so a sharded run's
    registry bytes match the serial run.  (The stores/races counter split
    still reflects where duplicate inductions were discarded, so those
    counts are layout-dependent — which is why the bench digest excludes
    them.)
    """

    demoted: tuple[str, ...]
    entries: tuple[RegistryEntry, ...]

    def apply_to(self, base: WrapperRegistry) -> None:
        """Apply the buffered demotions then stores to ``base``."""
        for signature in self.demoted:
            base.demote(signature)
        for entry in self.entries:
            base._store_entry(entry)


@dataclass
class StagedRegistryView:
    """A per-source view of a registry with buffered writes.

    Batch runs (``ObjectRunner.run_sources``) give every source its own
    view: lookups see the registry as it was at batch start plus this
    source's *own* staged writes; puts and demotions are buffered and
    applied to the base registry in input order once the batch finishes
    (:meth:`apply_to`).  Hit/miss per source therefore never depends on
    shard scheduling, which is what makes a parallel batch snapshot
    byte-identical to a serial one.
    """

    base: WrapperRegistry
    staged: dict[str, tuple[SodType, str, "Wrapper | StoredDiscard"]] = field(
        default_factory=dict
    )
    demoted: set[str] = field(default_factory=set)

    def lookup(
        self, sod: SodType, fingerprint: str
    ) -> Wrapper | StoredDiscard | None:
        """Lookup against the batch-start state plus this view's writes."""
        signature = signature_for(sod, fingerprint)
        if signature in self.demoted:
            self.base._count("misses")
            return None
        if signature in self.staged:
            self.base._count("hits")
            return self.staged[signature][2]
        return self.base.lookup(sod, fingerprint)

    def put(self, sod: SodType, fingerprint: str, wrapper: Wrapper) -> str:
        """Buffer a store; applied to the base registry at batch end."""
        signature = signature_for(sod, fingerprint)
        self.demoted.discard(signature)
        self.staged[signature] = (sod, fingerprint, wrapper)
        return signature

    def put_discard(
        self,
        sod: SodType,
        fingerprint: str,
        source: str,
        stage: str,
        reason: str,
    ) -> str:
        """Buffer a discard tombstone; applied at batch end."""
        signature = signature_for(sod, fingerprint)
        self.demoted.discard(signature)
        self.staged[signature] = (
            sod,
            fingerprint,
            StoredDiscard(source=source, stage=stage, reason=reason),
        )
        return signature

    def demote(self, signature: str) -> bool:
        """Buffer a demotion; applied to the base registry at batch end."""
        self.staged.pop(signature, None)
        self.demoted.add(signature)
        return True

    def apply_to(self, base: WrapperRegistry) -> None:
        """Apply buffered demotions then stores to ``base``."""
        for signature in sorted(self.demoted):
            base.demote(signature)
        for sod, fingerprint, stored in self.staged.values():
            if isinstance(stored, StoredDiscard):
                base.put_discard(
                    sod,
                    fingerprint,
                    source=stored.source,
                    stage=stored.stage,
                    reason=stored.reason,
                )
            else:
                base.put(sod, fingerprint, stored)

    def export(self) -> StagedWrites:
        """This view's buffered writes as a picklable value object."""
        return StagedWrites(
            demoted=tuple(sorted(self.demoted)),
            entries=tuple(
                entry_for(sod, fingerprint, stored)
                for sod, fingerprint, stored in self.staged.values()
            ),
        )


def apply_staged_views(
    base: WrapperRegistry, views: Iterable[StagedRegistryView]
) -> None:
    """Apply per-source views to the base registry in input order.

    Called once per batch after every source finished; combined with the
    canonical conflict rule of ``put``, the base registry's final bytes
    depend only on the *set* of staged writes — never on scheduling, and
    not even on the input order of the sources.
    """
    for view in views:
        view.apply_to(base)
