"""S501–S504: schema contracts between artifact writers and readers.

These rules consume the inferred per-family contracts of
:mod:`repro.analysis.schemas` — the statically reconstructed dict shape
each artifact writer emits and the key accesses each reader performs —
and lint the *boundary* between them:

- **S501** — writer/reader key drift: a key written but read by no
  reader of the family, or subscripted as required by a reader but
  emitted by no writer.  Either side is a rename-in-progress or dead
  weight that will surface as a ``KeyError`` at the worst time.
- **S502** — shape change without a version bump: the writer key set
  differs from the committed ``schemas.json`` snapshot while the
  family's ``*_SCHEMA_VERSION``/``FORMAT_VERSION`` constant is
  unchanged.  ``reprolint --schemas-out`` regenerates the snapshot; CI
  diffs it.
- **S503** — untyped failure on external input: a reader of an
  external-origin family (wrapper files, registry documents, serve
  requests) subscripts a required key outside any ``try``/``except``
  catching ``KeyError``/``TypeError`` and outside the ``_require``-style
  helpers that convert to typed project errors.  This is exactly the
  pre-:class:`~repro.errors.WrapperSchemaError` bug class, caught
  before it ships.
- **S504** — cross-version intolerance: a consumer that compares
  historical artifacts (``compare_documents`` over ``BENCH_*.json``)
  subscripts a key absent from an older *committed* document of that
  family; running it against history would crash.

All four are whole-program rules (``requires_graph``) and
deterministic: the contract pass iterates the shared project graph in
sorted order, so repeated runs over the same tree produce byte-identical
findings and snapshots.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule
from repro.analysis.graph import ProjectGraph, build_single_file_graph
from repro.analysis.schemas import (
    FamilyContract,
    KeySite,
    ProjectSchemas,
    ReadAccess,
    SNAPSHOT_FILENAME,
    load_snapshot,
    project_schemas,
    schemas_snapshot,
)

#: (line, col, message) proto-findings keyed by root-relative path.
_ProtoMap = dict[str, list[tuple[int, int, str]]]


def _first_write_site(
    contract: FamilyContract, key: str
) -> KeySite | None:
    """The earliest source location writing one family key."""
    sites = [w.site for w in contract.writes if w.key == key]
    if not sites:
        return None
    return min(sites, key=lambda s: (s.relpath, s.line, s.col))


def _first_read_site(
    contract: FamilyContract, key: str, required_only: bool = False
) -> KeySite | None:
    """The earliest source location reading one family key."""
    sites = [
        r.site
        for r in contract.reads
        if r.key == key and (r.required or not required_only)
    ]
    if not sites:
        return None
    return min(sites, key=lambda s: (s.relpath, s.line, s.col))


def _required_accesses(contract: FamilyContract) -> list[ReadAccess]:
    """Deduplicated required accesses, in source order."""
    seen: set[tuple[str, int, int, str]] = set()
    out: list[ReadAccess] = []
    for read in sorted(
        contract.reads,
        key=lambda r: (r.site.relpath, r.site.line, r.site.col, r.key),
    ):
        if not read.required:
            continue
        fingerprint = (
            read.site.relpath,
            read.site.line,
            read.site.col,
            read.key,
        )
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        out.append(read)
    return out


class _SchemaRule(Rule):
    """Shared plumbing: contract pass in prepare_graph, findings by file.

    Subclasses implement :meth:`_compute`, mapping the inferred project
    schemas to proto-findings per relpath; ``check_file`` materializes
    them with the file's snippet.  When ``check_file`` runs without a
    prepared graph (``analyze_file``, editor integrations), the pass
    reruns over a single-file graph so fixtures still fire.
    """

    requires_graph = True

    def __init__(self) -> None:
        self._prepared = False
        self._root: Path | None = None
        self._by_path: _ProtoMap = {}

    def prepare(self, root: Path, files: list[Path]) -> None:
        """Remember the scan root (snapshot and history files live there)."""
        self._prepared = False
        self._root = root
        self._by_path = {}

    def prepare_graph(self, graph: ProjectGraph) -> None:
        """Run the contract pass once over the shared project graph."""
        self._prepared = True
        root = self._root if self._root is not None else graph.root
        self._by_path = self._compute(project_schemas(graph), root)

    def _compute(self, schemas: ProjectSchemas, root: Path) -> _ProtoMap:
        raise NotImplementedError

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Report the proto-findings that land in this file."""
        by_path = self._by_path
        if not self._prepared:  # single-file use (tests, editors)
            graph = build_single_file_graph(ctx.path, ctx.root)
            by_path = self._compute(project_schemas(graph), ctx.root)
        for line, col, message in by_path.get(ctx.relpath, ()):
            yield Finding(
                rule=self.rule_id,
                path=ctx.relpath,
                line=line,
                col=col,
                message=message,
                snippet=ctx.snippet_at(line),
                span=(line, line),
            )


@register_rule
class SchemaDriftRule(_SchemaRule):
    """S501: a family key written-but-never-read or required-but-unwritten."""

    rule_id = "S501"
    title = "writer/reader key drift in a serialized-artifact family"
    rationale = (
        "A key one side of a producer/consumer pair knows and the other "
        "does not is a rename in progress or dead payload: a required "
        "read of an unwritten key is a guaranteed KeyError, a written "
        "key no reader touches bloats every artifact for nothing. "
        "Rename both sides together, or mark provenance-only keys in "
        "the family configuration."
    )
    example = (
        "def write_doc(path, rows):\n"
        "    json.dump({'rows': rows, 'vers': 2}, path.open('w'))\n"
        "def read_doc(path):\n"
        "    doc = json.load(path.open())\n"
        "    return doc['version']   # S501: writer says 'vers', reader "
        "wants 'version'"
    )

    def _compute(self, schemas: ProjectSchemas, root: Path) -> _ProtoMap:
        proto: _ProtoMap = {}
        for contract in schemas.families():
            family = contract.family
            if not contract.writer_count or not contract.reader_count:
                continue  # one-sided family: no pair to drift
            writer_keys = {w.key for w in contract.writes}
            read_keys = {r.key for r in contract.reads}
            required = {r.key for r in contract.reads if r.required}
            for key in sorted(writer_keys - read_keys - family.provenance):
                site = _first_write_site(contract, key)
                if site is None:
                    continue
                proto.setdefault(site.relpath, []).append(
                    (
                        site.line,
                        site.col,
                        f"family '{family.name}': key '{key}' is written "
                        "but no reader of the family ever accesses it — "
                        "dead payload or a one-sided rename",
                    )
                )
            for key in sorted(required - writer_keys):
                site = _first_read_site(contract, key, required_only=True)
                if site is None:
                    continue
                proto.setdefault(site.relpath, []).append(
                    (
                        site.line,
                        site.col,
                        f"family '{family.name}': key '{key}' is read as "
                        "required but no writer of the family emits it — "
                        "this access raises KeyError on every artifact",
                    )
                )
        return proto


@register_rule
class SchemaVersionRule(_SchemaRule):
    """S502: writer shape changed without bumping the schema version."""

    rule_id = "S502"
    title = "artifact shape changed without a schema-version bump"
    rationale = (
        "Persisted artifacts outlive the code that wrote them; a shape "
        "change hidden behind an unchanged *_SCHEMA_VERSION makes old "
        "and new documents indistinguishable to readers. Bump the "
        "family's version constant and regenerate schemas.json with "
        "reprolint --schemas-out."
    )
    example = (
        "BENCH_SCHEMA_VERSION = 3   # unchanged\n"
        "def write_bench(path, doc):\n"
        "    doc['shards'] = shard_layout()   # S502: new key, version "
        "not bumped\n"
        "    json.dump(doc, path.open('w'))"
    )

    def _compute(self, schemas: ProjectSchemas, root: Path) -> _ProtoMap:
        proto: _ProtoMap = {}
        snapshot = load_snapshot(root / SNAPSHOT_FILENAME)
        if snapshot is None:
            return proto  # bootstrap: no committed snapshot yet
        committed = snapshot.get("families")
        if not isinstance(committed, dict):
            return proto
        current = schemas_snapshot(schemas)["families"]
        for name in sorted(current):
            old = committed.get(name)
            if not isinstance(old, dict):
                continue  # new family: the CI snapshot diff reports it
            if current[name] == old:
                continue
            contract = schemas.contracts[name]
            site = contract.version_site or contract.anchor
            if site is None:
                continue
            writer_changed = current[name]["writer_keys"] != old.get(
                "writer_keys"
            )
            bumped = (
                old.get("version") is not None
                and current[name]["version"] is not None
                and current[name]["version"] != old.get("version")
            )
            if writer_changed and contract.family.version_const and not bumped:
                const = contract.family.version_const[1]
                added = sorted(
                    set(current[name]["writer_keys"])
                    - set(old.get("writer_keys") or ())
                )
                removed = sorted(
                    set(old.get("writer_keys") or ())
                    - set(current[name]["writer_keys"])
                )
                delta = ", ".join(
                    part
                    for part in (
                        f"added {added}" if added else "",
                        f"removed {removed}" if removed else "",
                    )
                    if part
                )
                message = (
                    f"family '{name}': writer keys changed vs the "
                    f"committed schemas.json ({delta}) without bumping "
                    f"{const} — bump it and regenerate the snapshot "
                    "with reprolint --schemas-out"
                )
            else:
                message = (
                    f"family '{name}': inferred contract differs from "
                    "the committed schemas.json — regenerate it with "
                    "reprolint --schemas-out"
                )
            proto.setdefault(site.relpath, []).append(
                (site.line, site.col, message)
            )
        return proto


@register_rule
class ExternalInputRule(_SchemaRule):
    """S503: unguarded required access on an external-origin payload."""

    rule_id = "S503"
    title = "external-input reader can raise an untyped KeyError"
    rationale = (
        "Wrapper files, registry documents and serve requests arrive "
        "from outside the process; a bare data['k'] on them turns any "
        "malformed payload into an anonymous KeyError/TypeError instead "
        "of a typed project error the caller can handle. Guard the "
        "access with try/except raising WrapperSchemaError/"
        "RegistryError, route it through a _require-style helper, or "
        "use .get with explicit validation."
    )
    example = (
        "def load_wrapper(path):\n"
        "    doc = json.load(path.open())\n"
        "    return doc['rules']   # S503: malformed file -> anonymous "
        "KeyError\n"
        "# fix: _require(doc, 'rules') raising WrapperSchemaError"
    )

    def _compute(self, schemas: ProjectSchemas, root: Path) -> _ProtoMap:
        proto: _ProtoMap = {}
        for contract in schemas.families():
            if not contract.family.external:
                continue
            for read in _required_accesses(contract):
                if read.guarded:
                    continue
                origin = f" (via {read.via}())" if read.via else ""
                proto.setdefault(read.site.relpath, []).append(
                    (
                        read.site.line,
                        read.site.col,
                        f"family '{contract.family.name}': required key "
                        f"'{read.key}' is accessed without a typed-error "
                        f"guard{origin} — a malformed external payload "
                        "raises bare KeyError/TypeError here",
                    )
                )
        return proto


@register_rule
class HistoryToleranceRule(_SchemaRule):
    """S504: consumer subscripts a key absent from committed history."""

    rule_id = "S504"
    title = "consumer requires a key older committed artifacts lack"
    rationale = (
        "Comparison consumers run against the committed artifact "
        "history (BENCH_*.json); a required subscript of a key an older "
        "document does not carry crashes exactly when the comparison "
        "matters most. Read it tolerantly (.get) or gate the access on "
        "the document's schema_version."
    )
    example = (
        "def compare(old_doc, new_doc):\n"
        "    return old_doc['shards'] == new_doc['shards']   # S504: "
        "committed v2 docs lack 'shards'\n"
        "# fix: old_doc.get('shards') or gate on schema_version"
    )

    def _compute(self, schemas: ProjectSchemas, root: Path) -> _ProtoMap:
        proto: _ProtoMap = {}
        for contract in schemas.families():
            glob = contract.family.history_glob
            if not glob:
                continue
            history = self._history_key_sets(root, glob)
            if not history:
                continue
            for read in _required_accesses(contract):
                missing_in = sorted(
                    name
                    for name, keys in history
                    if read.key not in keys
                )
                if not missing_in:
                    continue
                shown = ", ".join(missing_in[:3])
                if len(missing_in) > 3:
                    shown += f" (+{len(missing_in) - 3} more)"
                proto.setdefault(read.site.relpath, []).append(
                    (
                        read.site.line,
                        read.site.col,
                        f"family '{contract.family.name}': required key "
                        f"'{read.key}' is absent from committed "
                        f"artifact(s) {shown} — this consumer crashes "
                        "on older documents",
                    )
                )
        return proto

    @staticmethod
    def _history_key_sets(
        root: Path, glob: str
    ) -> list[tuple[str, frozenset[str]]]:
        """(filename, top-level keys) per committed artifact, sorted."""
        out: list[tuple[str, frozenset[str]]] = []
        for path in sorted(root.glob(glob)):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue  # unreadable history: the bench gate owns that
            if isinstance(data, dict):
                out.append((path.name, frozenset(data)))
        return out
