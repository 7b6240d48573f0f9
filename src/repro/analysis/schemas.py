"""Schema-contract inference: dict shapes at artifact writers and readers.

Every persisted artifact of the reproduction — wrapper files, registry
entries and indexes, BENCH documents, the JSON-lines serve protocol,
trace events — is a plain dict on the Python side.  The writer builds it
as a literal (possibly growing it with ``d["k"] = ...`` stores before
returning or serializing it); the reader takes it apart with ``d["k"]``
(required), ``d.get("k")`` (optional) and ``schema_version`` guards.
Nothing in the language ties the two sides together: a key renamed on
one side silently drifts until a ``KeyError`` surfaces in production —
the exact bug class the typed :class:`~repro.errors.WrapperSchemaError`
was retrofitted for.

This module reconstructs both sides statically, per *artifact family*
(:data:`FAMILIES`), on top of the project graph:

- **writer shapes** — the union of top-level constant keys of every dict
  literal a configured writer function returns or feeds into a
  serialization sink (``json.dump*``, ``write_json_atomic``,
  ``write_bench``), plus constant-key subscript stores on those dicts;
- **reader contracts** — every top-level key access a configured reader
  performs on its payload roots (a named parameter, or locals assigned
  from ``json.loads``), classified required (``[]`` subscript,
  ``.pop`` without default) or optional (``.get``, ``.pop`` with
  default, ``in`` checks), with a *guarded* bit when the access sits
  under a ``try``/``except`` catching ``KeyError`` or is routed through
  a helper (``_require``-style) whose summary says so;
- **version constants** — the literal value of each family's
  ``*_SCHEMA_VERSION``/``FORMAT_VERSION`` assignment.

Helper propagation is interprocedural: per-function summaries record
which keys a function reads off each of its parameters (including keys
supplied *by* another parameter, resolved to literals at the call
site), and a small fixpoint closes chains like ``load_wrapper_file ->
wrapper_from_dict -> _require``.  Only top-level keys are tracked; a
sub-object fetched off the root is a different family (or out of
scope), never a false positive.

The S-rules (:mod:`repro.analysis.rules.schema`) consume the inferred
:class:`FamilyContract` set; ``reprolint --schemas-out`` serializes it
as the committed, machine-readable ``schemas.json`` snapshot that S502
diffs shapes against.  Inference only reads the shared
:class:`~repro.analysis.graph.ProjectGraph` and iterates it in sorted
order, so its output is byte-identical from run to run over the same
tree.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.graph import (
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
)

#: Version of the ``schemas.json`` snapshot document itself.
SNAPSHOT_VERSION = 1

#: Default snapshot filename, looked up relative to the scan root.
SNAPSHOT_FILENAME = "schemas.json"

#: Canonical (alias-expanded) dotted names of generic JSON sinks; a dict
#: variable passed to one counts as emitted by the writer.
_JSON_SINKS = frozenset({"json.dump", "json.dumps"})

#: (module path suffix, function name) of the project's artifact
#: writers; mirrors the D106 sink set so both passes agree on what
#: "serialized" means.
_SINK_FUNCTIONS = (
    ("metrics/bench.py", "write_bench"),
    ("registry/store.py", "write_json_atomic"),
)

#: Exception names an ``except`` clause may name to count as guarding a
#: subscript against missing keys / wrong payload types.
_GUARD_EXCEPTIONS = frozenset(
    {"KeyError", "LookupError", "TypeError", "Exception", "BaseException"}
)


# -- family configuration --------------------------------------------------


@dataclass(frozen=True)
class FuncSpec:
    """Names one project function by relpath suffix and local name.

    ``func`` is either a module-level name (``wrapper_to_dict``) or a
    ``Class.method`` pair (``RegistryEntry.to_dict``).
    """

    path_suffix: str
    func: str

    def matches(self, fn: FunctionInfo) -> bool:
        """True when a graph function is the one this spec names."""
        local = f"{fn.cls_name}.{fn.name}" if fn.cls_name else fn.name
        return local == self.func and fn.relpath.endswith(self.path_suffix)


@dataclass(frozen=True)
class ReaderSpec:
    """A reader function plus the parameters holding the family payload.

    An empty ``params`` tuple means the payload roots are the locals the
    function assigns from ``json.loads(...)`` (loader functions that
    parse their own input).
    """

    path_suffix: str
    func: str
    params: tuple[str, ...] = ()

    def spec(self) -> FuncSpec:
        """The bare function spec (without the parameter binding)."""
        return FuncSpec(self.path_suffix, self.func)


@dataclass(frozen=True)
class ArtifactFamily:
    """One producer/consumer pair over a serialized dict shape."""

    name: str
    writers: tuple[FuncSpec, ...] = ()
    readers: tuple[ReaderSpec, ...] = ()
    #: (module path suffix, constant name) of the schema version
    #: constant whose bump S502 demands on writer-shape changes.
    version_const: tuple[str, str] | None = None
    #: Keys written for provenance only (timestamps, host facts); the
    #: comparison layer ignores them by design, so S501 must too.
    provenance: frozenset[str] = frozenset()
    #: True when payloads arrive from outside the process (files,
    #: sockets); S503 then demands typed errors on required accesses.
    external: bool = False
    #: Glob (relative to the scan root) of committed historical
    #: artifacts of this family; S504 checks readers tolerate each.
    history_glob: str = ""


_SERIALIZE = "wrapper/serialize.py"
_FILES = "registry/files.py"
_STORE = "registry/store.py"
_BENCH = "metrics/bench.py"
_SERVER = "service/server.py"
_PIPELINE = "core/pipeline.py"

#: The artifact families of this repository.  Order is presentation
#: only; every consumer sorts by family name.
FAMILIES: tuple[ArtifactFamily, ...] = (
    ArtifactFamily(
        name="bench",
        writers=(FuncSpec(_BENCH, "BenchSession.capture"),),
        readers=(ReaderSpec(_BENCH, "compare_documents", ("old", "new")),),
        version_const=(_BENCH, "BENCH_SCHEMA_VERSION"),
        provenance=frozenset(
            {"generated_at", "python", "platform", "cache", "registry"}
        ),
        history_glob="BENCH_*.json",
    ),
    ArtifactFamily(
        name="registry_entry",
        writers=(FuncSpec(_STORE, "RegistryEntry.to_dict"),),
        readers=(ReaderSpec(_STORE, "RegistryEntry.from_dict", ("data",)),),
        version_const=(_STORE, "REGISTRY_SCHEMA_VERSION"),
        external=True,
    ),
    ArtifactFamily(
        name="registry_index",
        writers=(FuncSpec(_STORE, "WrapperRegistry._write_index"),),
        readers=(ReaderSpec(_STORE, "WrapperRegistry._load_index"),),
        version_const=(_STORE, "REGISTRY_SCHEMA_VERSION"),
        external=True,
    ),
    ArtifactFamily(
        name="serve_request",
        readers=(
            ReaderSpec(_SERVER, "ExtractionService.handle", ("request",)),
            ReaderSpec(_SERVER, "ExtractionService._dispatch", ("request",)),
            ReaderSpec(_SERVER, "ExtractionService._extract", ("request",)),
        ),
        external=True,
    ),
    ArtifactFamily(
        name="serve_response",
        writers=(
            FuncSpec(_SERVER, "ExtractionService.handle"),
            FuncSpec(_SERVER, "ExtractionService._dispatch"),
            FuncSpec(_SERVER, "ExtractionService._extract"),
            FuncSpec(_SERVER, "serve_loop"),
        ),
    ),
    ArtifactFamily(
        name="trace_event",
        writers=(FuncSpec(_PIPELINE, "PipelineEvent.to_json"),),
    ),
    ArtifactFamily(
        name="wrapper",
        writers=(FuncSpec(_SERIALIZE, "wrapper_to_dict"),),
        readers=(
            ReaderSpec(_SERIALIZE, "wrapper_from_dict", ("data",)),
            ReaderSpec(_FILES, "load_wrapper_file"),
        ),
        version_const=(_SERIALIZE, "FORMAT_VERSION"),
        external=True,
    ),
    ArtifactFamily(
        name="wrapper_node",
        writers=(FuncSpec(_SERIALIZE, "_node_to_dict"),),
        readers=(ReaderSpec(_SERIALIZE, "_node_from_dict", ("data",)),),
        version_const=(_SERIALIZE, "FORMAT_VERSION"),
        external=True,
    ),
)


# -- inferred contracts ----------------------------------------------------


@dataclass(frozen=True)
class KeySite:
    """One source location where a family key is written or read."""

    relpath: str
    line: int
    col: int


@dataclass(frozen=True)
class WriteSite:
    """One top-level key a writer emits, with its location."""

    key: str
    site: KeySite


@dataclass(frozen=True)
class ReadAccess:
    """One top-level key access a reader performs on a payload root."""

    key: str
    required: bool
    guarded: bool
    site: KeySite
    #: Helper the access was imported from (empty for direct accesses).
    via: str = ""


@dataclass
class FamilyContract:
    """The inferred writer shape and reader contract of one family."""

    family: ArtifactFamily
    writes: list[WriteSite] = field(default_factory=list)
    reads: list[ReadAccess] = field(default_factory=list)
    version: int | None = None
    version_site: KeySite | None = None
    #: Fallback location (first writer/reader def) for S502 findings
    #: when the family has no version constant.
    anchor: KeySite | None = None
    writer_count: int = 0
    reader_count: int = 0

    def writer_keys(self) -> list[str]:
        """Sorted top-level keys the family's writers emit."""
        return sorted({w.key for w in self.writes})

    def required_keys(self) -> list[str]:
        """Sorted keys some reader accesses by subscript (must exist)."""
        return sorted({r.key for r in self.reads if r.required})

    def optional_keys(self) -> list[str]:
        """Sorted keys read only tolerantly (``.get``/defaults)."""
        required = {r.key for r in self.reads if r.required}
        return sorted(
            {r.key for r in self.reads if not r.required} - required
        )


@dataclass
class ProjectSchemas:
    """Every family contract inferred from one project graph."""

    contracts: dict[str, FamilyContract] = field(default_factory=dict)

    def families(self) -> list[FamilyContract]:
        """Contracts in family-name order (deterministic)."""
        return [self.contracts[name] for name in sorted(self.contracts)]


# -- per-function access summaries -----------------------------------------


@dataclass(frozen=True)
class ParamAccess:
    """A key access one function performs on one of its parameters.

    ``key`` is the literal key when known; ``key_param`` names the
    parameter supplying the key instead (the ``_require(data, key)``
    pattern), resolved to a literal at each call site.
    """

    param: str
    key: str = ""
    key_param: str = ""
    required: bool = True
    guarded: bool = False


def _guarding_handler(handler: ast.ExceptHandler) -> bool:
    """True when an except clause catches missing-key/shape errors."""
    if handler.type is None:
        return True
    names = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for name in names:
        dotted = _dotted_tail(name)
        if dotted in _GUARD_EXCEPTIONS:
            return True
    return False


def _dotted_tail(node: ast.AST) -> str:
    """The last component of a Name/Attribute chain (``''`` otherwise)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _bind_args(
    callee: FunctionInfo, call: ast.Call
) -> list[tuple[str, ast.expr]]:
    """Pair call arguments with callee parameter names.

    Bound/class method calls skip the implicit ``self``/``cls``; starred
    arguments end positional matching (conservative).
    """
    params = list(callee.params)
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    pairs: list[tuple[str, ast.expr]] = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            pairs.append((params[index], arg))
    for keyword in call.keywords:
        if keyword.arg:
            pairs.append((keyword.arg, keyword.value))
    return pairs


@dataclass(frozen=True)
class _RawAccess:
    """Internal access record before summary/contract conversion."""

    root: str
    key: str
    key_param: str
    required: bool
    guarded: bool
    line: int
    col: int
    via: str


class _AccessWalker:
    """Collects top-level key accesses on a set of root variables.

    One instance walks one function body.  ``roots`` are the variable
    names holding the payload; simple aliases (``x = data``) join the
    set.  Calls passing a root to a project function import that
    function's :class:`ParamAccess` summary, with parameter-supplied
    keys resolved against the call site — this is what carries the
    ``_require`` pattern back to the reader.
    """

    def __init__(
        self,
        graph: ProjectGraph,
        fn: FunctionInfo,
        roots: frozenset[str],
        summaries: dict[str, frozenset[ParamAccess]],
    ) -> None:
        self.graph = graph
        self.fn = fn
        self.summaries = summaries
        self.params = frozenset(fn.params)
        self.roots = set(roots)
        self.accesses: list[_RawAccess] = []
        self._site_by_node = {
            id(site.node): site
            for site in graph.calls.get(fn.qualname, ())
        }

    def walk(self) -> list[_RawAccess]:
        """Collect every access; returns them in source order."""
        if self.fn.node is None:
            return []
        self._collect_aliases()
        for stmt in self.fn.node.body:
            self._visit_stmt(stmt, guarded=False)
        self.accesses.sort(key=lambda a: (a.line, a.col, a.key, a.key_param))
        return self.accesses

    def _collect_aliases(self) -> None:
        """One pass adding ``x = root`` aliases to the root set."""
        assert self.fn.node is not None
        for node in ast.walk(self.fn.node):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in self.roots
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.roots.add(target.id)

    # -- statement walk (tracks the try/except guard) ----------------------

    def _visit_stmt(self, stmt: ast.stmt, guarded: bool) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs keep their own summaries
        if isinstance(stmt, ast.Try):
            caught = guarded or any(
                _guarding_handler(h) for h in stmt.handlers
            )
            for sub in stmt.body:
                self._visit_stmt(sub, caught)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._visit_stmt(sub, guarded)
            for sub in (*stmt.orelse, *stmt.finalbody):
                self._visit_stmt(sub, guarded)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, guarded)
            elif not isinstance(
                child, (ast.expr_context, ast.operator, ast.cmpop)
            ):
                self._scan_expr(child, guarded)

    # -- expression scan ----------------------------------------------------

    def _scan_expr(self, node: ast.AST, guarded: bool) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript):
                self._match_subscript(sub, guarded)
            elif isinstance(sub, ast.Call):
                self._match_call(sub, guarded)
            elif isinstance(sub, ast.Compare):
                self._match_membership(sub)

    def _match_subscript(self, node: ast.Subscript, guarded: bool) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if not (
            isinstance(node.value, ast.Name) and node.value.id in self.roots
        ):
            return
        key, key_param = self._key_of(node.slice)
        if key or key_param:
            self._add(
                node.value.id, key, key_param, True, guarded, node, via=""
            )

    def _match_call(self, node: ast.Call, guarded: bool) -> None:
        # root.get("k") / root.pop("k"[, default]) tolerant accessors.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.roots
            and func.attr in ("get", "pop", "setdefault")
            and node.args
        ):
            key, key_param = self._key_of(node.args[0])
            required = func.attr == "pop" and len(node.args) < 2
            if key or key_param:
                self._add(
                    func.value.id, key, key_param, required, guarded, node, ""
                )
            return
        # helper(root, ...) — import the callee's parameter summary.
        site = self._site_by_node.get(id(node))
        if site is None or site.callee is None:
            return
        callee = self.graph.functions.get(site.callee)
        if callee is None:
            return
        summary = self.summaries.get(site.callee)
        if not summary:
            return
        bindings = _bind_args(callee, node)
        bound_exprs = dict(bindings)
        bound_roots = {
            param: arg.id
            for param, arg in bindings
            if isinstance(arg, ast.Name) and arg.id in self.roots
        }
        if not bound_roots:
            return
        for access in sorted(
            summary, key=lambda a: (a.param, a.key, a.key_param)
        ):
            root = bound_roots.get(access.param)
            if root is None:
                continue
            key, key_param = access.key, ""
            if access.key_param:
                key, key_param = self._resolve_key_param(
                    access.key_param, bound_exprs
                )
                if not key and not key_param:
                    continue
            self._add(
                root,
                key,
                key_param,
                access.required,
                access.guarded or guarded,
                node,
                via=callee.name,
            )

    def _resolve_key_param(
        self, key_param: str, bound: dict[str, ast.expr]
    ) -> tuple[str, str]:
        """Resolve a callee's key parameter against this call site."""
        arg = bound.get(key_param)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value, ""
        if isinstance(arg, ast.Name) and arg.id in self.params:
            return "", arg.id  # still parameter-supplied one level up
        return "", ""

    def _match_membership(self, node: ast.Compare) -> None:
        if len(node.ops) != 1 or not isinstance(
            node.ops[0], (ast.In, ast.NotIn)
        ):
            return
        target = node.comparators[0]
        if not (
            isinstance(target, ast.Name) and target.id in self.roots
        ):
            return
        key, key_param = self._key_of(node.left)
        if key or key_param:
            # A membership test is a tolerant (optional) read.
            self._add(target.id, key, key_param, False, True, node, "")

    def _key_of(self, node: ast.expr) -> tuple[str, str]:
        """(literal key, key-supplying parameter) of a key expression."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, ""
        if isinstance(node, ast.Name) and node.id in self.params:
            return "", node.id
        return "", ""

    def _add(
        self,
        root: str,
        key: str,
        key_param: str,
        required: bool,
        guarded: bool,
        node: ast.AST,
        via: str,
    ) -> None:
        self.accesses.append(
            _RawAccess(
                root=root,
                key=key,
                key_param=key_param,
                required=required,
                guarded=guarded,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                via=via,
            )
        )


def compute_access_summaries(
    graph: ProjectGraph, max_passes: int = 4
) -> dict[str, frozenset[ParamAccess]]:
    """Fixpoint of per-function parameter key-access summaries.

    Each pass re-walks every function with the previous summaries
    available at call sites, so helper chains (reader -> validator ->
    ``_require``) converge; ``max_passes`` bounds pathological cycles.
    """
    summaries: dict[str, frozenset[ParamAccess]] = {
        qualname: frozenset() for qualname in graph.functions
    }
    for _ in range(max_passes):
        changed = False
        for fn in graph.iter_functions():
            walker = _AccessWalker(
                graph, fn, frozenset(fn.params), summaries
            )
            fresh = frozenset(
                ParamAccess(
                    param=access.root,
                    key=access.key,
                    key_param=access.key_param,
                    required=access.required,
                    guarded=access.guarded,
                )
                for access in walker.walk()
                if access.root in fn.params
            )
            if fresh != summaries[fn.qualname]:
                summaries[fn.qualname] = fresh
                changed = True
        if not changed:
            break
    return summaries


# -- writer-shape inference ------------------------------------------------


def _is_sink_call(graph: ProjectGraph, site) -> bool:
    """True when a resolved call site serializes its dict argument."""
    if site.expanded in _JSON_SINKS:
        return True
    if site.callee is not None:
        fn = graph.functions.get(site.callee)
        if fn is not None:
            for suffix, name in _SINK_FUNCTIONS:
                if fn.relpath.endswith(suffix) and fn.name == name:
                    return True
    return False


def _literal_keys(node: ast.Dict) -> list[tuple[str, ast.AST]]:
    """(key, key node) for every constant string key of a dict literal."""
    out = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.append((key.value, key))
    return out


def writer_sites(graph: ProjectGraph, fn: FunctionInfo) -> list[WriteSite]:
    """Top-level keys one writer function emits, with locations.

    Covers dict literals returned directly, plus variables that hold a
    dict literal and are later returned or passed to a serialization
    sink — including keys added by ``var["k"] = ...`` stores along the
    way (the :meth:`PipelineEvent.to_json` builder pattern).
    """
    node = fn.node
    if node is None:
        return []
    returned_literals: list[ast.Dict] = []
    var_literals: dict[str, list[ast.Dict]] = {}
    var_stores: dict[str, list[tuple[str, ast.AST]]] = {}
    emitted: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Return):
            if isinstance(sub.value, ast.Dict):
                returned_literals.append(sub.value)
            elif isinstance(sub.value, ast.Name):
                emitted.add(sub.value.id)
        elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            value = sub.value
            if isinstance(value, ast.Dict):
                for target in targets:
                    if isinstance(target, ast.Name):
                        var_literals.setdefault(target.id, []).append(value)
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    var_stores.setdefault(target.value.id, []).append(
                        (target.slice.value, target)
                    )
        elif isinstance(sub, ast.Call):
            site = next(
                (
                    s
                    for s in graph.calls.get(fn.qualname, ())
                    if s.node is sub
                ),
                None,
            )
            if site is not None and _is_sink_call(graph, site):
                for arg in (*sub.args, *(kw.value for kw in sub.keywords)):
                    if isinstance(arg, ast.Name):
                        emitted.add(arg.id)
    sites: list[WriteSite] = []

    def record(key: str, key_node: ast.AST) -> None:
        sites.append(
            WriteSite(
                key=key,
                site=KeySite(
                    relpath=fn.relpath,
                    line=getattr(key_node, "lineno", 1),
                    col=getattr(key_node, "col_offset", 0),
                ),
            )
        )

    for literal in returned_literals:
        for key, key_node in _literal_keys(literal):
            record(key, key_node)
    for name in sorted(emitted):
        for literal in var_literals.get(name, ()):
            for key, key_node in _literal_keys(literal):
                record(key, key_node)
        for key, store_node in var_stores.get(name, ()):
            record(key, store_node)
    sites.sort(key=lambda w: (w.site.line, w.site.col, w.key))
    return sites


# -- version constants -----------------------------------------------------


def _version_value(
    graph: ProjectGraph, family: ArtifactFamily
) -> tuple[int | None, KeySite | None]:
    """The literal value and location of a family's version constant."""
    if family.version_const is None:
        return None, None
    suffix, const = family.version_const
    for relpath in sorted(graph.module_by_relpath):
        if not relpath.endswith(suffix):
            continue
        module = graph.module_by_relpath[relpath]
        value = _module_int_constant(module, const)
        if value is not None:
            node, number = value
            return number, KeySite(
                relpath=relpath,
                line=node.lineno,
                col=node.col_offset,
            )
    return None, None


def _module_int_constant(
    module: ModuleInfo, name: str
) -> tuple[ast.stmt, int] | None:
    """A top-level integer ``NAME = <int>`` assignment, if present."""
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
            and not isinstance(stmt.value.value, bool)
        ):
            return stmt, stmt.value.value
    return None


# -- project-level assembly ------------------------------------------------


def reader_roots(fn: FunctionInfo, spec: ReaderSpec) -> frozenset[str]:
    """The payload root variables of one reader function.

    Named parameters when the spec binds them; otherwise every local
    assigned from a ``json.loads(...)`` call (self-parsing loaders).
    """
    if spec.params:
        return frozenset(p for p in spec.params if p in fn.params)
    if fn.node is None:
        return frozenset()
    roots: set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _dotted_tail(node.value.func) == "loads"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    roots.add(target.id)
    return frozenset(roots)


def project_schemas(
    graph: ProjectGraph,
    families: tuple[ArtifactFamily, ...] = FAMILIES,
) -> ProjectSchemas:
    """Infer every family contract over one project graph (cached).

    The result is memoized on the graph object, so the four S-rules and
    ``--schemas-out`` share a single inference pass per run.
    """
    cached = getattr(graph, "_schema_contracts", None)
    if cached is not None and families is FAMILIES:
        return cached
    summaries = compute_access_summaries(graph)
    schemas = ProjectSchemas()
    functions = list(graph.iter_functions())
    for family in families:
        contract = FamilyContract(family=family)
        for spec in family.writers:
            for fn in functions:
                if not spec.matches(fn):
                    continue
                contract.writer_count += 1
                contract.writes.extend(writer_sites(graph, fn))
                if contract.anchor is None and fn.node is not None:
                    contract.anchor = KeySite(
                        fn.relpath, fn.node.lineno, fn.node.col_offset
                    )
        for reader in family.readers:
            spec = reader.spec()
            for fn in functions:
                if not spec.matches(fn):
                    continue
                contract.reader_count += 1
                roots = reader_roots(fn, reader)
                if roots:
                    walker = _AccessWalker(graph, fn, roots, summaries)
                    for access in walker.walk():
                        if not access.key:
                            continue  # dynamically-keyed: out of scope
                        contract.reads.append(
                            ReadAccess(
                                key=access.key,
                                required=access.required,
                                guarded=access.guarded,
                                site=KeySite(
                                    fn.relpath, access.line, access.col
                                ),
                                via=access.via,
                            )
                        )
                if contract.anchor is None and fn.node is not None:
                    contract.anchor = KeySite(
                        fn.relpath, fn.node.lineno, fn.node.col_offset
                    )
        contract.version, contract.version_site = _version_value(
            graph, family
        )
        schemas.contracts[family.name] = contract
    if families is FAMILIES:
        graph._schema_contracts = schemas
    return schemas


# -- snapshot --------------------------------------------------------------


def schemas_snapshot(schemas: ProjectSchemas) -> dict:
    """The machine-readable snapshot document of inferred contracts.

    This is what ``reprolint --schemas-out`` writes and what S502 diffs
    the live tree against; the committed copy lives at the repository
    root as ``schemas.json``.
    """
    families = {}
    for contract in schemas.families():
        families[contract.family.name] = {
            "version": contract.version,
            "writer_keys": contract.writer_keys(),
            "reader_required": contract.required_keys(),
            "reader_optional": contract.optional_keys(),
        }
    return {"snapshot_version": SNAPSHOT_VERSION, "families": families}


def render_snapshot(snapshot: dict) -> str:
    """Canonical snapshot text: sorted keys, indented, newline-final."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def load_snapshot(path: Path) -> dict | None:
    """Parse a committed snapshot; ``None`` when absent or unreadable.

    A missing snapshot disables S502 (bootstrap state); a corrupt one is
    treated the same — the CI snapshot-diff step still fails on it.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or "families" not in data:
        return None
    return data
