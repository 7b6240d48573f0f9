"""Project-wide symbol table and conservative call graph.

The per-file rules of :mod:`repro.analysis.rules` see one tree at a
time; the whole-program rules (E401 exception contracts, C202
transitive stage contracts, A501 public-API drift) need to follow
calls and names across module boundaries.  :class:`ProjectGraph` is
that substrate: it parses every file of the scan once, records each
module's top-level symbols and import aliases, and resolves call
expressions to the :class:`FunctionInfo` they name.

Resolution is deliberately conservative.  Only the statically obvious
shapes resolve: a plain name bound by a local ``def`` or an import
alias, an alias-qualified dotted chain (``bench.write_bench``), a
``self.``/``cls.`` method call (searched through statically-resolvable
base classes), ``Class.method``, and ``Class(...)`` as a call of
``Class.__init__``.  Anything dynamic — ``getattr``, callables passed as
values, monkey-patching — stays unresolved and is simply not followed.

All iteration orders that can influence rule output are sorted, so the
graph meets the determinism bar the rules enforce.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, or ``''`` if not a chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_name(path: Path, root: Path) -> str:
    """Dotted module name of a file relative to the scan root.

    A leading ``src`` component is stripped (the repo layout puts the
    package under ``src/``), and ``pkg/__init__.py`` names ``pkg``.
    """
    try:
        rel = path.resolve().relative_to(root)
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(node: ast.ImportFrom, module: str, package: str) -> str:
    """The absolute dotted base of an ImportFrom (handles ``from . import``)."""
    base = node.module or ""
    if node.level:
        parts = module.split(".")[: -node.level] or [package]
        prefix = ".".join(p for p in parts if p)
        base = f"{prefix}.{base}".strip(".") if base else prefix
    return base


@dataclass
class FunctionInfo:
    """One function or method; the call-graph node."""

    qualname: str  #: ``module:func`` or ``module:Class.method``
    module: str
    name: str
    cls_name: str = ""  #: enclosing class name ('' for module-level defs)
    node: ast.FunctionDef | ast.AsyncFunctionDef | None = None
    params: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """A class definition with its methods and raw base-class names."""

    name: str
    module: str
    node: ast.ClassDef | None = None
    bases: tuple[str, ...] = ()  #: dotted base names as written
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One ``ast.Call`` inside a function, with its resolution."""

    node: ast.Call
    callee: str | None  #: resolved qualname, or None for dynamic/external


@dataclass
class ModuleInfo:
    """Per-module symbol table and import aliases."""

    name: str
    path: Path
    relpath: str
    tree: ast.Module
    #: local name -> absolute dotted target (module, or module.symbol).
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: names bound by top-level assignment (constants, type aliases, ...).
    assigns: set[str] = field(default_factory=set)
    #: literal ``__all__`` entries, or None when absent / not a literal.
    exports: list[str] | None = None

    def defines(self, symbol: str) -> bool:
        """True when ``symbol`` is bound at this module's top level."""
        return (
            symbol in self.functions
            or symbol in self.classes
            or symbol in self.assigns
            or symbol in self.aliases
        )


class ProjectGraph:
    """Symbols and calls across one scanned file set."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self.module_by_relpath: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}  #: ``module:Class`` keyed
        #: qualname -> ordered call sites found anywhere in the function body
        #: (nested defs included: conservative for reachability).
        self.calls: dict[str, list[CallSite]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, root: Path, files: Iterable[Path]) -> "ProjectGraph":
        """Parse the files and build symbols and the call graph."""
        graph = cls(root.resolve())
        ordered = sorted({Path(f).resolve() for f in files})
        for path in ordered:
            graph._add_module(path)
        for qualname in sorted(graph.functions):
            graph.calls[qualname] = graph._collect_calls(
                graph.functions[qualname]
            )
        return graph

    def _add_module(self, path: Path) -> None:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            return  # unparseable files are E001's problem, not the graph's
        name = module_name(path, self.root)
        relpath = _relpath(path, self.root)
        info = ModuleInfo(
            name=name, path=path, relpath=relpath, tree=tree
        )
        self._collect_aliases(info)
        self._collect_symbols(info)
        self.modules[name] = info
        self.module_by_relpath[relpath] = info

    def _collect_aliases(self, info: ModuleInfo) -> None:
        """Import aliases anywhere in the module (function-level included)."""
        package = info.name.rsplit(".", 1)[0] if "." in info.name else ""
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    info.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(node, info.name, package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    info.aliases[local] = target

    def _collect_symbols(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._function_info(info, stmt, cls_name="")
                info.functions[stmt.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(stmt, ast.ClassDef):
                ci = ClassInfo(
                    name=stmt.name,
                    module=info.name,
                    node=stmt,
                    bases=tuple(
                        d for d in (dotted_name(b) for b in stmt.bases) if d
                    ),
                )
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._function_info(info, sub, cls_name=stmt.name)
                        ci.methods[sub.name] = fn
                        self.functions[fn.qualname] = fn
                info.classes[stmt.name] = ci
                self.classes[f"{info.name}:{stmt.name}"] = ci
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.assigns.add(target.id)
                        if target.id == "__all__":
                            info.exports = _literal_strings(stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    info.assigns.add(stmt.target.id)

    @staticmethod
    def _function_info(
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str,
    ) -> FunctionInfo:
        prefix = f"{cls_name}." if cls_name else ""
        args = node.args
        params = tuple(
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        return FunctionInfo(
            qualname=f"{info.name}:{prefix}{node.name}",
            module=info.name,
            name=node.name,
            cls_name=cls_name,
            node=node,
            params=params,
        )

    def _collect_calls(self, fn: FunctionInfo) -> list[CallSite]:
        if fn.node is None:
            return []
        module = self.modules[fn.module]
        sites = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                sites.append(
                    CallSite(
                        node=node, callee=self.resolve_call(module, fn, node)
                    )
                )
        sites.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
        return sites

    # -- resolution --------------------------------------------------------

    @staticmethod
    def expand_alias(module: ModuleInfo, dotted: str) -> str:
        """``dotted`` with its leading name replaced by the import target.

        ``from time import time`` makes a bare ``time()`` expand to
        ``time.time``, so a name resolves to one canonical spelling
        regardless of import style.
        """
        if not dotted:
            return ""
        head, _, rest = dotted.partition(".")
        target = module.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_dotted(self, dotted: str) -> tuple[str, str] | None:
        """Split an absolute dotted path into (project module, remainder)."""
        candidate = dotted
        while candidate:
            if candidate in self.modules:
                rest = dotted[len(candidate) :].lstrip(".")
                return candidate, rest
            candidate = (
                candidate.rsplit(".", 1)[0] if "." in candidate else ""
            )
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        caller: FunctionInfo | None,
        call: ast.Call,
    ) -> str | None:
        """Qualname of the function a call names, or None when dynamic."""
        dotted = dotted_name(call.func)
        if not dotted:
            return None
        parts = dotted.split(".")
        head = parts[0]
        # self.method() / cls.method() inside a class body.
        if (
            head in ("self", "cls")
            and caller is not None
            and caller.cls_name
            and len(parts) == 2
        ):
            method = self._lookup_method(
                module, module.classes.get(caller.cls_name), parts[1]
            )
            return method.qualname if method else None
        # Plain local name: def, class (constructor), or import alias.
        if len(parts) == 1:
            if head in module.functions:
                return module.functions[head].qualname
            if head in module.classes:
                return self._constructor(module.classes[head])
        # Class.method / LocalClass.method inside the same module.
        if len(parts) == 2 and head in module.classes:
            method = module.classes[head].methods.get(parts[1])
            if method is not None:
                return method.qualname
        expanded = self.expand_alias(module, dotted)
        resolved = self.resolve_dotted(expanded)
        if resolved is None:
            return None
        mod_name, rest = resolved
        target = self.modules[mod_name]
        rest_parts = rest.split(".") if rest else []
        if len(rest_parts) == 1:
            name = rest_parts[0]
            if name in target.functions:
                return target.functions[name].qualname
            if name in target.classes:
                return self._constructor(target.classes[name])
        elif len(rest_parts) == 2:
            ci = target.classes.get(rest_parts[0])
            if ci is not None:
                method = self._lookup_method(target, ci, rest_parts[1])
                return method.qualname if method else None
        return None

    def _constructor(self, ci: ClassInfo) -> str | None:
        method = self._lookup_method(self.modules[ci.module], ci, "__init__")
        return method.qualname if method else None

    def _lookup_method(
        self,
        module: ModuleInfo,
        ci: ClassInfo | None,
        name: str,
        _seen: frozenset[str] = frozenset(),
    ) -> FunctionInfo | None:
        """Find a method on a class or its statically-resolvable bases."""
        if ci is None:
            return None
        key = f"{ci.module}:{ci.name}"
        if key in _seen:
            return None
        if name in ci.methods:
            return ci.methods[name]
        for base in ci.bases:
            base_ci = self._resolve_class(module, base)
            found = self._lookup_method(
                self.modules.get(base_ci.module, module) if base_ci else module,
                base_ci,
                name,
                _seen | {key},
            )
            if found is not None:
                return found
        return None

    def _resolve_class(
        self, module: ModuleInfo, dotted: str
    ) -> ClassInfo | None:
        """The project ClassInfo a dotted base-class name refers to."""
        head = dotted.split(".", 1)[0]
        if "." not in dotted and head in module.classes:
            return module.classes[head]
        expanded = self.expand_alias(module, dotted)
        resolved = self.resolve_dotted(expanded)
        if resolved is None:
            return None
        mod_name, rest = resolved
        if "." in rest or not rest:
            return None
        return self.modules[mod_name].classes.get(rest)

    # -- queries -----------------------------------------------------------

    def reachable_functions(self, roots: Iterable[str]) -> frozenset[str]:
        """Qualnames transitively callable from the given root qualnames."""
        seen: set[str] = set()
        frontier = sorted(set(roots) & set(self.functions))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self.calls.get(current, ()):
                if site.callee is not None and site.callee not in seen:
                    frontier.append(site.callee)
        return frozenset(seen)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """All functions in sorted qualname order (deterministic)."""
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


def _literal_strings(node: ast.AST) -> list[str] | None:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out = []
    for el in node.elts:
        if isinstance(el, ast.Constant) and isinstance(el.value, str):
            out.append(el.value)
        else:
            return None
    return out


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def build_single_file_graph(path: Path, root: Path) -> ProjectGraph:
    """A one-file graph: the fallback when a rule runs without prepare."""
    return ProjectGraph.build(root, [path])
