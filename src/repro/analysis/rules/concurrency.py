"""T301: shared mutable state reachable from thread-pooled code.

The analysis engine (:func:`repro.analysis.engine.analyze_paths`) checks
files on a ``ThreadPoolExecutor`` and promises a report byte-identical
to a serial run.  Any write to module-level mutable state from code its
workers can reach (the rule modules and everything they import) breaks
that promise silently: last-writer-wins counters, orderless registries.
This rule builds the import graph of the scanned tree, marks every
module transitively reachable from a module that uses
``ThreadPoolExecutor`` or imports one that does, and flags
function-level writes to module-level names inside those modules:
``global`` rebinding, subscript/attribute stores, augmented assignment,
and mutating method calls.  ``run_sources`` and the bench sweep fan out
to worker processes, not threads; the P-rules guard that boundary.

Import-time registration patterns (decorators filling a module registry
before any pool exists) are expected findings — they belong in the
baseline with that one-line justification, keeping the rule loud for the
genuinely dangerous case.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule
from repro.analysis.graph import ProjectGraph

_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "move_to_end",
    }
)


def _uses_thread_pool(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor":
            return True
    return False


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by plain assignment at module top level."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _root_name(node: ast.AST) -> str:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


@register_rule
class SharedStateRule(Rule):
    """T301: module-level mutation reachable from the worker pool."""

    rule_id = "T301"
    title = "write to module-level state reachable from ThreadPoolExecutor"
    rationale = (
        "the analysis engine checks files on a thread pool and promises a "
        "report byte-identical to a serial run; a write to module-level "
        "mutable state from pool-reachable code (rule modules and what "
        "they import) races and breaks that promise silently.  Keep the "
        "state in locals or behind a lock-owning object, or baseline "
        "import-time-only registration with a justification."
    )
    example = (
        "_SEEN: dict[str, int] = {}\n"
        "def check_file(self, ctx):     # runs on the engine's pool\n"
        "    _SEEN[ctx.path.name] = len(ctx.tree.body)   # T301: racy "
        "module state\n"
        "# fix: keep the state in locals or behind a lock-owning object"
    )

    requires_graph = True

    def __init__(self) -> None:
        self._reachable_files: set[Path] = set()
        self._prepared = False

    def prepare_graph(self, graph: ProjectGraph) -> None:
        """Mark the modules pool-using code can (transitively) import."""
        self._prepared = True
        pool_modules = {
            name
            for name, info in graph.modules.items()
            if _uses_thread_pool(info.tree)
        }
        # Importers of a pool module hand it their callables (the rule
        # modules' checks run on the engine's pool): pool roots too.
        pool_roots = sorted(
            pool_modules
            | {
                name
                for name, info in graph.modules.items()
                if info.imports & pool_modules
            }
        )
        reachable: set[str] = set()
        frontier = list(pool_roots)
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            frontier.extend(sorted(graph.modules[current].imports))
        self._reachable_files = {
            graph.modules[name].path for name in reachable
        }

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag shared-module-state writes in pool-reachable modules."""
        if self._prepared and ctx.path.resolve() not in self._reachable_files:
            return
        if not self._prepared and not _uses_thread_pool(ctx.tree):
            # Single-file use (tests, editors): only self-pooled modules.
            return
        shared = _module_level_names(ctx.tree)
        if not shared:
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, func, shared)

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef,
        shared: set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in (n for n in node.names if n in shared):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{func.name}() rebinds module-level {name!r} via "
                        "'global'; pool workers would race on it",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_target(ctx, func, target, shared)
            elif isinstance(node, ast.AugAssign):
                yield from self._check_target(ctx, func, node.target, shared)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATING_METHODS:
                    root = _root_name(node.func.value)
                    if root in shared:
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"{func.name}() calls .{node.func.attr}() on "
                            f"module-level {root!r}; shared mutable state "
                            "under the worker pool",
                        )

    def _check_target(
        self,
        ctx: FileContext,
        func: ast.FunctionDef,
        target: ast.AST,
        shared: set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                yield from self._check_target(ctx, func, el, shared)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _root_name(target)
            if root in shared:
                kind = "item" if isinstance(target, ast.Subscript) else "attribute"
                yield ctx.finding(
                    self.rule_id,
                    target,
                    f"{func.name}() assigns an {kind} of module-level "
                    f"{root!r}; shared mutable state under the worker pool",
                )
