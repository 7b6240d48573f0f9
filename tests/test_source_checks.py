"""Checks over the package's source that no run of the pipeline makes.

- **Imports.**  Every ``import repro...`` / ``from repro... import
  name`` statement resolves, including the ones inside functions and
  ``TYPE_CHECKING`` blocks that no import runs.  (That every module
  imports and binds its ``__all__`` is ``tests/test_api_surface.py``'s.)
- **Dead public symbols.**  Every public top-level function, class and
  constant of the package is referenced somewhere in ``src``, ``tests``
  or ``benchmarks``: a loaded name, an attribute, an imported name or an
  identifier-like string (``__all__`` entries, registry keys) other
  than its own definition.  Remove, underscore or export the rest.
- **Silent handlers.**  No bare ``except:`` (it also catches
  ``KeyboardInterrupt``), and no ``except Exception``/``BaseException``
  whose body only passes, outside the modules whose job is catching
  broadly at the pipeline's edge.
- **Builtin raises below the stages.**  The packages the pipeline
  stages run raise :mod:`repro.errors` types, so the CLI, the service
  and the failure policies can tell a bad input from a crash: no
  ``raise ValueError(...)`` and the like there, bar two invariant
  checks on values the package computed itself.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
PATHS = sorted((SRC_ROOT / "repro").rglob("*.py"))
MODULES = {
    ".".join(path.relative_to(SRC_ROOT).with_suffix("").parts).removesuffix(
        ".__init__"
    ): path
    for path in PATHS
}
TREES = {
    name: ast.parse(path.read_text(encoding="utf-8"))
    for name, path in MODULES.items()
}

#: Modules whose job is catching broadly: the pipeline, the runner and
#: the fault layer translate any stage failure into a typed outcome.
BOUNDARY_MODULES = frozenset(
    {"repro.core.pipeline", "repro.core.objectrunner", "repro.core.faults"}
)
#: Console-script entry points, named in pyproject.toml only.
ENTRY_POINTS = frozenset({"main"})
#: Packages the pipeline stages run.
STAGE_PACKAGES = (
    "repro.annotation",
    "repro.core.stages",
    "repro.htmlkit",
    "repro.recognizers",
    "repro.registry",
    "repro.sod",
    "repro.vision",
    "repro.wrapper",
)
#: Builtin exceptions a caller could mistake for a crash.
BUILTIN_ERRORS = frozenset(
    {
        "ArithmeticError", "AttributeError", "BaseException", "Exception",
        "IOError", "IndexError", "KeyError", "LookupError", "NameError",
        "OSError", "RuntimeError", "StopIteration", "TypeError",
        "ValueError", "ZeroDivisionError",
    }
)
#: Invariant checks on values the package computed itself: a match span
#: a recognizer produced, a layout lookup of an element it never laid out.
INVARIANT_RAISES = frozenset(
    {("repro.recognizers.base", "ValueError"), ("repro.vision.layout", "KeyError")}
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    return f"{module}.{name}" in MODULES


def test_every_project_import_resolves():
    broken = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                target = node.module or ""
                if target.split(".")[0] != "repro":
                    continue
                if target not in MODULES:
                    broken.append(f"{name}: no module {target}")
                    continue
                broken.extend(
                    f"{name}: {target} has no {alias.name}"
                    for alias in node.names
                    if alias.name != "*" and not resolves(target, alias.name)
                )
            elif isinstance(node, ast.Import):
                broken.extend(
                    f"{name}: no module {alias.name}"
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                    and alias.name not in MODULES
                )
            elif isinstance(node, ast.ImportFrom) and node.level:
                broken.append(f"{name}: relative import")
    assert broken == []


def references() -> Counter:
    """How often each name is referenced across src, tests, benchmarks."""
    seen: Counter = Counter(ENTRY_POINTS)
    paths = PATHS + sorted((REPO_ROOT / "tests").rglob("*.py"))
    paths += sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENTIFIER.fullmatch(node.value):
                    seen[node.value] += 1
    return seen


def public_symbols(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of each public top-level definition."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((stmt.name, stmt.lineno))
        elif isinstance(stmt, ast.Assign):
            found.extend(
                (target.id, stmt.lineno)
                for target in stmt.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            found.append((stmt.target.id, stmt.lineno))
    return [(name, line) for name, line in found if not name.startswith("_")]


def test_every_public_symbol_is_referenced():
    seen = references()
    dead = [
        f"{MODULES[name].relative_to(REPO_ROOT)}:{line}: {symbol}"
        for name, tree in TREES.items()
        for symbol, line in public_symbols(tree)
        if not seen[symbol]
    ]
    assert dead == []


def is_silent(body: list[ast.stmt]) -> bool:
    """Whether a handler body only passes (``pass``/``...``/jumps)."""
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue, ast.Break))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


def is_broad(node: ast.expr | None) -> bool:
    """Whether a handler's type names Exception or BaseException."""
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(
        isinstance(item, ast.Name) and item.id in ("Exception", "BaseException")
        for item in types
    )


def test_no_bare_or_silent_broad_handlers():
    found = []
    for name, tree in TREES.items():
        if name in BOUNDARY_MODULES:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or (is_broad(node.type) and is_silent(node.body)):
                found.append(f"{MODULES[name].relative_to(REPO_ROOT)}:{node.lineno}")
    assert found == []


def test_stage_packages_raise_project_errors():
    found = []
    for name, tree in TREES.items():
        if not name.startswith(STAGE_PACKAGES):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (
                isinstance(target, ast.Name)
                and target.id in BUILTIN_ERRORS
                and (name, target.id) not in INVARIANT_RAISES
            ):
                found.append(
                    f"{MODULES[name].relative_to(REPO_ROOT)}:{node.lineno}: {target.id}"
                )
    assert found == []
