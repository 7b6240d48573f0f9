"""The reprolint rule engine: findings, rules, suppression, file walking.

A :class:`Rule` inspects one parsed file (:class:`FileContext`) and yields
:class:`Finding` objects.  The engine owns everything around that:
collecting the Python files of a scan root, parsing each once, dispatching
every registered rule over the tree (one serial walk in sorted file
order), honouring ``# repro: ignore[RULE-ID]`` suppression comments, and
folding in the committed baseline of grandfathered findings
(:mod:`repro.analysis.baseline`).

Rules register themselves with :func:`register_rule`, mirroring the stage
registry of :mod:`repro.core.pipeline`; importing
:mod:`repro.analysis.rules` is what populates the registry.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Finding produced when a file cannot be parsed at all.
PARSE_RULE_ID = "E001"

#: Status values a finding moves through while the engine applies
#: suppressions and the baseline.
STATUS_OPEN = "open"
STATUS_SUPPRESSED = "suppressed"
STATUS_BASELINED = "baselined"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\-\s]+)\]")


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style path relative to the scan root
    line: int  # 1-based
    col: int  # 0-based
    message: str
    #: The stripped source line, used for baseline fingerprinting (stable
    #: across unrelated edits that only move the line).
    snippet: str = ""
    status: str = STATUS_OPEN
    #: 1-based (first, last) physical lines a suppression comment may sit
    #: on: the whole statement for multi-line expressions, decorators
    #: through the signature for defs.  Engine-internal — not serialized.
    span: tuple[int, int] | None = field(
        default=None, compare=False, repr=False
    )

    def location(self) -> str:
        """``path:line:col`` for human output."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        """The finding as a JSON-serializable dict."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "status": self.status,
        }


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: Path
    relpath: str
    source: str
    lines: list[str]
    tree: ast.Module
    root: Path

    def snippet_at(self, line: int) -> str:
        """The stripped source text of a 1-based line ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at an AST node of this file."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet_at(line),
            span=_suppression_span(node),
        )


class Rule:
    """One named check; subclass, set the metadata, implement check_file.

    ``rule_id`` is the suppression/baseline key (``# repro:
    ignore[RULE-ID]``); ``title`` and ``rationale`` feed ``--list-rules``
    and the rule catalog in ``docs/ANALYSIS.md``.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    #: A minimal self-contained code sample that fires the rule, shown by
    #: ``reprolint --explain RULE-ID``.  Every registered rule must set
    #: one (enforced by test_explain_catalog_complete).
    example: str = ""
    #: True when the rule wants the shared :class:`ProjectGraph`; the
    #: engine builds it once per run and calls :meth:`prepare_graph`.
    requires_graph: bool = False

    def prepare(self, root: Path, files: list[Path]) -> None:
        """One-time hook before the file walk; cross-file setup."""

    def prepare_graph(self, graph) -> None:
        """Receive the shared project graph (requires_graph rules only)."""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rule_id={self.rule_id!r})"


_RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a :class:`Rule` to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set a non-empty rule_id")
    _RULE_REGISTRY[cls.rule_id] = cls
    return cls


def rule_registry() -> dict[str, type[Rule]]:
    """A copy of the rule-id -> rule-class registry."""
    # Importing the rules package is what registers the bundled rules.
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return dict(_RULE_REGISTRY)


def build_rules(ids: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate registered rules (all of them, or the given ids)."""
    registry = rule_registry()
    if ids is None:
        ids = sorted(registry)
    rules = []
    for rule_id in ids:
        if rule_id not in registry:
            known = ", ".join(sorted(registry))
            raise ValueError(f"unknown rule {rule_id!r} (known: {known})")
        rules.append(registry[rule_id]())
    return rules


# -- suppression comments --------------------------------------------------


def suppressed_rules(line_text: str) -> frozenset[str]:
    """Rule ids suppressed by a ``# repro: ignore[...]`` comment, if any."""
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return frozenset()
    return frozenset(
        part.strip() for part in match.group(1).split(",") if part.strip()
    )


def _suppression_span(node: ast.AST) -> tuple[int, int] | None:
    """Physical lines where an ignore comment counts for this node.

    A multi-line statement accepts the comment on any of its lines; a
    decorated ``def``/``class`` accepts it on a decorator line or
    anywhere in the signature (up to the line before the body starts) —
    previously only the first physical line of the node was checked.
    """
    line = getattr(node, "lineno", None)
    if line is None:
        return None
    end = getattr(node, "end_lineno", None) or line
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        decorators = [d.lineno for d in node.decorator_list]
        line = min([line, *decorators])
        if node.body:
            end = max(line, node.body[0].lineno - 1)
    return (line, end)


def _apply_suppressions(ctx: FileContext, findings: list[Finding]) -> None:
    for finding in findings:
        first, last = finding.span or (finding.line, finding.line)
        for line in range(first, last + 1):
            if finding.rule in suppressed_rules(ctx.snippet_at(line)):
                finding.status = STATUS_SUPPRESSED
                break


# -- walking ---------------------------------------------------------------


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """The Python files under the given paths, sorted for determinism."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
            continue
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                seen.setdefault(sub.resolve(), None)
    return sorted(seen)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def analyze_file(
    path: Path, root: Path, rules: Iterable[Rule]
) -> list[Finding]:
    """All findings of all rules for one file (suppressions applied).

    A file that does not parse yields its single E001 finding instead.
    """
    relpath = _relpath(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_RULE_ID,
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=path,
        relpath=relpath,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        root=root,
    )
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check_file(ctx))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    _apply_suppressions(ctx, findings)
    return findings


@dataclass
class AnalysisReport:
    """Outcome of one engine run over a set of files."""

    root: Path
    files_scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: Baseline entries that matched no current finding (stale grandfathers
    #: that must be removed from the baseline file).
    expired_baseline: list[dict] = field(default_factory=list)
    #: Baseline entries without a meaningful justification.
    unjustified_baseline: list[dict] = field(default_factory=list)
    #: Baseline entries past their ``expires`` deadline (``--today``).
    overdue_baseline: list[dict] = field(default_factory=list)
    #: The shared project graph, when a requires_graph rule forced its
    #: construction this run (``--schemas-out`` reuses it).
    graph: object = field(default=None, repr=False, compare=False)

    def by_status(self, status: str) -> list[Finding]:
        """The findings currently carrying the given status."""
        return [f for f in self.findings if f.status == status]

    @property
    def open_findings(self) -> list[Finding]:
        return self.by_status(STATUS_OPEN)

    @property
    def clean(self) -> bool:
        """True when nothing requires attention (exit code 0)."""
        return (
            not self.open_findings
            and not self.expired_baseline
            and not self.unjustified_baseline
            and not self.overdue_baseline
        )


def analyze_paths(
    paths: Iterable[Path],
    root: Path | None = None,
    rules: Iterable[Rule] | None = None,
) -> AnalysisReport:
    """Run the rules over every Python file under ``paths``.

    Files are analyzed one after another in sorted order, so the report
    is deterministic — the engine holds itself to the determinism bar it
    enforces.  Cross-file preparation (``prepare`` and the shared project
    graph) runs once, before the walk, over every collected file.
    """
    root = (root or Path.cwd()).resolve()
    rule_list = list(rules) if rules is not None else build_rules()
    files = collect_files(paths)
    for rule in rule_list:
        rule.prepare(root, files)
    shared_graph = None
    if any(rule.requires_graph for rule in rule_list):
        from repro.analysis.graph import ProjectGraph

        shared_graph = ProjectGraph.build(root, files)
        for rule in rule_list:
            if rule.requires_graph:
                rule.prepare_graph(shared_graph)
    report = AnalysisReport(
        root=root, files_scanned=len(files), graph=shared_graph
    )
    for path in files:
        report.findings.extend(analyze_file(path, root, rule_list))
    return report


def iter_rule_docs() -> Iterator[tuple[str, str, str]]:
    """(rule_id, title, rationale) for every registered rule, sorted."""
    registry = rule_registry()
    for rule_id in sorted(registry):
        cls = registry[rule_id]
        yield rule_id, cls.title, cls.rationale
