"""The reprolint command line: ``python -m repro.analysis`` / ``reprolint``.

Exit codes: 0 — clean (every finding suppressed inline with ``# repro:
ignore[RULE-ID]``); 1 — open findings; 2 — usage errors (bad path,
unknown rule in ``--rules`` or ``--explain``).

Every run is one serial walk over the scanned paths; ``--rules`` and
path arguments narrow what is checked.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from repro.analysis.engine import (
    analyze_paths,
    build_rules,
    iter_rule_docs,
    rule_registry,
)
from repro.analysis.reporters import render_json, render_sarif, render_text


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the reprolint CLI."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based static analysis enforcing determinism, stage "
            "contracts, exception contracts and the public API across the "
            "repro codebase"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="path findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif emits SARIF 2.1.0 "
        "for code-scanning upload)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only the named rules (default: all registered rules)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE_ID",
        help="print one rule's documentation (docstring, rationale, "
        "firing example) and exit",
    )
    return parser


def _explain(rule_id: str) -> int:
    registry = rule_registry()
    cls = registry.get(rule_id)
    if cls is None:
        known = ", ".join(sorted(registry))
        print(
            f"reprolint: error: unknown rule {rule_id!r} (known: {known})",
            file=sys.stderr,
        )
        return 2
    print(f"{cls.rule_id} — {cls.title}")
    doc = inspect.getdoc(cls)
    if doc:
        print()
        print(doc)
    if cls.rationale:
        print()
        print(f"Rationale: {cls.rationale}")
    if cls.example:
        print()
        print("Example (fires the rule):")
        for line in cls.example.strip("\n").splitlines():
            print(f"    {line}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, title, rationale in iter_rule_docs():
            print(f"{rule_id}  {title}")
            print(f"       {rationale}")
        return 0

    if args.explain:
        return _explain(args.explain)

    try:
        rule_ids = (
            [part.strip() for part in args.rules.split(",") if part.strip()]
            if args.rules
            else None
        )
        rules = build_rules(rule_ids)
    except ValueError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    root = Path(args.root).resolve()
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        names = ", ".join(str(p) for p in missing)
        print(f"reprolint: error: no such path: {names}", file=sys.stderr)
        return 2

    report = analyze_paths(paths, root=root, rules=rules)

    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.clean else 1
