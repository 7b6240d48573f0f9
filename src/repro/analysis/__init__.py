"""reprolint: project-specific static analysis for the repro codebase.

The staged pipeline promises byte-identical parallel/serial multi-source
runs and reproducible extraction given a seed; nothing in Python enforces
that.  This package is the enforcement: an AST-based rule engine
(:mod:`repro.analysis.engine`) with determinism, stage-contract,
exception-contract and API-drift rules (:mod:`repro.analysis.rules`),
inline ``# repro: ignore[RULE-ID]`` suppressions (the one way to accept
a finding), and text/JSON/SARIF reporters.

Run it with ``python -m repro.analysis src`` (or the ``reprolint``
console script).  The rule catalog lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.cli import main
from repro.analysis.engine import (
    AnalysisReport,
    FileContext,
    Finding,
    Rule,
    analyze_file,
    analyze_paths,
    build_rules,
    register_rule,
    rule_registry,
    suppressed_rules,
)
from repro.analysis.graph import ProjectGraph
from repro.analysis.reporters import render_json, render_text, summarize

__all__ = [
    "AnalysisReport",
    "FileContext",
    "Finding",
    "ProjectGraph",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "build_rules",
    "main",
    "register_rule",
    "render_json",
    "render_text",
    "rule_registry",
    "summarize",
    "suppressed_rules",
]
