"""reprolint: project-specific static analysis for the repro codebase.

The staged pipeline promises byte-identical parallel/serial multi-source
runs and reproducible extraction given a seed; nothing in Python enforces
that.  This package is the enforcement: an AST-based rule engine
(:mod:`repro.analysis.engine`) with determinism, stage-contract and
process-boundary rules (:mod:`repro.analysis.rules`), inline ``# repro:
ignore[RULE-ID]`` suppressions, a committed baseline of justified
findings (:mod:`repro.analysis.baseline`), schema-contract inference
over every serialized-artifact boundary (:mod:`repro.analysis.schemas`,
rules S501–S504, the ``schemas.json`` snapshot), and text/JSON
reporters.

Run it with ``python -m repro.analysis src`` (or the ``reprolint``
console script).  The rule catalog lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
    updated_baseline,
)
from repro.analysis.cli import main
from repro.analysis.dataflow import FunctionSummary, TaintAnalyzer, TaintFlow
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
from repro.analysis.schemas import (
    ArtifactFamily,
    FamilyContract,
    ProjectSchemas,
    load_snapshot,
    project_schemas,
    render_snapshot,
    schemas_snapshot,
)

__all__ = [
    "AnalysisReport",
    "ArtifactFamily",
    "BaselineEntry",
    "FamilyContract",
    "FileContext",
    "Finding",
    "FunctionSummary",
    "ProjectGraph",
    "ProjectSchemas",
    "Rule",
    "TaintAnalyzer",
    "TaintFlow",
    "analyze_file",
    "analyze_paths",
    "apply_baseline",
    "build_rules",
    "load_baseline",
    "load_snapshot",
    "main",
    "project_schemas",
    "register_rule",
    "render_json",
    "render_snapshot",
    "render_text",
    "rule_registry",
    "save_baseline",
    "schemas_snapshot",
    "summarize",
    "suppressed_rules",
    "updated_baseline",
]
