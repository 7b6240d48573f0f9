"""Text, JSON and SARIF reporters for reprolint analysis reports."""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.engine import STATUS_SUPPRESSED, AnalysisReport

#: Version of the JSON report schema (bumped on breaking changes).
#: v3 dropped the baseline lists and their summary counts.
JSON_SCHEMA_VERSION = 3


def summarize(report: AnalysisReport) -> dict:
    """The counts block shared by both reporters."""
    open_by_rule = Counter(f.rule for f in report.open_findings)
    return {
        "files_scanned": report.files_scanned,
        "open": len(report.open_findings),
        "suppressed": len(report.by_status(STATUS_SUPPRESSED)),
        "open_by_rule": {rule: open_by_rule[rule] for rule in sorted(open_by_rule)},
        "clean": report.clean,
    }


def render_text(report: AnalysisReport, verbose: bool = False) -> str:
    """Human-readable report: one line per actionable item plus a summary."""
    lines: list[str] = []
    for finding in report.findings:
        if finding.status != "open" and not verbose:
            continue
        marker = "" if finding.status == "open" else f" [{finding.status}]"
        lines.append(
            f"{finding.location()}: {finding.rule}: {finding.message}{marker}"
        )
    summary = summarize(report)
    lines.append(
        f"reprolint: {summary['files_scanned']} files, "
        f"{summary['open']} open, {summary['suppressed']} suppressed"
        + (" — clean" if report.clean else "")
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report (schema: see docs/ANALYSIS.md).

    Findings are explicitly sorted, so the document is stable under any
    engine-internal ordering change — consumers may diff two reports
    textually.
    """
    findings = sorted(
        report.findings,
        key=lambda f: (f.path, f.line, f.col, f.rule, f.message, f.status),
    )
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "root": str(report.root),
        "summary": summarize(report),
        "findings": [finding.to_json() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


#: SARIF spec version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(report: AnalysisReport) -> str:
    """The report as a SARIF 2.1.0 document (GitHub code scanning).

    Only *open* findings become SARIF results — a suppressed finding is
    an accepted state, not a source annotation (the text/JSON reporters
    still list it).  Rules and results are sorted, so the document is
    byte-stable for a given report.
    """
    from repro.analysis.engine import rule_registry

    registry = rule_registry()
    open_findings = sorted(
        report.open_findings,
        key=lambda f: (f.path, f.line, f.col, f.rule, f.message),
    )
    used_rules = sorted({f.rule for f in open_findings})
    rules = []
    for rule_id in used_rules:
        cls = registry.get(rule_id)
        descriptor: dict[str, object] = {"id": rule_id}
        if cls is not None:
            descriptor["shortDescription"] = {"text": cls.title}
            if cls.rationale:
                descriptor["fullDescription"] = {"text": cls.rationale}
        else:  # E001 parse failures have no registered rule class
            descriptor["shortDescription"] = {"text": "file does not parse"}
        rules.append(descriptor)
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": used_rules.index(finding.rule),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            # SARIF columns are 1-based.
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in open_findings
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": report.root.as_uri() + "/"}
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
