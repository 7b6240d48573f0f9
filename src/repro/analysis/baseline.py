"""The committed baseline of grandfathered reprolint findings.

A baseline entry names one *known and justified* finding: rule id, file,
the offending source line, and a one-line reason explaining why the code
is acceptable as-is.  Matching is by ``(rule, path, snippet)`` rather than
line number, so unrelated edits that merely move the line do not invalidate
the baseline, while changing the flagged code itself *expires* the entry —
the engine then demands its removal, keeping the file tight.

Workflow:

- ``reprolint src --update-baseline`` records the current open findings,
  preserving the reasons of entries that still match and stamping new
  entries with ``TODO: justify`` — which fails subsequent runs until a
  human replaces it with a real justification.
- Entries whose finding disappeared are *expired*: the engine reports them
  and exits non-zero until they are removed (``--update-baseline`` drops
  them automatically).
- An entry may carry an ``expires`` ISO date (``YYYY-MM-DD``): a deadline
  for actually fixing the grandfathered finding.  When the CLI is given
  ``--today`` (CI passes ``$(date -u +%F)``), entries past their deadline
  are *overdue* — still matched, but reported and failing the run until
  the code is fixed or the deadline is consciously extended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.engine import (
    PARSE_RULE_ID,
    STATUS_BASELINED,
    STATUS_OPEN,
    AnalysisReport,
    Finding,
    rule_registry,
)

BASELINE_VERSION = 1

#: Reason stamped on entries ``--update-baseline`` adds; runs fail while
#: any entry still carries it.
PLACEHOLDER_REASON = "TODO: justify"


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding."""

    rule: str
    path: str
    snippet: str
    reason: str = ""
    #: Optional fix-by deadline (ISO ``YYYY-MM-DD``; '' = no deadline).
    expires: str = ""

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)

    def to_json(self) -> dict:
        """Serializable form; `expires` is included only when set."""
        payload = {
            "rule": self.rule,
            "path": self.path,
            "snippet": self.snippet,
            "reason": self.reason,
        }
        if self.expires:
            payload["expires"] = self.expires
        return payload


class BaselineError(ValueError):
    """The baseline file is malformed."""


def load_baseline(path: Path) -> list[BaselineEntry]:
    """Parse a baseline file (missing file means an empty baseline).

    An entry naming a rule id that is neither registered nor the parse
    finding ``E001`` is an error: no run could ever match or expire it,
    so it would otherwise sit in the file unnoticed.
    """
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise BaselineError(f"{path} must be an object with an 'entries' list")
    entries = []
    for raw in data["entries"]:
        try:
            entries.append(
                BaselineEntry(
                    rule=raw["rule"],
                    path=raw["path"],
                    snippet=raw["snippet"],
                    reason=str(raw.get("reason", "")),
                    expires=str(raw.get("expires", "")),
                )
            )
        except (TypeError, KeyError) as exc:
            raise BaselineError(
                f"{path}: malformed entry {raw!r} (need rule/path/snippet)"
            ) from exc
    known = set(rule_registry()) | {PARSE_RULE_ID}
    unknown = sorted({e.rule for e in entries} - known)
    if unknown:
        raise BaselineError(
            f"{path}: entries name unknown rule(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return entries


def save_baseline(path: Path, entries: list[BaselineEntry]) -> None:
    """Write a baseline file (entries sorted for stable diffs)."""
    ordered = sorted(entries, key=lambda e: e.key())
    payload = {
        "version": BASELINE_VERSION,
        "entries": [entry.to_json() for entry in ordered],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def entries_in_scope(
    entries: list[BaselineEntry],
    prefixes: list[str] | None,
    rules: set[str] | None = None,
) -> tuple[list[BaselineEntry], list[BaselineEntry]]:
    """Split entries into (in scope, out of scope) for a partial scan.

    ``prefixes`` are root-relative posix paths of the scanned files or
    directories; ``rules`` restricts to the rule ids actually running
    (``--rules``).  Entries outside the scope must neither match nor
    expire — a scan of ``tests/`` knows nothing about ``src/`` entries,
    and a rule-scoped run knows nothing about other rules' findings —
    and ``--update-baseline`` carries them over verbatim.
    """
    def in_scope(entry: BaselineEntry) -> bool:
        if prefixes is not None and not any(
            entry.path == p or entry.path.startswith(p + "/")
            for p in prefixes
        ):
            return False
        return rules is None or entry.rule in rules

    selected = [e for e in entries if in_scope(e)]
    rest = [e for e in entries if not in_scope(e)]
    return selected, rest


def apply_baseline(
    report: AnalysisReport, entries: list[BaselineEntry]
) -> None:
    """Mark matching open findings as baselined; record stale entries.

    Mutates ``report`` in place: matched findings flip to
    ``STATUS_BASELINED``; entries that matched nothing land in
    ``report.expired_baseline``; matched entries without a real reason
    land in ``report.unjustified_baseline``.
    """
    open_by_key: dict[tuple[str, str, str], list[Finding]] = {}
    for finding in report.findings:
        if finding.status == STATUS_OPEN:
            key = (finding.rule, finding.path, finding.snippet)
            open_by_key.setdefault(key, []).append(finding)
    for entry in entries:
        matches = open_by_key.get(entry.key(), [])
        if not matches:
            report.expired_baseline.append(entry.to_json())
            continue
        for finding in matches:
            finding.status = STATUS_BASELINED
        reason = entry.reason.strip()
        if not reason or reason == PLACEHOLDER_REASON:
            report.unjustified_baseline.append(entry.to_json())


def overdue_entries(
    entries: list[BaselineEntry], today: str
) -> list[BaselineEntry]:
    """Entries whose ``expires`` deadline is strictly before ``today``.

    Both sides are ISO ``YYYY-MM-DD`` strings, which compare correctly
    as plain text; entries without a deadline never come due.
    """
    return [
        entry
        for entry in entries
        if entry.expires and entry.expires < today
    ]


def updated_baseline(
    report: AnalysisReport, previous: list[BaselineEntry]
) -> list[BaselineEntry]:
    """The baseline covering the report's open + baselined findings.

    Reasons and deadlines of still-matching previous entries carry over;
    genuinely new findings get the placeholder reason so they cannot
    slip through unjustified.  Expired entries are dropped.
    """
    carried = {entry.key(): entry for entry in previous}
    fresh: dict[tuple[str, str, str], BaselineEntry] = {}
    for finding in report.findings:
        if finding.status not in (STATUS_OPEN, STATUS_BASELINED):
            continue
        key = (finding.rule, finding.path, finding.snippet)
        if key in fresh:
            continue
        prior = carried.get(key)
        fresh[key] = BaselineEntry(
            rule=finding.rule,
            path=finding.path,
            snippet=finding.snippet,
            reason=prior.reason if prior else PLACEHOLDER_REASON,
            expires=prior.expires if prior else "",
        )
    return list(fresh.values())
