"""Common interface for extraction systems under comparison.

ObjectRunner produces attribute-labelled objects; the unsupervised
baselines produce *unlabelled* relational rows (column id -> values).  The
evaluation layer maps baseline columns onto SOD attributes before grading
(the paper graded baseline output manually; the optimal column mapping is
the mechanical equivalent, and is generous to the baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TableRecord:
    """One extracted row: column id -> list of string values."""

    columns: dict[int, list[str]] = field(default_factory=dict)
    page_index: int = -1

    def all_values(self) -> list[str]:
        """All values of the row, across every column."""
        out: list[str] = []
        for values in self.columns.values():
            out.extend(values)
        return out


@dataclass
class SystemOutput:
    """What a system extracted from one source.

    Exactly one of ``objects`` (attribute-labelled, ObjectRunner) or
    ``records`` (column-labelled, baselines) is populated.  ``failed``
    marks sources the system could not handle at all.
    """

    system: str
    source: str
    objects: list = field(default_factory=list)
    records: list[TableRecord] = field(default_factory=list)
    failed: bool = False
    failure_reason: str = ""
    wrap_seconds: float = 0.0

    @property
    def labelled(self) -> bool:
        return bool(self.objects) or not self.records
