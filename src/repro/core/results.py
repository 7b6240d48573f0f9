"""Result objects of a pipeline run."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sod.instances import ObjectInstance
from repro.wrapper.generate import Wrapper

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.faults import SourceFailure


@dataclass
class StageTimings:
    """Wall-clock seconds per pipeline stage for one source.

    Filled by :class:`~repro.core.pipeline.Pipeline` as each stage ends;
    each field is the ``timing_field`` one or more stages declare
    (tidy/clean and segmentation both accumulate into ``preprocess``).
    A source that runs the pipeline more than once — a demoted registry
    wrapper re-induced, or several enrichment passes — keeps one set of
    timings covering every run.
    """

    preprocess: float = 0.0
    #: Registry match/check/store stages of the registry-first path.
    registry: float = 0.0
    annotation: float = 0.0
    wrapping: float = 0.0
    extraction: float = 0.0
    enrichment: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all per-stage wall-clock seconds."""
        return sum(self.as_dict().values())

    def as_dict(self) -> dict[str, float]:
        """The timings as a plain field -> seconds mapping.

        Enumerates the declared dataclass fields, so a timing field added
        later participates automatically instead of being silently
        dropped (mirroring ``RunParams.with_overrides``).
        """
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }


@dataclass
class MultiSourceResult:
    """Pooled outcome of a multi-source run (optionally de-duplicated).

    Three per-source outcomes are possible: a completed
    :class:`SourceResult` in ``results`` (itself either ok or discarded
    by a quality gate), or — under the ``isolate`` failure policy — a
    :class:`~repro.core.faults.SourceFailure` in ``failures`` recording
    an unexpected crash.  A source appears in exactly one of the two
    maps; both keep input order.
    """

    results: dict[str, "SourceResult"] = field(default_factory=dict)
    objects: list[ObjectInstance] = field(default_factory=list)
    duplicates_merged: int = 0
    #: Unexpected per-source failures (source -> record), populated under
    #: the ``isolate`` failure policy and on fail-fast partial results.
    failures: dict[str, "SourceFailure"] = field(default_factory=dict)

    @property
    def sources_ok(self) -> int:
        return sum(1 for result in self.results.values() if result.ok)

    @property
    def sources_discarded(self) -> int:
        return sum(1 for result in self.results.values() if result.discarded)

    @property
    def sources_failed(self) -> int:
        """Sources that crashed unexpectedly (isolated, not discarded)."""
        return len(self.failures)


@dataclass
class SourceResult:
    """Everything ObjectRunner produced for one source."""

    source: str
    objects: list[ObjectInstance] = field(default_factory=list)
    wrapper: Wrapper | None = None
    discarded: bool = False
    discard_stage: str = ""
    discard_reason: str = ""
    support_used: int = 0
    conflicts: int = 0
    #: Every support value the parameter-variation loop attempted, in
    #: attempt order (diagnostics for the self-validation loop).
    supports_attempted: list[int] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)
    sample_page_indexes: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discarded and self.wrapper is not None
