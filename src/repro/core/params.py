"""Run parameters of the full pipeline."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.faults import FAILURE_POLICIES

#: Pool of a ``run_sources`` fan-out: worker processes, the only one.
BACKENDS = ("process",)


@dataclass(frozen=True)
class RunParams:
    """Everything tunable about one ObjectRunner run.

    Defaults follow the paper's experimental setup: sample of ~20 pages,
    annotation-rate threshold alpha = 0.5, generalization threshold 0.7,
    support varied automatically between 3 and 5.
    """

    sample_size: int = 20
    alpha: float = 0.5
    enforce_alpha: bool = True
    generalization_threshold: float = 0.7
    #: Support values tried by the automatic parameter-variation loop, in
    #: order of preference.
    support_values: tuple[int, ...] = (3, 4, 5)
    #: Use the VIPS-style central-block simplification.
    use_segmentation: bool = True
    #: Select the wrapper sample by annotation scores (Algorithm 1); False
    #: gives the random-selection baseline of Table II.
    sod_based_sampling: bool = True
    #: Enrich gazetteers from extraction results (Eq. 4).
    enrich_dictionaries: bool = False
    #: With enrichment on, run the whole pipeline this many times per
    #: source: each pass re-annotates with the dictionaries the previous
    #: pass grew (the paper's self-improving loop).
    enrichment_passes: int = 1
    #: Neighborhood radius for ontology lookups.
    neighborhood_radius: int = 2
    #: Random seed for the random-sampling baseline.
    sampling_seed: int = 7
    #: Chaos threshold of the alignment's sparse-column check, in [0, 1]:
    #: an alignment level collapses to one whole-content field when more
    #: than this fraction of its columns is sparse (a column is sparse
    #: below ``total_records * chaos_ratio`` cells).  0 treats every
    #: level as chaotic, 1 effectively disables the check.
    chaos_ratio: float = 0.5
    #: Workers for multi-source runs (``run_sources``): when > 1, that
    #: many worker processes take independent sources one at a time off
    #: a shared queue; 1 runs every source in-process.  Enrichment runs
    #: force serial execution because gazetteer growth is
    #: order-dependent.
    max_workers: int = 1
    #: How ``run_sources`` treats an unexpected per-source failure (a
    #: worker process dying counts, as ``stage="worker"``):
    #: ``"fail_fast"`` starts no later source after the first failure
    #: and raises :class:`~repro.errors.MultiSourceError` with the
    #: results before it attached; ``"isolate"`` records a
    #: :class:`~repro.core.faults.SourceFailure` and lets the surviving
    #: sources finish.
    failure_policy: str = "fail_fast"
    #: Extra attempts for a stage raising
    #: :class:`~repro.errors.TransientSourceError` (0 disables retrying);
    #: backoff follows :class:`~repro.core.faults.RetryPolicy`.
    max_retries: int = 0
    #: Pool of a ``run_sources`` fan-out (:data:`BACKENDS`): each of the
    #: ``max_workers`` worker processes runs sources off a shared queue
    #: with its own cache/metrics/registry view, and the per-source
    #: reports merge in input order, so output is byte-identical to a
    #: serial run.
    backend: str = "process"

    def __post_init__(self) -> None:
        """Reject out-of-range values that would silently distort runs."""
        if not 0.0 <= self.chaos_ratio <= 1.0:
            raise ValueError(
                f"chaos_ratio must be in [0, 1], got {self.chaos_ratio}"
            )
        if self.failure_policy not in FAILURE_POLICIES:
            known = ", ".join(FAILURE_POLICIES)
            raise ValueError(
                f"unknown failure_policy {self.failure_policy!r} "
                f"(known: {known})"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {self.backend!r} (known: {known})"
            )

    def with_overrides(self, **kwargs) -> "RunParams":
        """A copy with some fields replaced.

        Enumerates the declared dataclass fields, so newly added
        parameters participate automatically; unknown keyword names are
        rejected rather than silently dropped.
        """
        names = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(kwargs) - names)
        if unknown:
            raise ValueError(
                f"unknown RunParams field(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(names))})"
            )
        return dataclasses.replace(self, **kwargs)
