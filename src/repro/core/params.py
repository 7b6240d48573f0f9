"""Run parameters of the full pipeline."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.faults import FAILURE_POLICIES
from repro.core.sharding import ShardSpec

#: Execution backends of ``run_sources``: worker threads (cheap, shares
#: every in-process cache, but GIL-bound on the CPU-heavy induction path)
#: or worker processes (per-shard fan-out with true parallelism).
BACKENDS = ("thread", "process")


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
    #: Worker threads for multi-source runs (``run_sources``): independent
    #: sources wrap concurrently when > 1.  Enrichment runs force serial
    #: execution because gazetteer growth is order-dependent.
    max_workers: int = 1
    #: How ``run_sources`` treats an unexpected per-source failure:
    #: ``"fail_fast"`` stops every shard at its first failure and raises
    #: :class:`~repro.errors.MultiSourceError` with partial results
    #: attached; ``"isolate"`` records a
    #: :class:`~repro.core.faults.SourceFailure` and lets the surviving
    #: sources finish.
    failure_policy: str = "fail_fast"
    #: Extra attempts for a stage raising
    #: :class:`~repro.errors.TransientSourceError` (0 disables retrying);
    #: backoff follows :class:`~repro.core.faults.RetryPolicy`.
    max_retries: int = 0
    #: Execution backend of ``run_sources``: both split the sources into
    #: ``max_workers`` hash-mod shards; ``"thread"`` runs them on a thread
    #: pool sharing the runner's caches; ``"process"`` runs each in a worker
    #: process with its own cache/metrics/registry view, and merges with
    #: the order-pinned semantics — byte-identical output either way.
    backend: str = "thread"
    #: Restrict ``run_sources`` to the sources of one deterministic
    #: hash-mod shard (:class:`~repro.core.sharding.ShardSpec`); ``None``
    #: runs everything.  Membership is ``PYTHONHASHSEED``-independent, so
    #: N cooperating processes given shards 0/N .. N-1/N cover every
    #: source exactly once.
    shard: ShardSpec | None = None

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
        if self.shard is not None and not isinstance(self.shard, ShardSpec):
            raise ValueError(
                f"shard must be a ShardSpec or None, got {self.shard!r}"
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
