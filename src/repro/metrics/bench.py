"""Benchmark capture: run the catalog, persist ``BENCH_<seq>.json``, compare.

The ``repro bench`` subcommand drives this module: it runs every system
under comparison (ObjectRunner, ExAlg, RoadRunner) over the Table I
source catalog, grades each run against the golden standard, and writes
one schema-versioned JSON artifact at the repository root —

- per-domain ``Pc``/``Pp`` and object classification counts per system,
- per-stage timing summaries (min/max/mean/p50/p95) from pipeline events,
- preprocessing-cache hit/miss/races statistics,
- wrapping-time summaries, peak RSS, scale/coverage/seed configuration.

``BENCH_0.json`` is the committed baseline; every subsequent capture gets
the next sequence number, so the repo accumulates a queryable performance
trajectory instead of throwing each run's numbers away with the process.
:func:`compare_documents` diffs two artifacts and flags regressions
beyond configurable thresholds (quality always; timings and volumes only
when scale and registry mode both match, because timings at different
workload scales — or cold induction vs warm registry hits — are not
comparable).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.baselines import ExAlgSystem, RoadRunnerSystem
from repro.core.cache import PreprocessCache
from repro.core.executor import (
    ShardResult,
    ShardTask,
    WorkQueue,
    attach_queue,
    run_batch,
    run_worker_shard,
)
from repro.core.objectrunner import ObjectRunnerSystem
from repro.core.params import RunParams
from repro.core.sharding import ShardSpec
from repro.datasets import (
    SCALE_TIER_THRESHOLD,
    CatalogEntry,
    build_knowledge,
    catalog_entries,
    domain_spec,
    generate_source,
)
from repro.datasets.knowledge import completion_entries
from repro.eval import aggregate_domain, grade_source
from repro.metrics.observer import (
    MetricsObserver,
    monotonic_seconds,
    peak_rss_bytes,
    wall_timestamp,
)
from repro.metrics.registry import MetricsRegistry
from repro.registry.store import (
    StagedRegistryView,
    WrapperRegistry,
    write_json_atomic,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.eval.metrics import DomainMetrics

#: Version of the BENCH artifact schema; bump on incompatible changes.
#: v2 added the execution keys (``config.shard``/``backend``/``workers``)
#: and the top-level ``sharding`` block with per-shard wall timings.
BENCH_SCHEMA_VERSION = 2

#: CatalogCache bound at the scale tier: replicated sources are visited
#: once per sweep, so only a small working set needs to stay resident.
SCALE_TIER_CATALOG_SOURCES = 64

#: Filename prefix of persisted benchmark artifacts.
BENCH_PREFIX = "BENCH_"

#: Systems captured by default, in report order.
DEFAULT_SYSTEMS: tuple[str, ...] = ("objectrunner", "exalg", "roadrunner")

#: Default dictionary coverage, matching the paper's 20% floor.
DICTIONARY_COVERAGE = 0.2

#: The domains of Table I, in the paper's order.
DOMAIN_ORDER: tuple[str, ...] = (
    "concerts", "albums", "books", "publications", "cars",
)


class CatalogCache:
    """Memoizes the expensive per-entry setup of a catalog sweep.

    Domain knowledge (ontology + corpus) per domain/coverage, generated
    sources per entry — shared by the benchmark suite's harness and the
    ``repro bench`` session so repeated sweeps never regenerate them.

    Safe to share across threads, and optionally bounded:
    ``max_sources`` caps the generated-source map with
    least-recently-used eviction, so a 1000-source scale-tier sweep
    — where every source is visited once and never again — holds a small
    working set instead of a gigabyte of page trees.  Generation is
    deterministic, so an evicted-and-regenerated source is identical.
    """

    def __init__(self, max_sources: int | None = None) -> None:
        self._lock = threading.Lock()
        self._knowledge: dict[tuple[str, float], object] = {}
        self._sources: dict[str, object] = {}
        self._max_sources = max_sources

    def knowledge(self, domain_name: str, coverage: float):
        """The built domain knowledge for one domain at one coverage."""
        key = (domain_name, coverage)
        with self._lock:
            hit = self._knowledge.get(key)
        if hit is not None:
            return hit
        built = build_knowledge(domain_spec(domain_name), coverage=coverage)
        with self._lock:
            return self._knowledge.setdefault(key, built)

    def source(self, entry: CatalogEntry):
        """The deterministic generated source of one catalog entry."""
        name = entry.spec.name
        with self._lock:
            hit = self._sources.get(name)
            if hit is not None:
                # Reinsert to refresh recency (dicts iterate insertion
                # order, so the first key is always the LRU victim).
                self._sources.pop(name)
                self._sources[name] = hit
                return hit
        built = generate_source(entry.spec, domain_spec(entry.spec.domain))
        with self._lock:
            existing = self._sources.get(name)
            if existing is not None:
                return existing
            self._sources[name] = built
            if self._max_sources is not None:
                while len(self._sources) > self._max_sources:
                    self._sources.pop(next(iter(self._sources)))
            return built


def build_system(
    name: str,
    entry: CatalogEntry,
    cache: CatalogCache,
    coverage: float = DICTIONARY_COVERAGE,
    params: RunParams | None = None,
    observers: Iterable = (),
    wrapper_registry: WrapperRegistry | StagedRegistryView | None = None,
):
    """Instantiate a system by short name for one catalog source.

    ObjectRunner gets the domain knowledge plus the per-source dictionary
    completion (the paper ensured every dictionary covered at least 20% of
    each source's instances); ``observers`` subscribe to every pipeline
    run the system makes.  A ``wrapper_registry`` — the registry itself or
    a per-source :class:`~repro.registry.store.StagedRegistryView` — puts
    ObjectRunner on the registry-first path (the warm-path benchmark);
    baselines ignore it.
    """
    if name == "objectrunner":
        domain_name = entry.spec.domain
        knowledge = cache.knowledge(domain_name, coverage)
        domain = domain_spec(domain_name)
        source = cache.source(entry)
        extra = completion_entries(
            domain,
            source.gold,
            coverage=coverage,
            seed=("completion", entry.spec.name),
        )
        return ObjectRunnerSystem(
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=params,
            extra_gazetteer_entries=extra,
            observers=tuple(observers),
            wrapper_registry=wrapper_registry,
        )
    if name == "exalg":
        return ExAlgSystem()
    if name == "roadrunner":
        return RoadRunnerSystem()
    raise ValueError(f"unknown system {name!r}")


@dataclass
class BenchConfig:
    """Everything that parameterizes one benchmark capture."""

    scale: float = 0.1
    coverage: float = DICTIONARY_COVERAGE
    systems: tuple[str, ...] = DEFAULT_SYSTEMS
    #: Wrapper registry directory for the registry-first (warm) path;
    #: ``None`` captures the classic cold pipeline.
    registry_root: str | None = None
    #: Which slice of the catalog this capture covers; ``None`` is the
    #: whole catalog.  Shard documents merge via :func:`merge_documents`.
    shard: ShardSpec | None = None
    #: Worker processes of the sweep: above 1, that many workers take
    #: the (shard-filtered) catalog's entries one at a time off a shared
    #: queue; 1 sweeps it in one in-process loop.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.shard is not None and not isinstance(self.shard, ShardSpec):
            raise ValueError(
                f"shard must be a ShardSpec or None, got {self.shard!r}"
            )


class BenchSession:
    """One benchmark capture: run the catalog, build the BENCH document.

    Pages are tidied/cleaned through a session-wide
    :class:`~repro.core.cache.PreprocessCache` under its default byte
    budget, so the second and third
    systems draw cache hits instead of re-paying preprocessing — and every
    system receives fresh copies instead of sharing mutated trees.

    Registry writes are staged per source and applied in catalog order
    at the end of each sweep — the same batch-start semantics
    ``ObjectRunner.run_sources`` uses — so a serial sweep, a
    process-pooled sweep, and a merge of per-shard runs all leave the
    registry byte-identical.
    """

    def __init__(self, config: BenchConfig | None = None):
        self.config = config or BenchConfig()
        at_tier = self.config.scale >= SCALE_TIER_THRESHOLD
        self.catalog = CatalogCache(
            max_sources=SCALE_TIER_CATALOG_SOURCES if at_tier else None
        )
        self.preprocess_cache = PreprocessCache()
        self.registry = (
            WrapperRegistry(self.config.registry_root)
            if self.config.registry_root
            else None
        )
        #: Per-system shard-timing rows and sweep walls of the last
        #: capture, folded into the document's ``sharding`` block.
        self._shard_rows: dict[str, list[dict]] = {}
        self._walls: dict[str, float] = {}
        self._worker_cache_stats: list[dict[str, int]] = []

    def entries(self) -> list[CatalogEntry]:
        """The catalog slice this session covers, in catalog order."""
        entries = catalog_entries(scale=self.config.scale)
        if self.config.shard is not None:
            # Membership hashes the source *name* (sha256, not hash()),
            # so it is identical across processes and PYTHONHASHSEED.
            entries = [
                entry
                for entry in entries
                if self.config.shard.contains(entry.spec.name)
            ]
        return entries

    def pages(self, entry: CatalogEntry):
        """Fresh cleaned page trees of one entry, thawed from the cache."""
        source = self.catalog.source(entry)
        return list(self.preprocess_cache.clean_pages(source.pages).pages)

    def _shard_label(self) -> str | None:
        return str(self.config.shard) if self.config.shard else None

    def _run_entry(
        self,
        system_name: str,
        entry: CatalogEntry,
        metrics: MetricsObserver,
        registry_view: StagedRegistryView | None,
    ):
        """Run one system over one entry; grade it against its gold."""
        domain = domain_spec(entry.spec.domain)
        source = self.catalog.source(entry)
        pages = self.pages(entry)
        system = build_system(
            system_name,
            entry,
            self.catalog,
            coverage=self.config.coverage,
            observers=(metrics,),
            wrapper_registry=registry_view,
        )
        output = system.run(entry.spec.name, pages, domain.sod)
        return grade_source(domain, source.gold, output), output.wrap_seconds

    def run_system(
        self, system_name: str
    ) -> tuple[list["DomainMetrics"], MetricsRegistry, MetricsObserver]:
        """Run one system over the session's catalog slice.

        Returns the per-domain metrics (paper order), a registry holding
        the per-source ``wrap`` timer, and the pipeline metrics observer
        (meaningful for ObjectRunner; empty for the baselines).  The
        worker count only changes *how* the slice is swept; evaluations,
        the wrap timer and the staged registry writes are always assembled
        in catalog order afterwards (:mod:`repro.core.executor`), and a
        failing entry aborts with :class:`~repro.errors.MultiSourceError`.
        """
        entries = self.entries()
        metrics = MetricsObserver()
        metrics.observe_cache(self.preprocess_cache)
        start = monotonic_seconds()
        outcomes, shards = run_batch(
            [(entry.spec.name, entry) for entry in entries],
            lambda __, entry, view: self._run_entry(
                system_name, entry, metrics, view
            ),
            workers=max(1, int(self.config.workers)),
            registry=self.registry,
            observers=(metrics,),
            worker=lambda: (self.config, system_name),
            dispatch=_dispatch_bench_shards,
        )
        wrap = MetricsRegistry()
        evaluations: dict[str, list] = {name: [] for name in DOMAIN_ORDER}
        for entry, (evaluation, wrap_seconds) in zip(entries, outcomes):
            evaluations[entry.spec.domain].append(evaluation)
            wrap.observe("wrap", wrap_seconds)
        self._shard_rows[system_name] = [
            {
                "shard": self._shard_label(),
                "index": shard.index,
                "count": shard.count,
                "sources": shard.sources,
                "wall_seconds": shard.wall_seconds,
            }
            for shard in shards
        ]
        self._worker_cache_stats.append(metrics.adopted_cache_stats())
        # The sweep wall includes pool startup/teardown and the merge —
        # the number a serial-vs-process comparison is about.
        self._walls[system_name] = round(monotonic_seconds() - start, 6)
        domains = [
            aggregate_domain(domain_name, system_name, evaluations[domain_name])
            for domain_name in DOMAIN_ORDER
        ]
        return domains, wrap, metrics

    def capture(self) -> dict:
        """Run every configured system and build the BENCH document.

        The document's top-level shape is the ``bench`` artifact family
        statically tracked by :mod:`repro.analysis.schemas`: adding or
        renaming a key here without bumping ``BENCH_SCHEMA_VERSION``
        fails reprolint S502 against the committed ``schemas.json``, and
        S504 checks :func:`compare_documents` stays tolerant of every
        committed ``BENCH_*.json``.
        """
        systems_doc: dict[str, dict] = {}
        for system_name in self.config.systems:
            domains, wrap, metrics = self.run_system(system_name)
            merged = metrics.merged_registry().snapshot()
            has_events = bool(merged["timers"]) or bool(merged["counters"])
            wrap_summary = wrap.summary("wrap")
            systems_doc[system_name] = {
                "domains": {
                    m.domain: _domain_doc(m) for m in domains
                },
                "wrap_seconds": (
                    wrap_summary.as_dict() if wrap_summary else None
                ),
                "metrics": merged if has_events else None,
                "cache": metrics.cache_stats() if has_events else None,
            }
        backend, workers = self._execution()
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "generated_at": wall_timestamp(),
            "python": platform.python_version(),
            "platform": sys.platform,
            "config": {
                "scale": self.config.scale,
                "coverage": self.config.coverage,
                "systems": list(self.config.systems),
                "sources": len(self.entries()),
                "registry": bool(self.registry),
                "shard": self._shard_label(),
                "backend": backend,
                "workers": workers,
                "seed": {
                    "sampling_seed": RunParams().sampling_seed,
                    "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
                },
            },
            "process": {"peak_rss_bytes": peak_rss_bytes()},
            "cache": self._session_cache_stats(),
            "registry": self.registry.stats() if self.registry else None,
            "systems": systems_doc,
            "sharding": {
                "shard": self._shard_label(),
                "backend": backend,
                "workers": workers,
                "merged_from": None,
                "per_shard": {
                    name: rows for name, rows in self._shard_rows.items()
                } or None,
                "wall_seconds": dict(self._walls) or None,
                "reference": None,
            },
        }

    def _execution(self) -> tuple[str, int]:
        """``(backend, workers)`` of what the captured sweeps ran.

        Read off the shard rows: a sweep fans out only with more than
        one worker and more than one entry, and otherwise runs as one
        in-process shard, recorded as ``("serial", 1)``.
        """
        workers = max(
            (row["count"] for rows in self._shard_rows.values() for row in rows),
            default=1,
        )
        return ("process" if workers > 1 else "serial"), workers

    def _session_cache_stats(self) -> dict[str, int]:
        """Session preprocess-cache stats plus adopted worker stats.

        Process-backend sweeps preprocess in the workers, whose caches
        die with them; what each source added to them ships home with
        the source, and each sweep's adopted sum is added to the
        session's (otherwise idle) cache numbers, so the document still
        accounts for every hit and miss of the capture.
        """
        return _sum_stats(
            [self.preprocess_cache.stats(), *self._worker_cache_stats]
        )


def _domain_doc(metrics: "DomainMetrics") -> dict:
    """One domain's Pc/Pp and object classification counts."""
    return {
        "pc": round(metrics.precision_correct, 6),
        "pp": round(metrics.precision_partial, 6),
        "objects_total": metrics.objects_total,
        "objects_correct": metrics.objects_correct,
        "objects_partial": metrics.objects_partial,
        "objects_incorrect": metrics.objects_incorrect,
        "sources": len(metrics.evaluations),
        "sources_discarded": sum(
            1 for e in metrics.evaluations if e.discarded
        ),
    }


# -- process sweeps -------------------------------------------------------


def _bench_shard_worker(task: ShardTask) -> ShardResult:
    """Serve a bench sweep's work queue in a worker process.

    One call per worker: it builds its own serial session (own caches,
    own read view of the registry root), then takes catalog entries off
    the queue one at a time.  It never applies registry writes — it
    exports them as :class:`~repro.registry.store.StagedWrites` for the
    parent to apply in catalog order, exactly like the serial sweep
    would.
    """
    config, system_name = task.worker
    session = BenchSession(config)
    metrics = MetricsObserver()
    metrics.observe_cache(session.preprocess_cache)
    return run_worker_shard(
        task,
        lambda __, entry, view: session._run_entry(
            system_name, entry, metrics, view
        ),
        metrics,
        session.registry,
    )


@contextmanager
def _dispatch_bench_shards(queue: WorkQueue) -> Iterator[list[Future]]:
    """Serve the sweep's work queue on a process pool, one call per worker."""
    with ProcessPoolExecutor(
        max_workers=queue.width, initializer=attach_queue, initargs=(queue,)
    ) as pool:
        yield [pool.submit(_bench_shard_worker, task) for task in queue.tasks()]


# -- artifact files -------------------------------------------------------


def bench_files(root: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` of every BENCH artifact under ``root``, by seq."""
    found: list[tuple[int, Path]] = []
    for path in sorted(root.glob(f"{BENCH_PREFIX}*.json")):
        suffix = path.stem[len(BENCH_PREFIX):]
        if suffix.isdigit():
            found.append((int(suffix), path))
    return sorted(found)


def next_seq(root: Path) -> int:
    """The sequence number the next capture under ``root`` should use."""
    existing = bench_files(root)
    return existing[-1][0] + 1 if existing else 0


def latest_bench(root: Path, before: int | None = None) -> Path | None:
    """The highest-sequence artifact (optionally below ``before``)."""
    candidates = [
        path
        for seq, path in bench_files(root)
        if before is None or seq < before
    ]
    return candidates[-1] if candidates else None


def write_bench(path: Path, document: dict) -> None:
    """Persist one BENCH document as stable, sorted, indented JSON.

    Routed through the same-directory temp-file + ``os.replace`` writer,
    so a crashed or concurrent capture can never leave a torn,
    half-written artifact at the final name: readers see the old bytes
    or the new bytes, nothing in between.
    """
    write_json_atomic(path, document)


def claim_bench_path(root: Path) -> Path:
    """Atomically claim the next free ``BENCH_<seq>.json`` under ``root``.

    Scanning for the next sequence and then writing it is a two-writer
    race: both scan, both see the same free number, one clobbers the
    other.  The claim instead *creates* the file with
    ``O_CREAT | O_EXCL`` — the kernel hands the name to exactly one
    claimant; the loser sees ``FileExistsError`` (or a fresh scan that
    already counts the winner's file) and retries at the next sequence.
    The claimed file is empty; :func:`write_bench` then replaces it
    atomically with the document.
    """
    while True:
        path = root / f"{BENCH_PREFIX}{next_seq(root)}.json"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return path


def load_bench(path: Path) -> dict:
    """Load one BENCH document."""
    return json.loads(path.read_text(encoding="utf-8"))


# -- comparison -----------------------------------------------------------


@dataclass
class BenchComparison:
    """Outcome of diffing two BENCH documents."""

    regressions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no regression exceeded its threshold."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable multi-line report of the comparison."""
        lines: list[str] = []
        for note in self.notes:
            lines.append(f"note: {note}")
        for regression in self.regressions:
            lines.append(f"REGRESSION: {regression}")
        if not self.regressions:
            lines.append("no regressions beyond thresholds")
        return "\n".join(lines)


def compare_documents(
    old: dict,
    new: dict,
    quality_threshold: float = 0.02,
    timing_threshold: float = 0.5,
) -> BenchComparison:
    """Diff two BENCH documents, flagging regressions beyond thresholds.

    Quality (per-domain ``Pc``/``Pp``) is compared whenever both captures
    ran the same source population: an absolute drop greater than
    ``quality_threshold`` is a regression.  Every scale below 1.0 runs the
    paper's 49-source catalog (scale only shrinks per-source volume), so
    sub-1.0 captures always gate each other; the replica tier at scale >=
    1.0 measures ``round(scale*1000)`` synthetic sources — a different
    population whose rates are not comparable to the base catalog's, so
    cross-tier (or cross-shard-slice) drops are reported as notes instead.
    Timings (stage means, wrapping means) and object counts are compared
    only when both documents were captured at the same scale *and* in the
    same registry mode — a warm (registry-first) capture skips induction
    entirely, so cold-vs-warm timing diffs are workload differences, not
    regressions.  A relative increase greater than ``timing_threshold``
    (for example ``0.5`` = +50%) is a regression.  Registry hit/miss
    statistics are compared only when *both* documents carry a registry
    block (pre-registry documents like ``BENCH_0.json`` have none).  Peak
    RSS growth is reported as a note, never a failure, because absolute
    memory depends on the host.
    """
    comparison = BenchComparison()
    if old.get("schema_version") != new.get("schema_version"):
        comparison.notes.append(
            f"schema version changed: {old.get('schema_version')} -> "
            f"{new.get('schema_version')}; comparing best-effort"
        )
    old_scale = old.get("config", {}).get("scale")
    new_scale = new.get("config", {}).get("scale")
    same_scale = old_scale == new_scale
    if not same_scale:
        comparison.notes.append(
            f"scale differs ({old_scale} -> {new_scale}); "
            "skipping timing and volume comparisons"
        )
    old_mode = bool(old.get("config", {}).get("registry"))
    new_mode = bool(new.get("config", {}).get("registry"))
    same_mode = old_mode == new_mode
    if not same_mode:
        comparison.notes.append(
            "registry mode differs "
            f"({'warm' if old_mode else 'cold'} -> "
            f"{'warm' if new_mode else 'cold'}); "
            "skipping timing and volume comparisons"
        )
    old_exec = _exec_config(old)
    new_exec = _exec_config(new)
    same_exec = old_exec == new_exec
    if not same_exec:
        comparison.notes.append(
            "execution config differs "
            f"(shard/backend/workers {old_exec} -> {new_exec}); "
            "skipping timing and volume comparisons"
        )
    comparable = same_scale and same_mode and same_exec
    same_population = _catalog_population(old) == _catalog_population(new)
    if not same_population:
        comparison.notes.append(
            "source populations differ "
            f"({_describe_population(old)} -> {_describe_population(new)}); "
            "quality drops reported as notes"
        )
    old_systems = old.get("systems", {})
    new_systems = new.get("systems", {})
    for system_name in sorted(set(old_systems) & set(new_systems)):
        _compare_system(
            comparison,
            system_name,
            old_systems[system_name],
            new_systems[system_name],
            quality_threshold,
            timing_threshold,
            comparable,
            same_population,
        )
    _compare_registry(comparison, old, new, comparable)
    _compare_sharding(comparison, old, new, comparable, timing_threshold)
    old_rss = old.get("process", {}).get("peak_rss_bytes", 0)
    new_rss = new.get("process", {}).get("peak_rss_bytes", 0)
    if old_rss and new_rss and new_rss > old_rss * (1 + timing_threshold):
        comparison.notes.append(
            f"peak RSS grew {old_rss} -> {new_rss} bytes "
            f"(+{(new_rss / old_rss - 1) * 100:.0f}%)"
        )
    return comparison


def _catalog_population(document: dict) -> tuple:
    """The source population a document's quality rates range over.

    Sub-1.0 scales all run the paper's 49-source catalog (scale only
    shrinks per-source volume), so they share one population; the replica
    tier at scale >= 1.0 runs ``round(scale*1000)`` synthetic sources — a
    distinct population per replica count.  A shard capture measures only
    its hash slice, so the shard label is part of the population too.
    """
    config = document.get("config", {})
    scale = float(config.get("scale") or 0.0)
    tier = round(scale * 1000) if scale >= 1.0 else "catalog"
    return (tier, config.get("shard"))


def _describe_population(document: dict) -> str:
    """Render a document's population for comparison notes."""
    tier, shard = _catalog_population(document)
    label = "base catalog" if tier == "catalog" else f"{tier} replicas"
    return f"{label} shard {shard}" if shard else label


def _exec_config(document: dict) -> tuple:
    """The execution triple ``(shard, backend, workers)`` of a document.

    Schema-v1 documents predate the keys; they were all whole-catalog
    serial runs, which is exactly what the defaults say — so a v1/v2
    pair of identical runs still compares timings.
    """
    config = document.get("config", {})
    return (
        config.get("shard"),
        config.get("backend", "serial"),
        int(config.get("workers", 1)),
    )


def _compare_sharding(
    comparison: BenchComparison,
    old: dict,
    new: dict,
    comparable: bool,
    timing_threshold: float,
) -> None:
    """Note sweep-wall growth recorded in the v2 ``sharding`` blocks.

    Sweep walls are end-to-end wall-clock per system — noisy and
    host-dependent, like peak RSS — so growth beyond the timing
    threshold is reported as a note, never a regression.  Schema-v1
    documents have no ``sharding`` block and are skipped silently.
    """
    old_block = old.get("sharding")
    new_block = new.get("sharding")
    if not old_block or not new_block or not comparable:
        return
    old_walls = old_block.get("wall_seconds") or {}
    new_walls = new_block.get("wall_seconds") or {}
    for name in sorted(set(old_walls) & set(new_walls)):
        before = float(old_walls[name])
        after = float(new_walls[name])
        if before > 0 and after > before * (1 + timing_threshold):
            comparison.notes.append(
                f"{name}: sweep wall grew {before:.2f}s -> {after:.2f}s "
                f"(+{(after / before - 1) * 100:.0f}%; host-dependent, "
                "informational only)"
            )


def _compare_registry(
    comparison: BenchComparison,
    old: dict,
    new: dict,
    comparable: bool,
) -> None:
    """Diff registry hit/miss stats when both documents carry the block.

    Pre-registry artifacts (``BENCH_0.json``) have no ``registry`` key and
    cold captures record it as null — a mixed-era or cold-vs-warm pair is
    noted and skipped rather than mis-flagged.  At equal scale and mode,
    growth of the miss count means sources that used to be served from
    the store are re-inducing: a regression.
    """
    old_registry = old.get("registry")
    new_registry = new.get("registry")
    if old_registry is None and new_registry is None:
        return
    if old_registry is None or new_registry is None:
        comparison.notes.append(
            "registry stats present in only one document; "
            "skipping registry comparison"
        )
        return
    if not comparable:
        return
    old_misses = old_registry.get("misses", 0)
    new_misses = new_registry.get("misses", 0)
    if new_misses > old_misses:
        comparison.regressions.append(
            f"registry: misses grew {old_misses} -> {new_misses} "
            "(sources no longer served from the store)"
        )


def _compare_system(
    comparison: BenchComparison,
    system_name: str,
    old: dict,
    new: dict,
    quality_threshold: float,
    timing_threshold: float,
    comparable: bool,
    same_population: bool,
) -> None:
    """Fold one system's quality/timing diffs into the comparison.

    ``comparable`` is True when both captures share scale and registry
    mode; volume and timing diffs are skipped otherwise.
    ``same_population`` is True when both captures measured the same
    source population; quality drops across different populations are
    notes, not regressions.
    """
    old_domains = old.get("domains", {})
    new_domains = new.get("domains", {})
    for domain in sorted(set(old_domains) & set(new_domains)):
        before, after = old_domains[domain], new_domains[domain]
        for rate in ("pc", "pp"):
            drop = before.get(rate, 0.0) - after.get(rate, 0.0)
            if drop > quality_threshold:
                message = (
                    f"{system_name}/{domain}: {rate.capitalize()} dropped "
                    f"{before[rate]:.4f} -> {after[rate]:.4f} "
                    f"(-{drop:.4f} > {quality_threshold})"
                )
                if same_population:
                    comparison.regressions.append(message)
                else:
                    comparison.notes.append(
                        f"{message} (different source populations; "
                        "informational only)"
                    )
        if comparable:
            old_total = before.get("objects_total", 0)
            new_total = after.get("objects_total", 0)
            if old_total and new_total < old_total * (1 - quality_threshold):
                comparison.regressions.append(
                    f"{system_name}/{domain}: objects_total fell "
                    f"{old_total} -> {new_total}"
                )
    if not comparable:
        return
    _compare_timer(
        comparison,
        f"{system_name}: wrap_seconds",
        old.get("wrap_seconds"),
        new.get("wrap_seconds"),
        timing_threshold,
    )
    old_timers = (old.get("metrics") or {}).get("timers", {})
    new_timers = (new.get("metrics") or {}).get("timers", {})
    for timer_name in sorted(set(old_timers) & set(new_timers)):
        _compare_timer(
            comparison,
            f"{system_name}: {timer_name}",
            old_timers[timer_name],
            new_timers[timer_name],
            timing_threshold,
        )


def _compare_timer(
    comparison: BenchComparison,
    label: str,
    old: dict | None,
    new: dict | None,
    timing_threshold: float,
) -> None:
    """Flag a timer whose mean grew beyond the relative threshold."""
    if not old or not new:
        return
    old_mean = old.get("mean", 0.0)
    new_mean = new.get("mean", 0.0)
    if old_mean > 0 and new_mean > old_mean * (1 + timing_threshold):
        comparison.regressions.append(
            f"{label}: mean grew {old_mean * 1000:.1f}ms -> "
            f"{new_mean * 1000:.1f}ms "
            f"(+{(new_mean / old_mean - 1) * 100:.0f}% > "
            f"{timing_threshold * 100:.0f}%)"
        )


# -- shard merging and digests --------------------------------------------


def _sum_stats(parts: list[dict]) -> dict:
    """Key-wise integer sum of stat mappings (union of keys, sorted)."""
    totals: dict[str, int] = {}
    for part in parts:
        for name, value in part.items():
            totals[name] = totals.get(name, 0) + int(value)
    return {name: totals[name] for name in sorted(totals)}


def _merge_summary(parts: list[dict | None]) -> dict | None:
    """Fold per-shard timer summaries into one conservative summary.

    Counts and totals add exactly; min/max are exact; the mean is
    recomputed from them.  Percentiles of a pooled population cannot be
    recovered from per-shard summaries, so ``p50``/``p95`` take the
    worst (largest) shard value — an upper bound, never an undercount.
    """
    summaries = [part for part in parts if part]
    if not summaries:
        return None
    count = sum(int(part.get("count", 0)) for part in summaries)
    total = sum(float(part.get("total", 0.0)) for part in summaries)
    return {
        "count": count,
        "total": round(total, 9),
        "min": round(min(float(p.get("min", 0.0)) for p in summaries), 9),
        "max": round(max(float(p.get("max", 0.0)) for p in summaries), 9),
        "mean": round(total / count, 9) if count else 0.0,
        "p50": round(max(float(p.get("p50", 0.0)) for p in summaries), 9),
        "p95": round(max(float(p.get("p95", 0.0)) for p in summaries), 9),
    }


def _merge_domain(parts: list[dict]) -> dict:
    """Pool per-shard domain counts; Pc/Pp recompute exactly.

    ``Pc = correct/total`` over pooled counts equals the unsharded value
    because both sides count the same objects — summing numerators and
    denominators then dividing is the same arithmetic the serial
    aggregation does.
    """
    counts = {
        name: sum(int(part.get(name, 0)) for part in parts)
        for name in (
            "objects_total",
            "objects_correct",
            "objects_partial",
            "objects_incorrect",
            "sources",
            "sources_discarded",
        )
    }
    total = counts["objects_total"]
    return {
        "pc": round(counts["objects_correct"] / total, 6) if total else 0.0,
        "pp": (
            round(
                (counts["objects_correct"] + counts["objects_partial"]) / total,
                6,
            )
            if total
            else 0.0
        ),
        **counts,
    }


def _merge_system(parts: list[dict]) -> dict:
    """Fold one system's per-shard blocks into a whole-catalog block."""
    domain_names: list[str] = []
    for part in parts:
        for name in part.get("domains", {}):
            if name not in domain_names:
                domain_names.append(name)
    domains = {
        name: _merge_domain(
            [part["domains"][name] for part in parts if name in part.get("domains", {})]
        )
        for name in domain_names
    }
    metrics_parts = [part.get("metrics") for part in parts]
    metrics = None
    if any(metrics_parts):
        present = [part for part in metrics_parts if part]
        counters = _sum_stats([part.get("counters", {}) for part in present])
        gauges: dict[str, float] = {}
        for part in present:
            gauges.update(part.get("gauges", {}))
        timer_names = sorted(
            {name for part in present for name in part.get("timers", {})}
        )
        timers = {
            name: _merge_summary(
                [part.get("timers", {}).get(name) for part in present]
            )
            for name in timer_names
        }
        metrics = {
            "counters": counters,
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "timers": timers,
        }
    cache_parts = [part.get("cache") for part in parts]
    cache = (
        _sum_stats([part for part in cache_parts if part])
        if any(cache_parts)
        else None
    )
    return {
        "domains": domains,
        "wrap_seconds": _merge_summary(
            [part.get("wrap_seconds") for part in parts]
        ),
        "metrics": metrics,
        "cache": cache,
    }


def merge_documents(documents: Sequence[dict]) -> dict:
    """Fold per-shard BENCH documents into one whole-catalog document.

    The inputs must agree on scale, coverage, system list and registry
    mode (:class:`ValueError` otherwise) — they are meant to be the
    ``--shard 0/N`` … ``N-1/N`` captures of one logical run.  Counts sum
    and Pc/Pp recompute exactly, so the merged quality and counter
    numbers are byte-identical to an unsharded run over the same
    catalog (:func:`bench_digest` is the comparison tool).  Pooled
    percentiles are not recoverable from per-shard summaries; timer
    summaries merge conservatively (see :func:`_merge_summary`), and the
    merged ``sharding`` block keeps every shard's rows with
    ``merged_from`` listing the input slices.
    """
    if not documents:
        raise ValueError("merge_documents needs at least one document")
    first = documents[0]
    for key in ("scale", "coverage", "systems"):
        values = {
            json.dumps(doc.get("config", {}).get(key), sort_keys=True)
            for doc in documents
        }
        if len(values) > 1:
            raise ValueError(
                f"cannot merge BENCH documents with differing config.{key}"
            )
    modes = {bool(doc.get("config", {}).get("registry")) for doc in documents}
    if len(modes) > 1:
        raise ValueError("cannot merge warm and cold BENCH documents")
    system_names: list[str] = []
    for doc in documents:
        for name in doc.get("systems", {}):
            if name not in system_names:
                system_names.append(name)
    systems = {
        name: _merge_system(
            [doc["systems"][name] for doc in documents if name in doc.get("systems", {})]
        )
        for name in system_names
    }
    registry_parts = [doc.get("registry") for doc in documents]
    registry = (
        _sum_stats([part for part in registry_parts if part is not None])
        if all(part is not None for part in registry_parts)
        else None
    )
    config = dict(first.get("config", {}))
    config["sources"] = sum(
        int(doc.get("config", {}).get("sources", 0)) for doc in documents
    )
    config["shard"] = None
    per_shard: dict[str, list] = {}
    walls: dict[str, float] = {}
    for doc in documents:
        sharding = doc.get("sharding") or {}
        for name, rows in (sharding.get("per_shard") or {}).items():
            per_shard.setdefault(name, []).extend(rows)
        for name, wall in (sharding.get("wall_seconds") or {}).items():
            walls[name] = round(walls.get(name, 0.0) + float(wall), 6)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": max(
            str(doc.get("generated_at", "")) for doc in documents
        ),
        "python": first.get("python"),
        "platform": first.get("platform"),
        "config": config,
        "process": {
            "peak_rss_bytes": max(
                int(doc.get("process", {}).get("peak_rss_bytes", 0))
                for doc in documents
            )
        },
        "cache": _sum_stats([doc.get("cache", {}) or {} for doc in documents]),
        "registry": registry,
        "systems": systems,
        "sharding": {
            "shard": None,
            "backend": first.get("config", {}).get("backend", "serial"),
            "workers": int(first.get("config", {}).get("workers", 1)),
            "merged_from": [
                doc.get("config", {}).get("shard") for doc in documents
            ],
            "per_shard": per_shard or None,
            "wall_seconds": walls or None,
            "reference": None,
        },
    }


def digest_projection(document: dict) -> dict:
    """The order-insensitive, run-stable projection a digest hashes.

    Keeps exactly what the byte-identity contract promises — quality
    counts and rates, merged pipeline counters, registry hit/miss/
    demotion stats and the identifying configuration — and drops what
    legitimately varies run to run or shard to shard: wall-clock timings,
    timestamps, peak RSS, cache-entry gauges, ``PYTHONHASHSEED``, and the
    registry ``stores``/``races`` split.  The last is layout-dependent:
    when replica sources share a template signature, a serial run
    discards the duplicates at one registry while per-shard runs each
    store their own copy and the duplicates fall at merge time — same
    final registry bytes (the canonical conflict rule), different
    counter split, so the split cannot be part of run identity.
    """
    systems = {}
    for name, system in sorted(document.get("systems", {}).items()):
        metrics_doc = system.get("metrics") or {}
        systems[name] = {
            "domains": system.get("domains"),
            "counters": metrics_doc.get("counters") or None,
        }
    config = document.get("config", {})
    return {
        "config": {
            "scale": config.get("scale"),
            "coverage": config.get("coverage"),
            "systems": config.get("systems"),
            "sources": config.get("sources"),
            "registry": bool(config.get("registry")),
            "sampling_seed": config.get("seed", {}).get("sampling_seed"),
        },
        "systems": systems,
        "registry": _registry_identity(document.get("registry")),
    }


def _registry_identity(stats: dict | None) -> dict | None:
    """Registry stats with the layout-dependent counters dropped."""
    if not isinstance(stats, dict):
        return stats
    return {
        key: value
        for key, value in sorted(stats.items())
        if key not in ("stores", "races")
    }


def bench_digest(document: dict) -> str:
    """Deterministic hex digest of a document's run-stable content.

    Two documents digest equal exactly when their
    :func:`digest_projection` is equal — the check the CI shard-smoke
    job and the byte-identity suite use to compare an unsharded run
    against merged per-shard runs without tripping over timings.
    """
    projection = digest_projection(document)
    text = json.dumps(projection, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
