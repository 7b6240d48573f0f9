"""Shared machinery for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures.  The heavy
part — running all three systems over the 49-source catalog — is done once
per system and memoized here, so the table benches measure and report
without duplicating work.

Scale: ``REPRO_BENCH_SCALE`` (default 0.1) shrinks per-source object
counts relative to the paper's volumes; the *shape* of the results is what
is being reproduced, not the absolute workload.

The per-entry setup (knowledge, generated sources, system construction)
is shared with the ``repro bench`` capture engine
(:mod:`repro.metrics.bench`), so the interactive benchmark suite and the
persisted ``BENCH_<seq>.json`` artifacts measure the same machinery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.datasets import CatalogEntry, catalog_entries, domain_spec
from repro.eval import SourceEvaluation, aggregate_domain, grade_source
from repro.eval.metrics import DomainMetrics
from repro.htmlkit import clean_tree, tidy
from repro.metrics import MetricsObserver
from repro.metrics.bench import CatalogCache, build_system

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
DICTIONARY_COVERAGE = 0.2

#: Table III as published (domain -> system -> (Pc, Pp) in percent).
PAPER_TABLE3 = {
    "concerts": {"objectrunner": (86.10, 86.10), "exalg": (45.17, 45.17), "roadrunner": (6.95, 72.0)},
    "albums": {"objectrunner": (74.52, 100.0), "exalg": (69.88, 95.0), "roadrunner": (17.37, 82.0)},
    "books": {"objectrunner": (68.37, 68.37), "exalg": (50.10, 62.0), "roadrunner": (0.0, 50.10)},
    "publications": {"objectrunner": (65.21, 74.0), "exalg": (34.83, 56.0), "roadrunner": (0.0, 52.39)},
    "cars": {"objectrunner": (75.79, 100.0), "exalg": (75.79, 100.0), "roadrunner": (15.28, 72.0)},
}

#: Table II as published (domain -> (Pc, Pp) for SOD-based and random).
PAPER_TABLE2 = {
    "concerts": ((86.10, 86.10), (61.78, 61.78)),
    "albums": ((74.52, 100.0), (69.88, 95.0)),
    "books": ((68.37, 68.37), (56.36, 62.0)),
    "publications": ((65.21, 74.0), (65.21, 65.21)),
    "cars": ((75.79, 100.0), (75.79, 100.0)),
}

DOMAIN_ORDER = ("concerts", "albums", "books", "publications", "cars")


@dataclass
class SourceRun:
    """One system's graded run on one catalog source."""

    entry: CatalogEntry
    evaluation: SourceEvaluation
    wrap_seconds: float


_catalog_cache = CatalogCache()
_pages_cache: dict[str, list] = {}
_run_cache: dict[str, list[SourceRun]] = {}

#: Benchmark-wide pipeline observer: every ObjectRunner run made through
#: :func:`make_system` reports its stage timings and counters here, so
#: the benches read stage-level figures off events instead of poking at
#: result internals.
STAGE_EVENTS = MetricsObserver()


def stage_totals() -> dict[str, float]:
    """Accumulated wall-clock seconds per pipeline stage across all runs."""
    merged = STAGE_EVENTS.merged_registry()
    return {
        name.removeprefix("stage."): sum(merged.observations(name))
        for name in merged.timer_names()
        if name.startswith("stage.")
    }


def knowledge_for(domain_name: str, coverage: float = DICTIONARY_COVERAGE):
    return _catalog_cache.knowledge(domain_name, coverage)


def source_for(entry: CatalogEntry):
    return _catalog_cache.source(entry)


def pages_for(entry: CatalogEntry):
    if entry.spec.name not in _pages_cache:
        source = source_for(entry)
        _pages_cache[entry.spec.name] = [
            clean_tree(tidy(raw)) for raw in source.pages
        ]
    return _pages_cache[entry.spec.name]


def make_system(
    name: str,
    entry: CatalogEntry,
    coverage: float = DICTIONARY_COVERAGE,
    params=None,
):
    """Instantiate a system by short name for one catalog source.

    Delegates to the shared factory (:func:`repro.metrics.bench.
    build_system`), subscribing the benchmark-wide ``STAGE_EVENTS``
    observer to every ObjectRunner pipeline.
    """
    return build_system(
        name,
        entry,
        _catalog_cache,
        coverage=coverage,
        params=params,
        observers=(STAGE_EVENTS,),
    )


def run_catalog(system_name: str, scale: float = BENCH_SCALE) -> list[SourceRun]:
    """Run one system over every catalog source (memoized)."""
    cache_key = f"{system_name}@{scale}"
    if cache_key in _run_cache:
        return _run_cache[cache_key]
    runs: list[SourceRun] = []
    for entry in catalog_entries(scale=scale):
        domain = domain_spec(entry.spec.domain)
        source = source_for(entry)
        pages = pages_for(entry)
        system = make_system(system_name, entry)
        output = system.run(entry.spec.name, pages, domain.sod)
        evaluation = grade_source(domain, source.gold, output)
        runs.append(
            SourceRun(
                entry=entry,
                evaluation=evaluation,
                wrap_seconds=output.wrap_seconds,
            )
        )
    _run_cache[cache_key] = runs
    return runs


def domain_metrics(system_name: str, scale: float = BENCH_SCALE) -> list[DomainMetrics]:
    """Per-domain aggregation of one system's catalog runs."""
    runs = run_catalog(system_name, scale)
    metrics = []
    for domain_name in DOMAIN_ORDER:
        evaluations = [
            run.evaluation
            for run in runs
            if run.entry.spec.domain == domain_name
        ]
        metrics.append(aggregate_domain(domain_name, system_name, evaluations))
    return metrics
