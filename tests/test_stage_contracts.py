"""Stages touch only the context fields they declare, checked at run time.

Every registered :class:`~repro.core.pipeline.Stage` declares the
:class:`~repro.core.pipeline.PipelineContext` fields it may load
(``reads``) and store or mutate through (``writes``); docs/PIPELINE.md's
dataflow table is built from those declarations.  This test runs real
sources with a recording context that charges each field load and store
to the stage whose ``run`` or ``enabled`` is on the call stack, at any
depth below it, so a helper the stage hands ``ctx`` to is charged like
the stage itself.  Around each stage's ``run`` it also compares the
``result`` and ``wrapper`` the stage does not declare in ``writes``, so
a write *through* a field (``ctx.result.objects = ...``) is caught too.

The counter and scratch surface (``count``, ``counters``,
``gazetteers``, ``artifacts``) never needs declaring; a load made inside
``count`` or ``gazetteers`` is not charged to the stage that called it.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
from collections import defaultdict
from typing import Any

import pytest

from repro.core import objectrunner
from repro.core.objectrunner import ObjectRunner
from repro.core.pipeline import PipelineContext, Stage, stage_registry
from repro.datasets import (
    build_knowledge,
    catalog_entries,
    domain_spec,
    generate_source,
)
from repro.htmlkit import clean_tree, tidy
from repro.registry import WrapperRegistry
from tests.test_registry_pipeline import (
    FIGURE3_RAW,
    make_runner,
    poisoned_registry,
)

#: Context fields a stage may use without declaring them.
UNDECLARED_OK = frozenset({"counters", "artifacts"})
#: Context fields charged to the running stage.
CHARGED = frozenset(
    f.name for f in dataclasses.fields(PipelineContext)
) - UNDECLARED_OK
#: Code of the context helpers whose own loads are not charged.
HELPER_CODES = frozenset(
    {PipelineContext.count.__code__, PipelineContext.gazetteers.__code__}
)
#: Fields compared around each stage that does not declare them.
MUTABLE = ("result", "wrapper")


class Ledger:
    """Field loads, stores and write-throughs charged to each stage."""

    def __init__(self) -> None:
        self.stage_codes: dict[Any, type[Stage]] = {}
        for cls in stage_registry().values():
            for method in ("run", "enabled"):
                function = cls.__dict__.get(method)
                if function is not None:
                    self.stage_codes[function.__code__] = cls
        self.loads: dict[type[Stage], set[str]] = defaultdict(set)
        self.stores: dict[type[Stage], set[str]] = defaultdict(set)
        self.write_throughs: dict[type[Stage], set[str]] = defaultdict(set)

    def charge(self, into: dict[type[Stage], set[str]], name: str) -> None:
        """Charge ``name`` to the nearest stage frame, unless a context
        helper sits between it and the access."""
        frame = sys._getframe(2)
        while frame is not None:
            code = frame.f_code
            if code in HELPER_CODES:
                return
            stage = self.stage_codes.get(code)
            if stage is not None:
                into[stage].add(name)
                return
            frame = frame.f_back

    def violations(self) -> list[str]:
        """Every charge outside its stage's declaration."""
        found = []
        for stage, names in self.loads.items():
            for name in sorted(names - set(stage.reads) - set(stage.writes)):
                found.append(f"{stage.name} loads undeclared {name}")
        for stage, names in self.stores.items():
            for name in sorted(names - set(stage.writes)):
                found.append(f"{stage.name} stores undeclared {name}")
        for stage, names in self.write_throughs.items():
            for name in sorted(names):
                found.append(f"{stage.name} mutates undeclared {name}")
        return found


@pytest.fixture()
def ledger(monkeypatch):
    """Run every ObjectRunner context through a recording context."""
    ledger = Ledger()

    class RecordingContext(PipelineContext):
        def __getattribute__(self, name):
            if name in CHARGED:
                ledger.charge(ledger.loads, name)
            return object.__getattribute__(self, name)

        def __setattr__(self, name, value):
            if name in CHARGED:
                ledger.charge(ledger.stores, name)
            object.__setattr__(self, name, value)

    def checked(cls: type[Stage], run):
        unguarded = [name for name in MUTABLE if name not in cls.writes]

        def run_checked(self, ctx):
            before = {
                name: pickle.dumps(object.__getattribute__(ctx, name))
                for name in unguarded
            }
            try:
                run(self, ctx)
            finally:
                for name, data in before.items():
                    if pickle.dumps(object.__getattribute__(ctx, name)) != data:
                        ledger.write_throughs[cls].add(name)

        return run_checked

    monkeypatch.setattr(objectrunner, "PipelineContext", RecordingContext)
    for cls in stage_registry().values():
        monkeypatch.setattr(cls, "run", checked(cls, cls.run))
    return ledger


def test_declared_names_are_context_fields():
    names = {f.name for f in dataclasses.fields(PipelineContext)}
    for cls in stage_registry().values():
        assert set(cls.reads) | set(cls.writes) <= names, cls.name


def test_cold_warm_and_demotion_runs_keep_the_contracts(
    ledger, tmp_path, figure3_recognizers
):
    registry = WrapperRegistry(tmp_path / "fig3")
    runner = make_runner(figure3_recognizers, wrapper_registry=registry)
    cold = runner.run_source("fig3", FIGURE3_RAW)
    runner.run_source("fig3", FIGURE3_RAW)
    runner.run_source_prepared(
        "fig3", [clean_tree(tidy(raw)) for raw in FIGURE3_RAW]
    )
    runner.extract_with(cold.wrapper, FIGURE3_RAW)
    poisoned = poisoned_registry(tmp_path / "poisoned", figure3_recognizers)
    make_runner(figure3_recognizers, wrapper_registry=poisoned).run_source(
        "fig3", FIGURE3_RAW
    )
    stats = registry.stats()
    assert (stats["misses"], stats["hits"]) == (1, 2)
    assert poisoned.stats()["demotions"] == 1
    assert "sod" in ledger.loads[stage_registry()["registry_check"]]
    assert ledger.violations() == []
    # Every registered stage ran, or asked whether to, and was charged.
    assert set(ledger.loads) == set(stage_registry().values())


def test_enrichment_and_random_sampling_keep_the_contracts(
    ledger, figure3_recognizers
):
    make_runner(
        figure3_recognizers, enrich_dictionaries=True
    ).run_source("fig3", FIGURE3_RAW)
    make_runner(
        figure3_recognizers, sod_based_sampling=False, sample_size=2
    ).run_source("fig3", FIGURE3_RAW)
    assert stage_registry()["enrichment"] in ledger.loads
    assert ledger.violations() == []


def test_catalog_source_cold_and_warm_keep_the_contracts(ledger, tmp_path):
    entry = {e.spec.name: e for e in catalog_entries(0.05)}["zvents-list"]
    domain = domain_spec(entry.spec.domain)
    knowledge = build_knowledge(domain, coverage=0.2)
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        wrapper_registry=WrapperRegistry(tmp_path),
    )
    pages = generate_source(entry.spec, domain).pages
    for __ in range(2):
        assert runner.run_source(entry.spec.name, pages).objects
    assert ledger.violations() == []
