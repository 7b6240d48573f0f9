"""End-to-end failure-policy acceptance: isolate and fail-fast.

Four real album sources run through the full pipeline with a seeded
:class:`~repro.core.faults.FaultInjector` crashing one of them.  Fault
injectors cannot cross the process boundary, so every case runs at
``max_workers=1``; failure merges across process shards are covered by
``tests/test_core_process_backend.py``.
"""

import json

import pytest

from repro.core import ObjectRunner, RunParams
from repro.core.faults import CRASH, FaultInjector, FaultSpec
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.errors import MultiSourceError


@pytest.fixture(scope="module")
def four_sources():
    """Four independent album sites of the same domain."""
    domain = domain_spec("albums")
    knowledge = build_knowledge(domain, coverage=0.25)
    sources = {}
    for index in range(4):
        spec = SiteSpec(
            name=f"flt-{index}",
            domain="albums",
            archetype="clean",
            total_objects=12,
            seed=("faults", index),
        )
        sources[spec.name] = generate_source(spec, domain).pages
    return domain, knowledge, sources


def make_runner(domain, knowledge, injector=None, **params):
    return ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(**params),
        fault_injector=injector,
    )


def as_bytes(outcome):
    return json.dumps(
        [instance.values for instance in outcome.objects], sort_keys=True
    ).encode()


def crash_spec(source):
    return FaultSpec(stage="wrapping", source=source, kind=CRASH)


class TestIsolatePolicy:
    def test_parallel_isolate_matches_fault_free_serial(self, four_sources):
        # The acceptance scenario: one of four sources crashes under
        # isolate; the surviving three must be byte-identical to a
        # fault-free serial run of those three sources.
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")])
        faulty = make_runner(
            domain, knowledge, injector=injector,
            max_workers=1, failure_policy="isolate",
        ).run_sources(sources)

        survivors = {k: v for k, v in sources.items() if k != "flt-1"}
        clean = make_runner(
            domain, knowledge, max_workers=1
        ).run_sources(survivors)

        assert as_bytes(faulty) == as_bytes(clean)
        assert list(faulty.results) == list(survivors)
        assert faulty.sources_ok == 3
        assert faulty.sources_failed == 1

    def test_failure_record_carries_stage_and_error(self, four_sources):
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")])
        outcome = make_runner(
            domain, knowledge, injector=injector,
            max_workers=1, failure_policy="isolate",
        ).run_sources(sources)
        failure = outcome.failures["flt-1"]
        assert failure.source == "flt-1"
        assert failure.stage == "wrapping"
        assert failure.error.startswith("InjectedFaultError:")
        assert injector.fired == [("flt-1", "wrapping", "crash", 1)]


class TestFailFastPolicy:
    def test_parallel_fail_fast_raises_with_partial(self, four_sources):
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")])
        runner = make_runner(
            domain, knowledge, injector=injector,
            max_workers=1, failure_policy="fail_fast",
        )
        with pytest.raises(MultiSourceError) as excinfo:
            runner.run_sources(sources)
        error = excinfo.value
        assert error.failure is not None
        assert error.failure.source == "flt-1"
        assert error.failure.stage == "wrapping"
        # Partial keeps only sources before the failure, in input order.
        assert list(error.partial.results) == ["flt-0"]
        assert error.partial.failures["flt-1"] is error.failure
        assert "flt-1" in str(error)

    def test_fail_fast_partial_matches_serial_prefix(self, four_sources):
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")])
        runner = make_runner(
            domain, knowledge, injector=injector,
            max_workers=1, failure_policy="fail_fast",
        )
        with pytest.raises(MultiSourceError) as excinfo:
            runner.run_sources(sources)
        prefix = make_runner(domain, knowledge, max_workers=1).run_sources(
            {"flt-0": sources["flt-0"]}
        )
        assert as_bytes(excinfo.value.partial) == as_bytes(prefix)

    def test_serial_fail_fast_skips_later_sources(self, four_sources):
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")])
        runner = make_runner(
            domain, knowledge, injector=injector,
            max_workers=1, failure_policy="fail_fast",
        )
        with pytest.raises(MultiSourceError) as excinfo:
            runner.run_sources(sources)
        assert list(excinfo.value.partial.results) == ["flt-0"]
        # Sources after the failing one never reached the faulted stage.
        assert injector.attempts("flt-2", "wrapping") == 0
        assert injector.attempts("flt-3", "wrapping") == 0

