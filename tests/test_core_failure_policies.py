"""End-to-end failure-policy acceptance: isolate, fail-fast, retries.

Four real album sources run through the full pipeline with a seeded
:class:`~repro.core.faults.FaultInjector` crashing or destabilizing one
of them.  Every test injects a recording fake sleep, so the suite pays
zero wall-clock time for backoff.  Fault injectors and custom sleep
cannot cross the process boundary, so every case runs at
``max_workers=1``; failure merges across process shards are covered by
``tests/test_core_process_backend.py``.
"""

import io
import json

import pytest

from repro.core import ObjectRunner, RunParams
from repro.core.faults import (
    CRASH,
    TRANSIENT,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
)
from repro.core.pipeline import TraceObserver
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


class FakeSleep:
    """Records requested delays instead of sleeping."""

    def __init__(self):
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)


def make_runner(domain, knowledge, injector=None, sleep=None, **params):
    return ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(**params),
        fault_injector=injector,
        sleep=sleep or FakeSleep(),
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
        injector = FaultInjector([crash_spec("flt-1")], sleep=FakeSleep())
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

    def test_failure_record_carries_stage_error_attempts(self, four_sources):
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")], sleep=FakeSleep())
        outcome = make_runner(
            domain, knowledge, injector=injector,
            max_workers=1, failure_policy="isolate",
        ).run_sources(sources)
        failure = outcome.failures["flt-1"]
        assert failure.source == "flt-1"
        assert failure.stage == "wrapping"
        assert failure.error.startswith("InjectedFaultError:")
        assert failure.attempts == 1
        assert injector.fired == [("flt-1", "wrapping", "crash", 1)]


class TestFailFastPolicy:
    def test_parallel_fail_fast_raises_with_partial(self, four_sources):
        domain, knowledge, sources = four_sources
        injector = FaultInjector([crash_spec("flt-1")], sleep=FakeSleep())
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
        injector = FaultInjector([crash_spec("flt-1")], sleep=FakeSleep())
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
        injector = FaultInjector([crash_spec("flt-1")], sleep=FakeSleep())
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


class TestTransientRetries:
    def test_transient_fault_recovers_and_traces_retry(self, four_sources):
        # A transient fault on attempt 1 that succeeds on attempt 2 must
        # leave a stage_retry event in the JSON-lines trace and an
        # outcome byte-identical to the fault-free run.
        domain, knowledge, sources = four_sources
        sink = io.StringIO()
        sleep = FakeSleep()
        injector = FaultInjector(
            [FaultSpec(stage="wrapping", source="flt-2", kind=TRANSIENT)],
            sleep=FakeSleep(),
        )
        runner = make_runner(
            domain, knowledge, injector=injector, sleep=sleep,
            max_workers=1, max_retries=1,
        )
        runner.add_observer(TraceObserver(sink))
        outcome = runner.run_sources(sources)

        clean = make_runner(domain, knowledge, max_workers=1).run_sources(
            sources
        )
        assert as_bytes(outcome) == as_bytes(clean)
        assert outcome.sources_ok == 4
        assert not outcome.failures

        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        [retry] = [e for e in events if e["event"] == "stage_retry"]
        assert retry["source"] == "flt-2"
        assert retry["stage"] == "wrapping"
        assert retry["attempt"] == 1
        assert retry["retry_delay_s"] > 0
        assert "TransientSourceError" in retry["error"]
        assert injector.fired == [("flt-2", "wrapping", "transient", 1)]

    def test_backoff_uses_injected_sleep_not_wall_clock(self, four_sources):
        domain, knowledge, sources = four_sources
        sleep = FakeSleep()
        injector = FaultInjector(
            [FaultSpec(stage="wrapping", source="flt-2", kind=TRANSIENT)],
            sleep=FakeSleep(),
        )
        runner = make_runner(
            domain, knowledge, injector=injector, sleep=sleep,
            max_workers=1, max_retries=1,
        )
        runner.run_sources(sources)
        policy = RetryPolicy.from_params(RunParams(max_retries=1))
        assert sleep.calls == [
            policy.delay(1, source="flt-2", stage="wrapping")
        ]
