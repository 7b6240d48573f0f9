"""Unit tests for the resilience layer: retry policy, fault injection.

Everything here runs on tiny hand-built pipelines with an injected fake
sleep — the suite never spends wall-clock time on a backoff.
"""

import io
import json

import pytest

from repro.core.faults import (
    CRASH,
    DELAY,
    FAIL_FAST,
    FAILURE_POLICIES,
    ISOLATE,
    TRANSIENT,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    SourceFailure,
)
from repro.core.params import RunParams
from repro.core.pipeline import (
    Pipeline,
    PipelineContext,
    Stage,
    TraceObserver,
)
from repro.errors import InjectedFaultError, TransientSourceError
from repro.metrics import MetricsObserver


class FakeSleep:
    """Records requested delays instead of sleeping."""

    def __init__(self):
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)


class CountingStage(Stage):
    name = "counting"

    def __init__(self):
        self.runs = 0

    def run(self, ctx):
        self.runs += 1
        ctx.count("stage_runs")


class FlakyStage(Stage):
    """Raises TransientSourceError on the first ``failures`` attempts."""

    name = "flaky"

    def __init__(self, failures):
        self.failures = failures
        self.runs = 0

    def run(self, ctx):
        self.runs += 1
        if self.runs <= self.failures:
            raise TransientSourceError(f"flaky attempt {self.runs}")
        ctx.count("flaky_done")


def make_ctx(source="unit", **params):
    return PipelineContext(source=source, params=RunParams(**params), sod={})


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            max_retries=6, base_delay=0.1, backoff_factor=2.0,
            max_delay=0.5, jitter=0.0,
        )
        delays = [policy.delay(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.1, jitter=0.25, seed=9)
        first = [policy.delay(a, "src", "wrapping") for a in (1, 2, 3)]
        second = [policy.delay(a, "src", "wrapping") for a in (1, 2, 3)]
        assert first == second
        for attempt, delay in zip((1, 2, 3), first):
            base = min(0.1 * 2.0 ** (attempt - 1), policy.max_delay)
            assert base * 0.75 <= delay <= base * 1.25

    def test_jitter_varies_by_source_and_stage(self):
        policy = RetryPolicy(max_retries=1, jitter=0.5)
        assert policy.delay(1, "a", "s") != policy.delay(1, "b", "s")
        assert policy.delay(1, "a", "s") != policy.delay(1, "a", "t")

    def test_max_attempts_counts_first_try(self):
        assert RetryPolicy().max_attempts == 1
        assert RetryPolicy(max_retries=2).max_attempts == 3

    def test_from_params(self):
        policy = RetryPolicy.from_params(RunParams(max_retries=4))
        assert policy.max_retries == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(base_delay=-0.1),
            dict(backoff_factor=0.5),
            dict(jitter=1.5),
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestFailurePolicies:
    def test_policy_constants(self):
        assert FAIL_FAST in FAILURE_POLICIES
        assert ISOLATE in FAILURE_POLICIES

    def test_run_params_validates_policy(self):
        with pytest.raises(ValueError, match="failure_policy"):
            RunParams(failure_policy="retry-forever")


class TestSourceFailure:
    def test_from_marked_exception(self):
        exc = RuntimeError("boom")
        exc.repro_stage = "wrapping"
        exc.repro_attempts = 3
        failure = SourceFailure.from_exception("siteA", exc)
        assert failure.source == "siteA"
        assert failure.stage == "wrapping"
        assert failure.error == "RuntimeError: boom"
        assert failure.attempts == 3
        assert failure.exception is exc

    def test_from_unmarked_exception(self):
        failure = SourceFailure.from_exception("siteA", ValueError("bad"))
        assert failure.stage == ""
        assert failure.attempts == 1


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(stage="wrapping", kind="explode")

    def test_rejects_empty_stage(self):
        with pytest.raises(ValueError, match="stage"):
            FaultSpec(stage="")

    def test_source_wildcard(self):
        spec = FaultSpec(stage="wrapping")
        assert spec.matches("anything", "wrapping")
        assert not spec.matches("anything", "annotation")
        pinned = FaultSpec(stage="wrapping", source="siteA")
        assert pinned.matches("siteA", "wrapping")
        assert not pinned.matches("siteB", "wrapping")


class TestPipelineRetries:
    def test_transient_failure_retried_to_success(self):
        stage = FlakyStage(failures=1)
        sleep = FakeSleep()
        observer = MetricsObserver()
        pipeline = Pipeline(
            stages=[stage], observers=(observer,), sleep=sleep
        )
        result = pipeline.run(make_ctx(max_retries=1))
        assert stage.runs == 2
        assert not result.discarded
        registry = observer.source_registry("unit")
        assert registry.counter_value("retries.flaky") == 1
        assert len(sleep.calls) == 1

    def test_retry_delays_follow_policy(self):
        stage = FlakyStage(failures=2)
        sleep = FakeSleep()
        policy = RetryPolicy(max_retries=2, base_delay=0.1, jitter=0.2, seed=4)
        pipeline = Pipeline(stages=[stage], retry_policy=policy, sleep=sleep)
        pipeline.run(make_ctx(source="flaky-src"))
        expected = [
            policy.delay(a, source="flaky-src", stage="flaky") for a in (1, 2)
        ]
        assert sleep.calls == expected

    def test_exhausted_retries_raise_with_stamps(self):
        stage = FlakyStage(failures=5)
        sleep = FakeSleep()
        pipeline = Pipeline(stages=[stage], sleep=sleep)
        with pytest.raises(TransientSourceError) as excinfo:
            pipeline.run(make_ctx(max_retries=2))
        assert stage.runs == 3
        assert excinfo.value.repro_stage == "flaky"
        assert excinfo.value.repro_attempts == 3
        assert len(sleep.calls) == 2

    def test_zero_retries_is_the_default(self):
        stage = FlakyStage(failures=1)
        pipeline = Pipeline(stages=[stage], sleep=FakeSleep())
        with pytest.raises(TransientSourceError):
            pipeline.run(make_ctx())
        assert stage.runs == 1

    def test_retry_events_in_trace(self):
        sink = io.StringIO()
        stage = FlakyStage(failures=1)
        pipeline = Pipeline(
            stages=[stage], observers=(TraceObserver(sink),), sleep=FakeSleep()
        )
        pipeline.run(make_ctx(max_retries=1))
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        [retry] = [e for e in events if e["event"] == "stage_retry"]
        assert retry["stage"] == "flaky"
        assert retry["attempt"] == 1
        assert retry["retry_delay_s"] > 0
        assert "flaky attempt 1" in retry["error"]
        # The run still closes normally after the successful retry.
        assert events[-1]["event"] == "pipeline_end"
        assert "error" not in events[-1]


class TestFaultInjector:
    def run_pipeline(self, injector, stage=None, observers=(), **params):
        stage = stage or CountingStage()
        pipeline = Pipeline(
            stages=injector.wrap_all([stage]),
            observers=observers,
            sleep=FakeSleep(),
        )
        return stage, pipeline.run(make_ctx(**params))

    def test_crash_fault_raises_injected_error(self):
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=CRASH)], sleep=FakeSleep()
        )
        stage = CountingStage()
        pipeline = Pipeline(
            stages=injector.wrap_all([stage]), sleep=FakeSleep()
        )
        with pytest.raises(InjectedFaultError):
            pipeline.run(make_ctx())
        assert stage.runs == 0  # fault fires before the stage body
        assert injector.fired == [("unit", "counting", "crash", 1)]

    def test_transient_fault_consumed_by_retry(self):
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=TRANSIENT, times=1)],
            sleep=FakeSleep(),
        )
        sink = io.StringIO()
        stage, result = self.run_pipeline(
            injector, observers=(TraceObserver(sink),), max_retries=1
        )
        assert stage.runs == 1
        assert not result.discarded
        assert injector.fired == [("unit", "counting", "transient", 1)]
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        retries = [e for e in events if e["event"] == "stage_retry"]
        assert [e["attempt"] for e in retries] == [1]

    def test_delay_fault_uses_injected_sleep(self):
        sleep = FakeSleep()
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=DELAY, delay=9.5)], sleep=sleep
        )
        stage, result = self.run_pipeline(injector)
        assert stage.runs == 1
        assert sleep.calls == [9.5]

    def test_times_budget_limits_firing(self):
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=TRANSIENT, times=2)],
            sleep=FakeSleep(),
        )
        stage, result = self.run_pipeline(injector, max_retries=5)
        assert stage.runs == 1
        assert injector.attempts("unit", "counting") == 3
        assert len(injector.fired) == 2

    def test_seeded_probability_is_reproducible(self):
        def fired_pattern(seed):
            injector = FaultInjector(
                [
                    FaultSpec(
                        stage="counting",
                        kind=TRANSIENT,
                        times=50,
                        probability=0.5,
                    )
                ],
                seed=seed,
                sleep=FakeSleep(),
            )
            pipeline = Pipeline(
                stages=injector.wrap_all([CountingStage()]),
                sleep=FakeSleep(),
            )
            try:
                pipeline.run(make_ctx(max_retries=30))
            except TransientSourceError:
                pass
            return [entry[3] for entry in injector.fired]

        assert fired_pattern(7) == fired_pattern(7)
        assert fired_pattern(7) != fired_pattern(8)

    def test_wrapper_preserves_stage_surface(self):
        stage = CountingStage()
        stage.timing_field = "annotation"
        stage.reads = ("pages",)
        stage.writes = ("result",)
        wrapped = FaultInjector(sleep=FakeSleep()).wrap(stage)
        assert wrapped.name == "counting"
        assert wrapped.timing_field == "annotation"
        assert wrapped.reads == ("pages",)
        assert wrapped.writes == ("result",)
