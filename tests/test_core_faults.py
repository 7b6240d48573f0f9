"""Unit tests for the resilience layer: failure records, fault injection.

Everything here runs on tiny hand-built pipelines with an injected fake
sleep — the suite never spends wall-clock time on a delay fault.
"""

import pytest

from repro.core.faults import (
    CRASH,
    DELAY,
    FAIL_FAST,
    FAILURE_POLICIES,
    ISOLATE,
    FaultInjector,
    FaultSpec,
    SourceFailure,
)
from repro.core.params import RunParams
from repro.core.pipeline import Pipeline, PipelineContext, Stage
from repro.errors import InjectedFaultError


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


def make_ctx(source="unit", **params):
    return PipelineContext(source=source, params=RunParams(**params), sod={})


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
        failure = SourceFailure.from_exception("siteA", exc)
        assert failure.source == "siteA"
        assert failure.stage == "wrapping"
        assert failure.error == "RuntimeError: boom"
        assert failure.exception is exc

    def test_from_unmarked_exception(self):
        failure = SourceFailure.from_exception("siteA", ValueError("bad"))
        assert failure.stage == ""


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


class TestFaultInjector:
    def run_pipeline(self, injector, stage=None, passes=1):
        """Run one wrapped stage over ``passes`` pipeline runs of one source."""
        stage = stage or CountingStage()
        pipeline = Pipeline(stages=injector.wrap_all([stage]))
        for __ in range(passes):
            result = pipeline.run(make_ctx())
        return stage, result

    def test_crash_fault_raises_injected_error(self):
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=CRASH)], sleep=FakeSleep()
        )
        stage = CountingStage()
        pipeline = Pipeline(stages=injector.wrap_all([stage]))
        with pytest.raises(InjectedFaultError):
            pipeline.run(make_ctx())
        assert stage.runs == 0  # fault fires before the stage body
        assert injector.fired == [("unit", "counting", "crash", 1)]

    def test_delay_fault_uses_injected_sleep(self):
        sleep = FakeSleep()
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=DELAY, delay=9.5)], sleep=sleep
        )
        stage, result = self.run_pipeline(injector)
        assert stage.runs == 1
        assert sleep.calls == [9.5]

    def test_times_budget_limits_firing(self):
        sleep = FakeSleep()
        injector = FaultInjector(
            [FaultSpec(stage="counting", kind=DELAY, delay=0.5, times=2)],
            sleep=sleep,
        )
        stage, result = self.run_pipeline(injector, passes=3)
        assert stage.runs == 3
        assert injector.attempts("unit", "counting") == 3
        assert injector.fired == [
            ("unit", "counting", "delay", 1),
            ("unit", "counting", "delay", 2),
        ]
        assert sleep.calls == [0.5, 0.5]

    def test_seeded_probability_is_reproducible(self):
        def fired_pattern(seed):
            injector = FaultInjector(
                [
                    FaultSpec(
                        stage="counting",
                        kind=DELAY,
                        times=50,
                        probability=0.5,
                    )
                ],
                seed=seed,
                sleep=FakeSleep(),
            )
            self.run_pipeline(injector, passes=31)
            return [entry[3] for entry in injector.fired]

        assert fired_pattern(7) == fired_pattern(7)
        assert 0 < len(fired_pattern(7)) < 31
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
