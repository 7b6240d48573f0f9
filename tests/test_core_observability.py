"""Observer protocol: event sequences, timings, traces, metrics."""

import io
import json

import pytest

from repro.core import ObjectRunner, ObjectRunnerSystem, TraceObserver
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.metrics import MetricsObserver


@pytest.fixture(scope="module")
def albums_setup():
    domain = domain_spec("albums")
    spec = SiteSpec(
        name="observe-albums",
        domain="albums",
        archetype="clean",
        total_objects=30,
        seed=("observe", "albums"),
    )
    source = generate_source(spec, domain)
    knowledge = build_knowledge(domain, coverage=0.2)
    return domain, source, knowledge


def make_runner(domain, knowledge, observers=()):
    return ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        observers=observers,
    )


def stage_seconds(registry, stage):
    """Summed ``stage.<stage>`` timer observations of one registry."""
    return sum(registry.observations(f"stage.{stage}"))


class TestPipelineTimings:
    def test_timings_populated_via_events(self, albums_setup):
        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        result = runner.run_source("observe-albums", source.pages)
        assert result.timings.preprocess > 0
        assert result.timings.annotation > 0
        assert result.timings.wrapping > 0
        assert result.timings.extraction > 0
        assert result.timings.enrichment == 0.0  # stage disabled

    def test_stage_timings_sum_to_pipeline_total(self, albums_setup):
        domain, source, knowledge = albums_setup
        observer = MetricsObserver()
        runner = make_runner(domain, knowledge, observers=(observer,))
        result = runner.run_source("observe-albums", source.pages)
        assert result.ok
        registry = observer.source_registry("observe-albums")
        [run_elapsed] = registry.observations("pipeline")
        stage_sum = sum(
            sum(registry.observations(name))
            for name in registry.timer_names()
            if name.startswith("stage.")
        )
        # The stages account for the run total within dispatch noise.
        assert stage_sum <= run_elapsed
        assert stage_sum > run_elapsed * 0.8
        assert result.timings.total == pytest.approx(stage_sum)


class TestTraceObserver:
    def test_jsonl_trace_one_line_per_event(self, albums_setup, tmp_path):
        domain, source, knowledge = albums_setup
        trace_path = tmp_path / "trace.jsonl"
        with TraceObserver(trace_path) as trace:
            runner = make_runner(domain, knowledge, observers=(trace,))
            result = runner.run_source("observe-albums", source.pages)
        assert result.ok
        lines = trace_path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "pipeline_start"
        assert kinds[-1] == "pipeline_end"
        stage_ends = [e for e in events if e["event"] == "stage_end"]
        assert [e["stage"] for e in stage_ends] == [
            "preprocess", "segmentation", "annotation", "wrapping", "extraction",
        ]
        # Per-stage elapsed sums to the run elapsed within noise.
        total = next(e for e in events if e["event"] == "pipeline_end")["elapsed_s"]
        stage_sum = sum(e["elapsed_s"] for e in stage_ends)
        assert stage_sum <= total
        assert stage_sum > total * 0.8

    def test_trace_counters_match_result(self, albums_setup):
        domain, source, knowledge = albums_setup
        sink = io.StringIO()
        trace = TraceObserver(sink)
        runner = make_runner(domain, knowledge, observers=(trace,))
        result = runner.run_source("observe-albums", source.pages)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        summary = next(e for e in events if e["event"] == "pipeline_end")
        assert summary["counters"]["objects_extracted"] == len(result.objects)
        assert summary["counters"]["pages_prepared"] == len(source.pages)

    def test_trace_records_discard(self, tmp_path):
        domain = domain_spec("albums")
        knowledge = build_knowledge(domain, coverage=0.2)
        sink = io.StringIO()
        runner = make_runner(domain, knowledge, observers=(TraceObserver(sink),))
        result = runner.run_source(
            "junk", ["<html><body><p>nothing</p></body></html>"] * 3
        )
        assert result.discarded
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        summary = next(e for e in events if e["event"] == "pipeline_end")
        assert summary["discarded"] is True
        assert summary["discard_stage"] == result.discard_stage


class TestMetricsObserverEvents:
    def test_collects_across_multiple_sources(self, albums_setup):
        domain, source, knowledge = albums_setup
        observer = MetricsObserver()
        runner = make_runner(domain, knowledge, observers=(observer,))
        runner.run_sources(
            {"a": source.pages, "b": source.pages}
        )
        merged = observer.merged_registry()
        assert merged.counter_value("runs") == 2
        assert observer.sources() == ("a", "b")
        assert stage_seconds(merged, "wrapping") > 0
        assert merged.counter_value("objects_extracted") > 0

    def test_add_observer_after_construction(self, albums_setup):
        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        observer = MetricsObserver()
        runner.add_observer(observer)
        runner.run_source("observe-albums", source.pages)
        assert observer.merged_registry().counter_value("runs") == 1


class TestSystemAdapterEvents:
    def test_wrap_seconds_comes_from_stage_events(self, albums_setup):
        domain, source, knowledge = albums_setup
        extra = MetricsObserver()
        system = ObjectRunnerSystem(
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            observers=(extra,),
        )
        pages = make_runner(domain, knowledge).prepare_pages(source.pages)
        output = system.run("observe-albums", pages, domain.sod)
        assert not output.failed
        assert output.wrap_seconds > 0
        # The injected observer saw the same wrapping time the adapter used.
        registry = extra.source_registry("observe-albums")
        assert stage_seconds(registry, "wrapping") == pytest.approx(
            output.wrap_seconds
        )

    def test_adapter_reports_discard_from_events(self, albums_setup):
        domain, __, knowledge = albums_setup
        system = ObjectRunnerSystem(
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
        )
        runner = make_runner(domain, knowledge)
        pages = runner.prepare_pages(
            ["<html><body><p>nothing</p></body></html>"] * 3
        )
        output = system.run("junk", pages, domain.sod)
        assert output.failed
        assert output.failure_reason


class TestTraceObserverFailure:
    """The trace sink stays coherent when a stage raises mid-pipeline."""

    def _failing_pipeline(self, trace):
        from repro.core.params import RunParams
        from repro.core.pipeline import Pipeline, PipelineContext, Stage

        class BoomStage(Stage):
            name = "boom"

            def run(self, ctx):
                raise RuntimeError("kaput")

        ctx = PipelineContext(source="doomed", params=RunParams(), sod={})
        return Pipeline(stages=[BoomStage()], observers=(trace,)), ctx

    def test_terminal_event_flushed_before_propagation(self, tmp_path):
        trace_path = tmp_path / "crash.jsonl"
        trace = TraceObserver(trace_path)
        pipeline, ctx = self._failing_pipeline(trace)
        with pytest.raises(RuntimeError, match="kaput"):
            pipeline.run(ctx)
        # Every line is already on disk *without* an explicit close: the
        # observer flushes per event, so a crashing run leaves no torn tail.
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert [e["event"] for e in events] == [
            "pipeline_start", "stage_start", "pipeline_end",
        ]
        terminal = events[-1]
        assert terminal["error"] == "RuntimeError: kaput"
        assert terminal["stage"] == "boom"
        assert terminal["source"] == "doomed"
        trace.close()

    def test_close_is_idempotent_and_stops_writes(self, tmp_path):
        trace_path = tmp_path / "crash.jsonl"
        trace = TraceObserver(trace_path)
        pipeline, ctx = self._failing_pipeline(trace)
        with pytest.raises(RuntimeError):
            pipeline.run(ctx)
        trace.close()
        trace.close()  # second close must not raise
        before = trace_path.read_text()
        with pytest.raises(RuntimeError):
            pipeline.run(ctx)  # observer is closed: no further writes
        assert trace_path.read_text() == before

    def test_context_manager_closes_on_failure(self, tmp_path):
        trace_path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with TraceObserver(trace_path) as trace:
                pipeline, ctx = self._failing_pipeline(trace)
                pipeline.run(ctx)
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert events[-1]["event"] == "pipeline_end"
        assert "kaput" in events[-1]["error"]
