"""One source, one set of timings.

``Pipeline.run`` files each stage's wall-clock into
``SourceResult.timings``, and :class:`MetricsObserver` folds the same
``stage_end`` events into ``stage.<name>`` timers.  The two must agree
for every source, over every pipeline run the source made: a demoted
registry wrapper re-induced, or several enrichment passes.
"""

import pytest

from repro.core import ObjectRunner, ObjectRunnerSystem, RunParams
from repro.core.pipeline import stage_registry
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.htmlkit import clean_tree, tidy
from repro.metrics import MetricsObserver
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.registry import WrapperRegistry
from tests.test_registry_pipeline import (
    FIGURE3_RAW,
    SOD,
    make_runner as make_fig3_runner,
    poisoned_registry,
)


def expected_timings(registry):
    """Each timing field as the sum of its stages' ``stage.*`` timers."""
    stages = stage_registry()
    expected = {}
    for name in registry.timer_names():
        if not name.startswith("stage."):
            continue
        field = stages[name.removeprefix("stage.")].timing_field
        if field:
            expected[field] = expected.get(field, 0.0) + sum(
                registry.observations(name)
            )
    return expected


def assert_timings_match(result, observer):
    registry = observer.source_registry(result.source)
    expected = expected_timings(registry)
    timings = result.timings.as_dict()
    assert set(expected) <= set(timings)
    assert timings == pytest.approx(
        {field: expected.get(field, 0.0) for field in timings}
    )


@pytest.fixture(scope="module")
def albums():
    domain = domain_spec("albums")
    knowledge = build_knowledge(domain, coverage=0.25)
    sources = {}
    for index in range(4):
        spec = SiteSpec(
            name=f"timed-{index}",
            domain="albums",
            archetype="clean",
            total_objects=10,
            seed=("timings", index),
        )
        sources[spec.name] = generate_source(spec, domain).pages
    return domain, knowledge, sources


def albums_runner(albums, observer, registry_root=None, **params):
    domain, knowledge, __ = albums
    return ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(**params),
        observers=(observer,),
        wrapper_registry=(
            WrapperRegistry(registry_root) if registry_root else None
        ),
    )


class TestTimingsMatchMetrics:
    @pytest.mark.parametrize(
        "params",
        [{}, {"max_workers": 2, "backend": "process"}],
        ids=["serial", "process"],
    )
    def test_batch_run_sources(self, albums, tmp_path, params):
        __, __, sources = albums
        observer = MetricsObserver()
        runner = albums_runner(
            albums, observer, registry_root=tmp_path, **params
        )
        outcome = runner.run_sources(sources)
        assert list(outcome.results) == list(sources)
        for result in outcome.results.values():
            assert result.timings.registry > 0
            assert_timings_match(result, observer)

    def test_demoted_source_covers_both_runs(
        self, tmp_path, figure3_recognizers
    ):
        registry = poisoned_registry(tmp_path, figure3_recognizers)
        observer = MetricsObserver()
        runner = make_fig3_runner(
            figure3_recognizers, wrapper_registry=registry
        )
        runner.add_observer(observer)
        result = runner.run_source("fig3", FIGURE3_RAW)
        assert registry.stats()["demotions"] == 1
        assert observer.source_registry("fig3").counter_value("runs") == 2
        assert_timings_match(result, observer)

    def test_enrichment_passes_cover_every_pass(self, albums):
        __, __, sources = albums
        observer = MetricsObserver()
        runner = albums_runner(
            albums, observer, enrich_dictionaries=True, enrichment_passes=2
        )
        source, pages = next(iter(sources.items()))
        result = runner.run_source(source, pages)
        assert not result.discarded
        assert observer.source_registry(source).counter_value("runs") == 2
        assert_timings_match(result, observer)

    def test_system_wrap_seconds_is_timings_wrapping(
        self, tmp_path, figure3_recognizers
    ):
        registry = poisoned_registry(tmp_path, figure3_recognizers)
        observer = MetricsObserver()
        # The adapter builds its own recognizers: the figure3 gazetteers
        # travel as extra entries of otherwise empty dictionaries.
        system = ObjectRunnerSystem(
            extra_gazetteer_entries={
                recognizer.type_name: recognizer.entries()
                for recognizer in figure3_recognizers
                if isinstance(recognizer, GazetteerRecognizer)
            },
            observers=(observer,),
            wrapper_registry=registry,
        )
        pages = [clean_tree(tidy(raw)) for raw in FIGURE3_RAW]
        output = system.run("fig3", pages, SOD)
        assert not output.failed
        assert registry.stats()["demotions"] == 1
        source_registry = observer.source_registry("fig3")
        assert source_registry.counter_value("runs") == 2
        assert output.wrap_seconds > 0
        assert output.wrap_seconds == pytest.approx(
            sum(source_registry.observations("stage.wrapping"))
        )
