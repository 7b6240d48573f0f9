"""Integration tests for the full ObjectRunner pipeline."""

import pytest

from repro.core import ObjectRunner, ObjectRunnerSystem, RunParams
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.sod.instances import validate_instance


@pytest.fixture(scope="module")
def albums_setup():
    domain = domain_spec("albums")
    spec = SiteSpec(
        name="pipeline-albums",
        domain="albums",
        archetype="clean",
        total_objects=40,
        seed=("pipeline", "albums"),
    )
    source = generate_source(spec, domain)
    knowledge = build_knowledge(domain, coverage=0.2)
    return domain, source, knowledge


def make_runner(domain, knowledge, params=None):
    return ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=params,
    )


class TestFullPipeline:
    def test_extracts_all_objects(self, albums_setup):
        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        result = runner.run_source(source.spec.name, source.pages)
        assert result.ok
        assert len(result.objects) == len(source.gold)

    def test_objects_valid_against_sod(self, albums_setup):
        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        result = runner.run_source(source.spec.name, source.pages)
        for instance in result.objects:
            assert validate_instance(domain.sod, instance).ok

    def test_timings_recorded(self, albums_setup):
        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        result = runner.run_source(source.spec.name, source.pages)
        assert result.timings.preprocess > 0
        assert result.timings.annotation > 0
        assert result.timings.wrapping > 0
        assert result.timings.extraction > 0

    def test_sample_indexes_recorded(self, albums_setup):
        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        result = runner.run_source(source.spec.name, source.pages)
        assert result.sample_page_indexes
        assert all(
            0 <= index < len(source.pages)
            for index in result.sample_page_indexes
        )

    def test_recognizers_resolved_for_all_entities(self, albums_setup):
        domain, __, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        names = {recognizer.type_name for recognizer in runner.recognizers}
        assert names == {"title", "artist", "price", "date"}

    def test_gazetteers_exposed(self, albums_setup):
        domain, __, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        assert set(runner.gazetteers()) == {"title", "artist"}


class TestDiscarding:
    def test_unstructured_source_discarded(self):
        domain = domain_spec("albums")
        spec = SiteSpec(
            name="pipeline-emusic",
            domain="albums",
            archetype="unstructured",
            total_objects=50,
            seed=("pipeline", "unstructured"),
        )
        source = generate_source(spec, domain)
        knowledge = build_knowledge(domain, coverage=0.2)
        runner = make_runner(domain, knowledge)
        result = runner.run_source(spec.name, source.pages)
        assert result.discarded
        assert result.discard_stage in ("annotation", "wrapper")


class TestSamplingModes:
    def test_random_sampling_runs(self, albums_setup):
        domain, source, knowledge = albums_setup
        params = RunParams(sod_based_sampling=False, sample_size=4)
        runner = make_runner(domain, knowledge, params)
        result = runner.run_source(source.spec.name, source.pages)
        assert not result.discarded
        assert len(result.sample_page_indexes) == 4


class TestEnrichment:
    def test_dictionaries_grow_after_extraction(self, albums_setup):
        domain, source, knowledge = albums_setup
        params = RunParams(enrich_dictionaries=True)
        runner = make_runner(domain, knowledge, params)
        before = len(runner.gazetteers()["artist"])
        result = runner.run_source(source.spec.name, source.pages)
        assert result.ok
        after = len(runner.gazetteers()["artist"])
        assert after > before


class TestSystemAdapter:
    def test_adapter_output(self, albums_setup):
        domain, source, knowledge = albums_setup
        system = ObjectRunnerSystem(
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
        )
        pages = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
        ).prepare_pages(source.pages)
        output = system.run(source.spec.name, pages, domain.sod)
        assert output.system == "objectrunner"
        assert not output.failed
        assert output.objects


class TestPersistedWrapperExtraction:
    def test_extract_with_persisted_wrapper(self, albums_setup):
        import json

        from repro.wrapper.serialize import wrapper_from_dict, wrapper_to_dict

        domain, source, knowledge = albums_setup
        runner = make_runner(domain, knowledge)
        first = runner.run_source(source.spec.name, source.pages)
        assert first.ok

        # Persist, reload, re-extract without re-wrapping.
        payload = json.dumps(wrapper_to_dict(first.wrapper))
        restored = wrapper_from_dict(json.loads(payload))
        second = runner.extract_with(restored, source.pages)
        assert second.timings.wrapping == 0.0
        assert [o.values for o in second.objects] == [
            o.values for o in first.objects
        ]

    def test_extract_with_skips_enrichment(self, albums_setup):
        # Enrichment settings must not turn the extract-often path into
        # the re-inducing loop: exactly preprocess and extraction run,
        # once each, and no gazetteer grows.
        from repro.core.pipeline import PipelineObserver

        class StageRecorder(PipelineObserver):
            def __init__(self):
                self.stages = []

            def on_stage_start(self, event, ctx):
                self.stages.append(event.stage)

        domain, source, knowledge = albums_setup
        wrapper = make_runner(domain, knowledge).run_source(
            source.spec.name, source.pages
        ).wrapper
        assert wrapper is not None
        runner = make_runner(
            domain,
            knowledge,
            RunParams(enrich_dictionaries=True, enrichment_passes=2),
        )
        recorder = StageRecorder()
        runner.add_observer(recorder)
        sizes = {
            name: len(gazetteer)
            for name, gazetteer in runner.gazetteers().items()
        }
        assert sizes
        result = runner.extract_with(wrapper, source.pages)
        assert result.objects
        assert recorder.stages == ["preprocess", "extraction"]
        assert {
            name: len(gazetteer)
            for name, gazetteer in runner.gazetteers().items()
        } == sizes
