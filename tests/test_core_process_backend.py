"""The process backend reproduces the serial run byte for byte."""

import io
import json
import pickle

import pytest

from repro.core import ObjectRunner, RunParams, ShardSpec
from repro.core import objectrunner as objectrunner_module
from repro.core.faults import FaultInjector, FaultSpec
from repro.core.pipeline import TraceObserver
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.errors import MultiSourceError, ProcessBackendConfigError
from repro.metrics import MetricsObserver, MetricsRegistry
from repro.metrics.observer import peak_rss_bytes
from repro.registry.store import WrapperRegistry


@pytest.fixture(scope="module")
def four_sources():
    """Four independent album sites of the same domain."""
    domain = domain_spec("albums")
    knowledge = build_knowledge(domain, coverage=0.25)
    sources = {}
    for index in range(4):
        spec = SiteSpec(
            name=f"proc-{index}",
            domain="albums",
            archetype="clean",
            total_objects=10,
            seed=("process-backend", index),
        )
        sources[spec.name] = generate_source(spec, domain).pages
    return domain, knowledge, sources


def make_runner(domain, knowledge, registry_root=None, observers=(), **params):
    return ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(**params),
        observers=observers,
        wrapper_registry=(
            WrapperRegistry(registry_root) if registry_root else None
        ),
    )


def as_bytes(outcome):
    return json.dumps(
        [instance.values for instance in outcome.objects], sort_keys=True
    ).encode()


class TestProcessEqualsSerial:
    def test_byte_identical_objects(self, four_sources):
        domain, knowledge, sources = four_sources
        serial = make_runner(
            domain, knowledge, max_workers=1
        ).run_sources(sources)
        process = make_runner(
            domain, knowledge, max_workers=4, backend="process"
        ).run_sources(sources)
        assert as_bytes(process) == as_bytes(serial)
        assert list(process.results) == list(serial.results) == list(sources)

    def test_metrics_counters_match_serial(self, four_sources):
        domain, knowledge, sources = four_sources
        counters = {}
        for label, workers in (("serial", 1), ("process", 4)):
            observer = MetricsObserver()
            make_runner(
                domain, knowledge, observers=(observer,), max_workers=workers
            ).run_sources(sources)
            snapshot = observer.snapshot()
            counters[label] = json.dumps(
                {
                    "sources": snapshot["sources"],
                    "counters": observer.merged_registry().counters_snapshot(),
                },
                sort_keys=True,
            )
        assert counters["process"] == counters["serial"]

    def test_registry_index_bytes_match_serial(self, four_sources, tmp_path):
        domain, knowledge, sources = four_sources
        serial_root = tmp_path / "serial"
        process_root = tmp_path / "process"
        make_runner(
            domain, knowledge, registry_root=serial_root, max_workers=1
        ).run_sources(sources)
        make_runner(
            domain, knowledge, registry_root=process_root,
            max_workers=4, backend="process",
        ).run_sources(sources)
        serial_index = (serial_root / "index.json").read_bytes()
        process_index = (process_root / "index.json").read_bytes()
        assert process_index == serial_index

    def test_worker_cache_and_registry_stats_are_adopted(
        self, four_sources, tmp_path
    ):
        domain, knowledge, sources = four_sources
        observer = MetricsObserver()
        runner = make_runner(
            domain, knowledge, registry_root=tmp_path / "reg",
            observers=(observer,), max_workers=4, backend="process",
        )
        runner.run_sources(sources)
        # Worker preprocess caches report home: every page was a miss once.
        stats = observer.cache_stats()
        assert stats["misses"] >= sum(len(p) for p in sources.values())
        # Worker registry lookups (all misses on a cold root) fold into the
        # parent handle; the stores themselves happen at parent apply time.
        registry_stats = runner.wrapper_registry.stats()
        assert registry_stats["misses"] == len(sources)
        assert registry_stats["stores"] == len(sources)

    def test_two_shards_union_equals_full_run(self, four_sources):
        domain, knowledge, sources = four_sources
        full = make_runner(
            domain, knowledge, max_workers=1
        ).run_sources(sources)
        parts = [
            make_runner(
                domain, knowledge, max_workers=1,
                shard=ShardSpec(index=index, count=2),
            ).run_sources(sources)
            for index in range(2)
        ]
        names = [list(part.results) for part in parts]
        assert not (set(names[0]) & set(names[1]))
        assert sorted(names[0] + names[1]) == sorted(sources)
        for part in parts:
            for source, result in part.results.items():
                assert [o.values for o in result.objects] == [
                    o.values for o in full.results[source].objects
                ]

    def test_shard_keeps_input_order(self, four_sources):
        domain, knowledge, sources = four_sources
        shard = ShardSpec(index=0, count=2)
        outcome = make_runner(
            domain, knowledge, max_workers=1, shard=shard
        ).run_sources(sources)
        expected = [name for name in sources if shard.contains(name)]
        assert list(outcome.results) == expected


class TestProcessFailurePolicies:
    def failing_sources(self, sources):
        mixed = {}
        for index, (name, pages) in enumerate(sources.items()):
            if index == 2:
                # A non-string page fails deterministically at preprocess
                # in any backend (fault injectors cannot cross the
                # process boundary).
                mixed["bad"] = [None]
            mixed[name] = pages
        return mixed

    def test_isolate_matches_serial(self, four_sources):
        domain, knowledge, sources = four_sources
        mixed = self.failing_sources(sources)
        serial = make_runner(
            domain, knowledge, max_workers=1, failure_policy="isolate"
        ).run_sources(mixed)
        process = make_runner(
            domain, knowledge, max_workers=4, backend="process",
            failure_policy="isolate",
        ).run_sources(mixed)
        assert list(process.failures) == list(serial.failures) == ["bad"]
        assert process.failures["bad"].stage == "preprocess"
        assert as_bytes(process) == as_bytes(serial)

    def test_fail_fast_partial_matches_serial_prefix(self, four_sources):
        domain, knowledge, sources = four_sources
        mixed = self.failing_sources(sources)
        partials = {}
        for label, workers in (("serial", 1), ("process", 4)):
            runner = make_runner(
                domain, knowledge, max_workers=workers,
                failure_policy="fail_fast",
            )
            with pytest.raises(MultiSourceError) as excinfo:
                runner.run_sources(mixed)
            error = excinfo.value
            assert error.failure.source == "bad"
            partials[label] = error.partial
        assert list(partials["process"].results) == list(
            partials["serial"].results
        )
        assert as_bytes(partials["process"]) == as_bytes(partials["serial"])

    def test_fail_fast_registry_matches_serial_prefix(
        self, four_sources, tmp_path
    ):
        domain, knowledge, sources = four_sources
        mixed = self.failing_sources(sources)
        roots = {}
        for label, workers in (("serial", 1), ("process", 4)):
            root = tmp_path / label
            roots[label] = root
            runner = make_runner(
                domain, knowledge, registry_root=root,
                max_workers=workers, failure_policy="fail_fast",
            )
            with pytest.raises(MultiSourceError):
                runner.run_sources(mixed)
        assert (roots["process"] / "index.json").read_bytes() == (
            roots["serial"] / "index.json"
        ).read_bytes()


class TestProcessBackendSupport:
    # Rejection happens at *construction* time — before any worker
    # spawns — with a typed ProcessBackendConfigError naming the
    # offending constructor field, whenever the runner can fan out.

    def test_rejects_fault_injector(self, four_sources):
        domain, knowledge, __ = four_sources
        with pytest.raises(
            ProcessBackendConfigError, match="fault injector"
        ) as excinfo:
            ObjectRunner(
                domain.sod,
                ontology=knowledge.ontology,
                corpus=knowledge.corpus,
                gazetteer_classes=domain.gazetteer_classes,
                params=RunParams(max_workers=4),
                fault_injector=FaultInjector(
                    [FaultSpec(stage="wrapping", source="proc-0")]
                ),
            )
        assert excinfo.value.field == "fault_injector"
        assert "max_workers=1" in str(excinfo.value)

    def test_rejects_custom_sleep(self, four_sources):
        domain, knowledge, __ = four_sources
        with pytest.raises(
            ProcessBackendConfigError, match="sleep"
        ) as excinfo:
            ObjectRunner(
                domain.sod,
                ontology=knowledge.ontology,
                corpus=knowledge.corpus,
                gazetteer_classes=domain.gazetteer_classes,
                params=RunParams(max_workers=4),
                sleep=lambda seconds: None,
            )
        assert excinfo.value.field == "sleep"
        assert "max_workers=1" in str(excinfo.value)

    def test_rejects_non_metrics_observers(self, four_sources):
        domain, knowledge, __ = four_sources
        with pytest.raises(
            ProcessBackendConfigError, match="MetricsObserver"
        ) as excinfo:
            make_runner(
                domain, knowledge, observers=(TraceObserver(io.StringIO()),),
                max_workers=4,
            )
        assert excinfo.value.field == "observers"
        assert "max_workers=1" in str(excinfo.value)

    def test_rejects_late_observer_subscription(self, four_sources):
        domain, knowledge, __ = four_sources
        runner = make_runner(
            domain, knowledge, max_workers=4, backend="process"
        )
        with pytest.raises(
            ProcessBackendConfigError, match="MetricsObserver"
        ) as excinfo:
            runner.add_observer(TraceObserver(io.StringIO()))
        assert excinfo.value.field == "observers"
        # MetricsObserver subscriptions stay fine.
        runner.add_observer(MetricsObserver())

    def test_config_error_is_a_value_error(self):
        # Callers treating backend misconfiguration as a plain
        # configuration error keep working.
        assert issubclass(ProcessBackendConfigError, ValueError)

    def test_small_batches_run_in_process(self, four_sources, monkeypatch):
        # One source (or one worker) never pays process fan-out cost:
        # no ProcessPoolExecutor is ever created for either batch.
        domain, knowledge, sources = four_sources
        first = next(iter(sources))
        monkeypatch.setattr(
            objectrunner_module,
            "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("process fan-out on a small batch"),
        )
        for workers, batch in (
            (4, {first: sources[first]}),
            (1, sources),
        ):
            runner = make_runner(
                domain, knowledge, max_workers=workers, backend="process"
            )
            outcome = runner.run_sources(batch)
            assert list(outcome.results) == list(batch)

    def test_serial_runs_accept_process_local_features(self, four_sources):
        # The boundary check keys on fan-out, not on the backend name:
        # one worker, or enrichment (which forces serial execution),
        # never leaves the process, so nothing needs to cross it.
        domain, knowledge, sources = four_sources
        injected = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=RunParams(
                backend="process", max_workers=1, failure_policy="isolate"
            ),
            fault_injector=FaultInjector(
                [FaultSpec(stage="wrapping", source="proc-0")]
            ),
        )
        outcome = injected.run_sources(sources)
        assert list(outcome.failures) == ["proc-0"]
        assert list(outcome.results) == list(sources)[1:]
        stream = io.StringIO()
        traced = make_runner(
            domain, knowledge, observers=(TraceObserver(stream),),
            backend="process", max_workers=4, enrich_dictionaries=True,
        )
        traced.add_observer(TraceObserver(io.StringIO()))
        outcome = traced.run_sources(sources)
        assert list(outcome.results) == list(sources)
        assert stream.getvalue().count('"pipeline_end"') == len(sources)

    def test_params_validation(self):
        assert RunParams().backend == "process"
        for backend in ("thread", "fiber"):
            with pytest.raises(ValueError, match="unknown backend"):
                RunParams(backend=backend)
        with pytest.raises(ValueError):
            RunParams(shard="0/2")  # must be a ShardSpec, not a string


class TestMergeBuildingBlocks:
    def test_metrics_registry_pickle_roundtrip(self):
        registry = MetricsRegistry()
        registry.count("pages", 3)
        registry.gauge("pc", 0.92)
        registry.observe("wrap_seconds", 0.25)
        registry.observe("wrap_seconds", 0.75)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        # The recreated lock still guards mutation.
        clone.count("pages")
        assert clone.counter_value("pages") == 4

    def test_adopt_source_keeps_pinned_order(self):
        observer = MetricsObserver()
        observer.note_source_order(["a", "b", "c"])
        late = MetricsRegistry()
        late.count("objects", 5)
        observer.adopt_source("c", late)
        early = MetricsRegistry()
        early.count("objects", 2)
        observer.adopt_source("a", early)
        # Adoption order was c-then-a, but the pinned order wins ("b"
        # never produced a registry, so it does not appear).
        assert observer.sources() == ("a", "c")
        assert observer.source_registry("a").counter_value("objects") == 2
        assert observer.source_registry("c").counter_value("objects") == 5

    def test_adopt_cache_stats_sums(self):
        observer = MetricsObserver()
        observer.adopt_cache_stats({"hits": 2, "misses": 3})
        observer.adopt_cache_stats({"hits": 1, "misses": 0})
        stats = observer.cache_stats()
        assert stats["hits"] == 3
        assert stats["misses"] == 3

    def test_peak_rss_folds_children_maximum(self, monkeypatch):
        import resource

        real = resource.getrusage

        class _Usage:
            def __init__(self, maxrss):
                self.ru_maxrss = maxrss

        def fake(who):
            if who == resource.RUSAGE_CHILDREN:
                return _Usage(999_999)
            return _Usage(111)

        monkeypatch.setattr(resource, "getrusage", fake)
        try:
            assert peak_rss_bytes() in (999_999 * 1024, 999_999)
        finally:
            monkeypatch.setattr(resource, "getrusage", real)

    def test_peak_rss_self_branch_wins_when_larger(self, monkeypatch):
        import resource

        class _Usage:
            def __init__(self, maxrss):
                self.ru_maxrss = maxrss

        def fake(who):
            if who == resource.RUSAGE_CHILDREN:
                return _Usage(10)
            return _Usage(500)

        monkeypatch.setattr(resource, "getrusage", fake)
        assert peak_rss_bytes() in (500 * 1024, 500)

    def test_peak_rss_live_reading_positive(self):
        assert peak_rss_bytes() > 0
