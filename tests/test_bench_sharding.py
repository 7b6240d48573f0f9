"""Sharded and pooled bench captures merge back to the serial bytes."""

import json

import pytest

from repro.core.sharding import ShardSpec
from repro.metrics.bench import (
    BenchConfig,
    BenchSession,
    CatalogCache,
    bench_digest,
    claim_bench_path,
    compare_documents,
    digest_projection,
    load_bench,
    merge_documents,
    write_bench,
)
from repro.datasets import catalog_entries
from repro.registry.store import WrapperRegistry

SCALE = 0.02
SYSTEMS = ("objectrunner",)


def capture(tmp_root=None, **config):
    session = BenchSession(
        BenchConfig(
            scale=SCALE,
            systems=SYSTEMS,
            registry_root=str(tmp_root) if tmp_root else None,
            **config,
        )
    )
    return session.capture()


@pytest.fixture(scope="module")
def backend_docs(tmp_path_factory):
    """Serial and process captures over fresh registry roots."""
    root = tmp_path_factory.mktemp("backends")
    docs = {}
    for backend, workers in (("serial", 1), ("process", 4)):
        docs[backend] = capture(tmp_root=root / backend, workers=workers)
    return root, docs


@pytest.fixture(scope="module")
def shard_docs(tmp_path_factory):
    """Serial captures of the two halves of a 2-way shard split."""
    root = tmp_path_factory.mktemp("shards")
    return root, [
        capture(
            tmp_root=root / f"shard{index}",
            shard=ShardSpec(index=index, count=2),
        )
        for index in range(2)
    ]


class TestBackendIdentity:
    def test_digests_identical_across_backends(self, backend_docs):
        __, docs = backend_docs
        digests = {name: bench_digest(doc) for name, doc in docs.items()}
        assert digests["process"] == digests["serial"]

    def test_registry_bytes_identical_across_backends(self, backend_docs):
        root, __ = backend_docs
        serial = (root / "serial" / "index.json").read_bytes()
        assert (root / "process" / "index.json").read_bytes() == serial

    def test_pooled_docs_carry_per_shard_rows(self, backend_docs):
        __, docs = backend_docs
        total = docs["serial"]["config"]["sources"]
        rows = docs["process"]["sharding"]["per_shard"]["objectrunner"]
        assert sum(row["sources"] for row in rows) == total
        for row in rows:
            assert row["count"] == 4
            assert 0 <= row["index"] < 4
            assert row["shard"] is None
            assert row["wall_seconds"] >= 0

    def test_sweep_walls_recorded(self, backend_docs):
        __, docs = backend_docs
        for doc in docs.values():
            walls = doc["sharding"]["wall_seconds"]
            assert walls["objectrunner"] > 0

    def test_config_records_execution(self, backend_docs):
        __, docs = backend_docs
        assert docs["process"]["config"]["backend"] == "process"
        assert docs["process"]["config"]["workers"] == 4
        assert docs["serial"]["config"]["shard"] is None

    def test_execution_is_what_ran_not_what_was_asked(self):
        # The worker count alone picks the sweep: one worker is the
        # serial loop, more are worker processes.  Both the config and
        # the sharding block record what ran.
        for workers, expected in ((1, ("serial", 1)), (2, ("process", 2))):
            doc = capture(workers=workers)
            for block in (doc["config"], doc["sharding"]):
                assert (block["backend"], block["workers"]) == expected
            assert doc["sharding"]["reference"] is None


class TestShardMerge:
    def test_shards_cover_catalog_without_overlap(self, shard_docs):
        __, docs = shard_docs
        total = len(catalog_entries(scale=SCALE))
        sizes = [doc["config"]["sources"] for doc in docs]
        assert sum(sizes) == total
        assert all(size > 0 for size in sizes)

    def test_merged_digest_equals_unsharded(self, backend_docs, shard_docs):
        __, docs = backend_docs
        __, parts = shard_docs
        merged = merge_documents(parts)
        assert bench_digest(merged) == bench_digest(docs["serial"])

    def test_merged_registry_bytes_equal_unsharded(
        self, backend_docs, shard_docs, tmp_path
    ):
        backend_root, __ = backend_docs
        shard_root, __ = shard_docs
        merged = WrapperRegistry.merged(
            tmp_path / "merged",
            [
                WrapperRegistry(shard_root / "shard0"),
                WrapperRegistry(shard_root / "shard1"),
            ],
        )
        assert merged.index_path.read_bytes() == (
            backend_root / "serial" / "index.json"
        ).read_bytes()

    def test_merged_document_shape(self, shard_docs):
        __, parts = shard_docs
        merged = merge_documents(parts)
        sharding = merged["sharding"]
        assert sharding["merged_from"] == ["0/2", "1/2"]
        assert merged["config"]["shard"] is None
        rows = sharding["per_shard"]["objectrunner"]
        assert len(rows) == 2
        walls = sharding["wall_seconds"]["objectrunner"]
        assert walls == round(
            sum(
                doc["sharding"]["wall_seconds"]["objectrunner"]
                for doc in parts
            ),
            6,
        )

    def test_merge_rejects_mismatched_scale(self, shard_docs):
        __, parts = shard_docs
        other = json.loads(json.dumps(parts[1]))
        other["config"]["scale"] = 0.5
        with pytest.raises(ValueError, match="scale"):
            merge_documents([parts[0], other])

    def test_merge_rejects_warm_cold_mix(self, shard_docs):
        __, parts = shard_docs
        other = json.loads(json.dumps(parts[1]))
        other["config"]["registry"] = False
        other["registry"] = None
        with pytest.raises(ValueError, match="warm and cold"):
            merge_documents([parts[0], other])

    def test_merge_needs_documents(self):
        with pytest.raises(ValueError):
            merge_documents([])


class TestDigestProjection:
    def test_digest_ignores_run_varying_fields(self, backend_docs):
        __, docs = backend_docs
        doc = json.loads(json.dumps(docs["serial"]))
        doc["generated_at"] = "2099-01-01T00:00:00+00:00"
        doc["process"]["peak_rss_bytes"] = 10**12
        doc["sharding"]["wall_seconds"] = {"objectrunner": 9999.0}
        doc["config"]["seed"]["pythonhashseed"] = "12345"
        assert bench_digest(doc) == bench_digest(docs["serial"])

    def test_digest_ignores_registry_store_race_split(self, backend_docs):
        # Where duplicate inductions are discarded (one registry vs at
        # merge time) is execution layout, not run identity — but the
        # hit/miss counts are behavior and must stay visible.
        __, docs = backend_docs
        doc = json.loads(json.dumps(docs["serial"]))
        assert doc["registry"], "fixture captures with a registry root"
        doc["registry"]["stores"] += 7
        doc["registry"]["races"] += 7
        assert bench_digest(doc) == bench_digest(docs["serial"])
        doc["registry"]["misses"] += 1
        assert bench_digest(doc) != bench_digest(docs["serial"])

    def test_digest_sees_quality_counts(self, backend_docs):
        __, docs = backend_docs
        doc = json.loads(json.dumps(docs["serial"]))
        domains = doc["systems"]["objectrunner"]["domains"]
        first = next(iter(domains.values()))
        first["objects_correct"] += 1
        assert bench_digest(doc) != bench_digest(docs["serial"])

    def test_projection_keeps_identity_config(self, backend_docs):
        __, docs = backend_docs
        projection = digest_projection(docs["serial"])
        assert projection["config"]["scale"] == SCALE
        assert projection["config"]["registry"] is True
        assert "pythonhashseed" not in json.dumps(projection)


class TestCompareExecutionGate:
    def test_backend_change_skips_timing_comparison(self, backend_docs):
        __, docs = backend_docs
        comparison = compare_documents(docs["serial"], docs["process"])
        assert comparison.ok
        assert any(
            "execution config differs" in note for note in comparison.notes
        )

    def test_same_execution_has_no_gate_note(self, backend_docs):
        __, docs = backend_docs
        comparison = compare_documents(docs["serial"], docs["serial"])
        assert comparison.ok
        assert not any(
            "execution config differs" in note for note in comparison.notes
        )

    def test_v1_document_gets_serial_defaults(self, backend_docs):
        __, docs = backend_docs
        old = json.loads(json.dumps(docs["serial"]))
        # Simulate a v1 document: no execution keys, no sharding block.
        old["schema_version"] = 1
        for key in ("shard", "backend", "workers"):
            old["config"].pop(key, None)
        old.pop("sharding", None)
        comparison = compare_documents(old, docs["serial"])
        assert comparison.ok
        assert not any(
            "execution config differs" in note for note in comparison.notes
        )


class TestAtomicWrites:
    def test_write_bench_is_atomic_on_failure(self, tmp_path, monkeypatch):
        import repro.registry.store as store_module

        path = tmp_path / "BENCH_1.json"
        write_bench(path, {"schema_version": 2, "good": True})
        before = path.read_bytes()

        def torn_replace(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(store_module.os, "replace", torn_replace)
        with pytest.raises(OSError):
            write_bench(path, {"schema_version": 2, "good": False})
        # The destination still holds the previous complete document.
        assert path.read_bytes() == before
        assert load_bench(path)["good"] is True

    def test_write_bench_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_7.json"
        document = {"schema_version": 2, "nested": {"a": [1, 2]}}
        write_bench(path, document)
        assert load_bench(path) == document
        # Canonical form: sorted keys, trailing newline.
        assert path.read_bytes().endswith(b"}\n")


class TestClaimBenchPath:
    def test_claims_are_distinct_without_writes(self, tmp_path):
        first = claim_bench_path(tmp_path)
        second = claim_bench_path(tmp_path)
        assert first != second
        # The claim itself reserves the sequence number: the file exists
        # (empty) before any document is written.
        assert first.exists() and first.stat().st_size == 0

    def test_stale_sequence_retries_to_next_free(self, tmp_path, monkeypatch):
        import repro.metrics.bench as bench_module

        (tmp_path / "BENCH_1.json").write_text("{}", encoding="utf-8")
        # A racing writer claimed 1 between our scan and our open: the
        # stale scan result must not clobber it.
        stale = iter([1, 1, 2])
        monkeypatch.setattr(
            bench_module, "next_seq", lambda root: next(stale)
        )
        path = claim_bench_path(tmp_path)
        assert path.name == "BENCH_2.json"
        assert (tmp_path / "BENCH_1.json").read_text(encoding="utf-8") == "{}"

    def test_two_writer_race_yields_both_sequences(self, tmp_path, monkeypatch):
        import repro.metrics.bench as bench_module

        # Both writers scan before either creates: both see next_seq=1.
        # O_EXCL serializes them — the loser retries onto 2.
        scans = iter([1, 1, 2])
        monkeypatch.setattr(
            bench_module, "next_seq", lambda root: next(scans)
        )
        first = claim_bench_path(tmp_path)
        second = claim_bench_path(tmp_path)
        assert first.name == "BENCH_1.json"
        assert second.name == "BENCH_2.json"


class TestCatalogCacheBounds:
    def test_lru_eviction_keeps_bound(self):
        cache = CatalogCache(max_sources=2)
        entries = catalog_entries(scale=SCALE)[:3]
        for entry in entries:
            cache.source(entry)
        assert len(cache._sources) == 2

    def test_evicted_source_regenerates_identically(self):
        bounded = CatalogCache(max_sources=1)
        unbounded = CatalogCache()
        entries = catalog_entries(scale=SCALE)[:2]
        first_pass = bounded.source(entries[0]).pages
        bounded.source(entries[1])  # evicts entries[0]
        regenerated = bounded.source(entries[0]).pages
        assert regenerated == first_pass
        assert regenerated == unbounded.source(entries[0]).pages

    def test_recency_refresh_protects_hot_entry(self):
        cache = CatalogCache(max_sources=2)
        entries = catalog_entries(scale=SCALE)[:3]
        cache.source(entries[0])
        cache.source(entries[1])
        cache.source(entries[0])  # refresh: entries[1] is now the victim
        cache.source(entries[2])
        assert entries[0].spec.name in cache._sources
        assert entries[1].spec.name not in cache._sources


class TestBenchConfigValidation:
    def test_rejects_unknown_backend(self):
        # The worker count picks the sweep; there is no backend to name.
        for backend in ("thread", "process"):
            with pytest.raises(TypeError, match="backend"):
                BenchConfig(backend=backend)

    def test_rejects_non_shardspec(self):
        with pytest.raises(ValueError, match="shard"):
            BenchConfig(shard="0/2")
