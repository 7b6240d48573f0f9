"""BENCH artifacts: sequencing, capture schema, regression comparison, CLI."""

import copy
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import MultiSourceError
from repro.metrics.bench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    BenchSession,
    bench_files,
    compare_documents,
    latest_bench,
    load_bench,
    next_seq,
    write_bench,
)


def fixture_document(scale=0.1, pc=0.8, pp=0.9, wrap_mean=0.02, stage_mean=0.01):
    """A minimal but schema-complete BENCH document for compare tests."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": "2026-01-01T00:00:00+00:00",
        "python": "3.11.0",
        "platform": "linux",
        "config": {
            "scale": scale,
            "coverage": 0.2,
            "systems": ["objectrunner"],
            "sources": 49,
            "seed": {"sampling_seed": 7, "pythonhashseed": ""},
        },
        "process": {"peak_rss_bytes": 100_000_000},
        "cache": {"hits": 10, "misses": 5, "races": 0, "entries": 5},
        "systems": {
            "objectrunner": {
                "domains": {
                    "concerts": {
                        "pc": pc,
                        "pp": pp,
                        "objects_total": 100,
                        "objects_correct": int(pc * 100),
                        "objects_partial": 0,
                        "objects_incorrect": 10,
                        "sources": 9,
                        "sources_discarded": 0,
                    }
                },
                "wrap_seconds": {
                    "count": 9, "total": wrap_mean * 9, "min": wrap_mean,
                    "max": wrap_mean, "mean": wrap_mean, "p50": wrap_mean,
                    "p95": wrap_mean,
                },
                "metrics": {
                    "counters": {"runs": 9},
                    "gauges": {},
                    "timers": {
                        "stage.wrapping": {
                            "count": 9, "total": stage_mean * 9,
                            "min": stage_mean, "max": stage_mean,
                            "mean": stage_mean, "p50": stage_mean,
                            "p95": stage_mean,
                        }
                    },
                },
                "cache": {"hits": 10, "misses": 5, "races": 0, "entries": 5},
            }
        },
    }


class TestSequencing:
    def test_empty_dir_starts_at_zero(self, tmp_path):
        assert next_seq(tmp_path) == 0
        assert latest_bench(tmp_path) is None
        assert bench_files(tmp_path) == []

    def test_sequence_numbers_sort_numerically(self, tmp_path):
        for seq in (0, 2, 10):
            write_bench(tmp_path / f"BENCH_{seq}.json", fixture_document())
        (tmp_path / "BENCH_junk.json").write_text("{}")
        files = bench_files(tmp_path)
        assert [seq for seq, __ in files] == [0, 2, 10]
        assert next_seq(tmp_path) == 11
        assert latest_bench(tmp_path).name == "BENCH_10.json"
        assert latest_bench(tmp_path, before=10).name == "BENCH_2.json"

    def test_write_and_load_round_trip(self, tmp_path):
        document = fixture_document()
        path = tmp_path / "BENCH_0.json"
        write_bench(path, document)
        assert load_bench(path) == document
        # Stable serialization: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


class TestCompare:
    def test_identical_documents_are_clean(self):
        document = fixture_document()
        comparison = compare_documents(document, copy.deepcopy(document))
        assert comparison.ok
        assert "no regressions" in comparison.render()

    def test_pc_drop_flags_regression(self):
        old = fixture_document(pc=0.8)
        new = fixture_document(pc=0.7)
        comparison = compare_documents(old, new)
        assert not comparison.ok
        assert any("Pc dropped" in r for r in comparison.regressions)

    def test_pc_drop_within_threshold_passes(self):
        old = fixture_document(pc=0.8)
        new = fixture_document(pc=0.79)
        assert compare_documents(old, new, quality_threshold=0.02).ok

    def test_pp_drop_flags_regression(self):
        comparison = compare_documents(
            fixture_document(pp=0.9), fixture_document(pp=0.5)
        )
        assert any("Pp dropped" in r for r in comparison.regressions)

    def test_timing_growth_flags_regression_at_same_scale(self):
        old = fixture_document(stage_mean=0.01)
        new = fixture_document(stage_mean=0.03)
        comparison = compare_documents(old, new, timing_threshold=0.5)
        assert any("stage.wrapping" in r for r in comparison.regressions)

    def test_wrap_growth_flags_regression(self):
        old = fixture_document(wrap_mean=0.02)
        new = fixture_document(wrap_mean=0.2)
        comparison = compare_documents(old, new)
        assert any("wrap_seconds" in r for r in comparison.regressions)

    def test_scale_mismatch_skips_timings_with_note(self):
        old = fixture_document(scale=0.1, stage_mean=0.01)
        new = fixture_document(scale=0.02, stage_mean=10.0)
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert any("scale differs" in note for note in comparison.notes)

    def test_quality_still_compared_across_scales(self):
        # 0.1 and 0.02 both run the same 49-source catalog (scale only
        # shrinks per-source volume), so the quality gate still fires.
        old = fixture_document(scale=0.1, pc=0.8)
        new = fixture_document(scale=0.02, pc=0.5)
        comparison = compare_documents(old, new)
        assert not comparison.ok

    def test_quality_across_scale_tiers_is_a_note(self):
        # The replica tier measures a different source population than
        # the base catalog; its rates cannot regress the catalog's.
        old = fixture_document(scale=0.1, pc=0.8)
        new = fixture_document(scale=1.0, pc=0.5)
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert any(
            "source populations differ" in note for note in comparison.notes
        )
        assert any("Pc dropped" in note for note in comparison.notes)

    def test_quality_within_replica_tier_still_gates(self):
        old = fixture_document(scale=1.0, pc=0.8)
        new = fixture_document(scale=1.0, pc=0.5)
        comparison = compare_documents(old, new)
        assert not comparison.ok

    def test_quality_across_shard_slices_is_a_note(self):
        old = fixture_document(pc=0.8)
        new = fixture_document(pc=0.5)
        new["config"]["shard"] = "0/2"
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert any(
            "source populations differ" in note for note in comparison.notes
        )

    def test_object_volume_drop_flags_regression(self):
        old = fixture_document()
        new = fixture_document()
        new["systems"]["objectrunner"]["domains"]["concerts"]["objects_total"] = 50
        comparison = compare_documents(old, new)
        assert any("objects_total fell" in r for r in comparison.regressions)

    def test_registry_mode_mismatch_skips_timings_with_note(self):
        # A cold capture vs a warm (registry-first) capture: induction is
        # skipped on hits, so timing and volume diffs are meaningless.
        old = fixture_document(stage_mean=0.05)
        new = fixture_document(stage_mean=0.001)
        new["config"]["registry"] = True
        new["registry"] = {
            "hits": 48, "misses": 1, "stores": 1, "races": 0, "demotions": 0
        }
        new["systems"]["objectrunner"]["domains"]["concerts"]["objects_total"] = 100
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert any("registry mode differs" in note for note in comparison.notes)

    def test_registry_stats_in_one_document_only_is_a_note(self):
        old = fixture_document()
        new = fixture_document()
        new["registry"] = {
            "hits": 48, "misses": 1, "stores": 1, "races": 0, "demotions": 0
        }
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert any(
            "registry stats present in only one document" in note
            for note in comparison.notes
        )

    def test_registry_miss_growth_flags_regression(self):
        old = fixture_document()
        new = fixture_document()
        for document in (old, new):
            document["config"]["registry"] = True
        old["registry"] = {
            "hits": 49, "misses": 0, "stores": 0, "races": 0, "demotions": 0
        }
        new["registry"] = {
            "hits": 46, "misses": 3, "stores": 3, "races": 0, "demotions": 0
        }
        comparison = compare_documents(old, new)
        assert any("misses grew" in r for r in comparison.regressions)

    def test_rss_growth_is_a_note_not_a_regression(self):
        old = fixture_document()
        new = fixture_document()
        new["process"]["peak_rss_bytes"] = 10 * old["process"]["peak_rss_bytes"]
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert any("peak RSS grew" in note for note in comparison.notes)


class TestCli:
    def write_pair(self, tmp_path):
        old = tmp_path / "BENCH_0.json"
        new = tmp_path / "BENCH_1.json"
        write_bench(old, fixture_document(pc=0.8))
        write_bench(new, fixture_document(pc=0.5))
        return old, new

    def test_compare_files_exits_nonzero_on_regression(self, tmp_path, capsys):
        old, new = self.write_pair(tmp_path)
        code = main(["bench", "--compare-files", str(old), str(new)])
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_files_warn_only_exits_zero(self, tmp_path):
        old, new = self.write_pair(tmp_path)
        code = main(
            ["bench", "--compare-files", str(old), str(new), "--warn-only"]
        )
        assert code == 0

    def test_compare_files_clean_pair_exits_zero(self, tmp_path):
        old = tmp_path / "a.json"
        new = tmp_path / "b.json"
        write_bench(old, fixture_document())
        write_bench(new, fixture_document())
        assert main(["bench", "--compare-files", str(old), str(new)]) == 0


class TestCapture:
    def test_document_schema(self, tiny_capture):
        document = tiny_capture
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        assert document["config"]["scale"] == 0.01
        assert document["config"]["sources"] == 49
        assert document["process"]["peak_rss_bytes"] > 0
        assert set(document["systems"]) == {"objectrunner", "roadrunner"}
        json.dumps(document)  # fully JSON-serializable

    def test_objectrunner_section_has_stage_timers_and_cache(self, tiny_capture):
        section = tiny_capture["systems"]["objectrunner"]
        assert set(section["domains"]) == {
            "concerts", "albums", "books", "publications", "cars",
        }
        concerts = section["domains"]["concerts"]
        assert 0.0 <= concerts["pc"] <= concerts["pp"] <= 1.0
        assert concerts["sources"] == 9
        timers = section["metrics"]["timers"]
        assert "stage.wrapping" in timers
        # Discarded sources abort mid-stage, so the stage timer may record
        # slightly fewer runs than the catalog has sources.
        discarded = sum(
            d["sources_discarded"] for d in section["domains"].values()
        )
        assert timers["stage.wrapping"]["count"] >= 49 - discarded - 1
        assert section["metrics"]["counters"]["runs"] == 49
        assert section["wrap_seconds"]["count"] == 49
        assert section["cache"]["misses"] > 0

    def test_baseline_section_has_no_pipeline_metrics(self, tiny_capture):
        section = tiny_capture["systems"]["roadrunner"]
        assert section["metrics"] is None
        assert section["cache"] is None
        assert section["wrap_seconds"]["count"] == 49

    def test_session_cache_serves_second_system_from_hits(self, tiny_capture):
        cache = tiny_capture["cache"]
        assert cache["misses"] > 0
        assert cache["hits"] >= cache["misses"]  # second sweep hit the cache

    def test_cli_capture_writes_sequenced_artifact(self, tmp_path):
        code = main(
            [
                "bench",
                "--scale", "0.01",
                "--systems", "roadrunner",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        artifact = tmp_path / "BENCH_0.json"
        assert artifact.exists()
        document = load_bench(artifact)
        assert document["config"]["systems"] == ["roadrunner"]
        # A second capture gets the next sequence number. Two real runs
        # jitter, so keep the comparison advisory here.
        code = main(
            [
                "bench",
                "--scale", "0.01",
                "--systems", "roadrunner",
                "--out", str(tmp_path),
                "--compare",
                "--warn-only",
            ]
        )
        assert code == 0
        assert (tmp_path / "BENCH_1.json").exists()


class TestProvenanceIsolation:
    """BENCH provenance never reaches a comparison.

    ``generated_at`` and ``config.seed.pythonhashseed`` are wall-clock /
    environment provenance recorded in every BENCH document; the
    comparison layer must never read them, or artifact diffs would
    depend on when and where the capture ran.
    """

    def test_compare_ignores_provenance_header(self):
        old = fixture_document()
        new = copy.deepcopy(old)
        new["generated_at"] = "2099-01-01T00:00:00+00:00"
        new["python"] = "9.9.9"
        new["platform"] = "plan9"
        new["config"]["seed"]["pythonhashseed"] = "12345"
        comparison = compare_documents(old, new)
        assert comparison.ok
        assert comparison.notes == []


class TestSweepFailures:
    """A failing entry aborts the serial and the process sweep the same way."""

    @pytest.fixture
    def failing_entry(self, monkeypatch):
        """Make one mid-catalog entry raise; every other entry is a no-op.

        The patch sits on the class, so process-backend workers inherit
        it through ``fork``.
        """
        entries = BenchSession(BenchConfig(scale=0.02)).entries()
        target = entries[5].spec.name

        def fake_run_entry(self, system_name, entry, metrics, view):
            if entry.spec.name == target:
                raise RuntimeError(f"boom in {entry.spec.name}")
            return None, 0.0

        monkeypatch.setattr(BenchSession, "_run_entry", fake_run_entry)
        return target

    def _abort(self, workers: int) -> MultiSourceError:
        session = BenchSession(
            BenchConfig(scale=0.02, systems=("roadrunner",), workers=workers)
        )
        with pytest.raises(MultiSourceError) as excinfo:
            session.run_system("roadrunner")
        return excinfo.value

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the fault reaches process workers only through fork",
    )
    def test_every_backend_raises_the_same_error(self, failing_entry):
        errors = {
            backend: self._abort(workers)
            for backend, workers in (("serial", 1), ("process", 2))
        }
        serial = errors["serial"]
        assert failing_entry in str(serial)
        assert serial.failure.source == failing_entry
        for backend, error in errors.items():
            assert str(error) == str(serial), backend
            assert list(error.partial.results) == list(
                serial.partial.results
            ), backend
            assert isinstance(error.__cause__, RuntimeError), backend
            assert str(error.__cause__) == f"boom in {failing_entry}"
