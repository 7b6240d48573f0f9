"""Tests for the content-addressed wrapper registry store."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.annotation.annotator import annotate_page
from repro.errors import RegistryError
from repro.htmlkit import pages_fingerprint
from repro.registry import store as store_module
from repro.registry import (
    KIND_DISCARD,
    KIND_WRAPPER,
    REGISTRY_SCHEMA_VERSION,
    RegistryEntry,
    StagedRegistryView,
    StoredDiscard,
    WrapperRegistry,
    signature_for,
    write_json_atomic,
)
from repro.registry.store import replay
from repro.sod.dsl import parse_sod
from repro.wrapper.generate import WrapperConfig, generate_wrapper
from repro.wrapper.serialize import wrapper_to_dict

SOD = parse_sod(
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)


@pytest.fixture()
def induced(figure3_pages, figure3_recognizers):
    """A real wrapper plus the fingerprint of the pages it came from."""
    for page in figure3_pages:
        annotate_page(page, figure3_recognizers)
    wrapper = generate_wrapper(
        "figure3", figure3_pages, SOD, WrapperConfig(support=2)
    )
    return wrapper, pages_fingerprint(figure3_pages)


def registry_bytes(root):
    """Every registry file's bytes, keyed by relative path."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestSignature:
    def test_sod_spelling_invariant(self):
        flat = parse_sod(
            "concert(artist, date<kind=predefined>, "
            "location(theater, address<kind=predefined>?))"
        )
        spaced = parse_sod(
            "concert( artist , date<kind=predefined> , "
            "location( theater , address<kind=predefined>? ) )"
        )
        assert signature_for(flat, "fp") == signature_for(spaced, "fp")

    def test_fingerprint_changes_signature(self):
        assert signature_for(SOD, "fp-a") != signature_for(SOD, "fp-b")


class TestRoundTrip:
    def test_serialize_store_load_serialize_is_byte_stable(
        self, tmp_path, induced
    ):
        wrapper, fingerprint = induced
        before = json.dumps(wrapper_to_dict(wrapper), sort_keys=True)
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        loaded = WrapperRegistry(tmp_path).lookup(SOD, fingerprint)
        after = json.dumps(wrapper_to_dict(loaded), sort_keys=True)
        assert after == before

    def test_lookup_counts_hits_and_misses(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        assert registry.lookup(SOD, fingerprint) is None
        registry.put(SOD, fingerprint, wrapper)
        assert registry.lookup(SOD, fingerprint) is not None
        stats = registry.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_reopened_registry_sees_entries(self, tmp_path, induced):
        wrapper, fingerprint = induced
        WrapperRegistry(tmp_path).put(SOD, fingerprint, wrapper)
        reopened = WrapperRegistry(tmp_path)
        assert reopened.lookup(SOD, fingerprint) is not None


    def test_missing_entry_file_is_a_miss_and_is_restored(
        self, tmp_path, induced
    ):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        registry.entry_path(signature).unlink()
        assert registry.lookup(SOD, fingerprint) is None
        # The re-store rewrites the lost file instead of counting a race.
        registry.put(SOD, fingerprint, wrapper)
        assert registry.lookup(SOD, fingerprint) is not None
        stats = registry.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert (stats["stores"], stats["races"]) == (2, 0)
        assert registry.verify() == []


class TestIndexWrites:
    def spy(self, monkeypatch):
        written = []
        real = store_module.write_json_atomic

        def spy(path, document):
            written.append(path.name)
            real(path, document)

        monkeypatch.setattr(store_module, "write_json_atomic", spy)
        return written

    def test_live_writes_update_the_index_at_once(
        self, tmp_path, induced, monkeypatch
    ):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        written = self.spy(monkeypatch)
        signature = registry.put(SOD, fingerprint, wrapper)
        assert written.count("index.json") == 1
        registry.demote(signature)
        assert written.count("index.json") == 2

    def test_replay_writes_the_index_once(
        self, tmp_path, induced, monkeypatch
    ):
        wrapper, fingerprint = induced
        staged = []
        for index in range(5):
            view = StagedRegistryView(WrapperRegistry(tmp_path / "scratch"))
            view.put(SOD, f"{fingerprint}-{index}", wrapper)
            if index == 4:
                view.demote(signature_for(SOD, f"{fingerprint}-0"))
            staged.append(view.export())
        registry = WrapperRegistry(tmp_path / "reg")
        written = self.spy(monkeypatch)
        replay(staged, registry)
        assert written.count("index.json") == 1
        assert len(written) == 6  # five entry files, then the index
        assert written[-1] == "index.json"
        assert len(WrapperRegistry(tmp_path / "reg").index_rows()) == 4
        assert registry.verify() == []

    def test_index_drops_a_demoted_row_before_its_file_goes(
        self, tmp_path, induced, monkeypatch
    ):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        path = registry.entry_path(signature)
        present = []
        real = store_module.write_json_atomic

        def spy(target, document):
            present.append(path.exists())
            real(target, document)

        monkeypatch.setattr(store_module, "write_json_atomic", spy)
        registry.demote(signature)
        assert present == [True]
        assert not path.exists()

    def test_replay_deletes_demoted_files_after_the_index_write(
        self, tmp_path, induced, monkeypatch
    ):
        wrapper, fingerprint = induced
        base = WrapperRegistry(tmp_path)
        dropped = base.put(SOD, fingerprint, wrapper)
        kept = base.put(SOD, f"{fingerprint}-kept", wrapper)
        demoting = StagedRegistryView(base)
        demoting.demote(dropped)
        demoting.demote(kept)
        restoring = StagedRegistryView(base)
        restoring.put(SOD, f"{fingerprint}-kept", wrapper)
        present = []
        real = store_module.write_json_atomic

        def spy(target, document):
            if target.name == "index.json":
                present.append(base.entry_path(dropped).exists())
            real(target, document)

        monkeypatch.setattr(store_module, "write_json_atomic", spy)
        replay([demoting.export(), restoring.export()], base)
        assert present == [True]
        assert not base.entry_path(dropped).exists()
        assert base.entry_path(kept).exists()
        assert WrapperRegistry(tmp_path).verify() == []
        assert [sig for sig, __ in base.index_rows()] == [kept]

    def test_replay_bytes_equal_live_applies(self, tmp_path, induced):
        wrapper, fingerprint = induced
        staged = []
        for index in range(3):
            view = StagedRegistryView(WrapperRegistry(tmp_path / "scratch"))
            view.put(SOD, f"{fingerprint}-{index}", wrapper)
            staged.append(view.export())
        live = WrapperRegistry(tmp_path / "live")
        for writes in staged:
            replay([writes], live)
        replay(staged, WrapperRegistry(tmp_path / "once"))
        assert registry_bytes(tmp_path / "once") == registry_bytes(
            tmp_path / "live"
        )

    def test_unchanged_replay_writes_nothing(
        self, tmp_path, induced, monkeypatch
    ):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        view = StagedRegistryView(registry)
        view.put(SOD, fingerprint, wrapper)
        written = self.spy(monkeypatch)
        replay([view.export()], registry)  # the incumbent stays
        assert written == []


class TestDiskLayout:
    def test_no_temp_files_left_behind(self, tmp_path, induced):
        wrapper, fingerprint = induced
        WrapperRegistry(tmp_path).put(SOD, fingerprint, wrapper)
        assert not sorted(Path(tmp_path).rglob("*.tmp"))

    def test_index_is_sorted_and_schema_versioned(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        registry.put(SOD, "zz-other-template", wrapper)
        registry.put(SOD, "aa-other-template", wrapper)
        index = json.loads(registry.index_path.read_text())
        assert index["schema_version"] == REGISTRY_SCHEMA_VERSION
        signatures = list(index["entries"])
        assert signatures == sorted(signatures)

    def test_repeat_store_keeps_incumbent(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        entry_bytes = registry_bytes(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        assert registry.stats()["races"] == 1
        assert registry_bytes(tmp_path) == entry_bytes

    def test_smaller_source_id_wins_in_either_order(self, tmp_path, induced):
        # Replica sources can induce under the same signature; the
        # canonical rule keeps the lexicographically smaller source id,
        # so the final bytes do not depend on encounter order.
        wrapper, fingerprint = induced
        first = replace(wrapper, source="bbb-replica")
        second = replace(wrapper, source="aaa-replica")
        one = WrapperRegistry(tmp_path / "one")
        one.put(SOD, fingerprint, first)
        one.put(SOD, fingerprint, second)
        two = WrapperRegistry(tmp_path / "two")
        two.put(SOD, fingerprint, second)
        two.put(SOD, fingerprint, first)
        assert registry_bytes(tmp_path / "one") == registry_bytes(
            tmp_path / "two"
        )
        (__, row), = one.index_rows()
        assert row["source"] == "aaa-replica"
        assert one.stats()["stores"] == 1
        assert one.stats()["races"] == 1

    def test_write_json_atomic_is_canonical(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_atomic(path, {"b": 1, "a": 2})
        write_json_atomic(tmp_path / "doc2.json", {"a": 2, "b": 1})
        assert path.read_bytes() == (tmp_path / "doc2.json").read_bytes()
        assert path.read_text().endswith("\n")


class TestDemoteVerifyGc:
    def test_demote_removes_entry(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        assert registry.demote(signature)
        assert registry.lookup(SOD, fingerprint) is None
        assert not registry.entry_path(signature).exists()
        assert registry.stats()["demotions"] == 1
        assert not registry.demote(signature)

    def test_verify_reports_missing_entry_and_orphan(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        registry.entry_path(signature).rename(
            registry.entry_path("0" * 64)
        )
        problems = registry.verify()
        assert any("no entry file" in p for p in problems)
        assert any("orphan" in p for p in problems)

    def test_gc_removes_orphans_only(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        orphan = registry.entry_path("f" * 64)
        orphan.write_text("{}")
        removed = registry.gc()
        assert removed == [orphan.name]
        assert registry.entry_path(signature).exists()
        assert registry.verify() == []

    def test_gc_dry_run_previews_without_deleting(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        orphans = [
            registry.entry_path(letter * 64) for letter in ("a", "b", "c")
        ]
        for orphan in orphans:
            orphan.write_text("{}")
        preview = registry.gc(dry_run=True)
        assert preview == sorted(orphan.name for orphan in orphans)
        assert all(orphan.exists() for orphan in orphans)
        # The real run removes exactly the previewed set.
        assert registry.gc() == preview
        assert not any(orphan.exists() for orphan in orphans)

    @pytest.mark.parametrize(
        "key, value",
        [("sod", "album(title, artist)"), ("fingerprint", "0" * 16)],
    )
    def test_verify_recomputes_the_address(self, tmp_path, induced, key, value):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        path = registry.entry_path(signature)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry[key] = value
        path.write_text(json.dumps(entry), encoding="utf-8")
        problems = registry.verify()
        assert len(problems) == 1
        assert problems[0].startswith(f"{signature}: stored sod and fingerprint")

    @pytest.mark.parametrize(
        "key, value",
        [("sod", "album(title, artist)"), ("fingerprint", "0" * 16)],
    )
    def test_edited_address_is_no_hit(self, tmp_path, induced, key, value):
        # The entry keeps its signature, so only comparing the stored
        # sod and fingerprint with the request's shows the edit.
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        path = registry.entry_path(signature)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry[key] = value
        path.write_text(json.dumps(entry), encoding="utf-8")
        with pytest.raises(RegistryError, match="do not match the request"):
            registry.lookup(SOD, fingerprint)
        with pytest.raises(RegistryError, match="do not match the request"):
            StagedRegistryView(registry).lookup(SOD, fingerprint)
        assert registry.stats()["hits"] == 0

    @pytest.mark.parametrize("key", ["sod", "source", "fingerprint", "wrapper"])
    def test_wrong_typed_entry_is_no_hit(self, tmp_path, induced, key):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        path = registry.entry_path(signature)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry[key] = 7
        path.write_text(json.dumps(entry), encoding="utf-8")
        problems = registry.verify()
        assert len(problems) == 1 and f"{key!r} is int" in problems[0]
        with pytest.raises(RegistryError, match=f"{key!r} is int"):
            registry.lookup(SOD, fingerprint)

    def test_corrupt_entry_fails_verification(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        signature = registry.put(SOD, fingerprint, wrapper)
        registry.entry_path(signature).write_text("{not json")
        assert registry.verify()
        with pytest.raises(RegistryError):
            registry.get(signature)


class TestEntrySchema:
    def test_rejects_wrong_schema_version(self):
        with pytest.raises(RegistryError):
            RegistryEntry.from_dict({"schema_version": 99})

    def test_rejects_non_object(self):
        with pytest.raises(RegistryError):
            RegistryEntry.from_dict(["nope"])

    def test_rejects_missing_field(self):
        with pytest.raises(RegistryError):
            RegistryEntry.from_dict(
                {"schema_version": REGISTRY_SCHEMA_VERSION, "signature": "x"}
            )


class TestMerge:
    def test_shards_merge_counting_conflicts(self, tmp_path, induced):
        wrapper, fingerprint = induced
        shard_a = WrapperRegistry(tmp_path / "a")
        shard_b = WrapperRegistry(tmp_path / "b")
        shard_a.put(SOD, fingerprint, wrapper)
        shard_b.put(SOD, fingerprint, wrapper)
        shard_b.put(SOD, "only-in-b", wrapper)
        merged = WrapperRegistry.merged(tmp_path / "m", [shard_a, shard_b])
        assert len(merged.index_rows()) == 2
        assert merged.stats()["races"] == 1

    def test_merge_is_part_order_independent(self, tmp_path, induced):
        # Two shards whose sources collided on one signature: whichever
        # part order the merge sees, the canonical winner (smaller
        # source id) prevails and the merged bytes are identical.
        wrapper, fingerprint = induced
        shard_a = WrapperRegistry(tmp_path / "a")
        shard_b = WrapperRegistry(tmp_path / "b")
        shard_a.put(SOD, fingerprint, replace(wrapper, source="zz-late"))
        shard_b.put(SOD, fingerprint, replace(wrapper, source="aa-early"))
        WrapperRegistry.merged(tmp_path / "ab", [shard_a, shard_b])
        WrapperRegistry.merged(tmp_path / "ba", [shard_b, shard_a])
        assert registry_bytes(tmp_path / "ab") == registry_bytes(
            tmp_path / "ba"
        )
        merged = WrapperRegistry(tmp_path / "ab")
        (__, row), = merged.index_rows()
        assert row["source"] == "aa-early"

    def test_merge_bytes_equal_serial_construction(self, tmp_path, induced):
        wrapper, fingerprint = induced
        shard_a = WrapperRegistry(tmp_path / "a")
        shard_b = WrapperRegistry(tmp_path / "b")
        shard_a.put(SOD, fingerprint, wrapper)
        shard_b.put(SOD, "only-in-b", wrapper)
        WrapperRegistry.merged(tmp_path / "m", [shard_a, shard_b])
        serial = WrapperRegistry(tmp_path / "s")
        serial.put(SOD, fingerprint, wrapper)
        serial.put(SOD, "only-in-b", wrapper)
        assert registry_bytes(tmp_path / "m") == registry_bytes(tmp_path / "s")


class TestStagedView:
    def test_own_writes_visible_others_deferred(self, tmp_path, induced):
        wrapper, fingerprint = induced
        base = WrapperRegistry(tmp_path)
        writer = StagedRegistryView(base)
        reader = StagedRegistryView(base)
        writer.put(SOD, fingerprint, wrapper)
        assert writer.lookup(SOD, fingerprint) is not None
        assert reader.lookup(SOD, fingerprint) is None
        assert base.lookup(SOD, fingerprint) is None

    def test_apply_in_input_order_is_deterministic(self, tmp_path, induced):
        wrapper, fingerprint = induced
        base = WrapperRegistry(tmp_path / "one")
        views = [StagedRegistryView(base), StagedRegistryView(base)]
        views[0].put(SOD, fingerprint, wrapper)
        views[1].put(SOD, fingerprint, wrapper)
        for view in views:
            replay([view.export()], base)
        other = WrapperRegistry(tmp_path / "two")
        swapped = [StagedRegistryView(other), StagedRegistryView(other)]
        swapped[1].put(SOD, fingerprint, wrapper)
        swapped[0].put(SOD, fingerprint, wrapper)
        for view in swapped:
            replay([view.export()], other)
        assert registry_bytes(tmp_path / "one") == registry_bytes(tmp_path / "two")
        assert base.stats()["stores"] == 1
        assert base.stats()["races"] == 1

    def test_staged_demotion_applies_before_puts(self, tmp_path, induced):
        wrapper, fingerprint = induced
        base = WrapperRegistry(tmp_path)
        signature = base.put(SOD, fingerprint, wrapper)
        view = StagedRegistryView(base)
        view.demote(signature)
        assert view.lookup(SOD, fingerprint) is None
        replay([view.export()], base)
        assert base.lookup(SOD, fingerprint) is None


class TestDiscardTombstones:
    def test_put_discard_roundtrips_as_hit(self, tmp_path):
        registry = WrapperRegistry(tmp_path)
        registry.put_discard(
            SOD, "fp", source="doomed", stage="wrapper", reason="no match"
        )
        stored = WrapperRegistry(tmp_path).lookup(SOD, "fp")
        assert isinstance(stored, StoredDiscard)
        assert stored == StoredDiscard(
            source="doomed", stage="wrapper", reason="no match"
        )

    def test_tombstone_lookup_counts_a_hit(self, tmp_path):
        registry = WrapperRegistry(tmp_path)
        registry.put_discard(SOD, "fp", source="s", stage="wrapper", reason="r")
        registry.lookup(SOD, "fp")
        stats = registry.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["stores"] == 1

    def test_index_rows_carry_kind(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        registry.put_discard(SOD, "fp", source="s", stage="wrapper", reason="r")
        kinds = sorted(row["kind"] for __, row in registry.index_rows())
        assert kinds == [KIND_DISCARD, KIND_WRAPPER]

    def test_wrapper_beats_tombstone_across_kinds(self, tmp_path, induced):
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put(SOD, fingerprint, wrapper)
        registry.put_discard(
            SOD, fingerprint, source="s", stage="wrapper", reason="r"
        )
        assert registry.stats() == {
            "hits": 0, "misses": 0, "stores": 1, "races": 1, "demotions": 0
        }
        assert not isinstance(registry.lookup(SOD, fingerprint), StoredDiscard)

    def test_wrapper_shadows_earlier_tombstone(self, tmp_path, induced):
        # A successful induction from any source replaces a discard
        # tombstone for the same signature — even one whose source id
        # sorts first — so warm runs extract instead of replaying the
        # discard.
        wrapper, fingerprint = induced
        registry = WrapperRegistry(tmp_path)
        registry.put_discard(
            SOD, fingerprint, source="aaa", stage="wrapper", reason="r"
        )
        registry.put(SOD, fingerprint, wrapper)
        assert registry.stats()["races"] == 1
        assert not isinstance(registry.lookup(SOD, fingerprint), StoredDiscard)
        (__, row), = registry.index_rows()
        assert row["kind"] == KIND_WRAPPER

    def test_discard_entry_schema_is_validated(self):
        entry = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "signature": "sig",
            "kind": "discard",
            "sod": "t(a)",
            "fingerprint": "fp",
            "source": "s",
            "wrapper": None,
            "discard": None,
        }
        with pytest.raises(RegistryError, match="no discard block"):
            RegistryEntry.from_dict(entry)
        entry["kind"] = "nonsense"
        with pytest.raises(RegistryError, match="unknown entry kind"):
            RegistryEntry.from_dict(entry)

    def test_staged_view_buffers_and_applies_tombstones(self, tmp_path):
        base = WrapperRegistry(tmp_path)
        view = StagedRegistryView(base)
        view.put_discard(SOD, "fp", source="s", stage="wrapper", reason="r")
        assert isinstance(view.lookup(SOD, "fp"), StoredDiscard)
        assert base.lookup(SOD, "fp") is None
        replay([view.export()], base)
        assert isinstance(
            WrapperRegistry(tmp_path).lookup(SOD, "fp"), StoredDiscard
        )

    def test_merged_preserves_tombstones_and_kind_rows(self, tmp_path):
        shard = WrapperRegistry(tmp_path / "shard")
        shard.put_discard(SOD, "fp", source="s", stage="wrapper", reason="r")
        combined = WrapperRegistry.merged(tmp_path / "merged", [shard])
        assert isinstance(combined.lookup(SOD, "fp"), StoredDiscard)
        assert registry_bytes(tmp_path / "shard") == registry_bytes(
            tmp_path / "merged"
        )
