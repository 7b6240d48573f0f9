"""Tests for wrapper JSON persistence."""

import json
import re

import pytest

from repro.annotation.annotator import annotate_page
from repro.errors import WrapperError, WrapperSchemaError
from repro.sod.dsl import parse_sod
from repro.wrapper.extraction import extract_objects
from repro.wrapper.generate import WrapperConfig, generate_wrapper
from repro.wrapper.serialize import wrapper_from_dict, wrapper_to_dict

SOD = parse_sod(
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)


@pytest.fixture()
def wrapped(figure3_pages, figure3_recognizers):
    for page in figure3_pages:
        annotate_page(page, figure3_recognizers)
    wrapper = generate_wrapper("figure3", figure3_pages, SOD, WrapperConfig(support=2))
    return wrapper, figure3_pages


class TestRoundtrip:
    def test_json_serializable(self, wrapped):
        wrapper, __ = wrapped
        payload = json.dumps(wrapper_to_dict(wrapper))
        assert "figure3" in payload

    def test_roundtrip_preserves_template(self, wrapped):
        wrapper, __ = wrapped
        restored = wrapper_from_dict(
            json.loads(json.dumps(wrapper_to_dict(wrapper)))
        )
        assert restored.template.describe() == wrapper.template.describe()
        assert restored.record_tag == wrapper.record_tag
        assert restored.record_path == wrapper.record_path
        assert restored.match.entity_to_slots == wrapper.match.entity_to_slots

    def test_restored_wrapper_extracts_identically(self, wrapped):
        wrapper, pages = wrapped
        restored = wrapper_from_dict(wrapper_to_dict(wrapper))
        original_objects = extract_objects(wrapper, pages)
        restored_objects = extract_objects(restored, pages)
        assert [o.values for o in original_objects] == [
            o.values for o in restored_objects
        ]

    def test_sod_roundtrips(self, wrapped):
        wrapper, __ = wrapped
        restored = wrapper_from_dict(wrapper_to_dict(wrapper))
        assert str(restored.sod) == str(wrapper.sod)

    def test_annotation_stats_preserved(self, wrapped):
        wrapper, __ = wrapped
        restored = wrapper_from_dict(wrapper_to_dict(wrapper))
        original_slots = {s.slot_id: s for s in wrapper.template.field_slots()}
        for slot in restored.template.field_slots():
            original = original_slots[slot.slot_id]
            assert slot.annotation_counts == original.annotation_counts
            assert slot.dominant_annotation() == original.dominant_annotation()


class TestVersioning:
    def test_unknown_version_rejected(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        data["version"] = 999
        with pytest.raises(WrapperError):
            wrapper_from_dict(data)

    def test_unknown_node_kind_rejected(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        data["template"]["roots"][0] = {"kind": "mystery"}
        with pytest.raises(WrapperError):
            wrapper_from_dict(data)


class TestMalformedInput:
    """wrapper_from_dict raises typed schema errors, never bare KeyError."""

    def test_non_object_rejected(self):
        with pytest.raises(WrapperSchemaError):
            wrapper_from_dict(["not", "a", "dict"])

    def test_missing_version_rejected(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        del data["version"]
        with pytest.raises(WrapperSchemaError):
            wrapper_from_dict(data)

    def test_missing_top_level_field_is_schema_error(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        del data["template"]
        with pytest.raises(WrapperSchemaError) as excinfo:
            wrapper_from_dict(data)
        assert "template" in str(excinfo.value)

    def test_missing_node_field_is_schema_error(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        del data["template"]["roots"][0]["tag"]
        with pytest.raises(WrapperSchemaError):
            wrapper_from_dict(data)

    def test_non_dict_node_is_schema_error(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        data["template"]["roots"][0] = "not a node"
        with pytest.raises(WrapperSchemaError):
            wrapper_from_dict(data)

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d["match"]["entity_to_slots"].update(x=7),
             "match['entity_to_slots']['x'] is int"),
            (lambda d: d["match"]["set_inner_slots"].update(x=[1]),
             "match['set_inner_slots']['x'] is list"),
            (lambda d: d["match"]["set_fallback_slots"].update(x={"y": "1"}),
             "match['set_fallback_slots']['x']['y'] is str"),
            (lambda d: d["annotation_types_seen"].append(["date"]),
             "wrapper['annotation_types_seen'] item is list"),
        ],
        ids=["slot-list", "inner-map", "inner-slot-list", "type-name"],
    )
    def test_nested_wrong_type_is_schema_error(self, wrapped, edit, named):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        edit(data)
        with pytest.raises(WrapperSchemaError, match=re.escape(named)):
            wrapper_from_dict(data)

    def test_schema_error_is_a_wrapper_error(self):
        assert issubclass(WrapperSchemaError, WrapperError)


class TestUnknownKeys:
    """Forward-schema drift is surfaced, naming every unknown key."""

    def test_unknown_top_level_keys_all_named(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        data["zz_later"] = 1
        data["aa_earlier"] = 2
        with pytest.raises(WrapperSchemaError) as excinfo:
            wrapper_from_dict(data)
        message = str(excinfo.value)
        assert "'aa_earlier'" in message and "'zz_later'" in message
        assert message.index("'aa_earlier'") < message.index("'zz_later'")

    @pytest.mark.parametrize("section", ["template", "match", "record"])
    def test_unknown_section_keys_rejected(self, wrapped, section):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        data[section]["mystery"] = True
        with pytest.raises(WrapperSchemaError) as excinfo:
            wrapper_from_dict(data)
        assert "mystery" in str(excinfo.value)
        assert section in str(excinfo.value)

    def test_unknown_node_keys_rejected_per_kind(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        node = data["template"]["roots"][0]
        node["mystery_attr"] = "x"
        with pytest.raises(WrapperSchemaError) as excinfo:
            wrapper_from_dict(data)
        assert "mystery_attr" in str(excinfo.value)
        assert f"{node['kind']} node" in str(excinfo.value)

    def test_clean_payload_still_roundtrips(self, wrapped):
        wrapper, __ = wrapped
        data = wrapper_to_dict(wrapper)
        restored = wrapper_from_dict(json.loads(json.dumps(data)))
        assert wrapper_to_dict(restored) == data
