"""Wrapper persistence: templates and SOD mappings as JSON.

Wrapping a source costs seconds; extraction is pennies.  A production
deployment therefore wraps once and re-extracts as the source refreshes.
:func:`wrapper_to_dict` / :func:`wrapper_from_dict` serialize everything a
wrapper needs to run again — the template tree, the SOD, the SOD-to-slot
mapping and the record identity — as plain JSON-compatible data.
:func:`wrapper_digest` hashes that data, so two wrappers that extract
alike share a digest whatever objects hold them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, NoReturn

from repro.errors import WrapperSchemaError
from repro.sod.dsl import format_sod, parse_sod
from repro.wrapper.generate import Wrapper
from repro.wrapper.matching import MatchResult
from repro.wrapper.template import (
    ElementTemplate,
    FieldSlot,
    IteratorSlot,
    StaticSlot,
    Template,
    TemplateNode,
)

FORMAT_VERSION = 1

#: The keys of each level of a serialized wrapper, with the JSON type
#: each value must have.  The persistence layer adds ``fingerprint`` to
#: the top level and strips it before deserialization.
_WRAPPER_TYPES: dict[str, type] = {
    "version": int,
    "source": str,
    "sod": str,
    "template": dict,
    "match": dict,
    "record": dict,
    "support": int,
    "conflicts": int,
    "annotation_types_seen": list,
}
_TEMPLATE_TYPES: dict[str, type] = {
    "roots": list,
    "conflicts": int,
    "sample_records": int,
}
_MATCH_TYPES: dict[str, type] = {
    "entity_to_slots": dict,
    "set_to_iterator": dict,
    "set_inner_slots": dict,
    "set_fallback_slots": dict,
    "missing": list,
    "matched": bool,
}
_RECORD_TYPES: dict[str, type] = {
    "tag": str,
    "path": str,
    "class": str,
    "single_element": bool,
    "is_list_source": bool,
}
_NODE_TYPES: dict[str, dict[str, type]] = {
    "field": {
        "kind": str,
        "slot_id": int,
        "annotation_counts": dict,
        "occurrences": int,
        "optional": bool,
        "examples": list,
        "strip_prefix": int,
        "strip_suffix": int,
    },
    "static": {"kind": str, "text": str},
    "iterator": {
        "kind": str,
        "slot_id": int,
        "unit": dict,
        "min_repeats": int,
        "max_repeats": int,
    },
    "element": {
        "kind": str,
        "tag": str,
        "attr_class": str,
        "optional": bool,
        "annotation_counts": dict,
        "children": list,
    },
}


def _check_level(
    data: dict[str, Any], types: dict[str, type], where: str
) -> None:
    """Raise a typed error on an unknown key or a wrong-typed value.

    Silently dropping unrecognized keys makes forward-schema drift (a
    newer writer, a typo, a half-renamed field) undiagnosable, so every
    unknown key of the level is named at once.  A value of the wrong
    JSON type is named with the type it should have, before any
    constructor can fail on it with an untyped error.
    """
    for key, value in data.items():
        expected = types.get(key)
        if expected is None:
            unknown = ", ".join(repr(k) for k in sorted(set(data) - set(types)))
            raise WrapperSchemaError(
                f"malformed wrapper data: unknown {where} key(s) {unknown} "
                f"(known: {', '.join(sorted(types))})"
            )
        if not isinstance(value, expected):
            _wrong_type(f"{where}[{key!r}]", value, expected)


def _wrong_type(what: str, value: Any, expected: type) -> NoReturn:
    raise WrapperSchemaError(
        f"malformed wrapper data: {what} is {type(value).__name__}, "
        f"expected {expected.__name__}"
    )


def _node_to_dict(node: TemplateNode) -> dict[str, Any]:
    if isinstance(node, FieldSlot):
        return {
            "kind": "field",
            "slot_id": node.slot_id,
            "annotation_counts": dict(node.annotation_counts),
            "occurrences": node.occurrences,
            "optional": node.optional,
            "examples": list(node.examples),
            "strip_prefix": node.strip_prefix,
            "strip_suffix": node.strip_suffix,
        }
    if isinstance(node, StaticSlot):
        return {"kind": "static", "text": node.text}
    if isinstance(node, IteratorSlot):
        return {
            "kind": "iterator",
            "slot_id": node.slot_id,
            "unit": _node_to_dict(node.unit),
            "min_repeats": node.min_repeats,
            "max_repeats": node.max_repeats,
        }
    assert isinstance(node, ElementTemplate)
    return {
        "kind": "element",
        "tag": node.tag,
        "attr_class": node.attr_class,
        "optional": node.optional,
        "annotation_counts": dict(node.annotation_counts),
        "children": [_node_to_dict(child) for child in node.children],
    }


def _node_from_dict(data: dict[str, Any]) -> TemplateNode:
    if not isinstance(data, dict):
        raise WrapperSchemaError(
            f"malformed wrapper data: template node is not an object "
            f"({type(data).__name__})"
        )
    kind = data.get("kind")
    types = _NODE_TYPES.get(kind) if isinstance(kind, str) else None
    if types is None:
        raise WrapperSchemaError(f"unknown template node kind {kind!r}")
    _check_level(data, types, f"{kind} node")
    if kind == "field":
        slot = FieldSlot(slot_id=_require(data, "slot_id", "field node"))
        slot.annotation_counts = Counter(data.get("annotation_counts", {}))
        slot.occurrences = data.get("occurrences", 0)
        slot.optional = data.get("optional", False)
        slot.examples = list(data.get("examples", []))
        slot.strip_prefix = data.get("strip_prefix", 0)
        slot.strip_suffix = data.get("strip_suffix", 0)
        return slot
    if kind == "static":
        return StaticSlot(text=_require(data, "text", "static node"))
    if kind == "iterator":
        return IteratorSlot(
            slot_id=_require(data, "slot_id", "iterator node"),
            unit=_node_from_dict(_require(data, "unit", "iterator node")),
            min_repeats=data.get("min_repeats", 0),
            max_repeats=data.get("max_repeats", 0),
        )
    return ElementTemplate(
        tag=_require(data, "tag", "element node"),
        attr_class=data.get("attr_class", ""),
        optional=data.get("optional", False),
        annotation_counts=Counter(data.get("annotation_counts", {})),
        children=[_node_from_dict(child) for child in data.get("children", [])],
    )


def wrapper_to_dict(wrapper: Wrapper) -> dict[str, Any]:
    """Serialize a wrapper to JSON-compatible data."""
    match = wrapper.match
    return {
        "version": FORMAT_VERSION,
        "source": wrapper.source,
        "sod": format_sod(wrapper.sod),
        "template": {
            "roots": [_node_to_dict(node) for node in wrapper.template.roots],
            "conflicts": wrapper.template.conflicts,
            "sample_records": wrapper.template.sample_records,
        },
        "match": {
            "entity_to_slots": match.entity_to_slots,
            "set_to_iterator": match.set_to_iterator,
            "set_inner_slots": match.set_inner_slots,
            "set_fallback_slots": match.set_fallback_slots,
            "missing": match.missing,
            "matched": match.matched,
        },
        "record": {
            "tag": wrapper.record_tag,
            "path": wrapper.record_path,
            "class": wrapper.record_class_attr,
            "single_element": wrapper.record_single_element,
            "is_list_source": wrapper.is_list_source,
        },
        "support": wrapper.support,
        "conflicts": wrapper.conflicts,
        "annotation_types_seen": sorted(wrapper.annotation_types_seen),
    }


def wrapper_digest(wrapper: Wrapper) -> str:
    """SHA-256 of the wrapper's canonical :func:`wrapper_to_dict` JSON.

    The serialized form holds every input of extraction — SOD, template,
    SOD-to-slot match and record identity — so equal digests extract
    equal rows from equal pages.  A wrapper re-induced for the same
    registry signature gets a new digest when any of them changed.
    """
    text = json.dumps(
        wrapper_to_dict(wrapper), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(data: dict[str, Any], key: str, where: str) -> Any:
    """Fetch a required field, raising a typed error naming it if absent."""
    try:
        return data[key]
    except KeyError:
        raise WrapperSchemaError(
            f"malformed wrapper data: missing {where}[{key!r}]"
        ) from None


def _slot_lists(data: dict[str, Any], where: str) -> dict[str, list[int]]:
    """Copy a ``{name: [slot ids]}`` map, checking each value is a list."""
    for key, slots in data.items():
        if not isinstance(slots, list):
            _wrong_type(f"{where}[{key!r}]", slots, list)
    return {key: list(slots) for key, slots in data.items()}


def _nested_slot_lists(
    data: dict[str, Any], where: str
) -> dict[str, dict[str, list[int]]]:
    """Copy a ``{set: {name: [slot ids]}}`` map, checking each level."""
    for key, inner in data.items():
        if not isinstance(inner, dict):
            _wrong_type(f"{where}[{key!r}]", inner, dict)
    return {
        key: _slot_lists(inner, f"{where}[{key!r}]")
        for key, inner in data.items()
    }


def wrapper_from_dict(data: dict[str, Any]) -> Wrapper:
    """Rebuild a wrapper from :func:`wrapper_to_dict` output.

    Malformed, truncated or old-schema payloads raise
    :class:`~repro.errors.WrapperSchemaError` naming the missing field,
    never a bare ``KeyError``.  Unknown keys — forward drift from a newer
    writer, or a rename only one side picked up — are rejected the same
    way, naming every unrecognized key at that payload level, and so is
    a value of the wrong JSON type, never a ``TypeError`` or
    ``AttributeError`` from the constructors it feeds.
    """
    if not isinstance(data, dict):
        raise WrapperSchemaError(
            f"malformed wrapper data: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise WrapperSchemaError(
            f"unsupported wrapper format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    _check_level(data, _WRAPPER_TYPES, "wrapper")
    template_data = _require(data, "template", "wrapper")
    _check_level(template_data, _TEMPLATE_TYPES, "template")
    template = Template(
        roots=[
            _node_from_dict(node)
            for node in _require(template_data, "roots", "template")
        ],
        conflicts=template_data.get("conflicts", 0),
        sample_records=template_data.get("sample_records", 0),
    )
    match_data = _require(data, "match", "wrapper")
    _check_level(match_data, _MATCH_TYPES, "match")
    match = MatchResult(
        entity_to_slots=_slot_lists(
            _require(match_data, "entity_to_slots", "match"),
            "match['entity_to_slots']",
        ),
        set_to_iterator=dict(_require(match_data, "set_to_iterator", "match")),
        set_inner_slots=_nested_slot_lists(
            _require(match_data, "set_inner_slots", "match"),
            "match['set_inner_slots']",
        ),
        set_fallback_slots=_nested_slot_lists(
            _require(match_data, "set_fallback_slots", "match"),
            "match['set_fallback_slots']",
        ),
        missing=list(match_data.get("missing", [])),
        matched=match_data.get("matched", False),
    )
    record = _require(data, "record", "wrapper")
    _check_level(record, _RECORD_TYPES, "record")
    types_seen = data.get("annotation_types_seen", [])
    for name in types_seen:
        if not isinstance(name, str):
            _wrong_type("wrapper['annotation_types_seen'] item", name, str)
    return Wrapper(
        source=_require(data, "source", "wrapper"),
        sod=parse_sod(_require(data, "sod", "wrapper")),
        template=template,
        match=match,
        record_tag=_require(record, "tag", "record"),
        record_path=_require(record, "path", "record"),
        record_class_attr=record.get("class", ""),
        record_single_element=_require(record, "single_element", "record"),
        is_list_source=_require(record, "is_list_source", "record"),
        support=data.get("support", 3),
        conflicts=data.get("conflicts", 0),
        annotation_types_seen=set(types_seen),
    )
