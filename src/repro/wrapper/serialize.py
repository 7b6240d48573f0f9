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
from typing import Any

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

#: Known top-level keys of a serialized wrapper (the persistence layer
#: adds ``fingerprint`` and strips it before deserialization).
_WRAPPER_KEYS = frozenset(
    {
        "version",
        "source",
        "sod",
        "template",
        "match",
        "record",
        "support",
        "conflicts",
        "annotation_types_seen",
    }
)
_TEMPLATE_KEYS = frozenset({"roots", "conflicts", "sample_records"})
_MATCH_KEYS = frozenset(
    {
        "entity_to_slots",
        "set_to_iterator",
        "set_inner_slots",
        "set_fallback_slots",
        "missing",
        "matched",
    }
)
_RECORD_KEYS = frozenset(
    {"tag", "path", "class", "single_element", "is_list_source"}
)
_NODE_KEYS = {
    "field": frozenset(
        {
            "kind",
            "slot_id",
            "annotation_counts",
            "occurrences",
            "optional",
            "examples",
            "strip_prefix",
            "strip_suffix",
        }
    ),
    "static": frozenset({"kind", "text"}),
    "iterator": frozenset(
        {"kind", "slot_id", "unit", "min_repeats", "max_repeats"}
    ),
    "element": frozenset(
        {"kind", "tag", "attr_class", "optional", "annotation_counts",
         "children"}
    ),
}


def _reject_unknown(
    data: dict[str, Any], known: frozenset[str], where: str
) -> None:
    """Raise a typed error naming every unknown key of one payload level.

    Silently dropping unrecognized keys makes forward-schema drift (a
    newer writer, a typo, a half-renamed field) undiagnosable; naming
    them all at once turns it into a one-line fix.
    """
    unknown = sorted(set(data) - known)
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise WrapperSchemaError(
            f"malformed wrapper data: unknown {where} key(s) {names} "
            f"(known: {', '.join(sorted(known))})"
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
    if kind in _NODE_KEYS:
        _reject_unknown(data, _NODE_KEYS[kind], f"{kind} node")
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
    if kind == "element":
        return ElementTemplate(
            tag=_require(data, "tag", "element node"),
            attr_class=data.get("attr_class", ""),
            optional=data.get("optional", False),
            annotation_counts=Counter(data.get("annotation_counts", {})),
            children=[_node_from_dict(child) for child in data.get("children", [])],
        )
    raise WrapperSchemaError(f"unknown template node kind {kind!r}")


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


def wrapper_from_dict(data: dict[str, Any]) -> Wrapper:
    """Rebuild a wrapper from :func:`wrapper_to_dict` output.

    Malformed, truncated or old-schema payloads raise
    :class:`~repro.errors.WrapperSchemaError` naming the missing field,
    never a bare ``KeyError``.  Unknown keys — forward drift from a newer
    writer, or a rename only one side picked up — are rejected the same
    way, naming every unrecognized key at that payload level.
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
    _reject_unknown(data, _WRAPPER_KEYS, "wrapper")
    template_data = _require(data, "template", "wrapper")
    if not isinstance(template_data, dict):
        raise WrapperSchemaError(
            "malformed wrapper data: wrapper['template'] is not an object"
        )
    _reject_unknown(template_data, _TEMPLATE_KEYS, "template")
    template = Template(
        roots=[
            _node_from_dict(node)
            for node in _require(template_data, "roots", "template")
        ],
        conflicts=template_data.get("conflicts", 0),
        sample_records=template_data.get("sample_records", 0),
    )
    match_data = _require(data, "match", "wrapper")
    if not isinstance(match_data, dict):
        raise WrapperSchemaError(
            "malformed wrapper data: wrapper['match'] is not an object"
        )
    _reject_unknown(match_data, _MATCH_KEYS, "match")
    match = MatchResult(
        entity_to_slots={
            key: list(value)
            for key, value in _require(
                match_data, "entity_to_slots", "match"
            ).items()
        },
        set_to_iterator=dict(_require(match_data, "set_to_iterator", "match")),
        set_inner_slots={
            key: {k: list(v) for k, v in value.items()}
            for key, value in _require(
                match_data, "set_inner_slots", "match"
            ).items()
        },
        set_fallback_slots={
            key: {k: list(v) for k, v in value.items()}
            for key, value in _require(
                match_data, "set_fallback_slots", "match"
            ).items()
        },
        missing=list(match_data.get("missing", [])),
        matched=match_data.get("matched", False),
    )
    record = _require(data, "record", "wrapper")
    if not isinstance(record, dict):
        raise WrapperSchemaError(
            "malformed wrapper data: wrapper['record'] is not an object"
        )
    _reject_unknown(record, _RECORD_KEYS, "record")
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
        annotation_types_seen=set(data.get("annotation_types_seen", [])),
    )
