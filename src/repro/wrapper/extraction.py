"""Applying a generated wrapper to pages: record values -> object instances.

Extraction re-runs the record segmentation on each page (using the record
identity learned from the sample), aligns every record against the
template, reads the field-slot values, and assembles them into instance
trees shaped like the original (non-canonical) SOD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.htmlkit.dom import Element, Node, Text
from repro.sod.canonical import canonicalize
from repro.sod.instances import InstanceNode, ObjectInstance
from repro.sod.types import (
    DisjunctionType,
    EntityType,
    SetType,
    SodType,
    TupleType,
)
from repro.wrapper.alignment import (
    Cell,
    Shape,
    _collapse_iterators,
    _items_of,
    _lcs_align,
    strip_affixes,
)
from repro.wrapper.matching import MatchResult
from repro.wrapper.template import (
    ElementTemplate,
    FieldSlot,
    IteratorSlot,
    StaticSlot,
    Template,
    TemplateNode,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.wrapper.generate import Wrapper


@dataclass
class RecordValues:
    """Raw values read from one record: slot id -> values, iterators nested."""

    fields: dict[int, list[str]] = field(default_factory=dict)
    iterators: dict[int, list["RecordValues"]] = field(default_factory=dict)


def _template_shape(node: TemplateNode) -> Shape:
    if isinstance(node, (StaticSlot, FieldSlot)):
        return ("text",)
    if isinstance(node, ElementTemplate):
        return ("elem", node.tag, node.attr_class)
    assert isinstance(node, IteratorSlot)
    unit = node.unit
    if isinstance(unit, ElementTemplate):
        return ("iter", "elem", unit.tag, unit.attr_class)
    return ("iter", "text")


@dataclass
class _LevelPlan:
    """What reading one template level needs, computed once per template.

    A record is read level by level; the template side of each level (its
    shapes, its iterator unit shapes, the plans of the levels below) is
    the same for every record, so :func:`_plan_level` computes it once and
    :func:`_extract_level` only does the record's side.
    """

    children: list[TemplateNode]
    #: The level's single field slot when the level is a whole-content
    #: field (the collapsed-container rule), else ``None``.
    whole_field: FieldSlot | None = None
    shapes: list[Shape] = field(default_factory=list)
    #: Unit shapes of the level's iterator slots, whose item runs are
    #: collapsed before the alignment.
    iterator_shapes: set[Shape] = field(default_factory=set)
    #: Per child: the plan of the element's children, or of the iterator
    #: unit's level; ``None`` for text slots.
    subplans: list["_LevelPlan | None"] = field(default_factory=list)


def _plan_level(children: list[TemplateNode]) -> _LevelPlan:
    """The plan of one template level and, recursively, of those below."""
    if len(children) == 1 and isinstance(children[0], FieldSlot):
        return _LevelPlan(children, whole_field=children[0])
    shapes = [_template_shape(node) for node in children]
    subplans: list[_LevelPlan | None] = []
    for node in children:
        if isinstance(node, ElementTemplate):
            subplans.append(_plan_level(node.children))
        elif isinstance(node, IteratorSlot):
            unit = node.unit
            subplans.append(
                _plan_level(
                    unit.children if isinstance(unit, ElementTemplate) else [unit]
                )
            )
        else:
            subplans.append(None)
    return _LevelPlan(
        children,
        shapes=shapes,
        # The unit shape of an iterator is its shape without the marker.
        iterator_shapes={shape[1:] for shape in shapes if shape[0] == "iter"},
        subplans=subplans,
    )


def _level_text(nodes: list[Node]) -> str:
    parts = [node.text_content() for node in nodes]
    return " ".join(part for part in parts if part)


def _extract_level(plan: _LevelPlan, nodes: list[Node], out: RecordValues) -> None:
    # Whole-content-field levels (the collapsed-container rule) grab
    # everything under them, whatever markup this record happens to use.
    slot = plan.whole_field
    if slot is not None:
        text = _level_text(nodes)
        if text:
            value = strip_affixes(text, slot.strip_prefix, slot.strip_suffix)
            if value:
                out.fields.setdefault(slot.slot_id, []).append(value)
        return

    item_shapes, cells = _collapse_iterators(_items_of(nodes), plan.iterator_shapes)
    # A record shaped exactly like the level pairs item i with slot i;
    # only a record that differs needs the LCS alignment.
    matched: Iterable[tuple[int, Cell]]
    if item_shapes == plan.shapes:
        matched = enumerate(cells)
    else:
        matched = [
            (template_index, cells[item_index])
            for template_index, item_index in _lcs_align(plan.shapes, item_shapes)
            if template_index is not None and item_index is not None
        ]
    children = plan.children
    for template_index, cell in matched:
        node = children[template_index]
        if isinstance(node, StaticSlot):
            continue
        if isinstance(node, FieldSlot):
            assert isinstance(cell, Text)
            value = strip_affixes(
                cell.text_content(), node.strip_prefix, node.strip_suffix
            )
            if value:
                out.fields.setdefault(node.slot_id, []).append(value)
            continue
        subplan = plan.subplans[template_index]
        assert subplan is not None
        if isinstance(node, ElementTemplate):
            assert isinstance(cell, Element)
            _extract_level(subplan, cell.children, out)
            continue
        assert isinstance(node, IteratorSlot) and isinstance(cell, list)
        units = out.iterators.setdefault(node.slot_id, [])
        unit_is_element = isinstance(node.unit, ElementTemplate)
        for unit_node in cell:
            # An element run folds its text separators in; skip them.  A
            # text unit's run holds only its units.
            if unit_is_element and not isinstance(unit_node, Element):
                continue
            unit_values = RecordValues()
            _extract_level(
                subplan,
                unit_node.children if unit_is_element else [unit_node],
                unit_values,
            )
            units.append(unit_values)


def extract_record(template: Template, record_nodes: list[Node]) -> RecordValues:
    """Align one record against the template and read its values.

    Plans the template for this one record; :func:`extract_objects` plans
    it once for all the records it reads.
    """
    values = RecordValues()
    _extract_level(_plan_level(template.roots), record_nodes, values)
    return values


# -- assembling SOD-shaped instances --------------------------------------


def _entity_value(
    slot_ids: list[int], fields: dict[int, list[str]]
) -> str | None:
    parts: list[str] = []
    for slot_id in slot_ids:
        parts.extend(fields.get(slot_id, []))
    joined = " ".join(part for part in parts if part).strip()
    return joined or None


def _assemble(
    node: SodType, match: MatchResult, record: RecordValues
) -> InstanceNode | None:
    if isinstance(node, EntityType):
        slot_ids = match.entity_to_slots.get(node.name, [])
        return _entity_value(slot_ids, record.fields)
    if isinstance(node, TupleType):
        values: dict[str, InstanceNode] = {}
        for component in node.components:
            value = _assemble(component, match, record)
            if value is not None:
                values[component.name] = value
        return values or None
    if isinstance(node, SetType):
        inner = canonicalize(node.inner)
        iterator_id = match.set_to_iterator.get(node.name)
        if iterator_id is not None:
            inner_map = match.set_inner_slots.get(node.name, {})
            units = record.iterators.get(iterator_id, [])
            collected: list[InstanceNode] = []
            for unit in units:
                if isinstance(inner, EntityType):
                    value = _entity_value(inner_map.get(inner.name, []), unit.fields)
                    if value is not None:
                        collected.append(value)
                elif isinstance(inner, TupleType):
                    item: dict[str, InstanceNode] = {}
                    for component in inner.components:
                        if isinstance(component, EntityType):
                            value = _entity_value(
                                inner_map.get(component.name, []), unit.fields
                            )
                            if value is not None:
                                item[component.name] = value
                    if item:
                        collected.append(item)
            return collected or None
        fallback = match.set_fallback_slots.get(node.name)
        if fallback:
            if isinstance(inner, EntityType):
                value = _entity_value(fallback.get(inner.name, []), record.fields)
                return [value] if value is not None else None
            if isinstance(inner, TupleType):
                item = {}
                for component in inner.components:
                    if isinstance(component, EntityType):
                        value = _entity_value(
                            fallback.get(component.name, []), record.fields
                        )
                        if value is not None:
                            item[component.name] = value
                return [item] if item else None
        return None
    assert isinstance(node, DisjunctionType)
    left = _assemble(node.left, match, record)
    if left:
        return left
    return _assemble(node.right, match, record)


def assemble_instance(
    sod: SodType,
    match: MatchResult,
    record: RecordValues,
    source: str = "",
    page_index: int = -1,
) -> ObjectInstance | None:
    """Build an :class:`ObjectInstance` from one record's raw values.

    Returns ``None`` for records yielding no values at all (chrome rows the
    segmentation swept in).
    """
    if isinstance(sod, TupleType):
        values = _assemble(sod, match, record)
        if not values:
            return None
        assert isinstance(values, dict)
        return ObjectInstance(values=values, source=source, page_index=page_index)
    value = _assemble(sod, match, record)
    if value is None:
        return None
    return ObjectInstance(
        values={getattr(sod, "name", "value"): value},
        source=source,
        page_index=page_index,
    )


def extract_objects(
    wrapper: "Wrapper",
    pages: list[Element],
    source: str = "",
) -> list[ObjectInstance]:
    """Extract every SOD instance from ``pages`` using ``wrapper``.

    The template is planned once for the call (see :class:`_LevelPlan`),
    not once per record.
    """
    plan = _plan_level(wrapper.template.roots)
    objects: list[ObjectInstance] = []
    for page_index, page in enumerate(pages):
        for record_nodes in wrapper.segment_page(page):
            record = RecordValues()
            _extract_level(plan, record_nodes, record)
            instance = assemble_instance(
                wrapper.sod,
                wrapper.match,
                record,
                source=source,
                page_index=page_index,
            )
            if instance is not None:
                objects.append(instance)
    return objects
