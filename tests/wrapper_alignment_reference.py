"""Verbatim copy of template alignment and extraction before their
per-record loops were cut down to the work that differs per record.

The reference for ``tests/test_wrapper_alignment_differential.py``: the
live :class:`~repro.wrapper.alignment.TemplateBuilder` must build exactly
the template this builder builds, and the live extraction must read
exactly the objects this extraction reads.  The bodies are the original
``src/repro/wrapper/alignment.py`` from ``Shape`` on (``_Item``,
``_items_of``, ``_detect_iterator_shapes``, ``_collapse_iterators``,
``_lcs_align``, ``_align_columns``, ``TemplateBuilder``,
``common_affixes``, ``strip_affixes``) and the original extraction
helpers of ``src/repro/wrapper/extraction.py`` (``_template_shape``,
``_collapse_for_template``, ``_level_text``, ``_extract_level``,
``extract_record``, ``extract_objects``).  Only the imports, the
concatenation into one module and ``_collapse_for_template`` using this
module's ``_collapse_iterators`` differ from the originals.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.htmlkit.dom import Element, Node, Text
from repro.sod.instances import ObjectInstance
from repro.utils.text import tokenize_words
from repro.wrapper.extraction import RecordValues, assemble_instance
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

# -- original src/repro/wrapper/alignment.py --------------------------------

#: Shape key of an item at one level.
Shape = tuple


@dataclass
class _Item:
    """One child item of a record level: an element, text, or iterator run."""

    shape: Shape
    #: DOM nodes backing the item (1 for elem/text, n for iterator runs).
    nodes: list[Node] = field(default_factory=list)


def _element_shape(element: Element) -> Shape:
    return ("elem", element.tag, element.attributes.get("class", ""))


_TEXT_SHAPE: Shape = ("text",)


def _items_of(nodes: list[Node]) -> list[_Item]:
    """Convert a node list into alignment items (empty text dropped)."""
    items: list[_Item] = []
    for node in nodes:
        if isinstance(node, Text):
            if node.text_content():
                items.append(_Item(shape=_TEXT_SHAPE, nodes=[node]))
        else:
            assert isinstance(node, Element)
            items.append(_Item(shape=_element_shape(node), nodes=[node]))
    return items


def _subtree_annotation_sets(elements: list[Element]) -> list[set[str]]:
    """Per element, the union of annotations over its whole subtree.

    Computed once and shared between :meth:`TemplateBuilder._subtree_dominant`
    and :meth:`TemplateBuilder._container_field`, which previously each
    re-walked every container subtree.
    """
    sets: list[set[str]] = []
    for element in elements:
        subtree_types: set[str] = set()
        for node in element.iter():
            subtree_types |= getattr(node, "annotations", set())
        sets.append(subtree_types)
    return sets


def _detect_iterator_shapes(
    records_items: list[list[_Item]],
    use_annotations: bool = True,
    heterogeneity_share: float = 0.25,
) -> set[Shape]:
    """Shapes repeating a *varying* number of times: candidate set levels.

    A constant count (e.g. exactly three ``<div>`` per record) means
    positional fields; a clearly varying count (range >= 2) suggests a set.
    Annotations arbitrate the ambiguous cases: a true set repeats instances
    of *one* entity type (authors), whereas distinct optional fields that
    happen to share markup carry *different* types (the theater/street/zip
    spans of a concert's location) — those must stay positional, to be
    differentiated by the alignment.  Without annotations (the ExAlg
    baseline) only the count heuristic is available, which is exactly the
    knowledge gap the paper measures.
    """
    counts: dict[Shape, list[int]] = {}
    annotations_of: dict[Shape, list[frozenset[str]]] = {}
    #: shape -> ordinal position within the record -> annotation counter.
    positional: dict[Shape, dict[int, Counter]] = {}
    for items in records_items:
        record_counts: Counter = Counter()
        for item in items:
            if item.shape == _TEXT_SHAPE:
                continue
            ordinal = record_counts[item.shape]
            record_counts[item.shape] += 1
            node = item.nodes[0]
            node_annotations = frozenset(getattr(node, "annotations", frozenset()))
            annotations_of.setdefault(item.shape, []).append(node_annotations)
            position_counter = positional.setdefault(item.shape, {}).setdefault(
                ordinal, Counter()
            )
            for type_name in node_annotations:
                position_counter[type_name] += 1
        for shape, count in record_counts.items():
            counts.setdefault(shape, []).append(count)

    iterator_shapes: set[Shape] = set()
    total_records = len(records_items)
    for shape, per_record in counts.items():
        observed = per_record + [0] * (total_records - len(per_record))
        if max(observed) < 2 or max(observed) - min(observed) < 2:
            continue
        if use_annotations:
            # Positional role check: if different ordinal positions carry
            # different dominant types, these are distinct fields (the
            # paper's <div>1/<div>2/<div>3 differentiation), not a set.
            dominants = set()
            for position_counter in positional.get(shape, {}).values():
                if position_counter:
                    dominants.add(position_counter.most_common(1)[0][0])
            if len(dominants) >= 2:
                continue
            # Pool heterogeneity check: a strong secondary type anywhere in
            # the pool also signals mixed fields rather than one set.
            type_counts: Counter = Counter()
            annotated = 0
            for annotation_set in annotations_of.get(shape, []):
                if annotation_set:
                    annotated += 1
                    for type_name in annotation_set:
                        type_counts[type_name] += 1
            if annotated >= 2 and len(type_counts) >= 2:
                ranked = type_counts.most_common()
                second_share = ranked[1][1] / annotated
                if second_share > heterogeneity_share:
                    continue
        iterator_shapes.add(shape)
    return iterator_shapes


def _collapse_iterators(
    items: list[_Item], iterator_shapes: set[Shape]
) -> list[_Item]:
    """Fold maximal runs of iterator-shaped items into single run items.

    Intervening text between consecutive unit instances (", " separators)
    is folded into the run.
    """
    out: list[_Item] = []
    index = 0
    while index < len(items):
        item = items[index]
        if item.shape not in iterator_shapes:
            out.append(item)
            index += 1
            continue
        run_nodes: list[Node] = list(item.nodes)
        cursor = index + 1
        while cursor < len(items):
            if items[cursor].shape == item.shape:
                run_nodes.extend(items[cursor].nodes)
                cursor += 1
                continue
            # Allow a single text separator between unit instances.
            if (
                items[cursor].shape == _TEXT_SHAPE
                and cursor + 1 < len(items)
                and items[cursor + 1].shape == item.shape
            ):
                cursor += 1
                continue
            break
        out.append(_Item(shape=("iter",) + item.shape, nodes=run_nodes))
        index = cursor
    return out


def _lcs_align(
    consensus_shapes: list[Shape], item_shapes: list[Shape]
) -> list[tuple[int | None, int | None]]:
    """Longest-common-subsequence alignment of two shape sequences.

    Returns pairs of (consensus index, item index); ``None`` marks a gap on
    that side.  Equal sequences (most records of a regular source) take
    the diagonal directly: the DP traceback would pair every index with
    itself.
    """
    n, m = len(consensus_shapes), len(item_shapes)
    if consensus_shapes == item_shapes:
        return [(index, index) for index in range(n)]
    # DP table of LCS lengths.
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if consensus_shapes[i] == item_shapes[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    pairs: list[tuple[int | None, int | None]] = []
    i = j = 0
    while i < n and j < m:
        if consensus_shapes[i] == item_shapes[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            pairs.append((i, None))
            i += 1
        else:
            pairs.append((None, j))
            j += 1
    while i < n:
        pairs.append((i, None))
        i += 1
    while j < m:
        pairs.append((None, j))
        j += 1
    return pairs


@dataclass
class _Column:
    """One aligned position across records."""

    shape: Shape
    #: per record index: the item at this position, or None.
    cells: dict[int, _Item] = field(default_factory=dict)


def _align_columns(records_items: list[list[_Item]]) -> list[_Column]:
    """Progressively align all records into a column list."""
    columns: list[_Column] = []
    for record_index, items in enumerate(records_items):
        if not columns:
            for item in items:
                column = _Column(shape=item.shape)
                column.cells[record_index] = item
                columns.append(column)
            continue
        pairs = _lcs_align([c.shape for c in columns], [i.shape for i in items])
        new_columns: list[_Column] = []
        for consensus_index, item_index in pairs:
            if consensus_index is not None and item_index is not None:
                column = columns[consensus_index]
                column.cells[record_index] = items[item_index]
                new_columns.append(column)
            elif consensus_index is not None:
                new_columns.append(columns[consensus_index])
            else:
                assert item_index is not None
                column = _Column(shape=items[item_index].shape)
                column.cells[record_index] = items[item_index]
                new_columns.append(column)
        columns = new_columns
    return columns


class TemplateBuilder:
    """Builds a :class:`Template` from record instances.

    ``use_annotations=False`` turns the builder into the annotation-blind
    variant used by the ExAlg baseline.  ``chaos_ratio`` controls when a
    level is declared structurally chaotic (too many gap columns), which
    triggers the whole-content-field fallback.
    """

    def __init__(
        self,
        use_annotations: bool = True,
        generalization_threshold: float = 0.7,
        chaos_ratio: float = 0.5,
        max_examples: int = 5,
    ):
        self._use_annotations = use_annotations
        self._threshold = generalization_threshold
        self._chaos_ratio = chaos_ratio
        self._max_examples = max_examples
        self._next_slot_id = 0
        self._conflicts = 0

    # -- public ---------------------------------------------------------

    def build(self, records: list[list[Node]]) -> Template:
        """Align ``records`` (each a list of sibling nodes) into a template."""
        self._next_slot_id = 0
        self._conflicts = 0
        roots = self._build_level([list(record) for record in records])
        return Template(
            roots=roots,
            conflicts=self._conflicts,
            sample_records=len(records),
        )

    # -- internals -----------------------------------------------------------

    def _new_slot(self) -> FieldSlot:
        slot = FieldSlot(slot_id=self._next_slot_id)
        self._next_slot_id += 1
        return slot

    def _build_level(self, node_lists: list[list[Node]]) -> list[TemplateNode]:
        records_items = [_items_of(nodes) for nodes in node_lists]
        iterator_shapes = _detect_iterator_shapes(
            records_items, use_annotations=self._use_annotations
        )
        records_items = [
            _collapse_iterators(items, iterator_shapes) for items in records_items
        ]
        columns = _align_columns(records_items)
        total_records = len(node_lists)

        # Chaos check: a level where most columns are sparse did not align.
        if columns and total_records >= 2:
            sparse = sum(
                1
                for column in columns
                if len(column.cells) < max(2, total_records * self._chaos_ratio)
            )
            if len(columns) > 3 and sparse / len(columns) > self._chaos_ratio:
                return [self._whole_content_field(node_lists)]

        nodes_out: list[TemplateNode] = []
        for column in columns:
            optional = len(column.cells) < total_records
            if column.shape == _TEXT_SHAPE:
                nodes_out.append(self._text_column(column, optional))
            elif column.shape and column.shape[0] == "iter":
                nodes_out.append(self._iterator_column(column))
            else:
                nodes_out.append(self._element_column(column, optional))
        return nodes_out

    def _whole_content_field(self, node_lists: list[list[Node]]) -> FieldSlot:
        """Fallback: the entire level content becomes one field slot.

        With annotations enabled the slot inherits the types seen on the
        container nodes, which is what lets ObjectRunner survive levels
        like the Amazon author markup where HTML structure varies record
        to record.
        """
        slot = self._new_slot()
        for nodes in node_lists:
            annotations: set[str] = set()
            texts: list[str] = []
            for node in nodes:
                if self._use_annotations:
                    annotations |= getattr(node, "annotations", set())
                texts.append(node.text_content())
            slot.record_annotations(annotations if self._use_annotations else set())
            text = " ".join(part for part in texts if part)
            if text and len(slot.examples) < self._max_examples:
                slot.examples.append(text)
        if slot.conflicting:
            self._conflicts += 1
        return slot

    def _text_column(self, column: _Column, optional: bool) -> TemplateNode:
        values: list[str] = []
        annotation_sets: list[set[str]] = []
        for item in column.cells.values():
            text_node = item.nodes[0]
            assert isinstance(text_node, Text)
            values.append(text_node.text_content())
            annotation_sets.append(
                set(text_node.annotations) if self._use_annotations else set()
            )
        if len(set(values)) == 1 and not any(annotation_sets):
            # Constant, never-annotated text is template-generated...
            # unless semantics say otherwise: the paper's "New York" case —
            # an annotated constant stays extractable data.
            return StaticSlot(text=values[0])
        slot = self._new_slot()
        slot.optional = optional
        for value, annotations in zip(values, annotation_sets):
            slot.record_annotations(annotations)
            if len(slot.examples) < self._max_examples:
                slot.examples.append(value)
        # Word-level template tokens: constant leading/trailing words shared
        # by every occurrence belong to the template, not the data.
        tokenized = [tokenize_words(value) for value in values]
        prefix, suffix = common_affixes(tokenized)
        if any(len(words) > prefix + suffix for words in tokenized):
            slot.strip_prefix = prefix
            slot.strip_suffix = suffix
        if slot.conflicting:
            self._conflicts += 1
        return slot

    def _element_column(self, column: _Column, optional: bool) -> TemplateNode:
        elements = [item.nodes[0] for item in column.cells.values()]
        assert all(isinstance(element, Element) for element in elements)
        child_lists = [list(element.children) for element in elements]  # type: ignore[union-attr]
        tag = column.shape[1]
        attr_class = column.shape[2]

        children = self._build_level(child_lists)

        # The paper's Amazon-authors rule: when the inner structure of a
        # container varies record-to-record ("by <a>X</a> and Y" vs "by Z")
        # but the containers consistently denote one entity type, the whole
        # content becomes one annotated field.
        if (
            self._use_annotations
            and self._irregular_children(children, len(elements))
            and not self._children_already_typed(children)
        ):
            # One subtree walk per container, shared by the dominance test
            # and the collapsed-field construction.
            subtree_sets = _subtree_annotation_sets(elements)  # type: ignore[arg-type]
            dominant = self._subtree_dominant(subtree_sets)
            if dominant is not None:
                children = [
                    self._container_field(elements, subtree_sets, dominant)  # type: ignore[arg-type]
                ]

        template = ElementTemplate(
            tag=tag,
            attr_class=attr_class,
            children=children,
            optional=optional,
        )
        if self._use_annotations:
            for element in elements:
                for type_name in element.annotations:  # type: ignore[union-attr]
                    template.annotation_counts[type_name] += 1
        return template

    @staticmethod
    def _irregular_children(children: list[TemplateNode], total: int) -> bool:
        """True when the aligned child structure is record-dependent."""
        if total < 2 or len(children) < 2:
            return False
        field_like = [
            node for node in children if not isinstance(node, StaticSlot)
        ]
        if len(field_like) < 2:
            return False
        sparse = sum(
            1
            for node in children
            if (isinstance(node, FieldSlot) and node.optional)
            or (isinstance(node, ElementTemplate) and node.optional)
        )
        return sparse / len(children) > 0.3

    @staticmethod
    def _children_already_typed(children: list[TemplateNode]) -> bool:
        """True when the aligned sub-columns separate distinct entity types.

        If alignment already produced field slots with two or more distinct
        dominant annotations (a theater column next to address columns),
        the structure is meaningful and must not collapse into one field.
        """
        dominants: set[str] = set()

        def walk(node: TemplateNode) -> None:
            if isinstance(node, FieldSlot):
                dominant = node.dominant_annotation()
                if dominant is not None:
                    dominants.add(dominant)
            elif isinstance(node, ElementTemplate):
                for child in node.children:
                    walk(child)
            elif isinstance(node, IteratorSlot):
                walk(node.unit)

        for child in children:
            walk(child)
        return len(dominants) >= 2

    def _subtree_dominant(self, subtree_sets: list[set[str]]) -> str | None:
        """The one entity type the containers denote, if any.

        Takes the precomputed per-container subtree annotation sets (see
        :func:`_subtree_annotation_sets`).
        """
        counts: Counter = Counter()
        annotated_elements = 0
        for subtree_types in subtree_sets:
            if subtree_types:
                annotated_elements += 1
                for type_name in subtree_types:
                    counts[type_name] += 1
        if not counts or annotated_elements < max(2, len(subtree_sets) // 4):
            return None
        type_name, count = counts.most_common(1)[0]
        if count / sum(counts.values()) >= self._threshold:
            return type_name
        return None

    def _container_field(
        self,
        elements: list[Element],
        subtree_sets: list[set[str]],
        dominant: str,
    ) -> FieldSlot:
        """One field slot covering each container's entire content."""
        slot = self._new_slot()
        texts: list[str] = []
        for element, subtree_types in zip(elements, subtree_sets):
            slot.record_annotations(subtree_types & {dominant})
            text = element.text_content()
            if text:
                texts.append(text)
                if len(slot.examples) < self._max_examples:
                    slot.examples.append(text)
        tokenized = [tokenize_words(text) for text in texts]
        prefix, suffix = common_affixes(tokenized)
        if any(len(words) > prefix + suffix for words in tokenized):
            slot.strip_prefix = prefix
            slot.strip_suffix = suffix
        return slot

    def _iterator_column(self, column: _Column) -> IteratorSlot:
        # Gather every unit instance across records and runs.
        unit_elements: list[Element] = []
        repeats: list[int] = []
        for item in column.cells.values():
            count = 0
            for node in item.nodes:
                if isinstance(node, Element):
                    unit_elements.append(node)
                    count += 1
            repeats.append(count)
        child_lists = [[element] for element in unit_elements]
        unit_nodes = self._build_level(child_lists)
        unit: TemplateNode
        if len(unit_nodes) == 1:
            unit = unit_nodes[0]
        else:
            unit = ElementTemplate(tag="#unit", children=unit_nodes)
        slot_id = self._next_slot_id
        self._next_slot_id += 1
        return IteratorSlot(
            slot_id=slot_id,
            unit=unit,
            min_repeats=min(repeats) if repeats else 0,
            max_repeats=max(repeats) if repeats else 0,
        )


def common_affixes(values: list[list[str]]) -> tuple[int, int]:
    """Longest common word prefix/suffix lengths across tokenized values.

    Used to split mixed text like ``"by Jane Austen"`` into the template
    word ``by`` and the data words — the word-level template tokens of the
    ExAlg model.
    """
    if not values or any(not value for value in values):
        return (0, 0)
    prefix = 0
    while all(len(value) > prefix for value in values):
        words = {value[prefix] for value in values}
        if len(words) == 1:
            prefix += 1
        else:
            break
    suffix = 0
    while all(len(value) > prefix + suffix for value in values):
        words = {value[-1 - suffix] for value in values}
        if len(words) == 1:
            suffix += 1
        else:
            break
    return (prefix, suffix)


_WORD_SPAN_RE = re.compile(r"[A-Za-z0-9]+(?:[.'&-][A-Za-z0-9]+)*")


def strip_affixes(text: str, prefix: int, suffix: int) -> str:
    """Remove ``prefix``/``suffix`` common words from a text value.

    The kept region is sliced out of the original string, so punctuation
    and spacing inside the data ("$12.99", "8:00pm") survive intact.
    """
    text = text.strip()
    if not prefix and not suffix:
        return text
    spans = [match.span() for match in _WORD_SPAN_RE.finditer(text)]
    if len(spans) <= prefix + suffix:
        return ""
    start = spans[prefix][0]
    # Pull attached leading symbols ("$12.99", "€30") back into the value.
    while start > 0 and not text[start - 1].isspace() and text[start - 1] not in ",:;|":
        start -= 1
    end = spans[len(spans) - suffix - 1][1] if suffix else len(text)
    return text[start:end].strip()


# -- original src/repro/wrapper/extraction.py -------------------------------


def _template_shape(node: TemplateNode) -> tuple:
    if isinstance(node, (StaticSlot, FieldSlot)):
        return ("text",)
    if isinstance(node, ElementTemplate):
        return ("elem", node.tag, node.attr_class)
    assert isinstance(node, IteratorSlot)
    unit = node.unit
    if isinstance(unit, ElementTemplate):
        return ("iter", "elem", unit.tag, unit.attr_class)
    return ("iter", "text")


def _collapse_for_template(
    items: list, template_children: list[TemplateNode]
) -> list:
    """Collapse item runs matching this level's iterator unit shapes."""
    iterator_shapes = set()
    for node in template_children:
        if isinstance(node, IteratorSlot):
            shape = _template_shape(node)
            iterator_shapes.add(shape[1:])  # strip the 'iter' marker
    if not iterator_shapes:
        return items
    return _collapse_iterators(items, iterator_shapes)


def _level_text(nodes: list[Node]) -> str:
    parts = [node.text_content() for node in nodes]
    return " ".join(part for part in parts if part)


def _extract_level(
    template_children: list[TemplateNode],
    nodes: list[Node],
    out: RecordValues,
) -> None:
    # Whole-content-field levels (the collapsed-container rule) grab
    # everything under them, whatever markup this record happens to use.
    if len(template_children) == 1 and isinstance(template_children[0], FieldSlot):
        slot = template_children[0]
        text = _level_text(nodes)
        if text:
            value = strip_affixes(text, slot.strip_prefix, slot.strip_suffix)
            if value:
                out.fields.setdefault(slot.slot_id, []).append(value)
        return

    items = _collapse_for_template(_items_of(nodes), template_children)
    template_shapes = [_template_shape(node) for node in template_children]
    item_shapes = [item.shape for item in items]
    pairs = _lcs_align(template_shapes, item_shapes)
    for template_index, item_index in pairs:
        if template_index is None or item_index is None:
            continue
        node = template_children[template_index]
        item = items[item_index]
        if isinstance(node, StaticSlot):
            continue
        if isinstance(node, FieldSlot):
            text_node = item.nodes[0]
            assert isinstance(text_node, Text)
            value = strip_affixes(
                text_node.text_content(), node.strip_prefix, node.strip_suffix
            )
            if value:
                out.fields.setdefault(node.slot_id, []).append(value)
            continue
        if isinstance(node, ElementTemplate):
            element = item.nodes[0]
            assert isinstance(element, Element)
            _extract_level(node.children, list(element.children), out)
            continue
        assert isinstance(node, IteratorSlot)
        units = out.iterators.setdefault(node.slot_id, [])
        unit_template = node.unit
        for unit_node in item.nodes:
            if not isinstance(unit_node, Element):
                continue
            unit_values = RecordValues()
            if isinstance(unit_template, ElementTemplate):
                _extract_level(unit_template.children, list(unit_node.children), unit_values)
            else:
                _extract_level([unit_template], [unit_node], unit_values)
            units.append(unit_values)


def extract_record(template: Template, record_nodes: list[Node]) -> RecordValues:
    """Align one record against the template and read its values."""
    values = RecordValues()
    _extract_level(template.roots, record_nodes, values)
    return values


def extract_objects(
    wrapper: "Wrapper",
    pages: list[Element],
    source: str = "",
) -> list[ObjectInstance]:
    """Extract every SOD instance from ``pages`` using ``wrapper``."""
    objects: list[ObjectInstance] = []
    for page_index, page in enumerate(pages):
        for record_nodes in wrapper.segment_page(page):
            record = extract_record(wrapper.template, record_nodes)
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
