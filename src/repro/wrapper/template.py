"""The annotated template tree (paper Section III-D).

A template describes how record content is laid out: static structure
(elements and constant text) interleaved with *field slots* (the ``*`` of
the paper's Figure 3(b)) and *iterator slots* (set levels).  Field slots
carry the annotation statistics gathered during wrapper generation — the
raw material both for SOD matching and for the self-validation signal
(conflicting annotations).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Union

#: Fraction of annotated occurrences a type needs to be generalized to the
#: whole slot when annotations are incomplete (0.7 in the paper).
GENERALIZATION_THRESHOLD = 0.7

#: Minimum fraction of a slot's occurrences that must be annotated at all
#: before any type generalizes to it.  The paper's dictionaries cover at
#: least ~20% of a source's instances, so a slot annotated on only a few
#: percent of its occurrences is seeing recognizer false positives, not a
#: data field of that type.
ANNOTATION_COVERAGE_FLOOR = 0.08


@dataclass
class FieldSlot:
    """A data position of the template (one ``*``).

    ``annotation_counts`` counts, over the sample record instances, how
    often each entity type annotated this position; ``occurrences`` is the
    number of instances that had the position at all.  The dominant type is
    generalized to the slot when it covers at least
    ``GENERALIZATION_THRESHOLD`` of the *annotated* occurrences.
    """

    slot_id: int
    annotation_counts: Counter = field(default_factory=Counter)
    occurrences: int = 0
    optional: bool = False
    examples: list[str] = field(default_factory=list)
    #: Template words shared by every occurrence ("by Jane Austen" -> "by"),
    #: stripped from extracted values.
    strip_prefix: int = 0
    strip_suffix: int = 0
    #: Memo of :meth:`dominant_annotation` per (threshold, coverage_floor);
    #: dropped whenever the counts change.  SOD matching queries the same
    #: slot hundreds of times per attempt, always after the statistics are
    #: final.
    _dominant_cache: dict | None = field(default=None, repr=False, compare=False)

    @property
    def annotated_occurrences(self) -> int:
        return sum(self.annotation_counts.values())

    def dominant_annotation(
        self,
        threshold: float = GENERALIZATION_THRESHOLD,
        coverage_floor: float = ANNOTATION_COVERAGE_FLOOR,
    ) -> str | None:
        """The generalized type of this slot, if one dominates.

        Requires both dominance among annotated occurrences (``threshold``)
        and a minimum annotation density over all occurrences
        (``coverage_floor``) so sparse false positives never label a slot.
        """
        cache_key = (threshold, coverage_floor)
        if self._dominant_cache is not None and cache_key in self._dominant_cache:
            return self._dominant_cache[cache_key]
        dominant = self._compute_dominant(threshold, coverage_floor)
        if self._dominant_cache is None:
            self._dominant_cache = {}
        self._dominant_cache[cache_key] = dominant
        return dominant

    def _compute_dominant(
        self, threshold: float, coverage_floor: float
    ) -> str | None:
        if not self.annotation_counts:
            return None
        if (
            self.occurrences
            and self.annotated_occurrences / self.occurrences < coverage_floor
        ):
            return None
        type_name, count = self.annotation_counts.most_common(1)[0]
        if count / self.annotated_occurrences >= threshold:
            return type_name
        return None

    @property
    def conflicting(self) -> bool:
        """True if occurrences carry more than one distinct annotation."""
        return len(self.annotation_counts) > 1

    def record_annotations(self, annotations: set[str]) -> None:
        """Count one occurrence and the types annotated on it."""
        self.occurrences += 1
        for type_name in annotations:
            self.annotation_counts[type_name] += 1
        self._dominant_cache = None

    def describe(self) -> str:
        """Figure 3(b)-style one-line rendering of the slot."""
        dominant = self.dominant_annotation()
        label = f' type="{dominant}"' if dominant else ""
        return f"*{label}"


@dataclass
class StaticSlot:
    """Constant text generated by the template (a separator string)."""

    text: str

    def describe(self) -> str:
        return repr(self.text)


@dataclass
class ElementTemplate:
    """A structural element of the template with child slots."""

    tag: str
    attr_class: str = ""
    children: list["TemplateNode"] = field(default_factory=list)
    optional: bool = False
    #: Annotation generalized from the element's node annotations, used by
    #: the whole-content-field rule (the paper's Amazon authors example).
    annotation_counts: Counter = field(default_factory=Counter)

    @property
    def shape(self) -> tuple[str, str]:
        return (self.tag, self.attr_class)

    def describe(self) -> str:
        """One-line rendering of the element with class and optionality."""
        opt = "?" if self.optional else ""
        cls = f".{self.attr_class}" if self.attr_class else ""
        return f"<{self.tag}{cls}>{opt}"


@dataclass
class IteratorSlot:
    """A set level: one unit template repeated a variable number of times."""

    slot_id: int
    unit: "TemplateNode"
    min_repeats: int = 0
    max_repeats: int = 0

    def describe(self) -> str:
        return f"{{{self.unit.describe()}}}*"


TemplateNode = Union[FieldSlot, StaticSlot, ElementTemplate, IteratorSlot]


@dataclass
class Template:
    """The record template of one source.

    ``roots`` is the slot sequence of one record.  ``conflicts`` counts
    positions whose annotations conflicted — the wrapper-quality signal
    driving the automatic parameter variation loop.
    """

    roots: list[TemplateNode] = field(default_factory=list)
    conflicts: int = 0
    sample_records: int = 0

    def iter_nodes(self) -> Iterator[TemplateNode]:
        """Pre-order traversal over the whole template."""
        for root in self.roots:
            yield from walk_template(root)

    def field_slots(self) -> list[FieldSlot]:
        return [node for node in self.iter_nodes() if isinstance(node, FieldSlot)]

    def iterator_slots(self) -> list[IteratorSlot]:
        return [node for node in self.iter_nodes() if isinstance(node, IteratorSlot)]

    def tuple_level_fields(self) -> list[FieldSlot]:
        """Field slots outside any iterator (the tuple level)."""
        inside: set[int] = set()
        for iterator in self.iterator_slots():
            for node in walk_template(iterator.unit):
                if isinstance(node, FieldSlot):
                    inside.add(node.slot_id)
        return [slot for slot in self.field_slots() if slot.slot_id not in inside]

    def set_level_fields(self) -> dict[int, list[FieldSlot]]:
        """Per iterator slot id, the field slots inside its unit."""
        out: dict[int, list[FieldSlot]] = {}
        for iterator in self.iterator_slots():
            out[iterator.slot_id] = [
                node
                for node in walk_template(iterator.unit)
                if isinstance(node, FieldSlot)
            ]
        return out

    def describe(self) -> str:
        """A compact, printable rendering of the template (for debugging)."""
        lines: list[str] = []

        def walk(node: TemplateNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            if isinstance(node, ElementTemplate):
                for child in node.children:
                    walk(child, depth + 1)
            elif isinstance(node, IteratorSlot):
                walk(node.unit, depth + 1)

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines)

    def to_wrapper_html(self) -> str:
        """Render the template the way the paper's Figure 3(b) shows wrappers.

        Data slots become ``*``, elements carry ``type="..."`` attributes
        for their generalized annotation, and set levels appear as
        ``{< ... >}`` iterator brackets::

            <li>
              <div type="artist"> * </div>
              {< <span type="author"> * </span> >}
            </li>
        """
        lines: list[str] = []

        def walk(node: TemplateNode, depth: int) -> None:
            pad = "  " * depth
            if isinstance(node, FieldSlot):
                dominant = node.dominant_annotation()
                label = f' type="{dominant}"' if dominant else ""
                lines.append(f"{pad}*{label}")
                return
            if isinstance(node, StaticSlot):
                lines.append(f"{pad}{node.text}")
                return
            if isinstance(node, IteratorSlot):
                lines.append(f"{pad}{{<")
                walk(node.unit, depth + 1)
                lines.append(f"{pad}>}}")
                return
            assert isinstance(node, ElementTemplate)
            cls = f' class="{node.attr_class}"' if node.attr_class else ""
            dominant = None
            if node.annotation_counts:
                candidate, count = node.annotation_counts.most_common(1)[0]
                if count / sum(node.annotation_counts.values()) >= GENERALIZATION_THRESHOLD:
                    dominant = candidate
            label = f' type="{dominant}"' if dominant else ""
            suffix = " ?" if node.optional else ""
            lines.append(f"{pad}<{node.tag}{cls}{label}>{suffix}")
            for child in node.children:
                walk(child, depth + 1)
            lines.append(f"{pad}</{node.tag}>")

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines)


def walk_template(node: TemplateNode) -> Iterator[TemplateNode]:
    """Pre-order traversal of ``node`` and every template node under it."""
    yield node
    if isinstance(node, ElementTemplate):
        for child in node.children:
            yield from walk_template(child)
    elif isinstance(node, IteratorSlot):
        yield from walk_template(node.unit)
