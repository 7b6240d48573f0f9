"""The SOD type algebra.

Building blocks (paper Section II-A):

- :class:`EntityType` — an atomic type with an associated recognizer name
  and kind (``regex`` / ``predefined`` / ``isInstanceOf``);
- :class:`SetType` — ``[{t}, m]``: a set of instances of an inner type with
  a :class:`Multiplicity` constraint (``*``, ``+``, ``?``, ``1``, ``n-m``);
- :class:`TupleType` — an *unordered* collection of component types;
- :class:`DisjunctionType` — a pair of mutually exclusive types.

A Structured Object Description is any complex type; by convention the
top-level type of an extraction target is a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import SodError

#: Recognizer kinds, mirroring the paper's three classes of recognizers.
KIND_REGEX = "regex"
KIND_PREDEFINED = "predefined"
KIND_IS_INSTANCE_OF = "isInstanceOf"

_VALID_KINDS = (KIND_REGEX, KIND_PREDEFINED, KIND_IS_INSTANCE_OF)


@dataclass(frozen=True)
class Multiplicity:
    """Occurrence constraint of a set type.

    ``low``..``high`` instances, ``high=None`` meaning unbounded.  The
    shorthand constructors match the paper's notation.
    """

    low: int
    high: int | None

    def __post_init__(self) -> None:
        if self.low < 0:
            raise SodError(f"multiplicity lower bound must be >= 0, got {self.low}")
        if self.high is not None and self.high < self.low:
            raise SodError(
                f"multiplicity upper bound {self.high} below lower bound {self.low}"
            )

    @classmethod
    def star(cls) -> "Multiplicity":
        """``*`` — zero or more."""
        return cls(0, None)

    @classmethod
    def plus(cls) -> "Multiplicity":
        """``+`` — one or more."""
        return cls(1, None)

    @classmethod
    def optional(cls) -> "Multiplicity":
        """``?`` — zero or one."""
        return cls(0, 1)

    @classmethod
    def exactly_one(cls) -> "Multiplicity":
        """``1`` — exactly one."""
        return cls(1, 1)

    @classmethod
    def range(cls, low: int, high: int) -> "Multiplicity":
        """``n-m`` — at least ``low``, at most ``high``."""
        return cls(low, high)

    def admits(self, count: int) -> bool:
        """True if ``count`` instances satisfy this constraint."""
        if count < self.low:
            return False
        return self.high is None or count <= self.high

    @property
    def optional_allowed(self) -> bool:
        """True if zero occurrences are acceptable."""
        return self.low == 0

    def __str__(self) -> str:
        if (self.low, self.high) == (0, None):
            return "*"
        if (self.low, self.high) == (1, None):
            return "+"
        if (self.low, self.high) == (0, 1):
            return "?"
        if (self.low, self.high) == (1, 1):
            return "1"
        if self.high is None:
            return f"{self.low}+"
        return f"{self.low}-{self.high}"


@dataclass(frozen=True)
class EntityType:
    """An atomic type bound to a recognizer.

    ``name`` is the attribute label (e.g. ``artist``); ``recognizer`` names
    the recognizer resolving it (defaults to ``name``); ``kind`` is one of
    the paper's three recognizer classes; ``optional`` marks attributes the
    source may legitimately omit (the "Optional" column of Table I);
    ``cover_node`` applies the full-node value rule of the paper's
    footnote 1 — only matches covering an entire text node count.
    """

    name: str
    recognizer: str = ""
    kind: str = KIND_IS_INSTANCE_OF
    optional: bool = False
    cover_node: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SodError("entity type needs a non-empty name")
        if self.kind not in _VALID_KINDS:
            raise SodError(f"unknown recognizer kind {self.kind!r}")
        if not self.recognizer:
            object.__setattr__(self, "recognizer", self.name)

    def __str__(self) -> str:
        suffix = "?" if self.optional else ""
        return f"{self.name}{suffix}"


@dataclass(frozen=True)
class SetType:
    """``[{inner}, multiplicity]`` — a homogeneous collection."""

    name: str
    inner: "SodType"
    multiplicity: Multiplicity = field(default_factory=Multiplicity.plus)

    def __post_init__(self) -> None:
        if not self.name:
            raise SodError("set type needs a non-empty name")

    def __str__(self) -> str:
        return f"{self.name}:{{{self.inner}}}{self.multiplicity}"


@dataclass(frozen=True)
class TupleType:
    """An unordered collection of component types."""

    name: str
    components: tuple["SodType", ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SodError("tuple type needs a non-empty name")
        if not self.components:
            raise SodError(f"tuple type {self.name!r} needs >= 1 component")
        seen: set[str] = set()
        for component in self.components:
            if component.name in seen:
                raise SodError(
                    f"duplicate component name {component.name!r} in tuple "
                    f"{self.name!r}"
                )
            seen.add(component.name)

    def __str__(self) -> str:
        inner = ", ".join(str(component) for component in self.components)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class DisjunctionType:
    """A pair of mutually exclusive alternatives."""

    name: str
    left: "SodType"
    right: "SodType"

    def __str__(self) -> str:
        return f"{self.name}({self.left} | {self.right})"


SodType = Union[EntityType, SetType, TupleType, DisjunctionType]


def iter_types(sod: SodType) -> Iterator[SodType]:
    """Pre-order traversal over a type tree."""
    yield sod
    if isinstance(sod, SetType):
        yield from iter_types(sod.inner)
    elif isinstance(sod, TupleType):
        for component in sod.components:
            yield from iter_types(component)
    elif isinstance(sod, DisjunctionType):
        yield from iter_types(sod.left)
        yield from iter_types(sod.right)


def entity_types(sod: SodType) -> list[EntityType]:
    """All entity types in the tree, in pre-order, without duplicates."""
    seen: set[str] = set()
    out: list[EntityType] = []
    for node in iter_types(sod):
        if isinstance(node, EntityType) and node.name not in seen:
            seen.add(node.name)
            out.append(node)
    return out


def required_entity_types(sod: SodType) -> list[EntityType]:
    """Entity types that are not optional and not under an optional set."""
    out: list[EntityType] = []
    _collect_required(sod, False, out)
    return out


def _collect_required(
    node: SodType, optional_context: bool, out: list[EntityType]
) -> None:
    """Append to ``out`` the required entity types under ``node``."""
    if isinstance(node, EntityType):
        if not node.optional and not optional_context:
            out.append(node)
    elif isinstance(node, SetType):
        _collect_required(
            node.inner, optional_context or node.multiplicity.optional_allowed, out
        )
    elif isinstance(node, TupleType):
        for component in node.components:
            _collect_required(component, optional_context, out)
    elif isinstance(node, DisjunctionType):
        # Either branch may be absent, so both are optional-context.
        _collect_required(node.left, True, out)
        _collect_required(node.right, True, out)


def arity(sod: SodType) -> int:
    """Number of distinct entity types in the SOD.

    This is the denominator of the per-source attribute columns in Table I
    (e.g. "4/4" for the concert SOD).
    """
    return len(entity_types(sod))
