"""Tests for the SOD type algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SodError
from repro.sod.types import (
    DisjunctionType,
    EntityType,
    Multiplicity,
    SetType,
    TupleType,
    entity_types,
    iter_types,
    required_entity_types,
)


class TestMultiplicity:
    def test_shorthands(self):
        assert str(Multiplicity.star()) == "*"
        assert str(Multiplicity.plus()) == "+"
        assert str(Multiplicity.optional()) == "?"
        assert str(Multiplicity.exactly_one()) == "1"
        assert str(Multiplicity.range(2, 5)) == "2-5"

    def test_admits(self):
        assert Multiplicity.star().admits(0)
        assert Multiplicity.star().admits(100)
        assert not Multiplicity.plus().admits(0)
        assert Multiplicity.optional().admits(1)
        assert not Multiplicity.optional().admits(2)
        assert Multiplicity.range(2, 4).admits(3)
        assert not Multiplicity.range(2, 4).admits(5)

    def test_invalid_bounds(self):
        with pytest.raises(SodError):
            Multiplicity(-1, 2)
        with pytest.raises(SodError):
            Multiplicity(3, 2)

    def test_optional_allowed(self):
        assert Multiplicity.star().optional_allowed
        assert not Multiplicity.plus().optional_allowed

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 20))
    def test_admits_consistent_with_bounds(self, low, span, count):
        multiplicity = Multiplicity(low, low + span)
        assert multiplicity.admits(count) == (low <= count <= low + span)


class TestEntityType:
    def test_defaults(self):
        entity = EntityType("artist")
        assert entity.recognizer == "artist"
        assert entity.kind == "isInstanceOf"
        assert not entity.optional

    def test_empty_name_rejected(self):
        with pytest.raises(SodError):
            EntityType("")

    def test_bad_kind_rejected(self):
        with pytest.raises(SodError):
            EntityType("x", kind="magic")


class TestTupleType:
    def test_needs_components(self):
        with pytest.raises(SodError):
            TupleType("t", ())

    def test_duplicate_names_rejected(self):
        with pytest.raises(SodError):
            TupleType("t", (EntityType("a"), EntityType("a")))

    def test_str(self):
        t = TupleType("concert", (EntityType("artist"), EntityType("date")))
        assert str(t) == "concert(artist, date)"


class TestTraversal:
    def concert_sod(self):
        return TupleType(
            "concert",
            (
                EntityType("artist"),
                EntityType("date", kind="predefined"),
                TupleType(
                    "location",
                    (
                        EntityType("theater"),
                        EntityType("address", kind="predefined", optional=True),
                    ),
                ),
            ),
        )

    def test_iter_types_preorder(self):
        names = [getattr(t, "name", "?") for t in iter_types(self.concert_sod())]
        assert names == ["concert", "artist", "date", "location", "theater", "address"]

    def test_entity_types(self):
        assert [e.name for e in entity_types(self.concert_sod())] == [
            "artist",
            "date",
            "theater",
            "address",
        ]

    def test_required_excludes_optional(self):
        required = {e.name for e in required_entity_types(self.concert_sod())}
        assert required == {"artist", "date", "theater"}

    def test_required_excludes_optional_set_members(self):
        sod = TupleType(
            "book",
            (
                EntityType("title"),
                SetType("authors", EntityType("author"), Multiplicity.star()),
            ),
        )
        required = {e.name for e in required_entity_types(sod)}
        assert required == {"title"}

    def test_required_keeps_mandatory_set_members(self):
        sod = TupleType(
            "book",
            (
                EntityType("title"),
                SetType("authors", EntityType("author"), Multiplicity.plus()),
            ),
        )
        required = {e.name for e in required_entity_types(sod)}
        assert required == {"title", "author"}

    def test_disjunction_members_optional(self):
        sod = DisjunctionType("either", EntityType("a"), EntityType("b"))
        assert required_entity_types(sod) == []

    def test_entity_types_deduplicated(self):
        sod = DisjunctionType("either", EntityType("a"), EntityType("a"))
        assert len(entity_types(sod)) == 1
