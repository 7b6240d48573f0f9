"""Tests for SOD canonicalization (paper Figure 4)."""

from repro.sod.canonical import canonicalize
from repro.sod.dsl import parse_sod
from repro.sod.types import EntityType, SetType, TupleType


class TestCanonicalize:
    def test_figure4_merge(self):
        # {t1, {t2}, {t31, t32}} -> {t1, t31, t32, {t2}}
        sod = parse_sod("root(t1, s:{t2}*, inner(t31, t32))")
        canonical = canonicalize(sod)
        names = [c.name for c in canonical.components]
        assert set(names) == {"t1", "s", "t31", "t32"}
        atoms = [c for c in canonical.components if isinstance(c, EntityType)]
        assert [a.name for a in atoms] == ["t1", "t31", "t32"]

    def test_deep_tuple_nesting_flattens(self):
        sod = parse_sod("a(x, b(y, c(z)))")
        canonical = canonicalize(sod)
        assert [c.name for c in canonical.components] == ["x", "y", "z"]

    def test_set_boundary_preserved(self):
        sod = parse_sod("root(s:{inner(a, b)}+)")
        canonical = canonicalize(sod)
        set_type = canonical.components[0]
        assert isinstance(set_type, SetType)
        assert isinstance(set_type.inner, TupleType)

    def test_tuple_inside_set_canonicalized(self):
        sod = parse_sod("root(s:{outer(a, deeper(b))}+)")
        canonical = canonicalize(sod)
        inner = canonical.components[0].inner
        assert [c.name for c in inner.components] == ["a", "b"]

    def test_entity_unchanged(self):
        entity = EntityType("x")
        assert canonicalize(entity) is entity

    def test_input_not_mutated(self):
        sod = parse_sod("a(x, b(y))")
        before = str(sod)
        canonicalize(sod)
        assert str(sod) == before

    def test_concert_sod(self):
        sod = parse_sod(
            "concert(artist, date<kind=predefined>, location(theater, address?))"
        )
        canonical = canonicalize(sod)
        assert [c.name for c in canonical.components] == [
            "artist",
            "date",
            "theater",
            "address",
        ]

    def test_idempotent(self):
        sod = parse_sod("a(x, b(y, s:{z}*))")
        once = canonicalize(sod)
        assert str(canonicalize(once)) == str(once)

