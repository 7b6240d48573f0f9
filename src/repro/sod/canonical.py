"""Canonical form of an SOD (paper Figure 4).

Template matching works on the *canonical* SOD, where every tuple node
directly owns all the atomic types reachable from it through tuple nodes
only (no set nodes in between).  E.g. ``{t1, {t2}, {t31, t32}}`` becomes
``{t1, t31, t32, {t2}}``: the nested tuple ``{t31, t32}`` merges into its
parent, while the set ``{t2}`` stays a nested level.
"""

from __future__ import annotations

from repro.sod.types import (
    DisjunctionType,
    EntityType,
    SetType,
    SodType,
    TupleType,
)


def canonicalize(sod: SodType) -> SodType:
    """Return the canonical form of ``sod`` (input is never mutated).

    Tuple-in-tuple nesting is flattened; set and disjunction boundaries are
    preserved (their inner types are canonicalized recursively).  Entity
    types are returned unchanged.
    """
    if isinstance(sod, EntityType):
        return sod
    if isinstance(sod, SetType):
        return SetType(
            name=sod.name,
            inner=canonicalize(sod.inner),
            multiplicity=sod.multiplicity,
        )
    if isinstance(sod, DisjunctionType):
        return DisjunctionType(
            name=sod.name,
            left=canonicalize(sod.left),
            right=canonicalize(sod.right),
        )
    assert isinstance(sod, TupleType)
    flattened: list[SodType] = []
    for component in sod.components:
        canonical = canonicalize(component)
        if isinstance(canonical, TupleType):
            flattened.extend(canonical.components)
        else:
            flattened.append(canonical)
    return TupleType(name=sod.name, components=tuple(flattened))
