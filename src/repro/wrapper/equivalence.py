"""Equivalence classes of token roles and their validity checks.

An equivalence class (EQ) is a set of roles sharing an occurrence vector.
A *valid* EQ is **ordered** — on every page, the i-th occurrences of its
roles appear in the same relative order — and any two valid EQs must be
**nested or non-overlapping** (paper Section III-C, following ExAlg).
Invalid classes are discarded.

The ordered check is the hottest frame of wrapper induction: the naive
form re-scans every token of every page once per candidate class.  Here
the per-page *first occurrence* of every role is indexed once
(:func:`_first_occurrence_index`), so checking a class is a handful of
dictionary lookups plus a sort by position — identical output (first
occurrences are unique positions, so sorting by position reproduces the
scan order exactly), two orders of magnitude less work.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.wrapper.occurrence import (
    OccurrenceVector,
    RoleKey,
    group_by_vector,
    occurrence_vectors,
)
from repro.wrapper.tokens import KIND_OPEN, TokenizedPage, ensure_shared_table


@dataclass
class EquivalenceClass:
    """A candidate equivalence class with its validity diagnosis."""

    vector: OccurrenceVector
    roles: list[RoleKey]
    ordered_roles: list[RoleKey] = field(default_factory=list)
    valid: bool = False
    invalid_reason: str = ""

    @property
    def size(self) -> int:
        return len(self.roles)

    @property
    def occurrences_per_page(self) -> float:
        return self.vector.per_page_mean

    def spans(self, page: TokenizedPage) -> list[tuple[int, int]]:
        """The token spans of this EQ's repetitions on one page.

        Each repetition runs from one occurrence of the first ordered role
        to just before the next one (the last span extends to the last
        occurrence of the final role, inclusive).  Both position lists are
        ascending, so the closing occurrence is one bisection away.
        """
        if not self.ordered_roles:
            return []
        first_role = self.ordered_roles[0]
        last_role = self.ordered_roles[-1]
        starts = _role_token_positions(page, first_role)
        if not starts:
            return []
        ends = _role_token_positions(page, last_role)
        spans: list[tuple[int, int]] = []
        count = len(starts)
        for i, start in enumerate(starts):
            next_start = starts[i + 1] if i + 1 < count else len(page.tokens)
            # Close at the last occurrence of the final role before the
            # next repetition begins, if it is not before this one.
            last = bisect_left(ends, next_start) - 1
            if last >= 0 and ends[last] >= start:
                stop = ends[last] + 1
            else:
                stop = next_start
            spans.append((start, stop))
        return spans


def _role_token_positions(page: TokenizedPage, role: RoleKey) -> list[int]:
    """Ascending token indexes of ``role`` on ``page``.

    Uses the page's cached role-id position index when the page went
    through a shared :class:`~repro.wrapper.tokens.TokenTable`; falls back
    to a linear role-key scan for hand-built pages.
    """
    if page.table is not None:
        role_id = page.table.id_of(role)
        if role_id is None:
            return []
        return page.positions_of(role_id)
    return [
        index
        for index, token in enumerate(page.tokens)
        if token.role_key == role
    ]


def _first_occurrence_index(pages: list[TokenizedPage]) -> list[dict[int, int]]:
    """Per page: role id -> token index of the role's first occurrence."""
    index: list[dict[int, int]] = []
    for page in pages:
        firsts: dict[int, int] = {}
        for position, role_id in enumerate(page.role_id_sequence()):
            if role_id not in firsts:
                firsts[role_id] = position
        index.append(firsts)
    return index


def _check_ordered_indexed(
    role_ids: list[int], first_occurrences: list[dict[int, int]]
) -> tuple[bool, list[int]]:
    """Check the 'ordered' property; return (ok, role ids in document order).

    For every page we list the first-occurrence order of the roles; all
    pages (that contain them) must agree, and the i-th occurrence blocks
    must not interleave inconsistently.  We verify agreement on the
    first-occurrence order, which is the practically binding criterion.
    """
    reference: list[int] | None = None
    wanted = len(role_ids)
    for firsts in first_occurrences:
        present = [
            (firsts[role_id], role_id)
            for role_id in role_ids
            if role_id in firsts
        ]
        if len(present) != wanted:
            continue  # role absent here (support filter allows gaps)
        present.sort()
        seen = [role_id for __, role_id in present]
        if reference is None:
            reference = seen
        elif seen != reference:
            return False, []
    if reference is None:
        return False, []
    return True, reference


def find_equivalence_classes(
    pages: list[TokenizedPage],
    min_support: int = 3,
    min_size: int = 1,
) -> list[EquivalenceClass]:
    """Compute all EQs over the sample, marking validity.

    Returns classes sorted by (valid first, occurrences desc, size desc).
    The nested/non-overlapping property across classes is enforced later,
    when the record class is chosen and the template tree is assembled;
    here each class is checked for internal order-consistency.
    """
    vectors = occurrence_vectors(pages, min_support=min_support)
    groups = group_by_vector(vectors)
    table = ensure_shared_table(pages)
    first_occurrences = _first_occurrence_index(pages)
    classes: list[EquivalenceClass] = []
    for vector, roles in groups.items():
        if len(roles) < min_size:
            continue
        eq = EquivalenceClass(vector=vector, roles=roles)
        role_ids = [table.intern(role) for role in roles]
        ok, ordered_ids = _check_ordered_indexed(role_ids, first_occurrences)
        if ok:
            keys = table.keys_by_id()
            eq.valid = True
            eq.ordered_roles = [keys[role_id] for role_id in ordered_ids]
        else:
            eq.invalid_reason = "roles not consistently ordered across pages"
        classes.append(eq)
    classes.sort(
        key=lambda eq: (
            not eq.valid,
            -eq.vector.per_page_mean,
            -eq.size,
        )
    )
    return classes


def record_class_candidates(
    classes: list[EquivalenceClass],
) -> list[EquivalenceClass]:
    """Valid EQs that could delimit data records.

    A record EQ must contain at least one opening-tag role (records are
    tag-delimited in template pages) and occur at least once per page on
    average.
    """
    out = []
    for eq in classes:
        if not eq.valid:
            continue
        if eq.vector.per_page_mean < 1.0:
            continue
        if not any(role[0] == KIND_OPEN for role in eq.roles):
            continue
        out.append(eq)
    return out
