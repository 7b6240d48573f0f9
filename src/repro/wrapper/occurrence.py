"""Occurrence vectors: per-role counts across the sample pages.

For a token role ``r`` and sample pages ``p_1..p_n``, the occurrence
vector is ``<count(r, p_1), ..., count(r, p_n)>``.  Roles sharing a vector
form candidate equivalence classes (paper Section III-C; the ``<3,3,6>``
example for ``<div>``).

Counting works on interned role ids (:class:`~repro.wrapper.tokens.
TokenTable`): one preallocated count array per page, indexed by role id,
instead of a hash-tuple ``Counter`` per page.  Roles are emitted in
first-appearance document order (the table's id order), so the returned
mappings are deterministic under any ``PYTHONHASHSEED`` — the previous
implementation iterated a set of role tuples, which was hash-order
dependent.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.wrapper.tokens import RoleKey, TokenizedPage, ensure_shared_table

__all__ = [
    "OccurrenceVector",
    "RoleKey",
    "group_by_vector",
    "occurrence_vectors",
]


@dataclass(frozen=True)
class OccurrenceVector:
    """The counts of one role across the sample pages."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def support(self) -> int:
        """Number of pages in which the role occurs at least once."""
        return sum(1 for count in self.counts if count > 0)

    @property
    def constant(self) -> bool:
        """True if the count is identical on every page (and nonzero)."""
        nonzero = [count for count in self.counts if count > 0]
        if len(nonzero) != len(self.counts):
            return False
        return len(set(nonzero)) == 1

    @property
    def per_page_mean(self) -> float:
        """Average occurrences per sample page."""
        if not self.counts:
            return 0.0
        return self.total / len(self.counts)


def occurrence_counts(
    pages: list[TokenizedPage],
) -> tuple[list[RoleKey], list[list[int]]]:
    """Per-page occurrence counts over the shared role table.

    Returns ``(keys, per_page)`` where ``keys[i]`` is the role with id
    ``i`` and ``per_page[p][i]`` its count on page ``p`` — the preallocated
    array form of the per-page role ``Counter`` the vector construction
    used to build.
    """
    table = ensure_shared_table(pages)
    n_roles = len(table)
    per_page: list[list[int]] = []
    for page in pages:
        counts = [0] * n_roles
        for role_id in page.role_id_sequence():
            counts[role_id] += 1
        per_page.append(counts)
    return table.keys_by_id(), per_page


def occurrence_vectors(
    pages: list[TokenizedPage], min_support: int = 3
) -> dict[RoleKey, OccurrenceVector]:
    """Compute occurrence vectors for every role with enough support.

    ``min_support`` is the paper's *support* parameter (3-5 in the
    experiments): roles appearing in fewer pages are left out of the
    equivalence-class analysis (they are either data or noise).  Support is
    clamped to the sample size so tiny samples still work.
    """
    min_support = min(min_support, len(pages)) if pages else min_support
    keys, per_page = occurrence_counts(pages)
    vectors: dict[RoleKey, OccurrenceVector] = {}
    for role_id, role in enumerate(keys):
        counts = tuple(counts_of_page[role_id] for counts_of_page in per_page)
        support = sum(1 for count in counts if count > 0)
        if support >= min_support:
            vectors[role] = OccurrenceVector(counts)
    return vectors


def group_by_vector(
    vectors: dict[RoleKey, OccurrenceVector]
) -> dict[OccurrenceVector, list[RoleKey]]:
    """Group roles by identical occurrence vectors (raw EQ candidates)."""
    groups: dict[OccurrenceVector, list[RoleKey]] = defaultdict(list)
    for role, vector in vectors.items():
        groups[vector].append(role)
    for roles in groups.values():
        roles.sort()
    return dict(groups)
