"""Structural fingerprints: content-free template identity for pages.

A wrapper learned from one page of a template applies to every page of
that template, so the registry needs a key that (a) is identical for all
pages generated by one template and (b) differs across templates.  Page
*content* — text, attribute values other than ``class``, the number of
records in a list — must not influence the key, while the *shape* of the
markup must.

The fingerprint is a SHA-256 over a recursive "shape" string:

- an element contributes ``tag.class[attr-names](child shapes)``, where
  the ``class`` value is kept (templates use it to mark roles) and the
  remaining attribute *names* are sorted;
- a text node contributes ``t``;
- duplicate sibling shapes are collapsed to one occurrence and the
  distinct shapes are sorted — so a result list with 3 rows and one with
  30 rows fingerprint identically, and reorderings of independent
  sections do not produce spurious template splits.

The shape is computed in one flat loop over a page's
:func:`~repro.htmlkit.dom.freeze` snapshot, so a cached snapshot is
fingerprinted without building a tree, and no depth exceeds the
recursion limit.

``pages_fingerprint`` folds a whole source (several pages of one
template) into a single fingerprint by majority vote, so one anomalous
page cannot shift the source's registry key.  It takes the per-page
fingerprint function as an argument, so a caller holding cached per-page
fingerprints votes over those instead of re-walking every tree.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence, TypeVar

from repro.errors import HtmlParseError
from repro.htmlkit.dom import _CLOSE, Element, Snapshot, freeze

#: Bumped whenever the shape function changes; part of the hashed text so
#: fingerprints from different algorithm versions can never collide.
FINGERPRINT_VERSION = 1


def snapshot_shape(snapshot: Snapshot) -> str:
    """The shape string of the tree a :func:`freeze` snapshot holds.

    One pass over the records: an element's prefix and the set of its
    children's shapes wait on a stack until its close record.
    """
    records = iter(snapshot)
    shapes: set[str] = set()
    prefixes: list[str] = []
    outer: list[set[str]] = []
    for record in records:
        if type(record) is str:
            shapes.add("t")
        elif record == _CLOSE:
            shape = f"{prefixes.pop()}({';'.join(sorted(shapes))})"
            shapes = outer.pop()
            shapes.add(shape)
        else:
            tag = next(records)
            if record:
                names = []
                class_value = ""
                for __ in range(record):  # type: ignore[arg-type]
                    name = next(records)
                    value = next(records)
                    if name == "class":
                        class_value = value
                    else:
                        names.append(name)
                names.sort()
                prefixes.append(f"{tag}.{class_value}[{','.join(names)}]")
            else:
                prefixes.append(f"{tag}.[]")
            outer.append(shapes)
            shapes = set()
    (shape,) = shapes
    return shape


def snapshot_fingerprint(snapshot: Snapshot) -> str:
    """SHA-256 fingerprint of the page a :func:`freeze` snapshot holds."""
    text = f"{FINGERPRINT_VERSION}\n{snapshot_shape(snapshot)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def structural_fingerprint(page: Element) -> str:
    """SHA-256 fingerprint of a page's template shape.

    Record-count-invariant and content-invariant: pages produced by the
    same template (same nesting of tags/classes, any number of repeated
    records, any text) hash identically.
    """
    return snapshot_fingerprint(freeze(page))


#: Whatever stands for one page in :func:`pages_fingerprint`.
_PageT = TypeVar("_PageT")


def pages_fingerprint(
    pages: Sequence[_PageT],
    fingerprint_of: Callable[[_PageT], str] = structural_fingerprint,
) -> str:
    """Fingerprint of a multi-page source: majority vote over the pages.

    ``fingerprint_of`` gives one page's fingerprint; by default it walks
    the page tree with :func:`structural_fingerprint`.  Ties break to the
    lexicographically smallest fingerprint so the result never depends on
    page order.  Raises :class:`~repro.errors.HtmlParseError` on an empty
    sequence (a source with no pages has no template).
    """
    if not pages:
        raise HtmlParseError("cannot fingerprint an empty page sequence")
    counts: dict[str, int] = {}
    for page in pages:
        fp = fingerprint_of(page)
        counts[fp] = counts.get(fp, 0) + 1
    top = max(counts.values())
    return min(fp for fp, n in counts.items() if n == top)
