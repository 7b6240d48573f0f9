"""Gold objects: the ground truth each generated source renders.

Objects are SOD-shaped dicts plus a flat attribute view for evaluation.
Generation is deterministic per (domain, source name, seed), so the pages
and the golden standard always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets import pools
from repro.datasets.domains import DomainSpec
from repro.utils.rng import DeterministicRng
from repro.utils.text import normalize_text


@dataclass
class GoldObject:
    """One ground-truth object.

    ``values`` mirrors the SOD structure (like extracted instances);
    ``flat`` maps attribute name -> list of leaf strings; ``page_index``
    records on which generated page the object is rendered.
    """

    values: dict
    flat: dict[str, list[str]] = field(default_factory=dict)
    page_index: int = -1
    index_in_page: int = -1

    def normalized_flat(self) -> dict[str, list[str]]:
        return {
            key: [normalize_text(value) for value in values]
            for key, values in self.flat.items()
        }


def _flatten(values: dict) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}

    def walk(name: str, node) -> None:
        if isinstance(node, str):
            out.setdefault(name, []).append(node)
        elif isinstance(node, list):
            for item in node:
                walk(name, item)
        elif isinstance(node, dict):
            for key, value in node.items():
                walk(key, value)

    for key, value in values.items():
        walk(key, value)
    return out


class _DomainPools:
    """Pools shared across sources of one run (built once at import)."""

    def __init__(self) -> None:
        self.artists = pools.artist_pool()
        self.venues = pools.venue_pool()
        self.people = pools.person_pool()
        self.titles = pools.title_pool()
        self.publication_titles = pools.publication_title_pool()
        self.brands = pools.car_brand_pool()

    def for_class(self, class_name: str) -> list[str]:
        """Pool for an ontology class name (see DomainSpec.gazetteer_classes)."""
        return {
            "Artist": self.artists,
            "Theater": self.venues,
            "Author": self.people,
            "Album": self.titles,
            "Book": self.titles,
            "Publication": self.publication_titles,
            "CarBrand": self.brands,
        }[class_name]


#: Built eagerly at import time so no function ever rebinds a
#: module-level name — gold generation is reachable from the bench
#: sweep's worker processes, and reprolint's P603 allowlists it as an
#: eager, never-written singleton whose per-worker copy is by design
#: (the same pattern as ``metrics.registry._DEFAULT_REGISTRY``).
_SHARED_POOLS = _DomainPools()


def shared_pools() -> _DomainPools:
    """The singleton pools instance (pools are deterministic anyway)."""
    return _SHARED_POOLS


def _gold_concert(rng: DeterministicRng, p: _DomainPools, with_optional: bool) -> dict:
    street = pools.street_address(rng)
    __, __, zip_code = pools.city_state_zip(rng)
    values = {
        "artist": rng.choice(p.artists),
        "date": pools.event_date(rng, with_year=rng.coin(0.5)),
        "location": {
            "theater": rng.choice(p.venues),
        },
    }
    if with_optional:
        # The address covers the street and zip fields the sites render;
        # city/state are site-constant template text.
        values["location"]["address"] = f"{street} {zip_code}"
    return values


def _gold_album(rng: DeterministicRng, p: _DomainPools, with_optional: bool) -> dict:
    values = {
        "title": rng.choice(p.titles),
        "artist": rng.choice(p.artists),
        "price": pools.price(rng),
    }
    if with_optional:
        values["date"] = pools.release_date(rng)
    return values


def _gold_book(rng: DeterministicRng, p: _DomainPools, with_optional: bool) -> dict:
    author_count = rng.weighted_choice([1, 2, 3], [0.6, 0.3, 0.1])
    values = {
        "title": rng.choice(p.titles),
        "price": pools.price(rng, 8.0, 45.0),
        "authors": rng.sample(p.people, author_count),
    }
    if with_optional:
        values["date"] = pools.release_date(rng)
    return values


def _gold_publication(
    rng: DeterministicRng, p: _DomainPools, with_optional: bool
) -> dict:
    author_count = rng.weighted_choice([1, 2, 3, 4], [0.3, 0.35, 0.25, 0.1])
    values = {
        "title": rng.choice(p.publication_titles),
        "authors": rng.sample(p.people, author_count),
    }
    if with_optional:
        values["date"] = pools.release_date(rng)
    return values


def _gold_car(rng: DeterministicRng, p: _DomainPools, with_optional: bool) -> dict:
    __ = with_optional
    return {
        "brand": rng.choice(p.brands),
        "price": pools.car_price(rng),
    }


_GENERATORS = {
    "concerts": _gold_concert,
    "albums": _gold_album,
    "books": _gold_book,
    "publications": _gold_publication,
    "cars": _gold_car,
}


def generate_gold(
    domain: DomainSpec,
    count: int,
    seed: int | str,
    optional_present: bool = True,
    optional_rate: float = 0.75,
) -> list[GoldObject]:
    """Generate ``count`` gold objects for a domain.

    ``optional_present=False`` omits the domain's optional attribute from
    every object (the "Optional: no" sources of Table I); otherwise each
    object carries it with probability ``optional_rate`` — real sources
    show optional attributes on *some* records, which is exactly what makes
    them optional.
    """
    rng = DeterministicRng(seed)
    generator = _GENERATORS[domain.name]
    pool = shared_pools()
    objects: list[GoldObject] = []
    for index in range(count):
        object_rng = rng.fork("object", index)
        with_optional = optional_present and object_rng.coin(optional_rate)
        values = generator(object_rng, pool, with_optional)
        objects.append(GoldObject(values=values, flat=_flatten(values)))
    return objects
