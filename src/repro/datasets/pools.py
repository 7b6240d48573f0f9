"""Entity pools: deterministic, realistic-looking value generators.

Each pool function returns a list of distinct strings, stable across runs
for a given size.  The pools feed both the gold records (what pages show)
and the domain knowledge (what dictionaries contain) — their overlap is
controlled by the dictionary-coverage knob in :mod:`knowledge`.
"""

from __future__ import annotations

from repro.utils.rng import DeterministicRng

_FIRST_NAMES = [
    "Alice", "Brian", "Carmen", "Derek", "Elena", "Felix", "Grace", "Hugo",
    "Irene", "Jonas", "Katya", "Liam", "Marta", "Nils", "Olivia", "Pavel",
    "Quinn", "Rosa", "Stefan", "Tara", "Umar", "Vera", "Wade", "Ximena",
    "Yusuf", "Zora", "Amelie", "Boris", "Clara", "Dmitri",
]

_LAST_NAMES = [
    "Almeida", "Barnett", "Castellano", "Dupont", "Eriksen", "Fontaine",
    "Gallagher", "Hoffman", "Ivanova", "Jankowski", "Kaufman", "Lindgren",
    "Moretti", "Novak", "Okafor", "Petrov", "Quiroga", "Rasmussen",
    "Silveira", "Takahashi", "Ulrich", "Vasquez", "Whitfield", "Xiang",
    "Yamamoto", "Zielinski", "Anand", "Bergstrom", "Costa", "Delacroix",
]

_BAND_ADJECTIVES = [
    "Electric", "Crimson", "Silent", "Velvet", "Neon", "Midnight", "Golden",
    "Savage", "Lunar", "Frozen", "Wild", "Paper", "Iron", "Hollow", "Scarlet",
    "Radiant", "Broken", "Cosmic", "Rusty", "Phantom",
]

_BAND_NOUNS = [
    "Foxes", "Harbor", "Monarchs", "Static", "Lanterns", "Arcade", "Tigers",
    "Meridian", "Pilots", "Orchard", "Canyons", "Sirens", "Voltage",
    "Parade", "Wolves", "Cathedral", "Engines", "Mirrors", "Comets",
    "Gardens",
]

_VENUE_PREFIXES = [
    "Riverside", "Grand", "Apollo", "Majestic", "Orpheum", "Crystal",
    "Liberty", "Starlight", "Palace", "Union", "Harbor", "Summit",
    "Centennial", "Paramount", "Royal", "Sunset", "Empire", "Fountain",
    "Meridian", "Aurora",
]

_VENUE_SUFFIXES = [
    "Ballroom", "Hall", "Theater", "Arena", "Amphitheater", "Auditorium",
    "Pavilion", "Garden", "Lounge", "Stage",
]

_TITLE_ADJECTIVES = [
    "Silent", "Endless", "Forgotten", "Hidden", "Burning", "Distant",
    "Golden", "Shattered", "Quiet", "Restless", "Fading", "Brilliant",
    "Hollow", "Sacred", "Wandering", "Frozen", "Electric", "Crimson",
    "Invisible", "Paper",
]

_TITLE_NOUNS = [
    "Rivers", "Horizon", "Letters", "Kingdom", "Shadows", "Gardens",
    "Voyage", "Winter", "Machines", "Secrets", "Harvest", "Mirrors",
    "Empire", "Islands", "Thunder", "Lanterns", "Promises", "Compass",
    "Orchard", "Echoes",
]

_STREET_NAMES = [
    "Maple", "Oak", "Cedar", "Delancey", "Bleecker", "Mercer", "Spring",
    "Grove", "Harrison", "Franklin", "Willow", "Juniper", "Magnolia",
    "Chestnut", "Sycamore", "Bowery", "Carmine", "Vesey", "Lafayette",
    "Mulberry",
]

_STREET_SUFFIXES = ["St", "Ave", "Blvd", "Rd", "Lane", "Plaza", "Drive"]

_CITIES = [
    ("New York City", "New York", "100"),
    ("Chicago", "Illinois", "606"),
    ("Austin", "Texas", "787"),
    ("Seattle", "Washington", "981"),
    ("Portland", "Oregon", "972"),
    ("Boston", "Massachusetts", "021"),
    ("Denver", "Colorado", "802"),
    ("Nashville", "Tennessee", "372"),
]

_PUB_TECHNIQUES = [
    "Adaptive Indexing", "Incremental Clustering", "Distributed Sampling",
    "Probabilistic Pruning", "Streaming Aggregation", "Parallel Joins",
    "Approximate Matching", "Declarative Crawling", "Schema Mapping",
    "Entity Resolution", "Query Rewriting", "Workload Forecasting",
    "Cache-Oblivious Layouts", "Cost-Based Planning", "Lazy Materialization",
]

_PUB_PROBLEMS = [
    "Web-Scale Extraction", "Skewed Workloads", "Sensor Archives",
    "Graph Analytics", "Versioned Repositories", "Federated Catalogs",
    "Interactive Exploration", "Noisy Dictionaries", "Hidden-Web Sources",
    "Temporal Databases", "Columnar Stores", "Scientific Workflows",
    "Keyword Search", "Provenance Tracking", "Crowdsourced Curation",
]

_CAR_BRANDS = [
    "Toyota", "Honda", "Ford", "Chevrolet", "Nissan", "Volkswagen", "Subaru",
    "Mazda", "Hyundai", "Kia", "Audi", "Volvo", "Jeep", "Lexus", "Acura",
    "Chrysler", "Dodge", "Buick", "Pontiac", "Mitsubishi",
]


def _unique(values: list[str], limit: int) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
        if len(out) >= limit:
            break
    return out


def artist_pool(size: int = 300, seed: str = "artists") -> list[str]:
    """Band/performer names: "Adjective Nouns" and "The X Y" patterns."""
    rng = DeterministicRng(seed)
    values: list[str] = []
    for adjective in _BAND_ADJECTIVES:
        for noun in _BAND_NOUNS:
            pattern = rng.choice(["{a} {n}", "The {a} {n}", "{n} of {a}"])
            values.append(pattern.format(a=adjective, n=noun))
    return _unique(rng.shuffled(values), size)


def venue_pool(size: int = 150, seed: str = "venues") -> list[str]:
    """Concert venue names."""
    rng = DeterministicRng(seed)
    values = [
        f"{prefix} {suffix}"
        for prefix in _VENUE_PREFIXES
        for suffix in _VENUE_SUFFIXES
    ]
    return _unique(rng.shuffled(values), size)


def person_pool(size: int = 400, seed: str = "people") -> list[str]:
    """Author/artist person names."""
    rng = DeterministicRng(seed)
    values = [
        f"{first} {last}" for first in _FIRST_NAMES for last in _LAST_NAMES
    ]
    return _unique(rng.shuffled(values), size)


def title_pool(size: int = 500, seed: str = "titles") -> list[str]:
    """Book/album titles."""
    rng = DeterministicRng(seed)
    values: list[str] = []
    for adjective in _TITLE_ADJECTIVES:
        for noun in _TITLE_NOUNS:
            pattern = rng.choice(
                ["The {a} {n}", "{a} {n}", "{n} of the {a}", "A {a} {n}"]
            )
            values.append(pattern.format(a=adjective, n=noun))
    return _unique(rng.shuffled(values), size)


def publication_title_pool(size: int = 400, seed: str = "pubs") -> list[str]:
    """Academic paper titles."""
    rng = DeterministicRng(seed)
    values: list[str] = []
    for technique in _PUB_TECHNIQUES:
        for problem in _PUB_PROBLEMS:
            pattern = rng.choice(
                ["{t} for {p}", "On {t} in {p}", "{t}: A Study of {p}",
                 "Towards {t} over {p}"]
            )
            values.append(pattern.format(t=technique, p=problem))
    return _unique(rng.shuffled(values), size)


def car_brand_pool(size: int = 20, seed: str = "brands") -> list[str]:
    """Car makes."""
    __ = seed
    return list(_CAR_BRANDS[:size])


def street_address(rng: DeterministicRng) -> str:
    """One street address like "237 Delancey St"."""
    number = rng.randint(1, 999)
    name = rng.choice(_STREET_NAMES)
    suffix = rng.choice(_STREET_SUFFIXES)
    return f"{number} {name} {suffix}"


def city_state_zip(rng: DeterministicRng) -> tuple[str, str, str]:
    """A (city, state, zip) triple with a plausible zip prefix."""
    city, state, zip_prefix = rng.choice(_CITIES)
    return city, state, f"{zip_prefix}{rng.randint(10, 99)}"


_MONTHS = [
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
]
_WEEKDAYS = [
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday",
    "Sunday",
]


def event_date(rng: DeterministicRng, with_year: bool = True) -> str:
    """A concert-style date: "Saturday August 8, 2010 8:00pm"."""
    weekday = rng.choice(_WEEKDAYS)
    month = rng.choice(_MONTHS)
    day = rng.randint(1, 28)
    hour = rng.randint(1, 11)
    minute = rng.choice(["00", "30"])
    suffix = rng.choice(["pm", "p"])
    if with_year:
        year = rng.randint(2009, 2011)
        return f"{weekday} {month} {day}, {year} {hour}:{minute}{suffix}"
    return f"{weekday} {month} {day} {hour}:{minute}{suffix}"


def release_date(rng: DeterministicRng) -> str:
    """A release/publication date: "March 14, 2010"."""
    month = rng.choice(_MONTHS)
    return f"{month} {rng.randint(1, 28)}, {rng.randint(1995, 2011)}"


def price(rng: DeterministicRng, low: float = 5.0, high: float = 60.0) -> str:
    """A price string: "$12.99"."""
    value = rng.uniform(low, high)
    return f"${value:.2f}"


def car_price(rng: DeterministicRng) -> str:
    """A car price: "$18,450"."""
    value = rng.randint(4, 45) * 1000 + rng.randint(0, 9) * 100 + 50
    return f"${value:,}"
