"""Site specification and HTML page rendering.

Every source is a :class:`SiteSpec`; :func:`generate_source` renders its
gold objects into template-based HTML pages.  Sites differ in markup
idioms (record tags, classes, label texts, chrome), and the *archetype*
selects the structural phenomenon the paper associates with extraction
outcomes:

- ``clean`` — every attribute in its own element; correct extraction is
  structurally possible.
- ``partial_inline`` — two attributes rendered inside one text node
  ("TITLE by AUTHOR"), the paper's partially-correct case (i).
- ``mixed_structure`` — two attributes swap positions record-to-record
  with identical markup, producing mixed columns (incorrect case).
- ``unstructured`` — no template at all (blog-like prose); the annotation
  gate should discard such sources (the paper's emusic row).
"""

from __future__ import annotations

import html as _htmlmod
from dataclasses import dataclass, field

from repro.datasets.domains import DomainSpec
from repro.datasets.golden import GoldObject, generate_gold
from repro.utils.rng import DeterministicRng

@dataclass(frozen=True)
class SiteSpec:
    """Configuration of one generated source."""

    name: str
    domain: str
    page_type: str = "list"  # "list" | "detail"
    #: "clean" | "partial_inline" | "partial_inline_plus" |
    #: "mixed_structure" | "unstructured"
    archetype: str = "clean"
    optional_present: bool = True
    total_objects: int = 100
    records_per_page: tuple[int, int] = (8, 12)
    #: Fixed record count per page (the "too regular" lists that defeat
    #: RoadRunner).  When set, records_per_page is ignored.
    constant_record_count: int | None = None
    #: Attributes rendered jointly (partial_inline) or swapped
    #: (mixed_structure); empty means a domain-specific default.
    affected_attributes: tuple[str, ...] = ()
    seed: int | str = 0


@dataclass
class GeneratedSource:
    """One rendered source: HTML pages plus the aligned golden standard."""

    spec: SiteSpec
    pages: list[str]
    gold: list[GoldObject]
    domain: DomainSpec


_CHROME_LINKS = ["Home", "Browse", "Deals", "About", "Help", "Contact"]
_NOISE_SNIPPETS = [
    "In Stock", "Free shipping on qualified orders", "Bestseller",
    "Limited time offer", "Customer favorite", "New arrival",
]
_SIDEBAR_ITEMS = [
    "Top rated this week", "Editors picks", "Staff selection",
    "Most wished for", "Recently viewed", "Trending now", "Award winners",
]

_PROSE = [
    "I spent the whole weekend digging through old records at the flea market.",
    "Here are some rambling thoughts about what I listened to lately.",
    "The venue smelled like rain and old carpet but the sound was perfect.",
    "My cousin swears the second pressing sounds warmer, who knows.",
    "We drove four hours and the opening act had already finished.",
    "This post has no particular structure, much like my shelves.",
    "Someone in the crowd kept shouting requests nobody could hear.",
]


def _esc(text: str) -> str:
    return _htmlmod.escape(text, quote=False)


@dataclass
class _SiteStyle:
    """Per-site markup idioms, drawn deterministically from the site seed."""

    record_tag: str = "li"
    region_tag: str = "div"
    region_class: str = "results"
    field_tag: str = "div"
    value_tag: str = "span"
    title_in_anchor: bool = True
    label_prefixes: dict[str, str] = field(default_factory=dict)
    field_classes: dict[str, str] = field(default_factory=dict)
    noise_fields: int = 1
    sidebar: bool = True


def _draw_style(spec: SiteSpec, domain: DomainSpec) -> _SiteStyle:
    rng = DeterministicRng(spec.seed).fork("style", spec.name)
    style = _SiteStyle()
    style.record_tag = rng.choice(["li", "div", "tr"]) if spec.page_type == "list" else "div"
    if style.record_tag == "tr":
        style.record_tag = "li"  # keep table-free markup; tr needs a table shell
    style.region_class = rng.choice(["results", "items", "listing", "content-main"])
    style.field_tag = rng.choice(["div", "p"])
    style.value_tag = rng.choice(["span", "em"])
    style.title_in_anchor = rng.coin(0.7)
    style.noise_fields = rng.randint(0, 2)
    style.sidebar = rng.coin(0.7)
    for attribute in domain.attributes:
        if rng.coin(0.35):
            style.label_prefixes[attribute] = rng.choice(
                {
                    "price": ["Price: ", "Our price: ", "Only "],
                    "date": ["Released ", "Date: ", "On "],
                    "artist": ["by ", "Artist: "],
                    "authors": ["by ", "Authors: "],
                    "brand": ["Make: "],
                    "theater": ["at "],
                    "address": [""],
                }.get(attribute, ["", ""])
            )
        style.field_classes[attribute] = rng.choice(
            ["", attribute, f"{attribute}-cell", "info"]
        )
    return style


def _attr_div(
    style: _SiteStyle, attribute: str, inner_html: str
) -> str:
    cls = style.field_classes.get(attribute, "")
    cls_attr = f' class="{cls}"' if cls else ""
    return f"<{style.field_tag}{cls_attr}>{inner_html}</{style.field_tag}>"


def _plain_div(style: _SiteStyle, inner_html: str) -> str:
    """A field container with *no* distinguishing class.

    mixed_structure sources render the affected attribute and its noise
    twin this way, so nothing but document position tells them apart —
    the precondition for role-mixing extraction errors.
    """
    return f"<{style.field_tag}>{inner_html}</{style.field_tag}>"


_MIX_NOISE_VALUES = [
    "Ships within 24 hours", "Member exclusive", "Hot this season",
    "Verified listing", "Staff recommended", "While supplies last",
]


def _mixed_swap_pair(
    style: _SiteStyle, value_html: str, rng: DeterministicRng
) -> list[str]:
    """The affected attribute and a noise twin, in random order."""
    noise = _plain_div(style, _esc(rng.choice(_MIX_NOISE_VALUES)))
    value = _plain_div(style, value_html)
    return [noise, value] if rng.coin(0.5) else [value, noise]


def _value_html(style: _SiteStyle, attribute: str, value: str) -> str:
    prefix = style.label_prefixes.get(attribute, "")
    return f"{_esc(prefix)}{_esc(value)}"


# -- per-domain record rendering ------------------------------------------


def _affected(spec: SiteSpec, default: tuple[str, ...]) -> set[str]:
    return set(spec.affected_attributes or default)


def _render_attr(
    style: _SiteStyle,
    spec: SiteSpec,
    rng: DeterministicRng,
    attribute: str,
    value_html: str,
    affected: set[str],
) -> list[str]:
    """Render one attribute, applying the mixed-structure swap if affected."""
    if spec.archetype == "mixed_structure" and attribute in affected:
        return _mixed_swap_pair(style, value_html, rng)
    return [_attr_div(style, attribute, value_html)]


def _concert_record(
    style: _SiteStyle, gold: GoldObject, rng: DeterministicRng, spec: SiteSpec
) -> str:
    location = gold.values["location"]
    theater = location["theater"]
    address = location.get("address")
    artist = gold.values["artist"]
    date = gold.values["date"]
    affected = _affected(spec, ("date",))

    parts: list[str] = []
    if spec.archetype == "partial_inline":
        parts.append(_attr_div(style, "artist", _value_html(style, "artist", f"{artist} - {date}")))
    else:
        parts.extend(
            _render_attr(style, spec, rng, "artist", _value_html(style, "artist", artist), affected)
        )
        parts.extend(
            _render_attr(style, spec, rng, "date", _value_html(style, "date", date), affected)
        )
    theater_html = (
        f"<a>{_esc(theater)}</a>" if style.title_in_anchor else _esc(theater)
    )
    if spec.archetype == "partial_inline" and "theater" in affected:
        # eventful-style markup: the venue sits in a plain span that swaps
        # position with an equally plain promo span -> mixed extraction.
        noise = _esc(rng.choice(_MIX_NOISE_VALUES))
        pair = [f"<span>{_esc(theater)}</span>", f"<span>{noise}</span>"]
        spans = pair if rng.coin(0.5) else pair[::-1]
    else:
        spans = [f"<span>{theater_html}</span>"]
    if address is not None:
        street, zip_code = address.rsplit(" ", 1)
        spans.append(f"<span>{_esc(street)}</span>")
        spans.append("<span>New York City</span>")
        spans.append("<span>New York</span>")
        spans.append(f"<span>{_esc(zip_code)}</span>")
    parts.append(_attr_div(style, "theater", "".join(spans)))
    return "".join(parts)


def _album_record(
    style: _SiteStyle, gold: GoldObject, rng: DeterministicRng, spec: SiteSpec
) -> str:
    title = gold.values["title"]
    artist = gold.values["artist"]
    price = gold.values["price"]
    date = gold.values.get("date")

    affected = _affected(spec, ("artist",))
    parts: list[str] = []
    if spec.archetype in ("partial_inline", "partial_inline_plus"):
        parts.append(
            _attr_div(style, "title", _value_html(style, "title", f"{title} by {artist}"))
        )
        if spec.archetype == "partial_inline_plus":
            # The artist also gets its own field (walmart-style markup):
            # the joined title stays partial, the artist extracts cleanly.
            parts.append(
                _attr_div(style, "artist", _value_html(style, "artist", artist))
            )
    else:
        title_html = f"<a>{_esc(title)}</a>" if style.title_in_anchor else _esc(title)
        parts.extend(_render_attr(style, spec, rng, "title", title_html, affected))
        parts.extend(
            _render_attr(style, spec, rng, "artist", _value_html(style, "artist", artist), affected)
        )
    parts.extend(
        _render_attr(style, spec, rng, "price", _value_html(style, "price", price), affected)
    )
    if date is not None:
        parts.extend(
            _render_attr(style, spec, rng, "date", _value_html(style, "date", date), affected)
        )
    return "".join(parts)


def _book_record(
    style: _SiteStyle, gold: GoldObject, rng: DeterministicRng, spec: SiteSpec
) -> str:
    title = gold.values["title"]
    authors = gold.values["authors"]
    price = gold.values["price"]
    date = gold.values.get("date")

    affected = _affected(spec, ("date",))
    parts: list[str] = []
    if spec.archetype == "partial_inline":
        joined = f"{title} by {', '.join(authors)}"
        parts.append(_attr_div(style, "title", _value_html(style, "title", joined)))
    else:
        title_html = f"<a>{_esc(title)}</a>" if style.title_in_anchor else _esc(title)
        parts.extend(_render_attr(style, spec, rng, "title", title_html, affected))
        author_spans = "".join(
            f'<span class="author">{_esc(author)}</span>' for author in authors
        )
        parts.extend(
            _render_attr(style, spec, rng, "authors", author_spans, affected)
        )
    parts.extend(
        _render_attr(style, spec, rng, "price", _value_html(style, "price", price), affected)
    )
    if date is not None:
        parts.extend(
            _render_attr(style, spec, rng, "date", _value_html(style, "date", date), affected)
        )
    return "".join(parts)


def _publication_record(
    style: _SiteStyle, gold: GoldObject, rng: DeterministicRng, spec: SiteSpec
) -> str:
    title = gold.values["title"]
    authors = gold.values["authors"]
    date = gold.values.get("date")

    affected = _affected(spec, ("date",))
    parts: list[str] = []
    if spec.archetype == "partial_inline":
        joined = f"{', '.join(authors)}. {title}"
        parts.append(_attr_div(style, "title", _value_html(style, "title", joined)))
    else:
        author_spans = "".join(
            f'<span class="author">{_esc(author)}</span>' for author in authors
        )
        parts.extend(
            _render_attr(style, spec, rng, "authors", author_spans, affected)
        )
        title_html = f"<a>{_esc(title)}</a>" if style.title_in_anchor else _esc(title)
        parts.extend(_render_attr(style, spec, rng, "title", title_html, affected))
    if date is not None:
        parts.extend(
            _render_attr(style, spec, rng, "date", _value_html(style, "date", date), affected)
        )
    return "".join(parts)


def _car_record(
    style: _SiteStyle, gold: GoldObject, rng: DeterministicRng, spec: SiteSpec
) -> str:
    brand = gold.values["brand"]
    price = gold.values["price"]
    model = rng.choice(
        ["Sierra", "Vista", "Pulse", "Summit", "Ranger", "Atlas", "Orbit"]
    )
    affected = _affected(spec, ("price",))
    parts: list[str] = []
    if spec.archetype == "partial_inline":
        parts.append(
            _attr_div(style, "brand", _value_html(style, "brand", f"{brand} {model} {price}"))
        )
    else:
        parts.extend(
            _render_attr(style, spec, rng, "brand", _value_html(style, "brand", brand), affected)
        )
        parts.append(_attr_div(style, "brand", f"<i>{_esc(model)}</i>"))
        parts.extend(
            _render_attr(style, spec, rng, "price", _value_html(style, "price", price), affected)
        )
    return "".join(parts)


_RECORD_RENDERERS = {
    "concerts": _concert_record,
    "albums": _album_record,
    "books": _book_record,
    "publications": _publication_record,
    "cars": _car_record,
}


# -- page shell -------------------------------------------------------------


def _chrome_header(spec: SiteSpec, rng: DeterministicRng) -> str:
    links = "".join(f"<a href=\"#\">{name}</a>" for name in _CHROME_LINKS)
    return (
        f"<header><h1>{_esc(spec.name)}</h1></header>"
        f"<nav>{links}</nav>"
    )


def _chrome_sidebar(rng: DeterministicRng) -> str:
    count = rng.randint(3, 6)
    items = "".join(
        f"<li>{_esc(rng.choice(_SIDEBAR_ITEMS))}</li>" for __ in range(count)
    )
    return f"<aside><h3>Highlights</h3><ul>{items}</ul></aside>"


def _chrome_footer(spec: SiteSpec) -> str:
    return (
        f"<footer><p>copyright 2010 {_esc(spec.name)} — all rights reserved."
        f" Terms of use. Privacy.</p>"
        f"<script>var tracker = 'x';</script></footer>"
    )


def _noise_html(style: _SiteStyle, rng: DeterministicRng) -> str:
    parts = []
    for __ in range(style.noise_fields):
        snippet = rng.choice(_NOISE_SNIPPETS)
        rating = f"{rng.randint(2, 5)}.{rng.randint(0, 9)} stars"
        parts.append(f"<{style.value_tag}>{_esc(snippet)}</{style.value_tag}>")
        if rng.coin(0.5):
            parts.append(f"<{style.value_tag}>{_esc(rating)}</{style.value_tag}>")
    return "".join(parts)


_SHIPPING_OPTIONS = [
    "Standard delivery 3-5 business days",
    "Express delivery available at checkout",
    "Ships from our central warehouse",
    "Free returns within 30 days",
]


def _detail_extras(rng: DeterministicRng) -> str:
    """The extra sections singleton pages carry (shipping details, etc.).

    The paper: detail pages "complement the list pages by giving more
    details (e.g., shipping details)".  Constant headings with varying
    bodies — data outside the SOD that a targeted extractor must ignore.
    """
    shipping = rng.choice(_SHIPPING_OPTIONS)
    stock = rng.randint(1, 40)
    return (
        "<div class='shipping'><h4>Shipping</h4>"
        f"<p>{_esc(shipping)}</p>"
        f"<p>Only {stock} left in stock</p></div>"
        "<div class='policies'><h4>Our policies</h4>"
        "<p>Secure payment. Satisfaction guaranteed.</p></div>"
    )


def _render_page(
    spec: SiteSpec,
    style: _SiteStyle,
    records_html: list[str],
    rng: DeterministicRng,
) -> str:
    records = "".join(
        f"<{style.record_tag}>{record}</{style.record_tag}>"
        for record in records_html
    )
    sidebar = _chrome_sidebar(rng) if style.sidebar else ""
    extras = _detail_extras(rng) if spec.page_type == "detail" else ""
    return (
        "<html><head><title>"
        + _esc(spec.name)
        + "</title></head><body>"
        + _chrome_header(spec, rng)
        + sidebar
        + f'<{style.region_tag} id="main" class="{style.region_class}">'
        + records
        + extras
        + f"</{style.region_tag}>"
        + _chrome_footer(spec)
        + "</body></html>"
    )


def _render_unstructured_page(spec: SiteSpec, rng: DeterministicRng) -> str:
    paragraph_count = rng.randint(3, 7)
    body_parts = [_chrome_header(spec, rng)]
    for __ in range(paragraph_count):
        depth = rng.randint(0, 2)
        text = " ".join(rng.choices(_PROSE, k=rng.randint(1, 3)))
        open_tags = "".join("<div>" for __ in range(depth))
        close_tags = "".join("</div>" for __ in range(depth))
        body_parts.append(f"{open_tags}<p>{_esc(text)}</p>{close_tags}")
    body_parts.append(_chrome_footer(spec))
    return "<html><body>" + "".join(body_parts) + "</body></html>"


def generate_source(spec: SiteSpec, domain: DomainSpec) -> GeneratedSource:
    """Render one source: gold objects first, then the pages showing them."""
    rng = DeterministicRng(spec.seed).fork("source", spec.name)

    if spec.archetype == "unstructured":
        page_count = max(10, spec.total_objects // 5)
        pages = [
            _render_unstructured_page(spec, rng.fork("page", index))
            for index in range(page_count)
        ]
        return GeneratedSource(spec=spec, pages=pages, gold=[], domain=domain)

    gold = generate_gold(
        domain,
        spec.total_objects,
        seed=(spec.seed, spec.name, "gold"),
        optional_present=spec.optional_present,
    )
    style = _draw_style(spec, domain)
    renderer = _RECORD_RENDERERS[domain.name]

    pages: list[str] = []
    cursor = 0
    page_index = 0
    while cursor < len(gold):
        if spec.page_type == "detail":
            batch = gold[cursor : cursor + 1]
        elif spec.constant_record_count is not None:
            batch = gold[cursor : cursor + spec.constant_record_count]
        else:
            low, high = spec.records_per_page
            batch = gold[cursor : cursor + rng.randint(low, high)]
        if not batch:
            break
        records_html = []
        for offset, gold_object in enumerate(batch):
            gold_object.page_index = page_index
            gold_object.index_in_page = offset
            record_rng = rng.fork("record", page_index, offset)
            record_html = renderer(style, gold_object, record_rng, spec)
            noise = _noise_html(style, record_rng)
            records_html.append(record_html + noise)
        pages.append(
            _render_page(spec, style, records_html, rng.fork("page", page_index))
        )
        cursor += len(batch)
        page_index += 1
    return GeneratedSource(spec=spec, pages=pages, gold=gold, domain=domain)
