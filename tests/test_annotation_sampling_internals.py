"""Internals of Algorithm 1: narrowing, ordering and block rates."""

from repro.annotation.sampling import (
    SampleSelectionConfig,
    _BlockTally,
    _order_types,
    select_sample,
)
from repro.annotation.annotator import AnnotatedPage, PageAnnotator
from repro.htmlkit.tidy import tidy
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.predefined import predefined_recognizer


def page_with(artist=None, extra=""):
    inner = f"<div>{artist}</div>" if artist else "<div>nothing</div>"
    return tidy(f"<body><div id='m'><li>{inner}{extra}</li></div></body>")


class TestTypeOrdering:
    def test_gazetteers_before_predefined(self):
        gazetteer = GazetteerRecognizer("artist", ["A very distinctive name"])
        date = predefined_recognizer("date")
        ordered = _order_types([date, gazetteer], None)
        assert ordered[0] is gazetteer

    def test_selectivity_orders_within_group(self):
        # Eq. 2 damps instances by term frequency: a dictionary of common
        # strings is less selective than one of rare strings.
        sharp = GazetteerRecognizer("venue", ["Orpheum Hall", "Vega Dome"])
        blunt = GazetteerRecognizer("tag", ["new", "sale", "the"])
        common_words = {"new", "sale", "the"}

        def term_frequency(value):
            return 50.0 if value.lower() in common_words else 1.0

        ordered = _order_types([blunt, sharp], term_frequency)
        assert ordered[0] is sharp

    def test_predefined_selectivity_ordering(self):
        isbn = predefined_recognizer("isbn")
        year = predefined_recognizer("year")
        ordered = _order_types([year, isbn], None)
        assert ordered[0] is isbn  # ISBNs are far rarer than years


class TestBlockRates:
    def test_rates_average_over_pages(self):
        pages = []
        annotator = PageAnnotator()
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        for i in range(4):
            root = page_with("Muse" if i < 2 else None)
            annotated = AnnotatedPage(root=root, index=i)
            annotator.annotate(annotated, gazetteer)
            pages.append(annotated)
        # Without segmentation each page body is one block.
        rates = _BlockTally(pages, None).rates(pages)
        # Two pages with (li+div+text-parent chain) annotations, two without.
        assert 0 < rates["page-body"] <= 3

    def test_empty_pages(self):
        assert _BlockTally([], None).rates([]) == {}


class TestNarrowing:
    def test_candidates_shrink_between_rounds(self):
        # 40 pages, only 10 of which carry artist hits: after the artist
        # round only rich pages should still be annotated with dates.
        artists = GazetteerRecognizer("artist", [f"Band {i}" for i in range(10)])
        date = predefined_recognizer("date", type_name="date")
        pages = []
        for i in range(40):
            artist = f"Band {i}" if i < 10 else None
            extra = "<span>May 11, 2010</span>"
            pages.append(page_with(artist, extra))
        run = select_sample(
            "narrowing",
            pages,
            [artists, date],
            config=SampleSelectionConfig(
                sample_size=5, narrowing_factor=0.3, min_candidates=10,
                enforce_alpha=False,
            ),
        )
        assert len(run.sample) == 5
        # The sample is drawn from the artist-bearing pages.
        assert all(page.index < 10 for page in run.sample)

    def test_sample_never_exceeds_page_count(self):
        pages = [page_with("Muse") for __ in range(3)]
        run = select_sample(
            "small",
            pages,
            [GazetteerRecognizer("artist", ["Muse"])],
            config=SampleSelectionConfig(sample_size=20, enforce_alpha=False),
        )
        assert len(run.sample) == 3
