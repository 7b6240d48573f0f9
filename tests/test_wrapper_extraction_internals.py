"""Tests for extraction internals: level walking, iterators, fallbacks."""

from repro.annotation.annotator import annotate_page
from repro.htmlkit.dom import Element, Text
from repro.htmlkit.tidy import tidy
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.sod.dsl import parse_sod
from repro.wrapper.alignment import TemplateBuilder
from repro.wrapper.extraction import extract_objects, extract_record
from repro.wrapper.generate import Wrapper, WrapperConfig, generate_wrapper
from repro.wrapper.matching import MatchResult
from repro.wrapper.template import (
    ElementTemplate,
    FieldSlot,
    IteratorSlot,
    Template,
)


def li_records(sources, recognizers=None):
    records = []
    for source in sources:
        root = tidy(source)
        if recognizers:
            annotate_page(root, recognizers)
        records.append([root.find("li")])
    return records


class TestExtractRecord:
    def test_field_values_read_back(self):
        training = li_records(
            ["<li><div class='a'>one</div></li>", "<li><div class='a'>two</div></li>"]
        )
        template = TemplateBuilder().build(training)
        fresh = li_records(["<li><div class='a'>three</div></li>"])[0]
        values = extract_record(template, fresh)
        assert list(values.fields.values()) == [["three"]]

    def test_static_text_not_extracted(self):
        training = li_records(
            ["<li><span>In Stock</span><div>x</div></li>",
             "<li><span>In Stock</span><div>y</div></li>"]
        )
        template = TemplateBuilder().build(training)
        fresh = li_records(["<li><span>In Stock</span><div>z</div></li>"])[0]
        values = extract_record(template, fresh)
        extracted = [v for vs in values.fields.values() for v in vs]
        assert extracted == ["z"]

    def test_optional_column_absent(self):
        training = li_records(
            [
                "<li><div class='a'>x1</div><div class='b'>y1</div></li>",
                "<li><div class='a'>x2</div><div class='b'>y2</div></li>",
                "<li><div class='a'>x3</div></li>",
            ]
        )
        template = TemplateBuilder().build(training)
        short = li_records(["<li><div class='a'>solo</div></li>"])[0]
        values = extract_record(template, short)
        assert ["solo"] in values.fields.values()

    def test_iterator_units_extracted(self):
        training = li_records(
            [
                "<li><span class='a'>A</span></li>",
                "<li><span class='a'>B</span><span class='a'>C</span></li>",
                "<li><span class='a'>D</span><span class='a'>E</span>"
                "<span class='a'>F</span></li>",
            ]
        )
        template = TemplateBuilder().build(training)
        fresh = li_records(
            ["<li><span class='a'>P</span><span class='a'>Q</span></li>"]
        )[0]
        values = extract_record(template, fresh)
        (units,) = values.iterators.values()
        flattened = [v for unit in units for vs in unit.fields.values() for v in vs]
        assert flattened == ["P", "Q"]

    def test_whole_content_field_grabs_everything(self):
        # Chaotic inner structure collapses to one field; extraction must
        # concatenate the full level text.
        artist = GazetteerRecognizer("author", ["Jane Austen", "Mary Frey",
                                                "Abe Verghese", "Kim Stone"])
        training = li_records(
            [
                "<li><span>by <a>Jane Austen</a> and Fiona Stafford</span></li>",
                "<li><span>by Mary Frey</span></li>",
                "<li><span>by <a>Abe Verghese</a></span></li>",
                "<li><span>by Kim Stone, Ada Lively and Joe Crisp</span></li>",
            ],
            [artist],
        )
        template = TemplateBuilder().build(training)
        fresh = li_records(
            ["<li><span>by <a>New Author</a> and Friend</span></li>"]
        )[0]
        values = extract_record(template, fresh)
        extracted = " ".join(v for vs in values.fields.values() for v in vs)
        assert "New Author" in extracted
        assert "Friend" in extracted


class TestSegmentPageStyles:
    def test_sibling_run_segmentation(self):
        # Records without a wrapper element: runs of sibling divs delimited
        # by the opening role.
        page_html = (
            "<body><div id='m'>"
            + "".join(
                f"<div class='head'>title {i}</div><p>detail {i}</p>"
                for i in range(4)
            )
            + "</div></body>"
        )
        pages = [tidy(page_html) for __ in range(3)]
        gazetteer = GazetteerRecognizer(
            "title", [f"title {i}" for i in range(4)]
        )
        for page in pages:
            annotate_page(page, [gazetteer])
        sod = parse_sod("t(title)")
        wrapper = generate_wrapper("siblings", pages, sod, WrapperConfig(support=2))
        segments = wrapper.segment_page(pages[0])
        assert len(segments) == 4
        # Each record holds the heading and its detail paragraph.
        assert all(len(record) == 2 for record in segments)

    def test_single_element_segmentation(self, figure3_pages, figure3_recognizers):
        for page in figure3_pages:
            annotate_page(page, figure3_recognizers)
        sod = parse_sod(
            "concert(artist, date<kind=predefined>, location(theater))"
        )
        wrapper = generate_wrapper("fig3", figure3_pages, sod, WrapperConfig(support=2))
        assert wrapper.record_single_element
        for page in figure3_pages:
            for record in wrapper.segment_page(page):
                assert len(record) == 1
                assert record[0].tag == "li"


class TestTextUnitIterator:
    """An iterator whose unit is a bare field slot, not an element.

    Induction always builds element units, so only a hand-written wrapper
    reaches these paths: the ``("iter", "text")`` template shape, and the
    one-node unit level that reads a text run item by item.
    """

    @staticmethod
    def wrapper():
        # <li><b>title</b> tag tag ...</li>: the tags are a run of texts.
        template = Template(
            roots=[
                ElementTemplate(
                    "li",
                    children=[
                        ElementTemplate("b", children=[FieldSlot(0)]),
                        IteratorSlot(1, unit=FieldSlot(2)),
                    ],
                )
            ]
        )
        match = MatchResult(
            entity_to_slots={"title": [0]},
            set_to_iterator={"tags": 1},
            set_inner_slots={"tags": {"tag": [2]}},
            matched=True,
        )
        return Wrapper(
            source="books",
            sod=parse_sod("book(title, tags:{tag}*)"),
            template=template,
            match=match,
            record_tag="li",
            record_path="html/body/ul/li",
            record_class_attr="",
            record_single_element=True,
            is_list_source=True,
            support=3,
        )

    def test_each_text_of_the_run_is_a_unit(self):
        tidied = tidy(
            "<ul><li><b>Dune</b> science fiction</li><li><b>Emma</b></li></ul>"
        )
        # Tidying merges adjacent texts; a hand-built tree keeps them apart.
        built = Element(
            "html",
            children=[
                Element(
                    "body",
                    children=[
                        Element(
                            "ul",
                            children=[
                                Element(
                                    "li",
                                    children=[
                                        Element("b", children=[Text("Ulysses")]),
                                        Text("modernist"),
                                        Text(" "),
                                        Text("epic"),
                                    ],
                                )
                            ],
                        )
                    ],
                )
            ],
        )
        objects = extract_objects(self.wrapper(), [tidied, built], "books")
        assert [(item.page_index, item.values) for item in objects] == [
            (0, {"title": "Dune", "tags": ["science fiction"]}),
            (0, {"title": "Emma"}),
            (1, {"title": "Ulysses", "tags": ["modernist", "epic"]}),
        ]
