"""The support loop shares its classes, measurements and wrappers exactly.

The wrapping stage carries one :class:`~repro.wrapper.generate.WrapperSample`
through its support loop: the equivalence classes are found once (at the
smallest support) and filtered for larger ones, each candidate record
class is measured once, and a record class already turned into a wrapper
is reused with the current support.  ``tests/wrapper_sweep_reference.py``
keeps the loop as it was, recomputing everything per support.

- A differential suite runs both loops over every scale-0.1 catalog source
  that reaches wrapping, under several support orders, and over random
  annotated samples, and compares the serialized wrapper, the support
  used, conflicts, supports attempted, the discard stage and reason, and
  the loop's counters.
- Hypothesis suites check each exactness claim on random tokenized pages:
  filtered classes equal recomputed ones, the min-sum similarity equals
  the Counter form, the equal-sequence alignment equals the DP, and the
  bisected spans equal the linear scan.
- A counting suite backs the complexity claims of the docstrings, and
  two Figure-3 cases check that a reused wrapper carries its own support
  and that a reused discard is raised again.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wrapper.generate as generate_module
import repro.wrapper.records as records_module
from repro.annotation.annotator import annotate_page
from repro.core import ObjectRunner, RunParams
from repro.core.pipeline import PipelineContext
from repro.core.stages.wrap import WrapperGenerationStage
from repro.datasets import catalog_entries, domain_spec
from repro.datasets.knowledge import completion_entries
from repro.errors import SourceDiscardedError
from repro.htmlkit.dom import Element, Text
from repro.metrics.bench import DICTIONARY_COVERAGE, CatalogCache
from repro.sod import parse_sod
from repro.wrapper.alignment import TemplateBuilder, _lcs_align
from repro.wrapper.equivalence import find_equivalence_classes
from repro.wrapper.generate import (
    WrapperConfig,
    WrapperSample,
    annotation_types_on,
    generate_wrapper,
)
from repro.wrapper.matching import MatchResult
from repro.wrapper.records import SupportSweep, _similarity
from repro.wrapper.serialize import wrapper_to_dict
from repro.wrapper.tokens import TokenTable, tokenize_element
from tests import wrapper_sweep_reference as reference

CATALOG_SCALE = 0.1

#: Support orders the loops are compared under: the default sweep, an
#: unsorted one (the classes must be computed at the smallest support,
#: not the first), a single support and a repeated one.
SUPPORT_SWEEPS = ((3, 4, 5), (5, 3, 4), (4,), (3, 3))


def _runner(cache, entry):
    domain = domain_spec(entry.spec.domain)
    knowledge = cache.knowledge(entry.spec.domain, DICTIONARY_COVERAGE)
    source = cache.source(entry)
    extra = completion_entries(
        domain,
        source.gold,
        coverage=DICTIONARY_COVERAGE,
        seed=("completion", entry.spec.name),
    )
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(),
        extra_gazetteer_entries=extra,
    )
    return runner, source


@pytest.fixture(scope="module")
def wrap_inputs():
    """(source, sample regions, SOD) of every catalog source that wraps."""
    captured = []

    def capture(self, ctx):
        # The inputs are all this suite needs: end the run here.
        captured.append((ctx.source, list(ctx.sample_regions), ctx.sod))
        raise SourceDiscardedError(ctx.source, stage="wrapper", reason="captured")

    cache = CatalogCache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WrapperGenerationStage, "run", capture)
        for entry in catalog_entries(scale=CATALOG_SCALE):
            runner, source = _runner(cache, entry)
            runner.run_source(entry.spec.name, source.pages)
    assert len(captured) >= 30
    return captured


def _loop_outcome(run_loop, inputs, support_values):
    """Everything the support loop decides, in comparable form."""
    source, regions, sod = inputs
    ctx = PipelineContext(
        source=source,
        params=RunParams(support_values=support_values),
        sod=sod,
        sample_regions=regions,
    )
    discard = None
    try:
        run_loop(ctx)
    except SourceDiscardedError as error:
        discard = (error.source, error.stage, error.reason)
    return {
        "wrapper": None if ctx.wrapper is None else wrapper_to_dict(ctx.wrapper),
        "support_used": ctx.result.support_used,
        "conflicts": ctx.result.conflicts,
        "supports_attempted": ctx.result.supports_attempted,
        "discard": discard,
        "wrappers_generated": ctx.counters["wrappers_generated"],
        "supports_tried": ctx.counters["supports_tried"],
    }


def _stage_loop(ctx):
    WrapperGenerationStage().run(ctx)


@pytest.mark.parametrize("support_values", SUPPORT_SWEEPS, ids=str)
def test_support_loop_matches_reference(wrap_inputs, support_values):
    wrapped = 0
    for inputs in wrap_inputs:
        expected = _loop_outcome(reference.run_support_loop, inputs, support_values)
        actual = _loop_outcome(_stage_loop, inputs, support_values)
        assert actual == expected, inputs[0]
        wrapped += expected["wrapper"] is not None
    assert wrapped


class _Spy:
    """Counts the calls of a module attribute (and their first argument)."""

    def __init__(self, patch, owner, name):
        self.calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls.append(args[0] if args else None)
            return real(*args, **kwargs)

        patch.setattr(owner, name, counting)


def test_one_record_class_is_computed_once(wrap_inputs):
    """A source trying supports 3, 4 and 5 that lands on one record class
    each time finds its classes once, measures each candidate once and
    builds one template."""
    checked = 0
    for source, regions, sod in wrap_inputs:
        with pytest.MonkeyPatch.context() as patch:
            classes = _Spy(patch, records_module, "find_equivalence_classes")
            measured = _Spy(patch, records_module, "_measure_candidate")
            built = _Spy(patch, TemplateBuilder, "build")
            chosen = []
            real_segment = generate_module.segment_records

            def spy_segment(*args, **kwargs):
                segmentation = real_segment(*args, **kwargs)
                chosen.append(segmentation and segmentation.record_class)
                return segmentation

            patch.setattr(generate_module, "segment_records", spy_segment)
            ctx = PipelineContext(
                source=source,
                params=RunParams(support_values=(3, 4, 5)),
                sod=sod,
                sample_regions=regions,
            )
            try:
                WrapperGenerationStage().run(ctx)
            except SourceDiscardedError:
                continue
        if ctx.result.supports_attempted != [3, 4, 5]:
            continue
        if chosen[0] is None or any(eq is not chosen[0] for eq in chosen):
            continue
        checked += 1
        assert len(classes.calls) == 1, source
        assert len(measured.calls) == len({id(eq) for eq in measured.calls})
        assert len(built.calls) == 1, source
        assert ctx.counters["wrappers_generated"] == 3
    assert checked, "no catalog source tries 3, 4 and 5 on one record class"


# -- exactness of each shared or rewritten computation ----------------------

_TAGS = ("div", "span", "li", "p")
_CLASSES = ("", "a", "b")
_WORDS = ("x", "y", "z", "by", "12")


@st.composite
def _element(draw, depth=0):
    tag = draw(st.sampled_from(_TAGS))
    css = draw(st.sampled_from(_CLASSES))
    element = Element(tag, {"class": css} if css else {})
    for __ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
        if draw(st.booleans()):
            words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
            element.append(Text(" ".join(words)))
        else:
            element.append(draw(_element(depth + 1)))
    return element


#: Entity types of the concert SOD, and no annotation (most text).
_ANNOTATIONS = (None, None, None, "artist", "date", "theater", "address")
_CONCERT_SOD = parse_sod(
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)


@st.composite
def _sample_regions(draw):
    """3-6 page regions, each a run of copies of a few random records.

    Every copy draws its own words and text annotations, as records of
    one template carry different values.
    """
    records = draw(st.lists(_element(), min_size=1, max_size=3))
    regions = []
    for __ in range(draw(st.integers(3, 6))):
        body = Element("body")
        for __ in range(draw(st.integers(0, 4))):
            record = records[draw(st.integers(0, len(records) - 1))]
            body.append(_instance(draw, record))
        regions.append(body)
    return regions


def _instance(draw, element):
    clone = Element(element.tag, dict(element.attributes))
    for child in element.children:
        if isinstance(child, Text):
            words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
            text = clone.append(Text(" ".join(words)))
            annotation = draw(st.sampled_from(_ANNOTATIONS))
            if annotation is not None:
                text.annotations.add(annotation)
        else:
            clone.append(_instance(draw, child))
    return clone


def _token_pages(regions):
    """The regions tokenized into one shared role table."""
    table = TokenTable()
    return [
        tokenize_element(region, page_index=index, table=table)
        for index, region in enumerate(regions)
    ]


_supports = st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_sample_regions(), _supports)
def test_support_loop_matches_reference_on_random_samples(regions, supports):
    inputs = ("random", regions, _CONCERT_SOD)
    assert _loop_outcome(_stage_loop, inputs, supports) == _loop_outcome(
        reference.run_support_loop, inputs, supports
    )


def _class_view(classes):
    return [
        (eq.vector, eq.roles, eq.ordered_roles, eq.valid, eq.invalid_reason)
        for eq in classes
    ]


@settings(max_examples=60, deadline=None)
@given(_sample_regions(), st.integers(1, 7), st.integers(0, 3))
def test_filtered_classes_equal_recomputed(regions, support, step):
    pages = _token_pages(regions)
    sweep = SupportSweep(pages, support)
    for larger in (support, support + step):
        assert _class_view(sweep.classes(larger)) == _class_view(
            find_equivalence_classes(pages, min_support=larger)
        )


@settings(max_examples=30, deadline=None)
@given(_sample_regions(), _supports)
def test_classes_in_any_support_order(regions, supports):
    pages = _token_pages(regions)
    sweep = SupportSweep(pages, supports[0])
    for support in supports:
        assert _class_view(sweep.classes(support)) == _class_view(
            find_equivalence_classes(pages, min_support=support)
        )


_profiles = st.dictionaries(
    st.integers(0, 8), st.integers(1, 5), max_size=6
).map(Counter)


@given(_profiles, _profiles)
def test_similarity_equals_counter_form(a, b):
    assert _similarity(a, b) == reference._similarity(a, b)


_shapes = st.lists(
    st.sampled_from([("elem", "div", ""), ("elem", "span", "a"), ("text",)]),
    max_size=10,
)


@given(_shapes)
def test_equal_sequences_align_as_the_dp_does(shapes):
    assert _lcs_align(shapes, list(shapes)) == reference.lcs_align_dp(
        shapes, list(shapes)
    )


@settings(max_examples=60, deadline=None)
@given(_sample_regions())
def test_bisected_spans_equal_linear_scan(regions):
    pages = _token_pages(regions)
    for eq in find_equivalence_classes(pages, min_support=1):
        for page in pages:
            assert eq.spans(page) == reference.linear_spans(eq, page)


# -- reuse of a record class's outcome --------------------------------------


@pytest.fixture()
def figure3_sample(figure3_pages, figure3_recognizers):
    for page in figure3_pages:
        annotate_page(page, figure3_recognizers)
    sample = WrapperSample(
        _token_pages(figure3_pages),
        annotation_types_on(figure3_pages),
        min_support=2,
    )
    return figure3_pages, sample


def test_reused_wrapper_carries_its_support(figure3_sample, monkeypatch):
    pages, sample = figure3_sample
    built = _Spy(monkeypatch, TemplateBuilder, "build")
    wrappers = [
        generate_wrapper(
            "figure3", pages, _CONCERT_SOD, WrapperConfig(support=support),
            sample=sample,
        )
        for support in (2, 3, 2)
    ]
    assert len(built.calls) == 1
    assert [wrapper.support for wrapper in wrappers] == [2, 3, 2]
    assert len({id(wrapper) for wrapper in wrappers}) == 3
    fresh = generate_wrapper("figure3", pages, _CONCERT_SOD, WrapperConfig(support=3))
    assert wrapper_to_dict(wrappers[1]) == wrapper_to_dict(fresh)


def test_reused_discard_is_raised_again(figure3_sample, monkeypatch):
    pages, sample = figure3_sample
    # An unmatched SOD under enforce_match discards after the template is
    # built: the outcome cached for the record class is that discard.
    monkeypatch.setattr(
        generate_module, "match_sod", lambda *args: MatchResult(missing=["artist"])
    )
    built = _Spy(monkeypatch, TemplateBuilder, "build")
    discards = []
    for support in (2, 3, 2):
        with pytest.raises(SourceDiscardedError) as excinfo:
            generate_wrapper(
                "figure3",
                pages,
                _CONCERT_SOD,
                WrapperConfig(support=support, enforce_match=True),
                sample=sample,
            )
        error = excinfo.value
        discards.append((error.source, error.stage, error.reason))
    assert len(built.calls) == 1
    assert discards == [discards[0]] * 3
    assert discards[0][1:] == ("wrapper", "SOD not fully matched; missing ['artist']")
