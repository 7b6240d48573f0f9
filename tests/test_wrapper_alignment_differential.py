"""Template alignment and extraction give exactly what they gave before
their per-record loops were cut down, and do the work their docstrings say.

``tests/wrapper_alignment_reference.py`` keeps the builder and the reading
of records as they were: every record builds its own items, runs an LCS
against the consensus, and re-plans every template level it is read
against.

- A differential suite runs every scale-0.1 catalog source through the
  runner and, for each source that wraps, checks that the reference
  builder gives the same ``wrapper_to_dict`` JSON (template, SOD match
  and discards) and the reference extraction the same objects.
- Hypothesis suites do the same on generated record lists (iterator runs
  of varying count, optional gap columns, empty text, nested markup,
  annotations), and check the early-stopping template affixes against
  :func:`~repro.wrapper.alignment.common_affixes`.
- A counting suite backs the cost claims: a record whose shape sequence
  equals the consensus costs no LCS, node annotations are read only for
  shapes whose count varies, and ``extract_objects`` computes each
  template node's shape once per call.
"""

import json
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.stages.extract as extract_stage
import repro.wrapper.alignment as alignment
import repro.wrapper.extraction as extraction
import repro.wrapper.generate as generate_module
from repro.core import ObjectRunner, RunParams
from repro.datasets import catalog_entries, domain_spec
from repro.datasets.knowledge import completion_entries
from repro.errors import SourceDiscardedError
from repro.htmlkit.dom import Element, Text
from repro.metrics.bench import DICTIONARY_COVERAGE, CatalogCache
from repro.utils.text import tokenize_words
from repro.wrapper.alignment import TemplateBuilder, common_affixes
from repro.wrapper.extraction import extract_objects, extract_record
from repro.wrapper.generate import Wrapper
from repro.wrapper.serialize import _node_to_dict, wrapper_to_dict
from tests import wrapper_alignment_reference as reference

CATALOG_SCALE = 0.1


def _template_json(template) -> str:
    """The serialized template, key order and counter order included."""
    return json.dumps(
        {
            "roots": [_node_to_dict(node) for node in template.roots],
            "conflicts": template.conflicts,
            "sample_records": template.sample_records,
        }
    )


def _objects(objects) -> list:
    return [(item.values, item.source, item.page_index) for item in objects]


def _wrapper_outcome(args) -> str:
    """``_wrapper_for(*args)`` as JSON: the wrapper, or the discard."""
    try:
        wrapper = generate_module._wrapper_for(*args)
    except SourceDiscardedError as error:
        return json.dumps(["discard", error.stage, error.reason])
    return json.dumps(wrapper_to_dict(wrapper))


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


@dataclass
class _Extract:
    """One extraction stage call, and what was read from its pages in it."""

    wrapper: Wrapper
    #: The objects the call returned.
    objects: list
    #: The reference extraction's objects, from the same pages.
    reference: list
    #: A second extraction's objects, from the same pages ...
    again: list
    #: ... and the template nodes it computed a shape for, in call order.
    shaped: list


@pytest.fixture(scope="module")
def catalog_calls():
    """Every wrapper build, template build and extraction of a catalog run.

    ``wrappers`` holds each ``_wrapper_for`` call's arguments with its
    outcome; ``builds`` each ``TemplateBuilder.build`` call's builder
    settings and records; ``extracts`` one :class:`_Extract` per
    extraction stage call.  A run releases the page trees it built when
    it ends, so whatever reads an extraction's pages runs inside the
    call, while they are intact.
    """
    wrappers, builds, extracts = [], [], []
    real_wrapper_for = generate_module._wrapper_for
    real_build = TemplateBuilder.build
    real_extract = extract_stage.extract_objects

    def spy_wrapper_for(*args):
        try:
            wrapper = real_wrapper_for(*args)
        except SourceDiscardedError as error:
            wrappers.append(
                (args, json.dumps(["discard", error.stage, error.reason]))
            )
            raise
        wrappers.append((args, json.dumps(wrapper_to_dict(wrapper))))
        return wrapper

    def spy_build(self, records):
        settings = (
            self._use_annotations,
            self._threshold,
            self._chaos_ratio,
            self._max_examples,
        )
        builds.append((settings, records))
        return real_build(self, records)

    def spy_extract(wrapper, pages, source=""):
        objects = real_extract(wrapper, pages, source=source)
        with pytest.MonkeyPatch.context() as patch:
            shaped = _Spy(patch, extraction, "_template_shape")
            again = extract_objects(wrapper, pages, source)
        extracts.append(
            _Extract(
                wrapper=wrapper,
                objects=_objects(objects),
                reference=_objects(
                    reference.extract_objects(wrapper, pages, source)
                ),
                again=_objects(again),
                shaped=[args[0] for args in shaped.calls],
            )
        )
        return objects

    cache = CatalogCache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate_module, "_wrapper_for", spy_wrapper_for)
        patch.setattr(TemplateBuilder, "build", spy_build)
        patch.setattr(extract_stage, "extract_objects", spy_extract)
        for entry in catalog_entries(scale=CATALOG_SCALE):
            runner, source = _runner(cache, entry)
            runner.run_source(entry.spec.name, source.pages)
    assert len(extracts) >= 30
    return {"wrappers": wrappers, "builds": builds, "extracts": extracts}


def _builder(module, settings):
    use_annotations, threshold, chaos_ratio, max_examples = settings
    return module.TemplateBuilder(
        use_annotations=use_annotations,
        generalization_threshold=threshold,
        chaos_ratio=chaos_ratio,
        max_examples=max_examples,
    )


# -- the catalog -------------------------------------------------------------


def test_catalog_wrappers_match_reference(catalog_calls):
    """The reference builder gives every catalog wrapper byte for byte."""
    wrapped = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate_module, "TemplateBuilder", reference.TemplateBuilder)
        for args, outcome in catalog_calls["wrappers"]:
            assert _wrapper_outcome(args) == outcome, args[0]
            wrapped += not outcome.startswith('["discard"')
    assert wrapped >= 30


def test_catalog_extraction_matches_reference(catalog_calls):
    """The reference extraction reads the same objects from every source."""
    read = 0
    for call in catalog_calls["extracts"]:
        assert call.reference == call.objects
        read += len(call.objects)
    assert read


# -- generated records -------------------------------------------------------

_TYPES = ("Artist", "Date", "Theater")

_annotations = st.sets(st.sampled_from(_TYPES), max_size=2)
_words = st.lists(
    st.sampled_from(["by", "at", "New", "York", "8:00pm", "$12.99", "x"]),
    max_size=4,
)


@st.composite
def _text(draw):
    words = draw(_words)
    # Whitespace-only text is dropped from the items.
    text = Text(" ".join(words) if words else draw(st.sampled_from(["", "  "])))
    text.annotations = set(draw(_annotations))
    return text


@st.composite
def _element(draw, tag, attr_class, nested):
    """An element holding a text and, if ``nested``, one inner element."""
    element = Element(tag, {"class": attr_class})
    element.annotations = set(draw(_annotations))
    element.append(draw(_text()))
    if nested:
        # The inner level: a span whose presence varies across records.
        if draw(st.booleans()):
            element.append(draw(_element("span", "inner", False)))
    return element


#: One position of a record skeleton: a text, or an element by tag and
#: class, optional (its column has gaps) or not, with nested markup or not.
_position = st.tuples(
    st.sampled_from(["#text", "div", "span", "a"]),
    st.sampled_from(["", "f"]),
    st.booleans(),
    st.booleans(),
)


@st.composite
def _records(draw):
    """Records sharing one skeleton, with gaps and an iterator run.

    Every record fills the same positions, each optional position only
    sometimes, and carries a run of ``<li>`` units (with optional ", "
    separators) at one position, whose count is constant or varies.
    """
    skeleton = draw(st.lists(_position, min_size=1, max_size=4))
    run_at = draw(st.integers(0, len(skeleton)))
    run_class = draw(st.sampled_from(["item", "f"]))
    run_counts = st.integers(0, 4) if draw(st.booleans()) else st.just(2)
    records = []
    for __ in range(draw(st.integers(1, 6))):
        nodes = []
        for position in range(len(skeleton) + 1):
            if position == run_at:
                for index in range(draw(run_counts)):
                    if index and draw(st.booleans()):
                        nodes.append(Text(", "))
                    nodes.append(draw(_element("li", run_class, False)))
            if position == len(skeleton):
                break
            tag, attr_class, optional, nested = skeleton[position]
            if optional and draw(st.booleans()):
                continue
            if tag == "#text":
                nodes.append(draw(_text()))
            else:
                nodes.append(draw(_element(tag, attr_class, nested)))
        records.append(nodes)
    return records


#: Builder settings: use_annotations, generalization threshold, chaos
#: ratio, max examples.
_settings = st.tuples(
    st.booleans(),
    st.sampled_from([0.7, 0.5]),
    st.sampled_from([0.5, 0.3]),
    st.just(5),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_records(), _settings)
def test_generated_records_build_like_reference(records, settings_):
    expected = _builder(reference, settings_).build(records)
    actual = _builder(alignment, settings_).build(records)
    assert _template_json(actual) == _template_json(expected)
    # Both readers, on the one template: the same values per record.
    for record in records:
        assert extract_record(actual, record) == reference.extract_record(
            actual, record
        )


@given(st.lists(_words, max_size=6))
def test_template_affixes_equal_common_affixes(word_lists):
    values = [" ".join(words) for words in word_lists]
    distinct = list(dict.fromkeys(values))
    tokenized = [tokenize_words(value) for value in values]
    prefix, suffix = common_affixes(tokenized)
    if any(len(words) > prefix + suffix for words in tokenized):
        expected = (prefix, suffix)
    else:
        expected = (0, 0)
    assert alignment._template_affixes(distinct) == expected


# -- cost claims -------------------------------------------------------------


class _Spy:
    """Counts the calls of a module attribute (and their arguments)."""

    def __init__(self, patch, owner, name):
        self.calls = []
        real = getattr(owner, name)

        def counting(*args):
            self.calls.append(args)
            return real(*args)

        patch.setattr(owner, name, counting)


def test_lcs_runs_only_for_records_unlike_the_consensus(catalog_calls):
    """The live builder runs one LCS per reference LCS of two different
    sequences, so a source whose records share one shape sequence per
    level runs none."""
    uniform = 0
    for settings_, records in catalog_calls["builds"]:
        with pytest.MonkeyPatch.context() as patch:
            old = _Spy(patch, reference, "_lcs_align")
            _builder(reference, settings_).build(records)
            new = _Spy(patch, alignment, "_lcs_align")
            _builder(alignment, settings_).build(records)
        differing = [args for args in old.calls if args[0] != args[1]]
        assert len(new.calls) == len(differing)
        if old.calls and not differing:
            uniform += 1
            assert not new.calls
    assert uniform, "no catalog source has one shape sequence per level"


class _ReadCountingElement(Element):
    """An element that logs every read of its annotations, by tag."""

    __slots__ = ()
    reads: list = []

    @property
    def annotations(self):
        _ReadCountingElement.reads.append(self.tag)
        return Element.annotations.__get__(self)

    @annotations.setter
    def annotations(self, value):
        Element.annotations.__set__(self, value)


def _counted_record(spans: int) -> list:
    nodes = []
    for __ in range(3):
        nodes.append(_ReadCountingElement("div", {"class": "field"}))
    for __ in range(spans):
        span = _ReadCountingElement("span", {"class": "author"})
        span.annotations = {"Artist"}
        nodes.append(span)
    return nodes


def test_annotations_are_read_only_for_varying_shapes():
    records = [_counted_record(spans) for spans in (1, 3, 5, 2)]
    items = [alignment._items_of(record) for record in records]
    _ReadCountingElement.reads.clear()
    shapes = alignment._detect_iterator_shapes(items)
    assert shapes == {("elem", "span", "author")}
    # Three divs per record never vary: their annotations stay unread.
    assert Counter(_ReadCountingElement.reads) == {"span": 11}

    uniform = [alignment._items_of(_counted_record(2)) for __ in range(4)]
    _ReadCountingElement.reads.clear()
    assert alignment._detect_iterator_shapes(uniform) == set()
    assert _ReadCountingElement.reads == []


def test_extraction_plans_each_template_node_once(catalog_calls):
    call = max(catalog_calls["extracts"], key=lambda call: len(call.objects))
    assert call.again == call.objects
    nodes = call.shaped
    assert len(nodes) == len({id(node) for node in nodes})
    assert len(nodes) <= sum(1 for __ in call.wrapper.template.iter_nodes())
    assert len(call.objects) > len(nodes)
