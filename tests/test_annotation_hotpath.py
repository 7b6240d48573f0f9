"""Golden equality guarantees for the annotation (Algorithm 1) hot path.

The rewrite keeps the gazetteer's first-token index as instance state,
lists each page's text nodes once per source instead of once per round,
re-propagates annotations only along the ancestors of newly annotated
nodes, and builds the block-signature map in one DFS.  It must be a pure
performance change: node annotations, per-type matches, block rates,
selected samples and extracted objects stay identical to the naive
reference semantics below.  The references are deliberately naive
transliterations of the pre-rewrite code paths; any divergence from them
is a correctness bug in the optimization, never a tuning matter.
"""

import re

import pytest

import repro.annotation.sampling as sampling
import repro.core.stages.annotate as annotate_stage
from repro.annotation.annotator import AnnotatedPage, PageAnnotator
from repro.annotation.sampling import select_sample
from repro.core import ObjectRunner, RunParams
from repro.core.stages.annotate import AnnotationStage
from repro.datasets import catalog_entries, domain_spec
from repro.datasets.knowledge import completion_entries
from repro.errors import SourceDiscardedError
from repro.htmlkit.dom import Element, Text
from repro.metrics.bench import DICTIONARY_COVERAGE, CatalogCache
from repro.recognizers.base import Match, prune_overlaps
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.vision.segmentation import segment_page, select_central_block

CATALOG_SCALE = 0.1


# -- reference semantics (the pre-rewrite code paths) ---------------------


def reference_find(self, text):
    """The seed ``find``: rebuilds the first-token index on every call."""
    if not self._entries:
        return []
    haystack = text if self._case_sensitive else text.lower()
    matches = []
    word_re = re.compile(r"[\w$€£]+")
    words = list(word_re.finditer(haystack))
    first_token_index = {}
    for key in self._entries:
        first = word_re.search(key)
        if first is None:
            continue
        first_token_index.setdefault(first.group(0), []).append(key)
    taken_until = -1
    for word in words:
        candidates = first_token_index.get(word.group(0))
        if not candidates:
            continue
        best = None
        for key in candidates:
            end = word.start() + len(key)
            if haystack[word.start() : end] != key:
                continue
            if end < len(haystack) and (
                haystack[end].isalnum() or haystack[end] == "_"
            ):
                continue
            if best is None or end > best[0]:
                best = (end, key)
        if best is None:
            continue
        end, key = best
        if word.start() < taken_until:
            continue
        taken_until = end
        matches.append(
            Match(
                start=word.start(),
                end=end,
                value=text[word.start() : end],
                type_name=self._type_name,
                confidence=self._entries[key],
            )
        )
    return matches


def reference_propagate(root):
    """The seed propagation: one bottom-up pass over the whole subtree."""

    def visit(element):
        for child in element.children:
            if isinstance(child, Element):
                visit(child)
        child_sets = []
        for child in element.children:
            if isinstance(child, Text):
                if child.text_content():
                    child_sets.append(child.annotations)
            else:
                child_sets.append(child.annotations)
        if not child_sets:
            return
        if len(child_sets) == 1:
            element.annotations |= child_sets[0]
            return
        common = set(child_sets[0])
        for annotations in child_sets[1:]:
            common &= annotations
            if not common:
                return
        element.annotations |= common

    visit(root)


def reference_annotate(self, page, recognizer, within=None):
    """The seed ``annotate``: re-lists text nodes and re-propagates the
    whole scope on every call."""
    scope = within if within is not None else page.root
    found = []
    for text_node in scope.iter_text_nodes():
        text = text_node.text_content()
        if not text:
            continue
        matches = prune_overlaps(recognizer.find(text))
        if not matches:
            continue
        text_node.annotations.add(recognizer.type_name)
        parent = text_node.parent
        if parent is not None:
            parent.annotations.add(recognizer.type_name)
        for match in matches:
            confidence = match.confidence
            if match.length >= len(text):
                confidence = min(1.0, confidence + self._full_node_bonus)
            found.append(
                Match(
                    start=match.start,
                    end=match.end,
                    value=match.value,
                    type_name=match.type_name,
                    confidence=confidence,
                )
            )
    page.matches_by_type.setdefault(recognizer.type_name, []).extend(found)
    reference_propagate(scope)
    return found


def reference_block_signatures(pages, block_trees):
    """The seed map: re-walks every nested block's subtree."""
    mapping = {}
    if block_trees is None:
        for page in pages:
            body = page.root.find("body") or page.root
            for node in body.iter_elements():
                mapping[id(node)] = "page-body"
        return mapping
    for tree in block_trees:
        for block in tree.all_blocks():
            for node in block.element.iter_elements():
                mapping[id(node)] = block.signature
    return mapping


@pytest.fixture
def reference(monkeypatch):
    """Switch the annotation hot path to the reference semantics."""

    def enable():
        monkeypatch.setattr(GazetteerRecognizer, "find", reference_find)
        monkeypatch.setattr(PageAnnotator, "annotate", reference_annotate)
        monkeypatch.setattr(
            sampling, "_enclosing_block_signatures", reference_block_signatures
        )

    return enable


# -- observation helpers ----------------------------------------------------


def annotation_snapshot(root):
    """Every node's annotation set, in document order."""
    return [
        (type(node).__name__, tuple(sorted(node.annotations)))
        for node in root.iter()
    ]


def matches_snapshot(page):
    return {
        type_name: [
            (m.start, m.end, m.value, m.type_name, m.confidence)
            for m in matches
        ]
        for type_name, matches in page.matches_by_type.items()
    }


def run_snapshot(run):
    return {
        "pages": [
            (page.index, matches_snapshot(page), annotation_snapshot(page.root))
            for page in run.all_pages
        ],
        "block_rates": run.block_rates,
        "sample": [page.index for page in run.sample],
        "type_order": run.type_order,
    }


_CACHE = CatalogCache()


def catalog_runner(entry, params=None):
    domain = domain_spec(entry.spec.domain)
    knowledge = _CACHE.knowledge(entry.spec.domain, DICTIONARY_COVERAGE)
    source = _CACHE.source(entry)
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
        params=params or RunParams(),
        extra_gazetteer_entries=extra,
    )
    return runner, source


def run_catalog(monkeypatch, params=None):
    """Run the scale-0.1 catalog; per source, record what annotation saw.

    Spies on the annotation stage (sample indexes and every region's node
    annotations, or the discard reason) and on ``select_sample`` (per-page
    matches, block rates, type order), and keeps the extracted objects.
    """
    records = {}
    real_run = AnnotationStage.run
    real_select = annotate_stage.select_sample

    def spy_run(self, ctx):
        record = records.setdefault(ctx.source, {})
        try:
            real_run(self, ctx)
        except SourceDiscardedError as error:
            record["discarded"] = error.reason
            raise
        record["sample_indexes"] = list(ctx.result.sample_page_indexes)
        record["regions"] = [annotation_snapshot(r) for r in ctx.regions]

    def spy_select(source, *args, **kwargs):
        run = real_select(source, *args, **kwargs)
        records.setdefault(source, {})["run"] = run_snapshot(run)
        return run

    monkeypatch.setattr(AnnotationStage, "run", spy_run)
    monkeypatch.setattr(annotate_stage, "select_sample", spy_select)
    for entry in catalog_entries(scale=CATALOG_SCALE):
        runner, source = catalog_runner(entry, params)
        result = runner.run_source(entry.spec.name, source.pages)
        records.setdefault(entry.spec.name, {})["objects"] = [
            (instance.page_index, repr(instance.values))
            for instance in result.objects
        ]
    return records


# -- golden suites ----------------------------------------------------------


def test_catalog_pipeline_matches_reference(monkeypatch, reference):
    """Algorithm 1 over the whole catalog: annotations, matches, block
    rates, sample indexes and extracted objects are all unchanged."""
    fast = run_catalog(monkeypatch)
    reference()
    slow = run_catalog(monkeypatch)
    assert fast.keys() == slow.keys()
    for name in slow:
        assert fast[name] == slow[name], name
    # The comparison is not vacuous: sources were sampled and extracted.
    assert sum(1 for r in slow.values() if r.get("objects")) > len(slow) // 2
    assert any("run" in r for r in slow.values())


def test_random_sampling_path_matches_reference(monkeypatch, reference):
    """The random baseline runs every recognizer on each sampled page."""
    params = RunParams(sod_based_sampling=False)
    fast = run_catalog(monkeypatch, params)
    reference()
    slow = run_catalog(monkeypatch, params)
    assert fast == slow
    assert any(r.get("sample_indexes") for r in slow.values())


def _sample_entries(count=6):
    entries = catalog_entries(scale=CATALOG_SCALE)
    step = max(1, len(entries) // count)
    return entries[::step][:count]


def _prepared(entry):
    runner, source = catalog_runner(entry)
    return runner, runner.prepare_pages(source.pages)


def _select_twice(runner, pages, source_name):
    """Algorithm 1, then again over the already-annotated trees."""
    block_trees = [segment_page(page) for page in pages]
    snapshots = []
    for __ in range(2):
        try:
            run = select_sample(
                source_name,
                pages,
                list(runner.recognizers),
                block_trees=block_trees,
            )
        except SourceDiscardedError as error:
            snapshots.append(("discarded", error.reason))
            continue
        snapshots.append(run_snapshot(run))
    return snapshots


def test_rerun_over_annotated_trees_matches_reference(monkeypatch, reference):
    """A second Algorithm 1 pass over annotated trees (an enrichment
    re-run on the same pages) starts from non-empty annotations."""
    fast = {}
    for entry in _sample_entries():
        runner, pages = _prepared(entry)
        fast[entry.spec.name] = _select_twice(runner, pages, entry.spec.name)
    reference()
    for entry in _sample_entries():
        runner, pages = _prepared(entry)
        slow = _select_twice(runner, pages, entry.spec.name)
        assert fast[entry.spec.name] == slow, entry.spec.name


def _annotate_within(runner, pages):
    """Scoped annotation, mixing the central block and the whole page."""
    annotator = PageAnnotator()
    out = []
    for index, root in enumerate(pages):
        block = select_central_block(segment_page(root)).element
        page = AnnotatedPage(root=root, index=index)
        recognizers = list(runner.recognizers)
        for position, recognizer in enumerate(recognizers):
            within = block if position % 3 != 2 else None
            annotator.annotate(page, recognizer, within=within)
        out.append((matches_snapshot(page), annotation_snapshot(root)))
    return out


def test_annotate_within_subtree_matches_reference(monkeypatch, reference):
    fast = {}
    for entry in _sample_entries():
        runner, pages = _prepared(entry)
        fast[entry.spec.name] = _annotate_within(runner, pages)
    reference()
    for entry in _sample_entries():
        runner, pages = _prepared(entry)
        assert fast[entry.spec.name] == _annotate_within(runner, pages)


def test_block_signature_map_matches_reference():
    for entry in _sample_entries():
        __, pages = _prepared(entry)
        annotated = [AnnotatedPage(root=p, index=i) for i, p in enumerate(pages)]
        trees = [segment_page(page) for page in pages]
        for block_trees in (trees, None):
            assert sampling._enclosing_block_signatures(
                annotated, block_trees
            ) == reference_block_signatures(annotated, block_trees)


def _chain_page():
    """A deep linear path next to a two-item list, plus a stray text."""
    return Element(
        "body",
        children=[
            Element(
                "div",
                children=[
                    Element("section", children=[
                        Element("p", children=[
                            Element("span", children=[Text("Muse live")])
                        ])
                    ])
                ],
            ),
            Element(
                "ul",
                children=[
                    Element("li", children=[Text("Coldplay")]),
                    Element("li", children=[Text("Madonna")]),
                ],
            ),
            Text("tonight"),
        ],
    )


def _annotate_rounds(page_root, recognizers, annotator=None):
    annotator = annotator or PageAnnotator()
    page = AnnotatedPage(root=page_root)
    for recognizer in recognizers:
        annotator.annotate(page, recognizer)
    return matches_snapshot(page), annotation_snapshot(page_root)


CHAIN_RECOGNIZERS = [
    GazetteerRecognizer("artist", ["Muse", "Coldplay", "Madonna"]),
    GazetteerRecognizer("venue", ["Garden"]),
    GazetteerRecognizer("word", ["live", "tonight"]),
]


def test_deep_linear_paths_match_reference(reference):
    fast = _annotate_rounds(_chain_page(), CHAIN_RECOGNIZERS)
    reference()
    assert fast == _annotate_rounds(_chain_page(), CHAIN_RECOGNIZERS)
    # Inheritance climbed the whole linear path and the agreeing list.
    annotations = [set(names) for __, names in fast[1]]
    assert "artist" in annotations[1]  # <div>, four levels above the text
    assert "artist" in annotations[7]  # <ul>, both items agree


def test_unpropagated_annotations_are_propagated_on_first_round(reference):
    """Annotations set by hand (never propagated) are brought to the
    fixpoint on the first round, as the whole-scope pass did."""

    def prepared():
        root = _chain_page()
        for node in root.iter():
            if isinstance(node, Text) and node.text in ("Coldplay", "Madonna"):
                node.annotations.add("manual")
        return root

    fast = _annotate_rounds(prepared(), CHAIN_RECOGNIZERS[1:2])
    reference()
    slow = _annotate_rounds(prepared(), CHAIN_RECOGNIZERS[1:2])
    assert fast == slow
    assert ("Element", ("manual",)) in slow[1]  # the <li>/<ul> inherited it
