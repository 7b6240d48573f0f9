"""Stored and exchanged artifacts keep their shape and reject bad input.

The system wraps a source once and extracts from it often, so most of
what it writes outlives the process that wrote it: wrapper JSON,
registry entries and the registry index, BENCH documents, serve
responses and trace lines.  The tests here check those boundaries on
real objects:

- **Shapes.**  Each artifact is built from live objects and its
  top-level keys are pinned under the family's schema version
  (:data:`SHAPES`).  A change to a writer fails here until the pin is
  edited, and the edit shows whether the version was bumped with it.
- **Malformed input.**  Every external reader gets each payload with
  one key dropped or one value swapped for a wrong type.  A missing
  required key must raise the reader's typed error, and nothing may
  escape as an untyped exception.  The wrapper, registry entry and index
  readers also reject every wrong-typed value.
- **History.**  :func:`~repro.metrics.bench.compare_documents` reads
  every ordered pair of the committed ``BENCH_*.json`` documents, so
  the comparison never requires a key older captures lack.
"""

from __future__ import annotations

import builtins
import copy
import io
import json
from collections import Counter
from itertools import permutations
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.core.params import RunParams
from repro.core.pipeline import TraceObserver
from repro.core.stages.extract import ExtractionStage
from repro.errors import RegistryError, WrapperSchemaError
from repro.metrics.bench import (
    BENCH_SCHEMA_VERSION,
    compare_documents,
    load_bench,
)
from repro.registry import WrapperRegistry
from repro.registry.store import (
    REGISTRY_SCHEMA_VERSION,
    RegistryEntry,
    StoredDiscard,
    entry_for,
)
from repro.service import ExtractionService, serve_loop
from repro.sod.dsl import parse_sod
from repro.wrapper.generate import Wrapper
from repro.wrapper.matching import MatchResult
from repro.wrapper.serialize import (
    FORMAT_VERSION,
    wrapper_from_dict,
    wrapper_to_dict,
)
from repro.wrapper.template import (
    ElementTemplate,
    FieldSlot,
    IteratorSlot,
    StaticSlot,
    Template,
)
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``{family: {version: sorted top-level keys}}``.  The version is the
#: family's ``FORMAT_VERSION`` / ``*_SCHEMA_VERSION``, or ``None`` for a
#: family that carries none.  Families written in several kinds pin
#: each kind (``wrapper_node.field``); a trace kind pins the union of
#: the keys its events carry.
SHAPES: dict[str, dict[int | None, list[str]]] = {
    "wrapper": {1: [
        "annotation_types_seen", "conflicts", "match", "record", "sod",
        "source", "support", "template", "version",
    ]},
    "wrapper_node.element": {1: [
        "annotation_counts", "attr_class", "children", "kind", "optional",
        "tag",
    ]},
    "wrapper_node.field": {1: [
        "annotation_counts", "examples", "kind", "occurrences", "optional",
        "slot_id", "strip_prefix", "strip_suffix",
    ]},
    "wrapper_node.iterator": {1: [
        "kind", "max_repeats", "min_repeats", "slot_id", "unit",
    ]},
    "wrapper_node.static": {1: ["kind", "text"]},
    "registry_entry.wrapper": {2: [
        "discard", "fingerprint", "kind", "schema_version", "signature",
        "sod", "source", "wrapper",
    ]},
    "registry_entry.discard": {2: [
        "discard", "fingerprint", "kind", "schema_version", "signature",
        "sod", "source", "wrapper",
    ]},
    "registry_index": {2: ["entries", "schema_version"]},
    "registry_index.row": {2: ["fingerprint", "kind", "sod", "source"]},
    "bench": {2: [
        "cache", "config", "generated_at", "platform", "process", "python",
        "registry", "schema_version", "sharding", "systems",
    ]},
    "serve_response.extracted": {None: [
        "id", "objects", "ok", "outcome", "source", "timings",
    ]},
    "serve_response.discarded": {None: ["error", "id", "ok", "outcome"]},
    "serve_response.rejected": {None: ["error", "id", "ok"]},
    "serve_response.failed": {None: ["error", "id", "ok", "stage"]},
    "serve_response.stats": {None: ["id", "ok", "stats"]},
    "serve_response.shutdown": {None: ["id", "ok", "shutdown"]},
    "trace_event.pipeline_start": {None: ["event", "pass", "source"]},
    "trace_event.stage_start": {None: ["event", "pass", "source", "stage"]},
    "trace_event.stage_end": {None: [
        "counters", "discard_reason", "discard_stage", "discarded",
        "elapsed_s", "event", "pass", "source", "stage",
    ]},
    "trace_event.pipeline_end": {None: [
        "counters", "discard_reason", "discard_stage", "discarded",
        "elapsed_s", "error", "event", "pass", "source", "stage",
    ]},
}

SOD_TEXT = (
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)
DICTS = {
    "artist": ["Metallica", "Coldplay", "Madonna", "Muse"],
    "theater": [
        "Madison Square Garden",
        "Bowery Ballroom",
        "The Town Hall",
        "B.B King Blues and Grill",
    ],
}
PAGES = [FIGURE3_P1, FIGURE3_P2, FIGURE3_P3]
JUNK = {
    "sod": "t(date<kind=predefined>)",
    "pages": ["<html><body><p>nothing here</p></body></html>"],
}


def all_kinds_wrapper() -> Wrapper:
    """A wrapper whose template holds every node kind."""
    title = FieldSlot(slot_id=0)
    title.annotation_counts = Counter({"title": 3})
    title.examples = ["Kind of Blue"]
    artist = FieldSlot(slot_id=1)
    row = ElementTemplate(
        tag="li",
        attr_class="row",
        annotation_counts=Counter({"artist": 2}),
        children=[StaticSlot(text="by "), artist],
    )
    return Wrapper(
        source="shapes",
        sod=parse_sod("album(title, artists:{artist}+)"),
        template=Template(
            roots=[title, IteratorSlot(slot_id=2, unit=row, max_repeats=4)],
            conflicts=1,
            sample_records=3,
        ),
        match=MatchResult(
            entity_to_slots={"title": [0], "artist": [1]},
            set_to_iterator={"artists": 2},
            set_inner_slots={"artists": {"artist": [1]}},
            set_fallback_slots={"artists": {"artist": [1]}},
            missing=[],
            matched=True,
        ),
        record_tag="li",
        record_path="html/body/ul/li",
        record_class_attr="row",
        record_single_element=False,
        is_list_source=True,
        support=3,
        annotation_types_seen={"title", "artist"},
    )


def node_paths(data: dict) -> dict[str, tuple]:
    """The path of the first node of each kind in a serialized wrapper."""
    found: dict[str, tuple] = {}
    stack = [
        ("template", "roots", index)
        for index in range(len(data["template"]["roots"]))
    ]
    while stack:
        path = stack.pop()
        node = at(data, path)
        found.setdefault(node["kind"], path)
        stack.extend(
            (*path, "children", index)
            for index in range(len(node.get("children", ())))
        )
        if "unit" in node:
            stack.append((*path, "unit"))
    return found


def at(data: Any, path: tuple) -> Any:
    for step in path:
        data = data[step]
    return data


def keys_of(*documents: dict) -> list[str]:
    """The sorted union of the documents' top-level keys."""
    return sorted({key for document in documents for key in document})


def assert_pinned(observed: dict[str, dict]) -> None:
    """The observed families equal their :data:`SHAPES` pins."""
    assert observed == {family: SHAPES[family] for family in observed}


# -- shapes ----------------------------------------------------------------


class TestShapes:
    def test_wrapper_and_each_node_kind(self):
        data = wrapper_to_dict(all_kinds_wrapper())
        observed = {"wrapper": {FORMAT_VERSION: keys_of(data)}}
        paths = node_paths(data)
        assert sorted(paths) == ["element", "field", "iterator", "static"]
        for kind, path in paths.items():
            observed[f"wrapper_node.{kind}"] = {
                FORMAT_VERSION: keys_of(at(data, path))
            }
        assert_pinned(observed)

    def test_registry_entry_kinds_and_index(self, tmp_path):
        sod = parse_sod(SOD_TEXT)
        stored = entry_for(sod, "fp-w", all_kinds_wrapper())
        discard = entry_for(
            sod, "fp-d", StoredDiscard("junk", "annotation", "too sparse")
        )
        registry = WrapperRegistry(tmp_path)
        registry.put(sod, "fp-w", all_kinds_wrapper())
        registry.put_discard(sod, "fp-d", "junk", "annotation", "too sparse")
        index = json.loads(registry.index_path.read_text(encoding="utf-8"))
        version = REGISTRY_SCHEMA_VERSION
        assert_pinned(
            {
                "registry_entry.wrapper": {version: keys_of(stored.to_dict())},
                "registry_entry.discard": {
                    version: keys_of(discard.to_dict())
                },
                "registry_index": {version: keys_of(index)},
                "registry_index.row": {
                    version: keys_of(*index["entries"].values())
                },
            }
        )

    def test_bench_capture(self, tiny_capture):
        assert_pinned(
            {"bench": {BENCH_SCHEMA_VERSION: keys_of(tiny_capture)}}
        )

    def test_serve_responses_and_trace_events(self, tmp_path, monkeypatch):
        original = ExtractionStage.run

        def run(stage, ctx):
            if ctx.source == "broken":
                raise RuntimeError("extraction broke")
            return original(stage, ctx)

        monkeypatch.setattr(ExtractionStage, "run", run)
        sink = io.StringIO()
        service = ExtractionService(
            WrapperRegistry(tmp_path),
            observers=[TraceObserver(sink)],
        )
        extract = {"sod": SOD_TEXT, "pages": PAGES, "dicts": DICTS}
        responses = {
            "extracted": [
                service.handle({"id": 1, **extract, "source": "cold"}),
                service.handle({"id": 2, **extract, "source": "warm"}),
            ],
            "discarded": [service.handle({"id": 3, **JUNK})],
            "rejected": [
                service.handle({"id": 4, "pages": PAGES}),
                service.handle({"id": 5, "cmd": "bogus"}),
                service.handle({"id": 6, "verbose": True}),
            ],
            "failed": [
                service.handle({"id": 7, **extract, "source": "broken"})
            ],
            "stats": [service.handle({"id": 8, "cmd": "stats"})],
            "shutdown": [service.handle({"id": 9, "cmd": "shutdown"})],
        }
        out = io.StringIO()
        serve_loop(WrapperRegistry(tmp_path), io.StringIO("{oops\n"), out)
        responses["rejected"].append(json.loads(out.getvalue()))
        assert [r["outcome"] for r in responses["extracted"]] == ["miss", "hit"]

        events: dict[str, list[dict]] = {}
        for line in sink.getvalue().splitlines():
            event = json.loads(line)
            events.setdefault(event["event"], []).append(event)
        observed = {
            f"serve_response.{kind}": {None: keys_of(*documents)}
            for kind, documents in responses.items()
        }
        observed.update(
            {
                f"trace_event.{kind}": {None: keys_of(*documents)}
                for kind, documents in events.items()
            }
        )
        assert_pinned(observed)
        assert sorted(events) == sorted(
            family.split(".")[1]
            for family in SHAPES
            if family.startswith("trace_event.")
        )


# -- malformed external input ----------------------------------------------

#: A value of the wrong type for each JSON type a payload holds.
WRONG_TYPE: dict[type, Any] = {
    str: 7,
    int: "7",
    float: "7",
    bool: "yes",
    list: 7,
    dict: 7,
    type(None): 7,
}


def one_edit_payloads(
    payload: dict, locations: dict[str, tuple]
) -> list[tuple[tuple[str, str, str], dict]]:
    """Every copy of ``payload`` with one key dropped or one value swapped.

    ``locations`` names the objects to edit by their path in
    ``payload``.  A case is ``(edit, location, key)``; keys of the
    registry index's ``entries`` object read as ``<signature>``.
    """
    cases = []
    for location, path in locations.items():
        for key in at(payload, path):
            label = "<signature>" if location == "entries" else key
            for edit in ("drop", "swap"):
                copied = copy.deepcopy(payload)
                target = at(copied, path)
                if edit == "drop":
                    del target[key]
                else:
                    target[key] = WRONG_TYPE[type(target[key])]
                cases.append(((edit, location, label), copied))
    return cases


def typed_or_not(
    reader: Callable[[Any], Any], typed: type[Exception]
) -> Callable[[Any], str]:
    """Classify one read: ``accepted``, ``rejected`` (raised ``typed``),
    or the name of the untyped exception that escaped."""

    def outcome(payload: Any) -> str:
        try:
            reader(payload)
        except typed:
            return "rejected"
        except Exception as exc:
            return type(exc).__name__
        return "accepted"

    return outcome


def check_reader(
    outcome: Callable[[Any], str],
    cases: list[tuple[tuple[str, str, str], dict]],
    required: dict[str, set[str]],
) -> dict[tuple[str, str, str], str]:
    """Drops of required keys are rejected, other drops accepted, and
    no edit raises an untyped error.  Returns each case's outcome."""
    seen = {case: outcome(payload) for case, payload in cases}
    drops = {case: result for case, result in seen.items() if case[0] == "drop"}
    assert drops == {
        case: "rejected" if case[2] in required[case[1]] else "accepted"
        for case in drops
    }
    untyped = {
        case: result
        for case, result in seen.items()
        if result not in ("accepted", "rejected")
    }
    assert untyped == {}
    return seen


def assert_swaps_rejected(seen: dict[tuple[str, str, str], str]) -> None:
    """Every wrong-typed value raised the reader's typed error."""
    swaps = {case: result for case, result in seen.items() if case[0] == "swap"}
    assert swaps and swaps == dict.fromkeys(swaps, "rejected")


class TestMalformedInput:
    def test_wrapper_from_dict(self):
        data = wrapper_to_dict(all_kinds_wrapper())
        locations = {
            "wrapper": (),
            "template": ("template",),
            "match": ("match",),
            "record": ("record",),
        }
        locations.update(
            {f"{kind} node": path for kind, path in node_paths(data).items()}
        )
        seen = check_reader(
            typed_or_not(wrapper_from_dict, WrapperSchemaError),
            one_edit_payloads(data, locations),
            {
                "wrapper": {
                    "version", "source", "sod", "template", "match", "record",
                },
                "template": {"roots"},
                "match": {
                    "entity_to_slots", "set_to_iterator", "set_inner_slots",
                    "set_fallback_slots",
                },
                "record": {"tag", "path", "single_element", "is_list_source"},
                "element node": {"kind", "tag"},
                "field node": {"kind", "slot_id"},
                "iterator node": {"kind", "slot_id", "unit"},
                "static node": {"kind", "text"},
            },
        )
        assert_swaps_rejected(seen)

    @pytest.mark.parametrize("kind", ["wrapper", "discard"])
    def test_registry_entry_from_dict(self, kind):
        stored = (
            all_kinds_wrapper()
            if kind == "wrapper"
            else StoredDiscard("junk", "annotation", "too sparse")
        )
        data = entry_for(parse_sod(SOD_TEXT), "fp", stored).to_dict()
        required = {
            "schema_version", "signature", "sod", "fingerprint", "source",
            "wrapper",
        }
        locations = {"entry": ()}
        if kind == "discard":
            # Without its kind, a tombstone reads as a wrapper entry
            # that has no wrapper.
            required |= {"kind", "discard"}
            locations["discard"] = ("discard",)
        seen = check_reader(
            typed_or_not(RegistryEntry.from_dict, RegistryError),
            one_edit_payloads(data, locations),
            {"entry": required, "discard": set()},
        )
        assert_swaps_rejected(seen)

    def test_registry_load_index(self, tmp_path):
        registry = WrapperRegistry(tmp_path)
        registry.put(parse_sod(SOD_TEXT), "fp", all_kinds_wrapper())
        index = json.loads(registry.index_path.read_text(encoding="utf-8"))

        def load(document):
            registry.index_path.write_text(
                json.dumps(document), encoding="utf-8"
            )
            return WrapperRegistry(tmp_path)

        seen = check_reader(
            typed_or_not(load, RegistryError),
            one_edit_payloads(index, {"index": (), "entries": ("entries",)}),
            {"index": {"schema_version", "entries"}, "entries": set()},
        )
        assert_swaps_rejected(seen)

    def test_service_handle(self, tmp_path):
        service = ExtractionService(WrapperRegistry(tmp_path))

        def outcome(request):
            """A rejection must carry a validation message or a typed
            repro error, never the text of a builtin exception."""
            response = service.handle(request)
            if response["ok"]:
                return "accepted"
            name = response["error"].split(":", 1)[0]
            raised = getattr(builtins, name, None)
            if isinstance(raised, type) and issubclass(raised, Exception):
                return name
            return "rejected"

        extract = {
            "id": 1, "sod": SOD_TEXT, "pages": PAGES, "dicts": DICTS,
            "source": "svc",
        }
        control = {"id": 2, "cmd": "stats"}
        check_reader(
            outcome,
            one_edit_payloads(extract, {"extract": ()})
            + one_edit_payloads(control, {"control": ()}),
            {"extract": {"sod", "pages"}, "control": {"cmd"}},
        )


# -- committed history -----------------------------------------------------


HISTORY = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_history_is_committed():
    assert len(HISTORY) >= 2


@pytest.mark.parametrize(
    "old,new",
    list(permutations(HISTORY, 2)),
    ids=lambda path: path.stem,
)
def test_compare_reads_every_committed_pair(old, new):
    comparison = compare_documents(load_bench(old), load_bench(new))
    assert isinstance(comparison.ok, bool)
