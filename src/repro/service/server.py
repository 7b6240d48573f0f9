"""``repro serve``: extraction-as-a-service over a wrapper registry.

A long-running JSON-lines request loop: each request names an SOD and
carries the raw HTML pages of one source; the service runs it through
the pipeline with the wrapper registry on (the registry stages of
``DEFAULT_STAGE_ORDER``), so the first
request for a template pays induction and every later request for the
same template is a registry hit that goes straight to extraction.

Requests and responses are one JSON object per line::

    {"id": 1, "sod": "album(title, artist)", "pages": ["<html>..."],
     "source": "shop", "dicts": {"artist": ["Miles Davis", ...]}}
    {"id": 1, "ok": true, "objects": [...], "outcome": "hit", ...}

Control requests: ``{"cmd": "stats"}`` returns service counters and the
registry/cache statistics; ``{"cmd": "shutdown"}`` acknowledges and ends
the loop.  Per-request isolation mirrors the multi-source ``isolate``
failure policy: an exception while serving one request becomes an
``ok: false`` response (with the failing stage when known) and the loop
keeps serving.  Malformed input — a line that is not JSON, a payload
that is not an object, or a request carrying keys outside
:data:`KNOWN_REQUEST_KEYS` — gets a typed ``ok: false`` response and
never takes the loop down.

``tests/test_artifact_contracts.py`` pins the keys of every response
kind built here, and feeds :meth:`ExtractionService.handle` requests
with a key dropped or a value of the wrong type: each must come back
as its validation message, never as a ``KeyError`` text.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Any, Iterable

from repro.core.cache import PreprocessCache
from repro.core.faults import SourceFailure
from repro.core.objectrunner import ObjectRunner
from repro.core.params import RunParams
from repro.core.pipeline import PipelineObserver
from repro.errors import ReproError
from repro.metrics.observer import MetricsObserver
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.registry.store import WrapperRegistry
from repro.sod.canonical import canonicalize
from repro.sod.dsl import format_sod, parse_sod

#: Every key the request protocol understands; anything else is a typo
#: or forward drift from a newer client and is rejected up front.
KNOWN_REQUEST_KEYS = frozenset(
    {"id", "cmd", "sod", "pages", "source", "dicts"}
)


class ExtractionService:
    """Routes extraction requests through a shared wrapper registry.

    Owns the cross-request services: the registry, one preprocessing
    cache, a :class:`~repro.metrics.observer.MetricsObserver` collecting
    per-request pipeline metrics, and a pool of
    :class:`~repro.core.objectrunner.ObjectRunner` instances memoized by
    (canonical SOD, dictionaries) so repeated requests skip recognizer
    setup.  The service itself is single-threaded: one request at a
    time, in arrival order.
    """

    def __init__(
        self,
        registry: WrapperRegistry,
        params: RunParams | None = None,
        observers: Iterable[PipelineObserver] = (),
    ):
        self.registry = registry
        self.params = params or RunParams()
        self.metrics = MetricsObserver()
        self.cache = PreprocessCache()
        self.metrics.observe_cache(self.cache)
        self._observers = list(observers)
        self._runners: dict[tuple[str, str], ObjectRunner] = {}
        self._requests = 0
        self._failed = 0

    # -- request handling ---------------------------------------------------

    def handle(self, request: Any) -> dict[str, Any]:
        """Serve one request object; always returns a response object.

        Unexpected per-request failures are isolated: they come back as
        ``ok: false`` responses instead of taking the loop down (the
        service-level analogue of the ``isolate`` failure policy).
        """
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            response = self._dispatch(request)
        except Exception as exc:
            self._failed += 1
            failure = SourceFailure.from_exception(str(request_id), exc)
            response = {"ok": False, "error": failure.error}
            if failure.stage:
                response["stage"] = failure.stage
        response["id"] = request_id
        return response

    def _dispatch(self, request: Any) -> dict[str, Any]:
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        unknown = sorted(set(request) - KNOWN_REQUEST_KEYS)
        if unknown:
            names = ", ".join(repr(key) for key in unknown)
            return {
                "ok": False,
                "error": f"unknown request key(s) {names} "
                f"(known: {', '.join(sorted(KNOWN_REQUEST_KEYS))})",
            }
        command = request.get("cmd")
        if command == "stats":
            return {"ok": True, "stats": self.stats()}
        if command == "shutdown":
            return {"ok": True, "shutdown": True}
        if command is not None:
            return {"ok": False, "error": f"unknown command {command!r}"}
        return self._extract(request)

    def _extract(self, request: dict[str, Any]) -> dict[str, Any]:
        self._requests += 1
        sod_text = request.get("sod")
        pages = request.get("pages")
        if not isinstance(sod_text, str) or not sod_text:
            return {"ok": False, "error": "request needs a 'sod' string"}
        if not isinstance(pages, list) or not pages:
            return {
                "ok": False,
                "error": "request needs a non-empty 'pages' list",
            }
        source = str(request.get("source", "request"))
        dicts = request.get("dicts") or {}
        runner = self._runner(sod_text, dicts)
        before = self.registry.stats()
        result = runner.run_source(source, [str(page) for page in pages])
        outcome = self._outcome(before, self.registry.stats())
        if result.discarded:
            return {
                "ok": False,
                "error": (
                    f"source discarded at {result.discard_stage}: "
                    f"{result.discard_reason}"
                ),
                "outcome": outcome,
            }
        return {
            "ok": True,
            "source": source,
            "outcome": outcome,
            "objects": [instance.values for instance in result.objects],
            "timings": {
                name: round(seconds, 6)
                for name, seconds in result.timings.as_dict().items()
            },
        }

    def _runner(self, sod_text: str, dicts: Any) -> ObjectRunner:
        """A memoized runner for this (canonical SOD, dictionaries) pair."""
        if not isinstance(dicts, dict):
            raise ReproError("'dicts' must map type names to value lists")
        sod = parse_sod(sod_text)
        digest = hashlib.sha256(
            json.dumps(
                {str(k): sorted(str(v) for v in vs) for k, vs in dicts.items()},
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()
        key = (format_sod(canonicalize(sod)), digest)
        if key not in self._runners:
            recognizers = RecognizerRegistry()
            for type_name, values in dicts.items():
                recognizers.register(
                    GazetteerRecognizer(
                        str(type_name), [str(value) for value in values]
                    )
                )
            self._runners[key] = ObjectRunner(
                sod,
                registry=recognizers,
                params=self.params,
                observers=[self.metrics, *self._observers],
                cache=self.cache,
                wrapper_registry=self.registry,
            )
        return self._runners[key]

    @staticmethod
    def _outcome(before: dict[str, int], after: dict[str, int]) -> str:
        """Classify one request from the registry's counter deltas."""
        if after["demotions"] > before["demotions"]:
            return "demoted"
        if after["hits"] > before["hits"]:
            return "hit"
        if after["misses"] > before["misses"]:
            return "miss"
        return "none"

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Service counters plus registry and preprocessing-cache stats."""
        return {
            "requests": self._requests,
            "requests_failed": self._failed,
            "runners": len(self._runners),
            "registry": self.registry.stats(),
            "cache": self.cache.stats(),
        }


def serve_loop(
    registry: WrapperRegistry,
    stdin: IO[str],
    stdout: IO[str],
    params: RunParams | None = None,
    observers: Iterable[PipelineObserver] = (),
) -> int:
    """Run the JSON-lines request loop until shutdown or EOF.

    Reads one JSON request per line from ``stdin``, writes one JSON
    response per line to ``stdout`` (flushed per line, so a subprocess
    driver can pipeline requests).  Returns the number of requests
    served.  A line that is not valid JSON produces an ``ok: false``
    response; only ``{"cmd": "shutdown"}`` or EOF end the loop.
    """
    service = ExtractionService(registry, params=params, observers=observers)
    served = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response: dict[str, Any] = {
                "id": None,
                "ok": False,
                "error": f"request is not valid JSON: {exc}",
            }
            stdout.write(json.dumps(response, sort_keys=True) + "\n")
            stdout.flush()
            continue
        response = service.handle(request)
        served += 1
        stdout.write(json.dumps(response, sort_keys=True) + "\n")
        stdout.flush()
        if response.get("shutdown"):
            break
    return served
