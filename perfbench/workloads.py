"""The benchmark's three workloads: inputs, set-up, timed phase, oracle.

Inputs come from :mod:`repro.datasets` and correctness from
:mod:`repro.eval`; both are the benchmark's own tools and are never
timed.  The program under test only ever sees generated pages and
dictionaries.

- ``cold-batch``: serial ``ObjectRunner.run_sources``, one runner per
  domain, over never-seen catalog replicas, each domain against a fresh
  empty wrapper registry (every source misses, induces and stores).
- ``cold-batch-proc``: the same inputs on the process backend with two
  workers; its objects digest must equal ``cold-batch``'s.
- ``warm-recrawl``: one closed-loop client calling
  ``ExtractionService.handle`` in-process; every timed request recrawls
  a grown version of an already-registered site.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.baselines.interface import SystemOutput
from repro.core.objectrunner import ObjectRunner
from repro.core.params import RunParams
from repro.core.results import SourceResult
from repro.datasets import (
    CatalogEntry,
    GeneratedSource,
    build_knowledge,
    catalog_entries,
    domain_spec,
    generate_source,
)
from repro.datasets.knowledge import DomainKnowledge, completion_entries
from repro.eval.classify import grade_source
from repro.metrics.bench import DICTIONARY_COVERAGE, DOMAIN_ORDER
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.registry.store import WrapperRegistry
from repro.service.server import ExtractionService

WORKLOADS = ("cold-batch", "cold-batch-proc", "warm-recrawl")

#: Per-source volume of every replica: the scale tier's fraction.
OBJECT_SCALE = 0.1
#: Timed items per batch run, and the floor that keeps ten p90 samples.
MIN_BATCH_SOURCES = 100
#: Timed requests per recrawl run (floor), issued in whole rounds.
MIN_RECRAWL_REQUESTS = 200
#: Items per second the workloads reach on a 2-core host; ``--seconds``
#: sizes a run by them, never below the floors above.
NOMINAL_SOURCES_PER_S = 3.5
NOMINAL_REQUESTS_PER_S = 12.0
#: Growth of each site per recrawl round, as a share of its first crawl.
GROWTH_PER_ROUND = 0.1
#: Worker processes of ``cold-batch-proc`` (the reference host has 2 cores).
PROC_WORKERS = 2
#: Repetitions of the in-process set-up and of the program import in a
#: fresh interpreter; ``setup_s`` adds the two medians.
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
#: What the program's set-up imports: the package and the service.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import repro, repro.service.server; "
    "print(time.perf_counter() - start)"
)
#: Lowest pooled Pc (correct objects / gold objects) a run may grade.
PC_FLOOR = 0.5


def batch_size(seconds: float) -> int:
    return max(MIN_BATCH_SOURCES, math.ceil(seconds * NOMINAL_SOURCES_PER_S))


def recrawl_rounds(seconds: float, sites: int) -> int:
    requests = max(MIN_RECRAWL_REQUESTS, seconds * NOMINAL_REQUESTS_PER_S)
    return math.ceil(requests / sites)


# -- inputs -------------------------------------------------------------------


def replica_entries(seed: int, count: int) -> list[CatalogEntry]:
    """``count`` catalog replicas, round-robin over the 49 Table I rows.

    Replica ``r`` of a row is named ``{name}--r{r}`` for every seed, so
    the process backend's hash-mod shard layout is a property of the
    workload, not of the seed; the pages come from ``SiteSpec.seed``
    ``("table1", row, "{name}--r{r}@{seed}")``, the scale tier's scheme
    extended by the workload seed.
    """
    base = catalog_entries(OBJECT_SCALE)
    entries: list[CatalogEntry] = []
    replica = 0
    while len(entries) < count:
        for entry in base[: count - len(entries)]:
            name = f"{entry.spec.name}--r{replica}"
            spec = dataclasses.replace(
                entry.spec, name=name, seed=("table1", entry.row, f"{name}@{seed}")
            )
            entries.append(dataclasses.replace(entry, spec=spec))
        replica += 1
    return entries


def grown(entry: CatalogEntry, round_index: int) -> CatalogEntry:
    """The site after ``round_index`` rounds of growth (same template)."""
    total = round(entry.spec.total_objects * (1 + GROWTH_PER_ROUND * round_index))
    spec = dataclasses.replace(entry.spec, total_objects=total)
    return dataclasses.replace(entry, spec=spec)


@dataclass
class Inputs:
    """Everything one workload feeds the program, generated from the seed."""

    seed: int
    entries: list[CatalogEntry]
    #: Generated source per name (for ``warm-recrawl``: the first crawl).
    sources: dict[str, GeneratedSource]
    knowledge: dict[str, DomainKnowledge]
    #: Per-domain dictionary completion: the union of its sources' entries.
    completion: dict[str, dict[str, dict[str, float]]]
    #: ``warm-recrawl`` only: the timed requests' sources, in send order.
    recrawl: list[tuple[CatalogEntry, GeneratedSource]] = field(default_factory=list)

    def domains(self) -> list[str]:
        present = {entry.spec.domain for entry in self.entries}
        return [domain for domain in DOMAIN_ORDER if domain in present]

    def digest(self) -> str:
        """SHA-256 over every page, dictionary and request the program sees."""
        payload = {
            "sources": {
                name: source.pages for name, source in self.sources.items()
            },
            "completion": self.completion,
            "recrawl": [
                [entry.spec.name, source.pages] for entry, source in self.recrawl
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """The inputs of one run of ``workload``, sized by ``seconds``."""
    if workload == "warm-recrawl":
        entries = replica_entries(seed, len(catalog_entries(OBJECT_SCALE)))
        return build_inputs(seed, entries, recrawl_rounds(seconds, len(entries)))
    return build_inputs(seed, replica_entries(seed, batch_size(seconds)), 0)


def build_inputs(seed: int, entries: list[CatalogEntry], rounds: int) -> Inputs:
    """Generate the sources, knowledge, completion and ``rounds`` recrawls."""
    sources = {
        entry.spec.name: generate_source(entry.spec, domain_spec(entry.spec.domain))
        for entry in entries
    }
    completion: dict[str, dict[str, dict[str, float]]] = {}
    for entry in entries:
        domain = domain_spec(entry.spec.domain)
        extra = completion_entries(
            domain,
            sources[entry.spec.name].gold,
            coverage=DICTIONARY_COVERAGE,
            seed=("completion", entry.spec.name),
        )
        merged = completion.setdefault(domain.name, {})
        for type_name, values in extra.items():
            merged.setdefault(type_name, {}).update(values)
    inputs = Inputs(
        seed=seed,
        entries=entries,
        sources=sources,
        knowledge={},
        completion=completion,
    )
    for domain in inputs.domains():
        inputs.knowledge[domain] = build_knowledge(
            domain_spec(domain), coverage=DICTIONARY_COVERAGE
        )
    for round_index in range(1, rounds + 1):
        for entry in entries:
            site = grown(entry, round_index)
            inputs.recrawl.append(
                (site, generate_source(site.spec, domain_spec(site.spec.domain)))
            )
    return inputs


# -- measurement helpers ------------------------------------------------------


def _beta_weights(count: int, share: float) -> list[float]:
    """Harrell-Davis weights: Beta(a, b) mass over each rank's interval.

    ``a = share * (count + 1)`` and ``b = (1 - share) * (count + 1)``;
    each interval ``[i / count, (i + 1) / count]`` is integrated with
    Simpson's rule, and the weights are normalised to sum to one.
    """
    a = share * (count + 1)
    b = (1.0 - share) * (count + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16
    weights = []
    for index in range(count):
        low, width = index / count, 1.0 / count
        h = width / steps
        total = density(low) + density(low + width)
        for step in range(1, steps):
            total += (4 if step % 2 else 2) * density(low + step * h)
        weights.append(total * h / 3)
    norm = sum(weights)
    return [weight / norm for weight in weights]


def percentile(samples: list[float], share: float) -> tuple[float, int]:
    """Harrell-Davis percentile and the number of samples beyond its rank.

    The estimate is a Beta-weighted mean of the order statistics near
    rank ``share * n`` (about +-3 ranks for p90 of 100), so a gap between
    neighbouring order statistics — the catalog's few large sources
    leave one just above p90 — does not make it jump from run to run.
    Raises ``ValueError`` when fewer than ten samples lie beyond the
    rank: such a percentile is set by a handful of items.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    beyond = len(ordered) - math.ceil(share * len(ordered))
    if beyond < 10:
        raise ValueError(
            f"p{round(share * 100)} of {len(ordered)} samples has only "
            f"{beyond} beyond it (needs 10)"
        )
    weights = _beta_weights(len(ordered), share)
    return sum(w * v for w, v in zip(weights, ordered)), beyond


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its largest child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def objects_digest(rows: list[Any]) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- results ------------------------------------------------------------------


@dataclass
class PhaseResult:
    """What one timed phase did, and what the oracle says about it."""

    wall_s: float
    cpu_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    #: Quality-gate discards: completed, not failed, reported apart.
    discards: int
    digest: str
    pc: float
    problems: list[str]
    #: Timed requests that were registry hits (``warm-recrawl``; the
    #: rest re-induced because their template fingerprint moved).
    hits: int = 0
    #: ``time.perf_counter`` at the start and end of the timed phase.
    start: float = 0.0
    end: float = 0.0


def _grade(
    entry: CatalogEntry, source: GeneratedSource, objects: list, discarded: bool
):
    domain = domain_spec(entry.spec.domain)
    output = SystemOutput(
        system="objectrunner",
        source=entry.spec.name,
        objects=objects,
        failed=discarded,
    )
    return grade_source(domain, source.gold, output)


def _pc(evaluations: list) -> float:
    total = sum(evaluation.objects_total for evaluation in evaluations)
    correct = sum(evaluation.objects_correct for evaluation in evaluations)
    return correct / total if total else 0.0


# -- batch workloads ----------------------------------------------------------


class BatchWorkload:
    """``cold-batch`` / ``cold-batch-proc``: first crawl of every source."""

    def __init__(self, inputs: Inputs, scratch: Path, processes: bool):
        self.inputs = inputs
        self.scratch = scratch
        self.params = (
            RunParams(backend="process", max_workers=PROC_WORKERS)
            if processes
            else RunParams()
        )
        self.workers = PROC_WORKERS if processes else 1
        self.runners: dict[str, ObjectRunner] = {}

    def setup(self) -> None:
        """One runner per domain, each over a fresh empty registry."""
        root = Path(tempfile.mkdtemp(prefix="registry-", dir=self.scratch))
        runners = {}
        for domain_name in self.inputs.domains():
            domain = domain_spec(domain_name)
            knowledge = self.inputs.knowledge[domain_name]
            runners[domain_name] = ObjectRunner(
                domain.sod,
                ontology=knowledge.ontology,
                corpus=knowledge.corpus,
                gazetteer_classes=domain.gazetteer_classes,
                params=self.params,
                extra_gazetteer_entries=self.inputs.completion.get(domain_name, {}),
                wrapper_registry=WrapperRegistry(root / domain_name),
            )
        self.runners = runners

    def prepare(self) -> None:
        """Set-up before a traced pass: fresh runners and registries."""
        self.setup()

    def run(self) -> PhaseResult:
        """The timed phase: one ``run_sources`` call per domain."""
        outcomes = {}
        cpu = cpu_seconds()
        start = time.perf_counter()
        for domain_name, runner in self.runners.items():
            batch = {
                entry.spec.name: self.inputs.sources[entry.spec.name].pages
                for entry in self.inputs.entries
                if entry.spec.domain == domain_name
            }
            outcome = runner.run_sources(batch)
            outcomes.update(outcome.results)
            outcomes.update(outcome.failures)
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu
        self.runners = {}
        phase = self._check(outcomes, end - start, cpu)
        phase.start, phase.end = start, end
        return phase

    def _check(self, outcomes: dict, wall: float, cpu: float) -> PhaseResult:
        latencies, rows, evaluations, problems = [], [], [], []
        failed = discards = 0
        for entry in self.inputs.entries:
            name = entry.spec.name
            outcome = outcomes.get(name)
            if not isinstance(outcome, SourceResult):
                failed += 1
                rows.append([name, "failed"])
                continue
            latencies.append(outcome.timings.total * 1000.0)
            if outcome.discarded:
                discards += 1
                rows.append([name, "discarded", outcome.discard_stage])
            else:
                rows.append(
                    [name, [[o.page_index, o.values] for o in outcome.objects]]
                )
            unstructured = entry.spec.archetype == "unstructured"
            if unstructured != outcome.discarded:
                problems.append(
                    f"{name}: discarded={outcome.discarded}, expected {unstructured}"
                )
            evaluations.append(
                _grade(
                    entry,
                    self.inputs.sources[name],
                    outcome.objects,
                    outcome.discarded,
                )
            )
        pc = _pc(evaluations)
        if pc < PC_FLOOR:
            problems.append(f"pooled Pc {pc:.4f} below {PC_FLOOR}")
        return PhaseResult(
            wall_s=wall,
            cpu_s=cpu,
            latencies_ms=latencies,
            attempted=len(self.inputs.entries),
            failed=failed,
            discards=discards,
            digest=objects_digest(rows),
            pc=pc,
            problems=problems,
        )


# -- warm recrawl -------------------------------------------------------------


def _request(request_id: int, entry: CatalogEntry, pages: list[str], dicts) -> dict:
    domain = domain_spec(entry.spec.domain)
    return {
        "id": request_id,
        "sod": domain.sod_text,
        "pages": pages,
        "source": entry.spec.name,
        "dicts": dicts[domain.name],
    }


class RecrawlWorkload:
    """``warm-recrawl``: closed-loop requests to an in-process service."""

    workers = 1

    def __init__(self, inputs: Inputs, scratch: Path):
        self.inputs = inputs
        self.scratch = scratch
        self.service: ExtractionService | None = None
        self.dicts: dict[str, dict[str, list[str]]] = {}

    def setup(self) -> None:
        """Domain dictionaries and a service over a fresh registry."""
        self.prepare()
        root = Path(tempfile.mkdtemp(prefix="registry-", dir=self.scratch))
        self.service = ExtractionService(WrapperRegistry(root))

    def prepare(self) -> None:
        """Build each domain's dictionary: its gazetteer plus completion.

        Before a traced pass only this part is redone: the populated
        service is kept, so the replayed requests stay registry hits.
        """
        dicts: dict[str, dict[str, list[str]]] = {}
        for domain_name in self.inputs.domains():
            domain = domain_spec(domain_name)
            knowledge = self.inputs.knowledge[domain_name]
            runner = ObjectRunner(
                domain.sod,
                ontology=knowledge.ontology,
                corpus=knowledge.corpus,
                gazetteer_classes=domain.gazetteer_classes,
                extra_gazetteer_entries=self.inputs.completion.get(domain_name, {}),
            )
            dicts[domain_name] = {
                type_name: sorted(gazetteer.entries())
                for type_name, gazetteer in sorted(runner.gazetteers().items())
            }
        self.dicts = dicts

    def populate(self) -> list[str]:
        """First crawl of every site (induce and store); returns problems."""
        problems = []
        for index, entry in enumerate(self.inputs.entries):
            source = self.inputs.sources[entry.spec.name]
            response = self.service.handle(
                _request(-1 - index, entry, source.pages, self.dicts)
            )
            expected = entry.spec.archetype != "unstructured"
            if response["ok"] != expected:
                problems.append(
                    f"population of {entry.spec.name}: ok={response['ok']}"
                )
        return problems

    def run(self) -> PhaseResult:
        """The timed phase: every recrawl request, one after another."""
        service = self.service
        latencies = []
        responses = []
        cpu = cpu_seconds()
        start = time.perf_counter()
        for index, (entry, source) in enumerate(self.inputs.recrawl):
            request = _request(index, entry, source.pages, self.dicts)
            sent = time.perf_counter()
            response = service.handle(request)
            latencies.append((time.perf_counter() - sent) * 1000.0)
            responses.append(response)
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu
        phase = self._check(responses, latencies, end - start, cpu)
        phase.start, phase.end = start, end
        return phase

    def _check(self, responses, latencies, wall, cpu) -> PhaseResult:
        failed = discards = hits = 0
        rows, problems = [], []
        for (entry, __), response in zip(self.inputs.recrawl, responses):
            # A miss is not an error: a site whose few pages vote a new
            # majority fingerprint is re-induced.  It is counted.
            hits += response.get("outcome") == "hit"
            if response["ok"]:
                rows.append([entry.spec.name, response["objects"]])
            elif "discarded" in response.get("error", ""):
                discards += 1
                rows.append([entry.spec.name, "discarded"])
            else:
                failed += 1
                rows.append([entry.spec.name, "failed", response.get("error")])
        pc, mismatches = self._grade_last_round(responses)
        problems.extend(mismatches)
        if pc < PC_FLOOR:
            problems.append(f"pooled Pc {pc:.4f} below {PC_FLOOR}")
        return PhaseResult(
            wall_s=wall,
            cpu_s=cpu,
            latencies_ms=latencies,
            attempted=len(responses),
            failed=failed,
            discards=discards,
            digest=objects_digest(rows),
            pc=pc,
            problems=problems,
            hits=hits,
        )

    def _grade_last_round(self, responses) -> tuple[float, list[str]]:
        """Grade the last round through the library, which keeps page indexes.

        Each site's last request is replayed through ``ObjectRunner`` over
        the same registry and dictionaries; its objects must equal the
        service's response, and are then graded against the gold.
        """
        last: dict[str, int] = {}
        for index, (entry, __) in enumerate(self.inputs.recrawl):
            last[entry.spec.name] = index
        evaluations, problems = [], []
        runners: dict[str, ObjectRunner] = {}
        for name, index in last.items():
            entry, source = self.inputs.recrawl[index]
            domain = domain_spec(entry.spec.domain)
            runner = runners.get(domain.name)
            if runner is None:
                recognizers = RecognizerRegistry()
                for type_name, values in self.dicts[domain.name].items():
                    recognizers.register(GazetteerRecognizer(type_name, values))
                runner = ObjectRunner(
                    domain.sod,
                    registry=recognizers,
                    wrapper_registry=self.service.registry,
                )
                runners[domain.name] = runner
            result = runner.run_source(name, source.pages)
            response = responses[index]
            served = response["objects"] if response["ok"] else None
            library = None if result.discarded else [o.values for o in result.objects]
            if served != library:
                problems.append(f"{name}: service and library outputs differ")
            evaluations.append(_grade(entry, source, result.objects, result.discarded))
        return _pc(evaluations), problems


def make_workload(workload: str, inputs: Inputs, scratch: Path):
    if workload == "warm-recrawl":
        return RecrawlWorkload(inputs, scratch)
    return BatchWorkload(inputs, scratch, processes=workload == "cold-batch-proc")


def import_seconds(checkout: Path, repeats: int) -> list[float]:
    """Seconds to import the program, each in a fresh interpreter."""
    walls = []
    for __ in range(repeats):
        completed = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(checkout / "src")],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        walls.append(float(completed.stdout.strip()))
    return walls


def timed_setup(workload, repeats: int) -> list[float]:
    """Run the repeatable set-up ``repeats`` times; the last one is kept."""
    walls = []
    for __ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        walls.append(time.perf_counter() - start)
    return walls


def scratch_dir(checkout: Path) -> Path:
    path = checkout / ".perfbench" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=path))


def check_digest_pair(
    checkout: Path, workload: str, seed: int, digest: str
) -> list[str]:
    """Record this batch digest; fail if the other batch workload differs.

    ``cold-batch`` and ``cold-batch-proc`` run in separate processes, so
    each run files its digest per seed under ``.perfbench/digests`` and
    compares against the other workload's digest for the same seed.
    """
    if workload == "warm-recrawl":
        return []
    store = checkout / ".perfbench" / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{seed}.json"
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        recorded = {}
    problems = [
        f"objects_digest differs from {other} for seed {seed}"
        for other, theirs in sorted(recorded.items())
        if other != workload and theirs != digest
    ]
    recorded[workload] = digest
    handle, tmp = tempfile.mkstemp(dir=store, suffix=".tmp")
    with os.fdopen(handle, "w", encoding="utf-8") as out:
        json.dump(recorded, out, sort_keys=True)
    os.replace(tmp, path)
    return problems

