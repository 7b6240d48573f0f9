"""Outputs are byte-identical across PYTHONHASHSEED values.

Set and dict iteration order over strings depends on the interpreter's
hash seed, so any code path that lets a bare set ordering leak into its
output produces different bytes run-to-run.  The reprolint D103 rule
catches these statically; this test catches them dynamically by running
the audited modules — the synthetic site generator and the simulated
Turk selection — in subprocesses with different hash seeds and comparing
digests of everything they produce.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

DIGEST_SCRIPT = """
import hashlib

from repro.datasets import domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.turk.selection import select_catalog_sources

digest = hashlib.sha256()

spec = SiteSpec(
    name="seedcheck-albums",
    domain="albums",
    archetype="mixed_structure",
    total_objects=40,
    seed=("seedcheck", 1),
)
source = generate_source(spec, domain_spec("albums"))
for page in source.pages:
    digest.update(page.encode("utf-8"))
for gold in source.gold:
    digest.update(str(gold.page_index).encode("utf-8"))
    for key in sorted(gold.flat):
        digest.update(f"{key}={gold.flat[key]}".encode("utf-8"))

selected, campaign = select_catalog_sources("albums", scale=0.05, workers=5)
for entry in selected:
    digest.update(entry.spec.name.encode("utf-8"))
for name in campaign.selected:
    digest.update(name.encode("utf-8"))

print(digest.hexdigest())
"""


WRAPPER_ROUNDTRIP_SCRIPT = """
import hashlib
import json
from collections import Counter

from repro.sod.dsl import parse_sod
from repro.wrapper.generate import Wrapper
from repro.wrapper.matching import MatchResult
from repro.wrapper.serialize import wrapper_from_dict, wrapper_to_dict
from repro.wrapper.template import (
    ElementTemplate,
    FieldSlot,
    IteratorSlot,
    StaticSlot,
    Template,
)

# One wrapper exercising every node kind (field, static, iterator,
# element) plus the set/Counter-typed fields whose iteration order is
# hash-seed sensitive.
title = FieldSlot(slot_id=0)
title.annotation_counts = Counter({"title": 3, "artist": 1})
title.occurrences = 7
title.examples = ["Kind of Blue", "A Love Supreme"]
artist = FieldSlot(slot_id=1)
artist.annotation_counts = Counter({"artist": 5})
artist.optional = True
row = ElementTemplate(
    tag="li",
    attr_class="row",
    children=[StaticSlot(text="by "), artist],
)
template = Template(
    roots=[title, IteratorSlot(slot_id=2, unit=row, max_repeats=4)],
    conflicts=1,
    sample_records=9,
)
wrapper = Wrapper(
    source="hashseed-check",
    sod=parse_sod("album(title, artist<kind=predefined>?)"),
    template=template,
    match=MatchResult(
        entity_to_slots={"title": [0], "artist": [1]},
        set_to_iterator={"tracks": 2},
        matched=True,
    ),
    record_tag="li",
    record_path="html/body/ul/li",
    record_class_attr="row",
    record_single_element=False,
    is_list_source=True,
    support=3,
    annotation_types_seen={"title", "artist", "date"},
)

once = json.dumps(wrapper_to_dict(wrapper))
twice = json.dumps(wrapper_to_dict(wrapper_from_dict(json.loads(once))))
assert once == twice, "wrapper -> dict -> wrapper -> dict is not a fixpoint"
print(hashlib.sha256(once.encode("utf-8")).hexdigest())
"""


SHARDED_RUN_SCRIPT = """
import hashlib
import json
import tempfile
from pathlib import Path

from repro.core import ObjectRunner, RunParams, ShardSpec
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.metrics import MetricsObserver
from repro.metrics.bench import (
    BenchConfig,
    BenchSession,
    bench_digest,
    merge_documents,
)
from repro.registry.store import WrapperRegistry

digest = hashlib.sha256()
domain = domain_spec("albums")
knowledge = build_knowledge(domain, coverage=0.25)
sources = {}
for index in range(4):
    spec = SiteSpec(
        name=f"hs-{index}",
        domain="albums",
        archetype="clean",
        total_objects=8,
        seed=("hashseed-shard", index),
    )
    sources[spec.name] = generate_source(spec, domain).pages


def run(backend, workers, shard=None, root=None):
    observer = MetricsObserver()
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        params=RunParams(max_workers=workers, backend=backend, shard=shard),
        observers=(observer,),
        wrapper_registry=WrapperRegistry(root) if root else None,
    )
    return runner.run_sources(sources), observer


def values(outcome):
    return {
        name: [o.values for o in result.objects]
        for name, result in outcome.results.items()
    }


with tempfile.TemporaryDirectory() as tmp:
    # Every backend leaves identical objects, counters and registry bytes.
    for label, backend, workers in (
        ("serial", "thread", 1),
        ("thread", "thread", 4),
        ("process", "process", 4),
    ):
        root = Path(tmp) / label
        outcome, observer = run(backend, workers, root=root)
        digest.update(json.dumps(values(outcome), sort_keys=True).encode())
        digest.update(
            json.dumps(
                observer.merged_registry().counters_snapshot(),
                sort_keys=True,
            ).encode()
        )
        digest.update((root / "index.json").read_bytes())

# A 2-way shard split covers the batch exactly once and reproduces it.
full, __ = run("thread", 1)
union = {}
for index in range(2):
    part, __ = run("thread", 1, shard=ShardSpec(index=index, count=2))
    for name in union:
        assert name not in values(part), "shard overlap"
    union.update(values(part))
assert union == values(full), "shard union differs from full run"
digest.update(json.dumps(union, sort_keys=True).encode())

# Sharded bench captures merge digest-identically to the unsharded one.
base = dict(scale=0.02, systems=("objectrunner",))
unsharded = BenchSession(BenchConfig(**base)).capture()
parts = [
    BenchSession(
        BenchConfig(shard=ShardSpec(index=index, count=2), **base)
    ).capture()
    for index in range(2)
]
merged = merge_documents(parts)
assert bench_digest(merged) == bench_digest(unsharded), "merge digest drift"
digest.update(bench_digest(unsharded).encode())

print(digest.hexdigest())
"""


ANNOTATION_OBJECTS_SCRIPT = """
import hashlib
import json

from repro.core import ObjectRunner, RunParams
from repro.datasets import catalog_entries, domain_spec, generate_source
from repro.datasets.knowledge import build_knowledge, completion_entries

digest = hashlib.sha256()
entries = catalog_entries(scale=0.1)
knowledge = {}
# One source in seven keeps every domain while staying quick.
for entry in entries[::7]:
    domain = domain_spec(entry.spec.domain)
    if entry.spec.domain not in knowledge:
        knowledge[entry.spec.domain] = build_knowledge(domain, coverage=0.2)
    built = knowledge[entry.spec.domain]
    source = generate_source(entry.spec, domain)
    extra = completion_entries(
        domain, source.gold, coverage=0.2, seed=("completion", entry.spec.name)
    )
    for sod_based in (True, False):
        runner = ObjectRunner(
            domain.sod,
            ontology=built.ontology,
            corpus=built.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=RunParams(sod_based_sampling=sod_based),
            extra_gazetteer_entries=extra,
        )
        result = runner.run_source(entry.spec.name, source.pages)
        digest.update(entry.spec.name.encode("utf-8"))
        digest.update(json.dumps(result.sample_page_indexes).encode("utf-8"))
        for instance in result.objects:
            digest.update(str(instance.page_index).encode("utf-8"))
            digest.update(
                json.dumps(instance.values, sort_keys=True, default=str).encode(
                    "utf-8"
                )
            )

print(digest.hexdigest())
"""


def run_with_hashseed(seed: str, script: str = DIGEST_SCRIPT) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_sites_and_turk_selection_stable_across_hash_seeds():
    digests = {run_with_hashseed(seed) for seed in ("0", "1", "4242")}
    assert len(digests) == 1, f"hash-seed dependent output: {digests}"


def test_wrapper_roundtrip_bytes_stable_across_hash_seeds():
    """to_dict∘from_dict∘to_dict is a byte-level fixpoint, any hash seed.

    The wrapper covers all four template node kinds; the in-process
    fixpoint assertion runs inside each subprocess, and the digests of
    the serialized bytes must agree across seeds.
    """
    digests = {
        run_with_hashseed(seed, WRAPPER_ROUNDTRIP_SCRIPT)
        for seed in ("0", "1", "4242")
    }
    assert len(digests) == 1, f"hash-seed dependent wrapper bytes: {digests}"


def test_sharded_runs_byte_identical_across_hash_seeds():
    """The full sharding contract holds under every hash seed.

    Each subprocess asserts in-process that serial, thread and process
    backends produce identical objects, metrics counters and registry
    index bytes; that a 2-way shard split reproduces the full run; and
    that merged per-shard bench captures digest-equal the unsharded
    capture.  The subprocess digests must then agree across seeds, so
    none of those bytes depend on PYTHONHASHSEED either.
    """
    digests = {
        run_with_hashseed(seed, SHARDED_RUN_SCRIPT)
        for seed in ("0", "1", "4242")
    }
    assert len(digests) == 1, f"hash-seed dependent sharded run: {digests}"


def test_annotated_objects_stable_across_hash_seeds():
    """Algorithm 1 sampling (and the random baseline) over catalog
    sources yields the same sample indexes and objects under every hash
    seed: the gazetteer index, the text-node lists and the ancestor
    propagation order never leak set or dict ordering into outputs."""
    digests = {
        run_with_hashseed(seed, ANNOTATION_OBJECTS_SCRIPT)
        for seed in ("0", "1", "4242")
    }
    assert len(digests) == 1, f"hash-seed dependent objects: {digests}"
