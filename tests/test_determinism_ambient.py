"""Artifacts do not depend on the clock, the environment or the hash seed.

ObjectRunner gives the same wrappers and objects for the same pages, and
every stored artifact is compared byte for byte across backends, hash
seeds and worker counts.  A value read from the process's surroundings
that reaches an artifact breaks that silently, and only on the day the
surroundings differ.  Each test here makes them differ on purpose:

- **Clock.**  One catalog source runs cold twice in one process; the
  second run sees every ``time`` clock shifted by a large, non-integral
  offset.  Artifacts must not move.  Every clock read of the
  package goes through the ``time`` module (``metrics/observer.py``
  included), so patching its attributes reaches them all.
- **Environment.**  A batch, a saved wrapper, a registry and a tiny
  BENCH capture run with ``os.environ`` replaced by a mapping that
  records each key a ``repro`` frame reads.  Only the declared
  variables may appear.
- **Hash seed.**  The same cold run in two fresh interpreters with
  different ``PYTHONHASHSEED`` values.
- **Directory order.**  The registry's ``verify`` and ``gc`` and the
  BENCH artifact discovery run twice over the same files; the second
  time every listing primitive (``os.listdir``, ``os.scandir``,
  ``glob.glob``/``iglob``, ``Path.glob``/``rglob``/``iterdir``) yields
  its entries in reverse.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import time
from collections.abc import MutableMapping
from pathlib import Path
from typing import Iterator

from repro.__main__ import main as repro_main
from repro.core.objectrunner import ObjectRunner
from repro.core.results import MultiSourceResult
from repro.datasets import (
    build_knowledge,
    catalog_entries,
    domain_spec,
    generate_source,
)
from repro.metrics.bench import bench_files, latest_bench, next_seq
from repro.registry import WrapperRegistry
from repro.wrapper.serialize import wrapper_to_dict
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Environment variables the package may read.  The hash seed is BENCH
#: provenance (never compared); the bench scale is the default of
#: ``repro bench --scale``.
DECLARED_ENV = frozenset({"PYTHONHASHSEED", "REPRO_BENCH_SCALE"})

#: Seconds added to every clock in the shifted run: large, with a prime
#: whole part and a fractional part, so a value derived from the clock
#: by ``%``, ``int`` or a timestamp field moves.
CLOCK_OFFSET = 1_000_003.7

#: The catalog source every cold run induces.
SOURCE = "upcoming-yahoo-list"
SCALE = 0.05

SOD = (
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)


def run_batch(registry_root: Path, names: list[str]) -> MultiSourceResult:
    """Run catalog sources of one domain cold into an empty registry."""
    entries = {entry.spec.name: entry for entry in catalog_entries(SCALE)}
    domain = domain_spec(entries[names[0]].spec.domain)
    knowledge = build_knowledge(domain, coverage=0.2)
    runner = ObjectRunner(
        domain.sod,
        ontology=knowledge.ontology,
        corpus=knowledge.corpus,
        gazetteer_classes=domain.gazetteer_classes,
        wrapper_registry=WrapperRegistry(registry_root),
    )
    return runner.run_sources(
        {
            name: generate_source(entries[name].spec, domain).pages
            for name in names
        }
    )


def cold_run_artifacts(registry_root: Path) -> dict[str, object]:
    """Induce :data:`SOURCE` into an empty registry; return what it made."""
    result = run_batch(registry_root, [SOURCE]).results[SOURCE]
    assert result.wrapper is not None and result.objects
    return {
        "wrapper": json.dumps(wrapper_to_dict(result.wrapper), sort_keys=True),
        "objects": json.dumps(
            [instance.values for instance in result.objects], sort_keys=True
        ),
        "registry": {
            path.relative_to(registry_root).as_posix(): path.read_bytes()
            for path in sorted(registry_root.rglob("*"))
            if path.is_file()
        },
    }


def longest_examples(wrapper_json: str) -> int:
    """The most examples any field slot of a serialized wrapper holds."""
    wrapper = json.loads(wrapper_json)
    longest = 0
    stack = list(wrapper["template"]["roots"])
    while stack:
        node = stack.pop()
        longest = max(longest, len(node.get("examples", [])))
        stack.extend(node.get("children", []))
        if "unit" in node:
            stack.append(node["unit"])
    return longest


def test_clock_shift_changes_no_artifact(tmp_path, monkeypatch):
    plain = cold_run_artifacts(tmp_path / "plain")
    # A leak needs lists to reorder: the source must give some.
    assert longest_examples(plain["wrapper"]) >= 3
    offset_ns = int(CLOCK_OFFSET * 1e9)
    for name in ("time", "monotonic", "perf_counter"):
        real = getattr(time, name)
        monkeypatch.setattr(
            time, name, lambda real=real: real() + CLOCK_OFFSET
        )
    real_ns = time.time_ns
    monkeypatch.setattr(time, "time_ns", lambda: real_ns() + offset_ns)
    shifted = cold_run_artifacts(tmp_path / "shifted")
    assert shifted["wrapper"] == plain["wrapper"]
    assert shifted["objects"] == plain["objects"]
    assert shifted["registry"] == plain["registry"]


class RecordingEnviron(MutableMapping):
    """``os.environ`` stand-in that records the keys ``repro`` code reads.

    A read counts when the nearest calling frame outside ``os``, the
    mapping ABCs and this module belongs to a ``repro`` module, so a
    variable read on the package's behalf by ``os.getenv`` counts and
    one read by the standard library for itself does not.
    """

    _SKIPPED = frozenset({"os", "_collections_abc", __name__})

    def __init__(self, real: MutableMapping[str, str]) -> None:
        self._real = dict(real)
        self.read_by_repro: set[str] = set()

    def _record(self, key: str) -> None:
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__") in self._SKIPPED:
            frame = frame.f_back
        if frame is not None and str(frame.f_globals.get("__name__")).startswith(
            "repro"
        ):
            self.read_by_repro.add(key)

    def __getitem__(self, key: str) -> str:
        self._record(key)
        return self._real[key]

    def get(self, key, default=None):
        self._record(key)
        return self._real.get(key, default)

    def __contains__(self, key: object) -> bool:
        self._record(str(key))
        return key in self._real

    def __setitem__(self, key: str, value: str) -> None:
        self._real[key] = value

    def __delitem__(self, key: str) -> None:
        del self._real[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._real)

    def __len__(self) -> int:
        return len(self._real)


def test_environment_reads_are_declared(tmp_path, monkeypatch, capsys):
    pages = []
    for index, page in enumerate((FIGURE3_P1, FIGURE3_P2, FIGURE3_P3)):
        path = tmp_path / f"page{index}.html"
        path.write_text(page, encoding="utf-8")
        pages.append(str(path))
    artists = tmp_path / "artists.txt"
    artists.write_text("Metallica\nColdplay\nMadonna\nMuse\n", encoding="utf-8")
    theaters = tmp_path / "theaters.txt"
    theaters.write_text(
        "Madison Square Garden\nBowery Ballroom\nThe Town Hall\n"
        "B.B King Blues and Grill\n",
        encoding="utf-8",
    )
    wrapper_path = tmp_path / "wrapper.json"

    environ = RecordingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    batch = run_batch(tmp_path / "batch", [SOURCE, "zvents-list"])
    assert batch.sources_ok == 2
    assert repro_main(
        [
            "extract", "--sod", SOD,
            "--dict", f"artist={artists}", "--dict", f"theater={theaters}",
            "--save-wrapper", str(wrapper_path), *pages,
        ]
    ) == 0
    assert repro_main(["extract", "--load-wrapper", str(wrapper_path), *pages]) == 0
    assert repro_main(
        [
            "bench", "--scale", "0.01", "--systems", "objectrunner,roadrunner",
            "--registry", str(tmp_path / "registry"),
            "--out", str(tmp_path / "bench"),
        ]
    ) == 0
    capsys.readouterr()
    assert (tmp_path / "bench" / "BENCH_0.json").exists()
    assert (tmp_path / "registry" / "index.json").exists()
    # The BENCH capture records the hash seed: the recorder sees reads.
    assert "PYTHONHASHSEED" in environ.read_by_repro
    assert environ.read_by_repro <= DECLARED_ENV, sorted(environ.read_by_repro)


HASH_SEED_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from tests.test_determinism_ambient import cold_run_artifacts

with tempfile.TemporaryDirectory() as root:
    artifacts = cold_run_artifacts(Path(root))
digest = hashlib.sha256()
digest.update(artifacts["wrapper"].encode())
digest.update(artifacts["objects"].encode())
for name, data in artifacts["registry"].items():
    digest.update(name.encode())
    digest.update(data)
print(digest.hexdigest())
"""


def test_hash_seed_changes_no_artifact():
    digests = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(REPO_ROOT)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64


class ReversedScandir:
    """An ``os.scandir`` iterator over a fixed list of entries."""

    def __init__(self, entries: list) -> None:
        self._entries = iter(entries)

    def __iter__(self) -> "ReversedScandir":
        return self

    def __next__(self):
        return next(self._entries)

    def __enter__(self) -> "ReversedScandir":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release: the entries were read eagerly."""


def reverse_listings(monkeypatch) -> None:
    """Make every listing primitive yield its entries in reverse.

    A listing made inside another (``Path.glob`` scans with
    ``os.scandir``) passes through, so the outer one is reversed once.
    """
    depth = 0

    def reversing(real, wrap):
        def listing(*args, **kwargs):
            nonlocal depth
            if depth:
                return real(*args, **kwargs)
            depth += 1
            try:
                entries = list(real(*args, **kwargs))
            finally:
                depth -= 1
            return wrap(entries[::-1])

        return listing

    for owner, name, wrap in (
        (os, "listdir", list),
        (os, "scandir", ReversedScandir),
        (glob, "glob", list),
        (glob, "iglob", iter),
        (Path, "glob", iter),
        (Path, "rglob", iter),
        (Path, "iterdir", iter),
    ):
        monkeypatch.setattr(owner, name, reversing(getattr(owner, name), wrap))


def listing_outputs(tmp_path: Path) -> str:
    """What the registry maintenance and BENCH discovery report."""
    registry = WrapperRegistry(tmp_path / "registry")
    for name in ("b" * 64, "a" * 64, "c" * 64):
        registry.entry_path(name).write_text("{}", encoding="utf-8")
    runs = tmp_path / "runs"
    return json.dumps(
        {
            "verify": registry.verify(),
            "gc": registry.gc(dry_run=True),
            "bench_files": [
                [seq, path.name] for seq, path in bench_files(runs)
            ],
            "next_seq": next_seq(runs),
            "latest": latest_bench(runs, before=10).name,
        }
    )


def test_directory_order_changes_no_output(tmp_path, monkeypatch):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seq in ("2", "10", "1", "x"):
        (runs / f"BENCH_{seq}.json").write_text("{}", encoding="utf-8")
    plain = listing_outputs(tmp_path)
    natural = os.listdir(runs)
    reverse_listings(monkeypatch)
    assert os.listdir(runs) == natural[::-1]
    assert listing_outputs(tmp_path) == plain
