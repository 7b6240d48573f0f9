"""Schema-contract inference and the S501–S504 rules.

Each rule gets a seeded-regression fixture proving it fires, a negative
twin proving it stays quiet on conforming code, and the committed
snapshot is pinned byte-identical to one regenerated from the source —
the same determinism bar every other reprolint pass meets.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    analyze_paths,
    build_rules,
    load_snapshot,
    project_schemas,
    render_snapshot,
    schemas_snapshot,
)
from repro.analysis.cli import main
from repro.analysis.engine import collect_files
from repro.analysis.graph import ProjectGraph
from repro.analysis.schemas import FAMILIES

BENCH_OK = '''\
"""Bench fixture."""
BENCH_SCHEMA_VERSION = 1


class BenchSession:
    """Session."""

    def capture(self):
        """Writer."""
        return {"schema_version": BENCH_SCHEMA_VERSION, "systems": {}}


def compare_documents(old, new):
    """Reader."""
    return old.get("systems"), new.get("schema_version")
'''

BENCH_DRIFT = '''\
"""Bench fixture with drift on both sides."""
BENCH_SCHEMA_VERSION = 1


class BenchSession:
    """Session."""

    def capture(self):
        """Writer emits 'ghost' nothing reads."""
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "systems": {},
            "ghost": 1,
        }


def compare_documents(old, new):
    """Reader requires 'phantom' nothing writes."""
    return old.get("systems"), old["phantom"], new.get("schema_version")
'''

STORE_UNGUARDED = '''\
"""Registry fixture with a bare subscript on external input."""
REGISTRY_SCHEMA_VERSION = 1


class RegistryEntry:
    """Entry."""

    def to_dict(self):
        """Writer."""
        return {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data):
        """Reader subscripting without a guard."""
        return data["signature"]
'''

STORE_GUARDED = '''\
"""Registry fixture converting KeyError to a typed error."""
REGISTRY_SCHEMA_VERSION = 1


class RegistryError(ValueError):
    """Typed error."""


class RegistryEntry:
    """Entry."""

    def to_dict(self):
        """Writer."""
        return {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data):
        """Reader with the guard."""
        try:
            return data["signature"]
        except KeyError as exc:
            raise RegistryError(str(exc)) from exc
'''

STORE_HELPER = '''\
"""Registry fixture reading through a _require-style helper chain."""
REGISTRY_SCHEMA_VERSION = 1


class RegistryError(ValueError):
    """Typed error."""


def _require(data, key):
    """Typed required fetch."""
    try:
        return data[key]
    except KeyError as exc:
        raise RegistryError(str(exc)) from exc


class RegistryEntry:
    """Entry."""

    def to_dict(self):
        """Writer."""
        return {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data):
        """Reader routing through the helper."""
        return _require(data, "signature")
'''


def write_tree(tmp_path, tree):
    for rel, source in tree.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def findings_for(tmp_path, tree, rule_ids, scan="metrics"):
    root = write_tree(tmp_path, tree)
    report = analyze_paths(
        [root / scan], root=root, rules=build_rules(rule_ids)
    )
    return report.open_findings


class TestInference:
    def test_writer_reader_and_version_inferred(self, tmp_path):
        root = write_tree(tmp_path, {"metrics/bench.py": BENCH_DRIFT})
        graph = ProjectGraph.build(root, collect_files([root]))
        contract = project_schemas(graph).contracts["bench"]
        assert contract.version == 1
        assert "ghost" in contract.writer_keys()
        assert contract.required_keys() == ["phantom"]
        assert "systems" in contract.optional_keys()

    def test_helper_chain_resolves_key_and_guard(self, tmp_path):
        root = write_tree(tmp_path, {"registry/store.py": STORE_HELPER})
        graph = ProjectGraph.build(root, collect_files([root]))
        contract = project_schemas(graph).contracts["registry_entry"]
        reads = [r for r in contract.reads if r.key == "signature"]
        assert reads and all(r.required and r.guarded for r in reads)
        assert all(r.via == "_require" for r in reads)

    def test_real_tree_families_all_matched(self):
        import repro

        src = __import__("pathlib").Path(repro.__file__).parents[1]
        graph = ProjectGraph.build(src.parent, collect_files([src]))
        schemas = project_schemas(graph)
        assert sorted(schemas.contracts) == sorted(
            family.name for family in FAMILIES
        )
        for contract in schemas.families():
            assert contract.writer_count or contract.reader_count, (
                f"family {contract.family.name} matched no functions"
            )


class TestS501Drift:
    def test_written_never_read_and_required_never_written(self, tmp_path):
        findings = findings_for(
            tmp_path, {"metrics/bench.py": BENCH_DRIFT}, ["S501"]
        )
        messages = [f.message for f in findings]
        assert any("'ghost' is written" in m for m in messages)
        assert any("'phantom' is read as required" in m for m in messages)

    def test_conforming_pair_is_quiet(self, tmp_path):
        assert not findings_for(
            tmp_path, {"metrics/bench.py": BENCH_OK}, ["S501"]
        )

    def test_one_sided_family_is_quiet(self, tmp_path):
        # Writers with no readers in scope (trace_event-style) can't drift.
        source = '''\
        """Pipeline fixture."""


        class PipelineEvent:
            """Event."""

            def to_json(self):
                """Writer only."""
                return {"event": self.kind, "mystery": 1}
        '''
        assert not findings_for(
            tmp_path, {"core/pipeline.py": source}, ["S501"], scan="core"
        )


class TestS502VersionBump:
    def make_snapshot(self, root, source):
        write_tree(root, {"metrics/bench.py": source})
        graph = ProjectGraph.build(root, collect_files([root / "metrics"]))
        (root / "schemas.json").write_text(
            render_snapshot(schemas_snapshot(project_schemas(graph))),
            encoding="utf-8",
        )

    def test_shape_change_without_bump_fires(self, tmp_path):
        self.make_snapshot(tmp_path, BENCH_OK)
        write_tree(tmp_path, {"metrics/bench.py": BENCH_DRIFT})
        report = analyze_paths(
            [tmp_path / "metrics"], root=tmp_path, rules=build_rules(["S502"])
        )
        (finding,) = [
            f for f in report.open_findings if "BENCH_SCHEMA_VERSION" in f.message
        ]
        assert "without bumping" in finding.message
        assert "'ghost'" in finding.message

    def test_shape_change_with_bump_asks_for_regeneration(self, tmp_path):
        self.make_snapshot(tmp_path, BENCH_OK)
        bumped = BENCH_DRIFT.replace(
            "BENCH_SCHEMA_VERSION = 1", "BENCH_SCHEMA_VERSION = 2"
        )
        write_tree(tmp_path, {"metrics/bench.py": bumped})
        report = analyze_paths(
            [tmp_path / "metrics"], root=tmp_path, rules=build_rules(["S502"])
        )
        assert any(
            "regenerate" in f.message and "without bumping" not in f.message
            for f in report.open_findings
        )

    def test_unchanged_tree_is_quiet(self, tmp_path):
        self.make_snapshot(tmp_path, BENCH_OK)
        report = analyze_paths(
            [tmp_path / "metrics"], root=tmp_path, rules=build_rules(["S502"])
        )
        assert not report.open_findings

    def test_missing_snapshot_is_quiet(self, tmp_path):
        write_tree(tmp_path, {"metrics/bench.py": BENCH_DRIFT})
        report = analyze_paths(
            [tmp_path / "metrics"], root=tmp_path, rules=build_rules(["S502"])
        )
        assert not report.open_findings


class TestS503ExternalInput:
    def test_unguarded_subscript_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {"registry/store.py": STORE_UNGUARDED},
            ["S503"],
            scan="registry",
        )
        (finding,) = findings
        assert "'signature'" in finding.message
        assert "KeyError" in finding.message

    def test_try_except_guard_is_quiet(self, tmp_path):
        assert not findings_for(
            tmp_path,
            {"registry/store.py": STORE_GUARDED},
            ["S503"],
            scan="registry",
        )

    def test_helper_guard_is_quiet(self, tmp_path):
        assert not findings_for(
            tmp_path,
            {"registry/store.py": STORE_HELPER},
            ["S503"],
            scan="registry",
        )

    def test_internal_family_exempt(self, tmp_path):
        # bench is not an external family: subscripts there are S504's
        # business (against committed history), not S503's.
        assert not findings_for(
            tmp_path, {"metrics/bench.py": BENCH_DRIFT}, ["S503"]
        )


class TestS504HistoryTolerance:
    def fixture(self, tmp_path, reader_line, history):
        source = BENCH_OK.replace(
            'return old.get("systems"), new.get("schema_version")',
            reader_line,
        )
        write_tree(tmp_path, {"metrics/bench.py": source})
        for name, doc in history.items():
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        report = analyze_paths(
            [tmp_path / "metrics"], root=tmp_path, rules=build_rules(["S504"])
        )
        return report.open_findings

    def test_key_missing_from_history_fires(self, tmp_path):
        findings = self.fixture(
            tmp_path,
            'return old["fresh_key"]',
            {"BENCH_0.json": {"schema_version": 1, "systems": {}}},
        )
        (finding,) = findings
        assert "'fresh_key'" in finding.message
        assert "BENCH_0.json" in finding.message

    def test_key_present_everywhere_is_quiet(self, tmp_path):
        assert not self.fixture(
            tmp_path,
            'return old["systems"]',
            {"BENCH_0.json": {"schema_version": 1, "systems": {}}},
        )

    def test_tolerant_get_is_quiet(self, tmp_path):
        assert not self.fixture(
            tmp_path,
            'return old.get("fresh_key")',
            {"BENCH_0.json": {"schema_version": 1, "systems": {}}},
        )

    def test_no_history_is_quiet(self, tmp_path):
        assert not self.fixture(tmp_path, 'return old["fresh_key"]', {})


class TestSnapshotCli:
    S_RULES = "S501,S502,S503,S504"

    def run(self, tmp_path, *extra):
        return main(
            [
                str(tmp_path / "metrics"),
                "--root",
                str(tmp_path),
                "--no-baseline",
                *extra,
            ]
        )

    def test_schemas_out_writes_canonical_snapshot(self, tmp_path, capsys):
        write_tree(tmp_path, {"metrics/bench.py": BENCH_OK})
        out = tmp_path / "schemas.json"
        assert (
            self.run(
                tmp_path, "--rules", self.S_RULES, "--schemas-out", str(out)
            )
            == 0
        )
        assert "schema snapshot written" in capsys.readouterr().err
        snapshot = load_snapshot(out)
        assert snapshot is not None
        assert snapshot["families"]["bench"]["version"] == 1
        assert "schema_version" in snapshot["families"]["bench"]["writer_keys"]


class TestRealTreeSnapshot:
    def test_committed_snapshot_matches_source(self):
        """The committed schemas.json must track the live tree exactly."""
        from pathlib import Path

        import repro

        src = Path(repro.__file__).parents[1]
        repo = src.parent
        committed = repo / "schemas.json"
        if not committed.exists():
            pytest.skip("no committed snapshot in this checkout")
        graph = ProjectGraph.build(repo, collect_files([src]))
        expected = render_snapshot(schemas_snapshot(project_schemas(graph)))
        assert committed.read_text(encoding="utf-8") == expected, (
            "schemas.json is stale — regenerate with "
            "PYTHONPATH=src python -m repro.analysis src --schemas-out "
            "schemas.json (and bump the family's *_SCHEMA_VERSION if the "
            "writer shape changed)"
        )
