"""The process-boundary analysis and the P601–P604 rules.

Every rule gets seeded-regression fixtures proving it fires (including
the PR 9 miss-counter bug shape for P602) and negative twins proving it
stays quiet on conforming code; the pass itself is pinned byte-identical
between cold, ``--cache`` and ``--changed-only`` runs.
"""

import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, build_rules
from repro.analysis.cli import main
from repro.analysis.engine import collect_files
from repro.analysis.graph import ProjectGraph
from repro.analysis.procbound import ProcessBoundaryAnalysis, process_boundary
from repro.analysis.rules.concurrency import SharedStateRule

REPO_ROOT = Path(__file__).resolve().parents[1]

P_RULES = "P601,P602,P603,P604"

#: A conforming process backend: picklable task spec, keyed merge,
#: complete homeward surface.  Every rule must stay quiet on this.
BACKEND_OK = '''\
"""Clean process backend fixture."""
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


@dataclass
class ShardTask:
    """Picklable task spec."""

    items: tuple


class ShardStats:
    """Worker stats with a complete homeward surface."""

    def __init__(self):
        self._hits = 0
        self._misses = 0

    def record(self, hit):
        """Count one lookup."""
        if hit:
            self._hits += 1
        else:
            self._misses += 1

    def __getstate__(self):
        """Ship both counters home."""
        return {"hits": self._hits, "misses": self._misses}

    def __setstate__(self, state):
        """Rebuild from shipped state."""
        self._hits = state["hits"]
        self._misses = state["misses"]


def _worker(task):
    """Worker entrypoint."""
    stats = ShardStats()
    writes = {}
    for item in task.items:
        stats.record(item in writes)
        writes[item] = len(item)
    return stats, writes


def run(items, workers):
    """Dispatcher with a keyed (order-insensitive) merge."""
    tasks = [ShardTask(items=chunk) for chunk in chunks(items, workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_worker, tasks))
    merged = {}
    for stats, writes in results:
        for key, value in writes.items():
            merged[key] = value
    return merged


def chunks(items, count):
    """Deterministic chunking."""
    return [tuple(items[i::count]) for i in range(count)]
'''


def write_tree(tmp_path, tree):
    for rel, source in tree.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def findings_for(tmp_path, tree, rule_ids, scan="backend"):
    root = write_tree(tmp_path, tree)
    report = analyze_paths(
        [root / scan], root=root, rules=build_rules(rule_ids)
    )
    return report.open_findings


def analysis_for(tmp_path, tree):
    root = write_tree(tmp_path, tree)
    graph = ProjectGraph.build(root, collect_files([root]))
    return process_boundary(graph)


class TestWorkerReachability:
    def test_entrypoint_closure_and_instantiation_closure(self, tmp_path):
        analysis = analysis_for(
            tmp_path, {"backend/runner.py": BACKEND_OK}
        )
        (dispatch,) = analysis.dispatches
        assert dispatch.entry == "backend.runner:_worker"
        names = {q.partition(":")[2] for q in analysis.worker_reachable}
        assert "_worker" in names
        # ShardStats is constructed inside the worker, so all its
        # methods (including record) join the worker-reachable set.
        assert "ShardStats.record" in names
        # The dispatcher itself is parent-side only.
        assert "run" not in names

    def test_clean_backend_is_quiet_on_all_rules(self, tmp_path):
        assert not findings_for(
            tmp_path,
            {"backend/runner.py": BACKEND_OK},
            P_RULES.split(","),
        )


class TestP601Picklability:
    def test_lambda_entrypoint_fires(self, tmp_path):
        source = '''\
        """Lambda entrypoint fixture."""
        from concurrent.futures import ProcessPoolExecutor


        def run(items):
            """Dispatch onto a lambda."""
            with ProcessPoolExecutor() as pool:
                return list(pool.map(lambda item: item * 2, items))
        '''
        (finding,) = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P601"]
        )
        assert "lambda" in finding.message

    def test_unpicklable_value_in_ctor_flow_fires(self, tmp_path):
        source = '''\
        """Lock smuggled into the task spec."""
        import threading
        from concurrent.futures import ProcessPoolExecutor
        from dataclasses import dataclass


        @dataclass
        class ShardTask:
            """Task spec with a lock field."""

            items: tuple
            lock: object


        def _worker(task: ShardTask):
            """Worker entrypoint."""
            return len(task.items)


        def run(items):
            """Dispatcher handing each task a live lock."""
            tasks = [ShardTask(items=tuple(items), lock=threading.Lock())]
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_worker, tasks))
        '''
        findings = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P601"]
        )
        assert findings
        assert any(
            "threading.Lock" in f.message and "'lock'" in f.message
            for f in findings
        )

    def test_unpicklable_class_crossing_boundary_fires(self, tmp_path):
        source = '''\
        """Boundary class holding a lock without pickle hooks."""
        import threading
        from concurrent.futures import ProcessPoolExecutor


        class ShardTask:
            """Unpicklable task spec."""

            def __init__(self, items):
                self.items = items
                self.lock = threading.Lock()


        def _worker(task: ShardTask):
            """Worker entrypoint annotated with the class."""
            return len(task.items)


        def run(items):
            """Dispatcher."""
            tasks = [ShardTask(items)]
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_worker, tasks))
        '''
        findings = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P601"]
        )
        assert any(
            "ShardTask" in f.message and "__getstate__" in f.message
            for f in findings
        )

    def test_interprocedural_flow_through_caller_fires(self, tmp_path):
        source = '''\
        """The lock arrives through a helper's parameter."""
        import threading
        from concurrent.futures import ProcessPoolExecutor
        from dataclasses import dataclass


        @dataclass
        class ShardTask:
            """Task spec."""

            items: tuple
            guard: object


        def _worker(task: ShardTask):
            """Worker entrypoint."""
            return len(task.items)


        def make_task(items, guard):
            """Builds the spec from caller-supplied parts."""
            return ShardTask(items=tuple(items), guard=guard)


        def run(items):
            """Dispatcher passing the lock one level up."""
            tasks = [make_task(items, threading.Lock())]
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_worker, tasks))
        '''
        findings = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P601"]
        )
        assert any("via make_task()" in f.message for f in findings)

    def test_getstate_neutralizes_unpicklable_field(self, tmp_path):
        source = '''\
        """A lock-holding class that controls its own pickling."""
        import threading
        from concurrent.futures import ProcessPoolExecutor


        class ShardTask:
            """Task spec dropping the lock at pickle time."""

            def __init__(self, items):
                self.items = items
                self.lock = threading.Lock()

            def __getstate__(self):
                """Drop the lock."""
                return {"items": self.items}

            def __setstate__(self, state):
                """Recreate the lock."""
                self.items = state["items"]
                self.lock = threading.Lock()


        def _worker(task: ShardTask):
            """Worker entrypoint."""
            return len(task.items)


        def run(items):
            """Dispatcher."""
            tasks = [ShardTask(items)]
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_worker, tasks))
        '''
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P601"]
        )


#: The PR 9 miss-counter bug shape: a counter mutated worker-side whose
#: value never appears in __getstate__ — state that dies with the worker.
MISS_COUNTER_BUG = '''\
"""Seeded regression: the miss counter never ships home."""
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


@dataclass
class ShardTask:
    """Task spec."""

    items: tuple


class ShardStats:
    """Stats whose homeward surface misses one counter."""

    def __init__(self):
        self._hits = 0
        self._misses = 0

    def record(self, hit):
        """Count one lookup."""
        if hit:
            self._hits += 1
        else:
            self._misses += 1

    def __getstate__(self):
        """Ships hits only — misses are silently dropped on merge."""
        return {"hits": self._hits}


def _worker(task):
    """Worker entrypoint."""
    stats = ShardStats()
    for item in task.items:
        stats.record(bool(item))
    return stats


def run(items, workers):
    """Dispatcher."""
    tasks = [ShardTask(items=tuple(items))]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, tasks))
'''


class TestP602HomewardSurface:
    def test_miss_counter_bug_shape_fires(self, tmp_path):
        (finding,) = findings_for(
            tmp_path, {"backend/runner.py": MISS_COUNTER_BUG}, ["P602"]
        )
        assert "'_misses'" in finding.message
        assert "record()" in finding.message
        assert "lost on merge" in finding.message

    def test_complete_surface_is_quiet(self, tmp_path):
        assert not findings_for(
            tmp_path, {"backend/runner.py": BACKEND_OK}, ["P602"]
        )

    def test_adopt_method_counts_as_surface(self, tmp_path):
        source = MISS_COUNTER_BUG.replace(
            '''    def __getstate__(self):
        """Ships hits only — misses are silently dropped on merge."""
        return {"hits": self._hits}
''',
            '''    def __getstate__(self):
        """Ships hits only."""
        return {"hits": self._hits}

    def adopt_counts(self, other):
        """Order-pinned fold reading both counters."""
        self._hits += other._hits
        self._misses += other._misses
''',
        )
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P602"]
        )

    def test_parent_side_class_is_out_of_scope(self, tmp_path):
        # A class with a homeward protocol but no worker-reachable
        # methods is parent-side bookkeeping, not boundary state.
        source = MISS_COUNTER_BUG.replace(
            "    stats = ShardStats()\n"
            "    for item in task.items:\n"
            "        stats.record(bool(item))\n"
            "    return stats",
            "    return len(task.items)",
        )
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P602"]
        )


class TestP603SplitBrain:
    SPLIT_BRAIN = '''\
    """Worker code reading and writing a module global."""
    from concurrent.futures import ProcessPoolExecutor

    _SEEN = {}


    def _worker(item):
        """Memoizes into per-process state."""
        if item in _SEEN:
            return _SEEN[item]
        _SEEN[item] = len(item)
        return _SEEN[item]


    def run(items):
        """Dispatcher."""
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_worker, items))
    '''

    def test_read_write_global_fires(self, tmp_path):
        (finding,) = findings_for(
            tmp_path, {"backend/runner.py": self.SPLIT_BRAIN}, ["P603"]
        )
        assert "'_SEEN'" in finding.message
        assert "diverges" in finding.message
        # Anchored at the global's definition statement.
        assert finding.snippet.startswith("_SEEN")

    def test_read_only_global_is_quiet(self, tmp_path):
        source = self.SPLIT_BRAIN.replace(
            '''        if item in _SEEN:
            return _SEEN[item]
        _SEEN[item] = len(item)
        return _SEEN[item]''',
            "        return _SEEN.get(item, len(item))",
        )
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P603"]
        )

    def test_local_shadow_is_quiet(self, tmp_path):
        source = self.SPLIT_BRAIN.replace(
            '''        if item in _SEEN:
            return _SEEN[item]
        _SEEN[item] = len(item)
        return _SEEN[item]''',
            '''        _SEEN = {}
        _SEEN[item] = len(item)
        return _SEEN[item]''',
        )
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P603"]
        )

    def test_parent_side_global_is_quiet(self, tmp_path):
        # The dispatcher (parent side) may touch module state freely;
        # only worker-reachable access splits brains.
        source = '''\
        """Global touched by the dispatcher only."""
        from concurrent.futures import ProcessPoolExecutor

        _RUNS = {}


        def _worker(item):
            """Pure worker."""
            return len(item)


        def run(items):
            """Dispatcher counting runs parent-side."""
            _RUNS["count"] = _RUNS.get("count", 0) + 1
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_worker, items))
        '''
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P603"]
        )


class TestP604MergeFolds:
    def test_dict_update_fold_fires(self, tmp_path):
        source = BACKEND_OK.replace(
            """    merged = {}
    for stats, writes in results:
        for key, value in writes.items():
            merged[key] = value
    return merged""",
            """    merged = {}
    for stats, writes in results:
        merged.update(writes)
    return merged""",
        )
        (finding,) = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P604"]
        )
        assert "'merged.update(...)'" in finding.message
        assert "shard order" in finding.message

    def test_list_extend_fold_fires(self, tmp_path):
        source = BACKEND_OK.replace(
            """    merged = {}
    for stats, writes in results:
        for key, value in writes.items():
            merged[key] = value
    return merged""",
            """    merged = []
    for stats, writes in results:
        merged.extend(writes)
    return merged""",
        )
        (finding,) = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P604"]
        )
        assert "'merged.extend(...)'" in finding.message

    def test_augassign_fold_fires(self, tmp_path):
        source = BACKEND_OK.replace(
            """    merged = {}
    for stats, writes in results:
        for key, value in writes.items():
            merged[key] = value
    return merged""",
            """    total = 0
    for stats, writes in results:
        total += len(writes)
    return total""",
        )
        (finding,) = findings_for(
            tmp_path, {"backend/runner.py": source}, ["P604"]
        )
        assert "'total += ...'" in finding.message

    def test_keyed_store_is_quiet(self, tmp_path):
        assert not findings_for(
            tmp_path, {"backend/runner.py": BACKEND_OK}, ["P604"]
        )

    def test_adopt_fold_is_quiet(self, tmp_path):
        source = BACKEND_OK.replace(
            """    merged = {}
    for stats, writes in results:
        for key, value in writes.items():
            merged[key] = value
    return merged""",
            """    observer = ShardStats()
    for stats, writes in results:
        observer.adopt_stats(stats)
    return observer""",
        )
        assert not findings_for(
            tmp_path, {"backend/runner.py": source}, ["P604"]
        )


class TestSuppressionAndBaseline:
    def test_inline_suppression_works(self, tmp_path):
        source = MISS_COUNTER_BUG.replace(
            "            self._misses += 1",
            "            self._misses += 1  # repro: ignore[P602]",
        )
        root = write_tree(tmp_path, {"backend/runner.py": source})
        report = analyze_paths(
            [root / "backend"], root=root, rules=build_rules(["P602"])
        )
        assert not report.open_findings
        assert report.by_status("suppressed")


class TestByteIdentity:
    def run_cli(self, tmp_path, *extra):
        return main(
            [
                str(tmp_path / "backend"),
                "--root",
                str(tmp_path),
                "--no-baseline",
                "--rules",
                P_RULES,
                "--format",
                "json",
                *extra,
            ]
        )

    def test_cold_cache_changed_only_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        write_tree(tmp_path, {"backend/runner.py": MISS_COUNTER_BUG})
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "-qm", "seed"],
            cwd=tmp_path,
            check=True,
        )
        monkeypatch.chdir(tmp_path)
        outputs = {}
        for label, extra in {
            "cold": (),
            "warm": ("--cache", str(tmp_path / "cache.json")),
            "warm2": ("--cache", str(tmp_path / "cache.json")),
        }.items():
            assert self.run_cli(tmp_path, *extra) == 1
            outputs[label] = capsys.readouterr().out
        # Touch the fixture so --changed-only re-checks it.
        runner = tmp_path / "backend" / "runner.py"
        runner.write_text(
            runner.read_text(encoding="utf-8") + "\n", encoding="utf-8"
        )
        assert self.run_cli(tmp_path, "--changed-only") == 1
        outputs["changed"] = capsys.readouterr().out
        assert outputs["warm"] == outputs["cold"]
        assert outputs["warm2"] == outputs["cold"]
        assert outputs["changed"] == outputs["cold"]


class TestRepoCoverage:
    """The boundary analyses still see the repository's real fan-out.

    Both batch callers hand their item functions to the executor; the
    analyses must keep finding the dispatch sites, the worker-side item
    functions and the modules T301 guards, or lint coverage silently
    shrinks while the tree stays "clean".
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return ProjectGraph.build(
            REPO_ROOT, collect_files([REPO_ROOT / "src"])
        )

    def test_dispatch_sites_resolve_to_both_worker_entries(self, graph):
        analysis = ProcessBoundaryAnalysis.build(graph)
        assert [d.entry for d in analysis.dispatches] == [
            "repro.core.objectrunner:_run_process_shard",
            "repro.metrics.bench:_bench_shard_worker",
        ]

    def test_item_functions_and_homeward_surface_are_worker_reachable(
        self, graph
    ):
        reachable = ProcessBoundaryAnalysis.build(graph).worker_reachable
        for qualname in (
            "repro.core.objectrunner:ObjectRunner._run_item",
            "repro.metrics.bench:BenchSession._run_entry",
            "repro.metrics.observer:MetricsObserver.adopt_source",
            "repro.registry.store:StagedRegistryView.export",
        ):
            assert qualname in reachable, qualname

    def test_t301_reaches_the_analysis_pool_and_the_pipeline(self, graph):
        # The analysis engine holds the only thread pool under src; T301
        # must still cover it, the rule modules it runs, and the pipeline
        # those rules import.
        rule = SharedStateRule()
        rule.prepare_graph(graph)
        src = (REPO_ROOT / "src").resolve()
        reached = {
            Path(path).resolve().relative_to(src).as_posix()
            for path in rule._reachable_files
        }
        assert {
            "repro/analysis/engine.py",
            "repro/analysis/rules/determinism.py",
            "repro/core/pipeline.py",
        } <= reached
