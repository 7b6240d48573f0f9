"""The project graph: symbol tables, import aliases, and call resolution."""

import textwrap

from repro.analysis.graph import (
    ProjectGraph,
    build_single_file_graph,
    module_name,
)

PKG = {
    "pkg/__init__.py": """
        from pkg.core import run
    """,
    "pkg/util.py": """
        def helper():
            return 1
    """,
    "pkg/core.py": """
        import pkg.util as u
        from pkg.util import helper

        class Base:
            def ping(self):
                return helper()

        class Engine(Base):
            def __init__(self, n):
                self.n = n

            def run(self):
                self.step()
                return u.helper()

            def step(self):
                return self.ping()

        def run(n):
            engine = Engine(n)
            return engine.run()
    """,
}


def build_graph(tmp_path, files=None):
    paths = []
    for name, source in (files or PKG).items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return ProjectGraph.build(tmp_path, paths)


def callees(graph, qualname):
    return [s.callee for s in graph.calls.get(qualname, ())]


class TestSymbolTable:
    def test_module_names(self, tmp_path):
        graph = build_graph(tmp_path)
        assert set(graph.modules) == {"pkg", "pkg.core", "pkg.util"}

    def test_src_prefix_stripped(self, tmp_path):
        path = tmp_path / "src" / "top" / "mod.py"
        assert module_name(path, tmp_path) == "top.mod"

    def test_function_qualnames(self, tmp_path):
        graph = build_graph(tmp_path)
        assert "pkg.util:helper" in graph.functions
        assert "pkg.core:Engine.run" in graph.functions
        assert "pkg.core:run" in graph.functions

    def test_aliases_expand_to_absolute_targets(self, tmp_path):
        graph = build_graph(tmp_path)
        core = graph.modules["pkg.core"]
        assert core.aliases["u"] == "pkg.util"
        assert core.aliases["helper"] == "pkg.util.helper"


class TestCallResolution:
    def test_plain_aliased_function_call(self, tmp_path):
        graph = build_graph(tmp_path)
        assert "pkg.util:helper" in callees(graph, "pkg.core:Base.ping")

    def test_module_alias_dotted_call(self, tmp_path):
        graph = build_graph(tmp_path)
        assert "pkg.util:helper" in callees(graph, "pkg.core:Engine.run")

    def test_self_method_call(self, tmp_path):
        graph = build_graph(tmp_path)
        assert "pkg.core:Engine.step" in callees(graph, "pkg.core:Engine.run")

    def test_self_method_resolves_through_base_class(self, tmp_path):
        graph = build_graph(tmp_path)
        assert "pkg.core:Base.ping" in callees(graph, "pkg.core:Engine.step")

    def test_constructor_resolves_to_init(self, tmp_path):
        graph = build_graph(tmp_path)
        assert "pkg.core:Engine.__init__" in callees(graph, "pkg.core:run")

    def test_unresolvable_call_is_none(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {"mod.py": "def f(cb):\n    return cb()\n"},
        )
        assert callees(graph, "mod:f") == [None]


class TestReachability:
    def test_bfs_crosses_modules_and_classes(self, tmp_path):
        graph = build_graph(tmp_path)
        reached = graph.reachable_functions(["pkg.core:Engine.run"])
        assert {
            "pkg.core:Engine.run",
            "pkg.core:Engine.step",
            "pkg.core:Base.ping",
            "pkg.util:helper",
        } <= reached
        assert "pkg.core:run" not in reached

    def test_iter_functions_sorted(self, tmp_path):
        graph = build_graph(tmp_path)
        names = [fn.qualname for fn in graph.iter_functions()]
        assert names == sorted(names)


class TestSingleFileGraph:
    def test_one_module_no_project_imports(self, tmp_path):
        path = tmp_path / "solo.py"
        path.write_text("def f():\n    return g()\n\ndef g():\n    return 1\n")
        graph = build_single_file_graph(path, tmp_path)
        assert set(graph.modules) == {"solo"}
        assert "solo:g" in callees(graph, "solo:f")
