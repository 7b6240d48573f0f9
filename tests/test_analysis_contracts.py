"""The C201 stage-contract rule: fixtures plus the real stage modules."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_file
from repro.analysis.rules import StageContractRule, stage_contracts
from repro.core.pipeline import REGISTRY_STAGE_ORDER, stage_registry

REPO_ROOT = Path(__file__).resolve().parents[1]
STAGES_DIR = REPO_ROOT / "src" / "repro" / "core" / "stages"

FIELDS = frozenset(
    {"source", "params", "pages", "raw_pages", "regions", "wrapper", "result"}
)


def run_contract_rule(tmp_path, source, known_fields=FIELDS):
    path = tmp_path / "stagemod.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rule = StageContractRule(known_fields=known_fields)
    return [
        f for f in analyze_file(path, tmp_path, [rule]) if f.rule == "C201"
    ]


GOOD_STAGE = """
    from repro.core.pipeline import Stage, register_stage

    @register_stage
    class GoodStage(Stage):
        name = "good"
        reads = ("raw_pages",)
        writes = ("pages",)

        def run(self, ctx):
            ctx.pages = [raw.upper() for raw in ctx.raw_pages]
            ctx.count("pages", len(ctx.pages))
"""


class TestContractFixtures:
    def test_compliant_stage_clean(self, tmp_path):
        assert not run_contract_rule(tmp_path, GOOD_STAGE)

    def test_missing_declaration_flagged(self, tmp_path):
        findings = run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class Undeclared(Stage):
                name = "undeclared"

                def run(self, ctx):
                    ctx.pages = []
            """,
        )
        assert any("must declare reads and writes" in f.message for f in findings)

    def test_undeclared_read_flagged(self, tmp_path):
        findings = run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class Sneaky(Stage):
                name = "sneaky"
                reads = ()
                writes = ("pages",)

                def run(self, ctx):
                    ctx.pages = list(ctx.regions)
            """,
        )
        assert any(
            "reads ctx.regions" in f.message and "does not declare" in f.message
            for f in findings
        )

    def test_undeclared_write_flagged(self, tmp_path):
        findings = run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class Grabby(Stage):
                name = "grabby"
                reads = ("pages",)
                writes = ()

                def run(self, ctx):
                    ctx.wrapper = object()
            """,
        )
        assert any("writes ctx.wrapper" in f.message for f in findings)

    def test_mutation_through_field_needs_write(self, tmp_path):
        findings = run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class Through(Stage):
                name = "through"
                reads = ("result",)
                writes = ()

                def run(self, ctx):
                    ctx.result.objects = []
            """,
        )
        assert any("writes ctx.result" in f.message for f in findings)

    def test_unknown_field_in_declaration_flagged(self, tmp_path):
        findings = run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class Typo(Stage):
                name = "typo"
                reads = ("pagez",)
                writes = ()

                def run(self, ctx):
                    return None
            """,
        )
        assert any("unknown context field 'pagez'" in f.message for f in findings)

    def test_read_after_declared_write_allowed(self, tmp_path):
        assert not run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class WriteThenRead(Stage):
                name = "wtr"
                reads = ()
                writes = ("pages",)

                def run(self, ctx):
                    ctx.pages = []
                    ctx.count("n", len(ctx.pages))
            """,
        )

    def test_helper_method_with_ctx_param_checked(self, tmp_path):
        findings = run_contract_rule(
            tmp_path,
            """
            from repro.core.pipeline import Stage, register_stage

            @register_stage
            class Helpered(Stage):
                name = "helpered"
                reads = ("pages",)
                writes = ()

                def run(self, ctx):
                    self._helper(ctx)

                def _helper(self, ctx):
                    return ctx.wrapper
            """,
        )
        assert any(
            "reads ctx.wrapper" in f.message and "_helper" in f.message
            for f in findings
        )

    def test_unregistered_class_ignored(self, tmp_path):
        assert not run_contract_rule(
            tmp_path,
            """
            class NotAStage:
                def run(self, ctx):
                    ctx.anything_goes = 1
            """,
        )


class TestRealStages:
    def stage_files(self):
        return sorted(STAGES_DIR.glob("*.py"))

    def test_rule_covers_all_registered_stages(self):
        names = set()
        for path in self.stage_files():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(c.stage_name for c in stage_contracts(tree))
        assert names == set(REGISTRY_STAGE_ORDER)
        assert names == set(stage_registry())

    def test_real_stage_modules_clean(self):
        rule = StageContractRule()
        for path in self.stage_files():
            findings = [
                f
                for f in analyze_file(path, REPO_ROOT, [rule])
                if f.rule == "C201"
            ]
            assert findings == [], f"{path.name}: {findings}"

    @pytest.mark.parametrize("name", REGISTRY_STAGE_ORDER)
    def test_registered_classes_declare_contracts(self, name):
        cls = stage_registry()[name]
        assert isinstance(cls.reads, tuple)
        assert isinstance(cls.writes, tuple)
        # Declarations live on the concrete class, not inherited defaults.
        assert "reads" in cls.__dict__ and "writes" in cls.__dict__

    def test_declared_fields_exist_on_context(self):
        from repro.core.pipeline import PipelineContext

        context_fields = set(PipelineContext.__dataclass_fields__)
        for name, cls in stage_registry().items():
            unknown = (set(cls.reads) | set(cls.writes)) - context_fields
            assert not unknown, f"{name}: {unknown}"


def run_transitive_rule(tmp_path, files):
    """Run C202 over a fixture tree (whole-program mode)."""
    from repro.analysis import analyze_paths, build_rules

    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    report = analyze_paths(
        [tmp_path], root=tmp_path, rules=build_rules(["C202"])
    )
    return [f for f in report.findings if f.rule == "C202"]


TRANSITIVE_STAGE = """
    from repro.core.pipeline import Stage, register_stage
    from helpers import {helper}

    @register_stage
    class Laundering(Stage):
        name = "laundering"
        reads = ("raw_pages",)
        writes = ("pages",)

        def run(self, ctx):
            {helper}(ctx)
"""


class TestTransitiveContractsC202:
    def test_undeclared_write_through_helper_flagged(self, tmp_path):
        findings = run_transitive_rule(
            tmp_path,
            {
                "stagemod.py": TRANSITIVE_STAGE.format(helper="sneaky"),
                "helpers.py": """
                    def sneaky(ctx):
                        ctx.regions = []
                """,
            },
        )
        assert len(findings) == 1
        assert "writes ctx.regions" in findings[0].message
        assert findings[0].path == "stagemod.py"  # anchored at the call site

    def test_undeclared_read_through_two_hops_flagged(self, tmp_path):
        findings = run_transitive_rule(
            tmp_path,
            {
                "stagemod.py": TRANSITIVE_STAGE.format(helper="outer"),
                "helpers.py": """
                    def outer(ctx):
                        return inner(ctx)

                    def inner(ctx):
                        return ctx.wrapper
                """,
            },
        )
        assert len(findings) == 1
        assert "reads ctx.wrapper" in findings[0].message

    def test_declared_access_through_helper_clean(self, tmp_path):
        assert not run_transitive_rule(
            tmp_path,
            {
                "stagemod.py": TRANSITIVE_STAGE.format(helper="honest"),
                "helpers.py": """
                    def honest(ctx):
                        ctx.pages = list(ctx.raw_pages)
                """,
            },
        )

    def test_observability_fields_always_allowed(self, tmp_path):
        assert not run_transitive_rule(
            tmp_path,
            {
                "stagemod.py": TRANSITIVE_STAGE.format(helper="counting"),
                "helpers.py": """
                    def counting(ctx):
                        ctx.count("pages", 1)
                """,
            },
        )

    def test_declared_write_allows_helper_read_of_same_field(self, tmp_path):
        assert not run_transitive_rule(
            tmp_path,
            {
                "stagemod.py": TRANSITIVE_STAGE.format(helper="rereads"),
                "helpers.py": """
                    def rereads(ctx):
                        ctx.pages = [p for p in ctx.pages]
                """,
            },
        )
