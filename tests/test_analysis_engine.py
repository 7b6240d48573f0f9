"""reprolint engine: suppressions, walking, determinism, reporters."""

import json
import textwrap

import pytest

from repro.analysis import (
    analyze_file,
    analyze_paths,
    build_rules,
    render_json,
    render_text,
    rule_registry,
    suppressed_rules,
)
from repro.analysis.engine import PARSE_RULE_ID, collect_files
from repro.analysis.reporters import JSON_SCHEMA_VERSION


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestRegistry:
    def test_all_bundled_rules_registered(self):
        assert {
            "D101", "D102", "D103", "D104", "D105",
            "C201", "C202", "E401", "A501",
        } == set(rule_registry())

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            build_rules(["NOPE999"])

    def test_build_subset(self):
        rules = build_rules(["D101"])
        assert [rule.rule_id for rule in rules] == ["D101"]


class TestSuppressions:
    def test_parse_single(self):
        assert suppressed_rules("x = 1  # repro: ignore[D101]") == {"D101"}

    def test_parse_multiple(self):
        assert suppressed_rules("# repro: ignore[D101, P603]") == {
            "D101",
            "P603",
        }

    def test_no_comment(self):
        assert suppressed_rules("x = 1  # just a comment") == frozenset()

    def test_inline_suppression_marks_finding(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            "import random  # repro: ignore[D101]\n",
        )
        findings = analyze_file(path, tmp_path, build_rules(["D101"]))
        assert [f.status for f in findings] == ["suppressed"]

    def test_wrong_id_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            "import random  # repro: ignore[D102]\n",
        )
        findings = analyze_file(path, tmp_path, build_rules(["D101"]))
        assert [f.status for f in findings] == ["open"]


class TestWalking:
    def test_collect_files_sorted_and_deduped(self, tmp_path):
        write(tmp_path, "pkg/b.py", "x = 1\n")
        write(tmp_path, "pkg/a.py", "x = 1\n")
        write(tmp_path, "pkg/__pycache__/junk.py", "x = 1\n")
        files = collect_files([tmp_path, tmp_path / "pkg" / "a.py"])
        names = [f.name for f in files]
        assert names == ["a.py", "b.py"]

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        path = write(tmp_path, "bad.py", "def broken(:\n")
        findings = analyze_file(path, tmp_path, build_rules(["D101"]))
        assert [f.rule for f in findings] == [PARSE_RULE_ID]


class TestReporters:
    @pytest.fixture()
    def report(self, tmp_path):
        write(tmp_path, "mod.py", "import random\n")
        write(tmp_path, "ok.py", "x = 1\n")
        return analyze_paths([tmp_path], root=tmp_path, rules=build_rules(["D101"]))

    def test_text_report_mentions_location_and_rule(self, report):
        text = render_text(report)
        assert "mod.py:1:0: D101" in text
        assert "reprolint: 2 files, 1 open" in text

    def test_json_report_schema(self, report):
        payload = json.loads(render_json(report))
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        assert set(payload) == {
            "schema_version",
            "root",
            "summary",
            "findings",
        }
        summary = payload["summary"]
        assert set(summary) == {
            "files_scanned", "open", "suppressed", "open_by_rule", "clean",
        }
        assert summary["files_scanned"] == 2
        assert summary["open"] == 1
        assert summary["open_by_rule"] == {"D101": 1}
        assert summary["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "snippet",
            "status",
        }
        assert finding["path"] == "mod.py"
        assert finding["status"] == "open"

    def test_clean_report(self, tmp_path):
        write(tmp_path, "ok.py", "x = 1\n")
        report = analyze_paths(
            [tmp_path], root=tmp_path, rules=build_rules(["D101"])
        )
        assert report.clean
        assert "— clean" in render_text(report)


class TestSuppressionSpans:
    """Suppressions may sit on any physical line of the flagged statement."""

    def test_comment_on_later_line_of_multiline_statement(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            def f(a, b):
                return tuple(
                    set(a) & set(b)  # repro: ignore[D103]
                )
            """,
        )
        findings = analyze_file(path, tmp_path, build_rules(["D103"]))
        assert findings and all(f.status == "suppressed" for f in findings)

    def test_comment_on_decorator_line_covers_the_def(self, tmp_path):
        from repro.analysis import analyze_paths

        path = write(
            tmp_path,
            "mod.py",
            """
            import functools

            @functools.lru_cache  # repro: ignore[A501]
            def orphan():
                return 1
            """,
        )
        report = analyze_paths(
            [path], root=tmp_path, rules=build_rules(["A501"])
        )
        findings = [f for f in report.findings if f.rule == "A501"]
        assert findings and all(f.status == "suppressed" for f in findings)

    def test_unrelated_line_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            # repro: ignore[D103]
            def f(a, b):
                return tuple(set(a) & set(b))
            """,
        )
        findings = analyze_file(path, tmp_path, build_rules(["D103"]))
        assert [f.status for f in findings] == ["open"]
