"""The reprolint CLI: exit codes, JSON and SARIF output, --explain."""

import json
from pathlib import Path

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

# Both fixtures export their symbols so A501 reachability stays quiet
# and each test isolates the signal it actually cares about.
CLEAN = '__all__ = ["double"]\n\nVALUE = 1\n\n\ndef double(x):\n    return VALUE * x\n'
DIRTY = '__all__ = ["roll"]\n\nimport random\n\n\ndef roll():\n    return random.random()\n'


def project(tmp_path, source=DIRTY):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(source, encoding="utf-8")
    return src


def run(tmp_path, src, *extra):
    return main([str(src), "--root", str(tmp_path), *extra])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src) == 0
        assert "— clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src) == 1
        assert "D101" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src, "--rules", "XYZ9") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "D101", "D102", "D103", "D104", "D105",
            "C201", "C202", "E401", "A501",
        ):
            assert rule_id in out
        assert "D106" not in out

    def test_rules_subset_filters(self, tmp_path):
        src = project(tmp_path)  # D101 violation only
        assert run(tmp_path, src, "--rules", "D104") == 0


class TestJsonOutput:
    def test_json_format_parses_and_reports(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["open"] >= 1
        assert payload["findings"][0]["rule"] == "D101"
        assert payload["findings"][0]["path"] == "src/mod.py"


class TestRepoIsClean:
    """Acceptance: the committed tree passes its own linter."""

    def test_src_tree_clean(self, capsys):
        code = main([str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 open" in out


class TestExplain:
    def test_known_rule_prints_doc(self, capsys):
        assert main(["--explain", "D102"]) == 0
        out = capsys.readouterr().out
        assert "D102" in out
        assert "Rationale:" in out
        assert "Example (fires the rule):" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--explain", "Z999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err and "D101" in err

    def test_deleted_taint_rule_is_unknown(self, capsys):
        assert main(["--explain", "D106"]) == 2
        assert "unknown rule 'D106'" in capsys.readouterr().err

    def test_catalog_is_complete(self, capsys):
        """Every registered rule explains itself: doc, rationale, example."""
        from repro.analysis.engine import rule_registry

        for rule_id, cls in sorted(rule_registry().items()):
            assert cls.title, f"{rule_id} has no title"
            assert cls.__doc__, f"{rule_id} has no docstring"
            assert cls.rationale, f"{rule_id} has no rationale"
            assert cls.example, f"{rule_id} has no example"
            assert main(["--explain", rule_id]) == 0
            out = capsys.readouterr().out
            assert "Rationale:" in out
            assert "Example (fires the rule):" in out


class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src, "--format", "sarif") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (sarif_run,) = doc["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "reprolint"
        results = [
            r for r in sarif_run["results"] if r["ruleId"] == "D101"
        ]
        assert results
        (location,) = results[0]["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        uri = location["physicalLocation"]["artifactLocation"]["uri"]
        assert uri == "src/mod.py"
        rule_ids = [r["id"] for r in sarif_run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "D101" in rule_ids

    def test_clean_tree_emits_empty_results(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src, "--format", "sarif") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_suppressed_findings_are_not_results(self, tmp_path, capsys):
        src = project(
            tmp_path,
            DIRTY.replace(
                "random.random()", "random.random()  # repro: ignore[D101]"
            ).replace("import random", "import random  # repro: ignore[D101]"),
        )
        assert run(tmp_path, src, "--format", "sarif") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
