"""Fixture-based positive/negative cases for each determinism rule."""

import textwrap

import pytest

from repro.analysis import analyze_file, build_rules


def run_rule(tmp_path, rule_id, source, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return [
        f
        for f in analyze_file(path, tmp_path, build_rules([rule_id]))
        if f.rule == rule_id
    ]


class TestUnseededRandomD101:
    def test_import_flagged(self, tmp_path):
        assert run_rule(tmp_path, "D101", "import random\n")

    def test_from_import_flagged(self, tmp_path):
        assert run_rule(tmp_path, "D101", "from random import choice\n")

    def test_call_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            "D101",
            "import random\n\ndef f():\n    return random.random()\n",
        )
        assert len(findings) == 2  # the import and the call

    def test_rng_module_exempt(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D101",
            "import random\n",
            name="utils/rng.py",
        )

    def test_deterministic_rng_not_flagged(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D101",
            "from repro.utils.rng import DeterministicRng\n"
            "def f():\n    return DeterministicRng(0).random()\n",
        )


class TestWallClockD102:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.time_ns()", "datetime.now()",
         "datetime.datetime.now()", "datetime.utcnow()", "date.today()"],
    )
    def test_clock_calls_flagged(self, tmp_path, call):
        assert run_rule(
            tmp_path, "D102", f"def f():\n    return {call}\n"
        )

    def test_perf_counter_allowed(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D102",
            "import time\n\ndef f():\n    return time.perf_counter()\n",
        )

    def test_observer_module_exempt(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D102",
            "import time\n\ndef f():\n    return time.time()\n",
            name="core/pipeline.py",
        )


class TestWallSleepD105:
    def test_sleep_call_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            "D105",
            "import time\n\ndef f():\n    time.sleep(0.5)\n",
        )
        assert len(findings) == 1
        assert "wall-sleep" in findings[0].message

    def test_sleep_import_flagged(self, tmp_path):
        assert run_rule(tmp_path, "D105", "from time import sleep\n")

    def test_faults_module_exempt(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D105",
            "import time\n\ndef wall_sleep(s):\n    time.sleep(s)\n",
            name="core/faults.py",
        )

    def test_injected_sleep_callable_allowed(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D105",
            "def f(sleep):\n    sleep(0.5)\n",
        )

    def test_other_time_functions_allowed(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D105",
            "import time\n\ndef f():\n    return time.perf_counter()\n",
        )


class TestSetOrderD103:
    def test_tuple_over_set_intersection_flagged(self, tmp_path):
        assert run_rule(
            tmp_path,
            "D103",
            "def f(a, b):\n    return tuple(set(a) & set(b))\n",
        )

    def test_list_over_set_flagged(self, tmp_path):
        assert run_rule(tmp_path, "D103", "def f(a):\n    return list(set(a))\n")

    def test_join_over_set_flagged(self, tmp_path):
        assert run_rule(
            tmp_path, "D103", "def f(a):\n    return ', '.join({x for x in a})\n"
        )

    def test_listcomp_over_set_flagged(self, tmp_path):
        assert run_rule(
            tmp_path, "D103", "def f(a):\n    return [x for x in set(a)]\n"
        )

    def test_dictcomp_over_set_flagged(self, tmp_path):
        assert run_rule(
            tmp_path, "D103", "def f(a):\n    return {x: 1 for x in set(a)}\n"
        )

    def test_accumulating_loop_over_set_flagged(self, tmp_path):
        assert run_rule(
            tmp_path,
            "D103",
            "def f(a):\n"
            "    out = []\n"
            "    for x in set(a):\n"
            "        out.append(x)\n"
            "    return out\n",
        )

    def test_sorted_neutralizes(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D103",
            "def f(a, b):\n    return tuple(sorted(set(a) & set(b)))\n",
        )

    def test_membership_test_not_flagged(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D103",
            "def f(a, x):\n    return x in set(a)\n",
        )

    def test_order_insensitive_loop_not_flagged(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D103",
            "def f(a):\n"
            "    seen = set()\n"
            "    for x in set(a):\n"
            "        seen.add(x)\n"
            "    return seen\n",
        )

    def test_list_of_plain_sequence_not_flagged(self, tmp_path):
        assert not run_rule(tmp_path, "D103", "def f(a):\n    return list(a)\n")


class TestUnsortedListingD104:
    def test_os_listdir_flagged(self, tmp_path):
        assert run_rule(
            tmp_path,
            "D104",
            "import os\n\ndef f(d):\n    return os.listdir(d)\n",
        )

    def test_glob_flagged(self, tmp_path):
        assert run_rule(
            tmp_path,
            "D104",
            "import glob\n\ndef f(p):\n    return glob.glob(p)\n",
        )

    def test_path_iterdir_flagged(self, tmp_path):
        assert run_rule(
            tmp_path, "D104", "def f(path):\n    return [p for p in path.iterdir()]\n"
        )

    def test_path_rglob_flagged(self, tmp_path):
        assert run_rule(
            tmp_path, "D104", "def f(path):\n    return list(path.rglob('*.py'))\n"
        )

    def test_sorted_listing_allowed(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D104",
            "import os\n\ndef f(d):\n    return sorted(os.listdir(d))\n",
        )

    def test_sorted_comprehension_allowed(self, tmp_path):
        assert not run_rule(
            tmp_path,
            "D104",
            "def f(path):\n"
            "    return sorted(p.name for p in path.iterdir())\n",
        )


def analyze_tree(tmp_path, rule_id, files, scan=None):
    """Run one whole-program rule over a fixture tree.

    ``scan`` names the subdirectory to lint (default: everything); the
    rest of the tree still exists on disk, e.g. as A501's tests/
    reference universe.
    """
    from repro.analysis import analyze_paths, build_rules

    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    target = tmp_path / scan if scan else tmp_path
    report = analyze_paths(
        [target], root=tmp_path, rules=build_rules([rule_id])
    )
    return [f for f in report.findings if f.rule == rule_id]


class TestTaintToArtifactD106:
    def test_helper_laundered_clock_reaches_json_dump(self, tmp_path):
        """The seeded regression: time.time() laundered through a helper."""
        findings = analyze_tree(
            tmp_path,
            "D106",
            {
                "app.py": """
                    import json
                    import time

                    def persist(obj, fh):
                        json.dump(obj, fh)

                    def emit(fh):
                        stamp = time.time()
                        persist(stamp, fh)
                """,
            },
        )
        assert len(findings) == 1
        assert "CLOCK" in findings[0].message
        assert "persist()" in findings[0].message
        assert "persist(stamp, fh)" in findings[0].snippet

    def test_direct_env_taint_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "D106",
            {
                "app.py": """
                    import json
                    import os

                    def emit(fh):
                        json.dump(os.environ.get("HOME", ""), fh)
                """,
            },
        )
        assert len(findings) == 1
        assert "ENV" in findings[0].message

    def test_set_order_into_dump_flagged_and_sorted_is_clean(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "D106",
            {
                "app.py": """
                    import json

                    def bad(items, fh):
                        json.dump(list(set(items)), fh)

                    def good(items, fh):
                        json.dump(sorted(set(items)), fh)
                """,
            },
        )
        assert len(findings) == 1
        assert "SET_ORDER" in findings[0].message

    def test_deterministic_payload_clean(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "D106",
            {
                "app.py": (
                    "import json\n\ndef emit(fh):\n"
                    "    json.dump({'n': 1}, fh)\n"
                ),
            },
        )


class TestExceptionContractE401:
    STAGE = """
        from errors import StageError
        from helpers import work, fallback

        class register_stage:
            def __init__(self, cls):
                pass

        @register_stage
        class Clean:
            def run(self, ctx):
                return work(ctx)
    """

    def test_builtin_raise_in_reachable_helper_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "E401",
            {
                "errors.py": "class StageError(Exception):\n    pass\n",
                "stages.py": self.STAGE,
                "helpers.py": """
                    def work(ctx):
                        raise ValueError("boom")

                    def fallback(ctx):
                        return None
                """,
            },
        )
        assert any("ValueError" in f.message for f in findings)

    def test_project_error_raise_clean(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "E401",
            {
                "errors.py": "class StageError(Exception):\n    pass\n",
                "stages.py": self.STAGE,
                "helpers.py": """
                    from errors import StageError

                    def work(ctx):
                        raise StageError("declared contract")

                    def fallback(ctx):
                        return None
                """,
            },
        )
        assert not findings

    def test_unreachable_helper_not_checked_for_raises(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "E401",
            {
                "errors.py": "class StageError(Exception):\n    pass\n",
                "stages.py": self.STAGE,
                "helpers.py": """
                    def work(ctx):
                        return None

                    def fallback(ctx):
                        return None

                    def offline():
                        raise ValueError("never on the stage path")
                """,
            },
        )
        assert not findings

    def test_bare_except_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "E401",
            {
                "mod.py": """
                    def f():
                        try:
                            return 1
                        except:
                            return 0
                """,
            },
        )
        assert any("bare" in f.message.lower() for f in findings)

    def test_silent_broad_swallow_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "E401",
            {
                "mod.py": """
                    def f():
                        try:
                            return 1
                        except Exception:
                            pass
                """,
            },
        )
        assert len(findings) == 1

    def test_broad_handler_that_reraises_clean(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "E401",
            {
                "mod.py": """
                    def f():
                        try:
                            return 1
                        except Exception:
                            raise
                """,
            },
        )

    def test_boundary_module_exempt(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "E401",
            {
                "core/pipeline.py": """
                    def f():
                        try:
                            return 1
                        except:
                            pass
                """,
            },
        )


class TestApiDriftA501:
    def test_broken_all_export_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "A501",
            {
                "mod.py": '__all__ = ["gone"]\n\n\ndef here():\n    return 1\n',
                "other.py": "from mod import here\n\nhere()\n",
            },
        )
        assert any("'gone'" in f.message for f in findings)

    def test_unresolvable_project_import_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "A501",
            {
                "mod.py": "def here():\n    return 1\n",
                "other.py": "from mod import missing\n\nmissing()\n",
            },
        )
        assert any(
            "'from mod import missing'" in f.message for f in findings
        )

    def test_unreferenced_public_symbol_flagged(self, tmp_path):
        findings = analyze_tree(
            tmp_path,
            "A501",
            {
                "mod.py": "def orphan():\n    return 1\n",
            },
        )
        assert any("'orphan'" in f.message for f in findings)

    def test_symbol_referenced_by_sibling_module_clean(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "A501",
            {
                "mod.py": "def used():\n    return 1\n",
                "other.py": "from mod import used\n\nused()\n",
            },
        )

    def test_symbol_used_inside_own_module_clean(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "A501",
            {
                "mod.py": (
                    "LIMIT = 3\n\n\ndef capped(x):\n"
                    "    return min(x, LIMIT)\n\n\ncapped(1)\n"
                ),
            },
        )

    def test_symbol_referenced_from_tests_dir_clean(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "A501",
            {
                "src/mod.py": "def probed():\n    return 1\n",
                "tests/test_mod.py": (
                    "from mod import probed\n\n\ndef test_probed():\n"
                    "    assert probed() == 1\n"
                ),
            },
            scan="src",
        )

    def test_underscored_symbol_ignored(self, tmp_path):
        assert not analyze_tree(
            tmp_path,
            "A501",
            {
                "mod.py": "def _internal():\n    return 1\n",
            },
        )
