"""Unit tests for the hydra-lint framework: suppressions, runner, CLI."""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.framework import (
    CODE_MISSING_JUSTIFICATION,
    CODE_UNKNOWN_RULE,
    Finding,
    build_context,
    module_name_for,
    parse_suppressions,
    all_rules,
    registered_codes,
)
from repro.lint.runner import (
    CODE_PARSE_ERROR,
    JSON_REPORT_VERSION,
    LintReport,
    collect_files,
    find_project_root,
    lint_file,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

KNOWN = ["HYD101", "HYD501", "HYD502"]


def write(path: Path, source: str) -> Path:
    path.write_text(textwrap.dedent(source))
    return path


class TestFinding:
    def test_render_is_path_line_col_code_message(self):
        finding = Finding(path="src/a.py", line=3, column=5, code="HYD101", message="bad")
        assert finding.render() == "src/a.py:3:5: HYD101 bad"

    def test_to_dict_has_stable_key_set(self):
        finding = Finding(path="a.py", line=1, column=1, code="HYD501", message="m", rule="r")
        assert set(finding.to_dict()) == {"path", "line", "column", "code", "rule", "message"}

    def test_ordering_is_by_location_then_code(self):
        later = Finding(path="b.py", line=1, column=1, code="HYD101", message="")
        earlier = Finding(path="a.py", line=9, column=1, code="HYD502", message="")
        assert sorted([later, earlier]) == [earlier, later]


class TestModuleName:
    def test_src_layout_is_stripped(self):
        assert module_name_for("src/repro/sinks/base.py") == "repro.sinks.base"

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_non_src_path_keeps_its_prefix(self):
        assert module_name_for("benchmarks/trajectory/run.py") == "benchmarks.trajectory.run"


class TestSuppressionParsing:
    def test_trailing_comment_suppresses_its_own_line(self):
        table = parse_suppressions(
            "x = 1  # hydralint: disable=HYD101 -- fixture\n", "a.py", KNOWN
        )
        assert table.codes_by_line == {1: {"HYD101"}}
        assert table.errors == []

    def test_standalone_comment_suppresses_next_code_line(self):
        source = (
            "# hydralint: disable=HYD501 -- long justification\n"
            "# continues over a second comment line\n"
            "\n"
            "try:\n"
            "    pass\n"
            "except ValueError:\n"
            "    pass\n"
        )
        table = parse_suppressions(source, "a.py", KNOWN)
        assert table.codes_by_line == {4: {"HYD501"}}

    def test_multiple_codes_in_one_comment(self):
        table = parse_suppressions(
            "x = 1  # hydralint: disable=HYD101,HYD502 -- both\n", "a.py", KNOWN
        )
        assert table.codes_by_line == {1: {"HYD101", "HYD502"}}

    def test_missing_justification_is_reported_and_not_honoured(self):
        table = parse_suppressions("x = 1  # hydralint: disable=HYD101\n", "a.py", KNOWN)
        assert table.codes_by_line == {}
        assert [f.code for f in table.errors] == [CODE_MISSING_JUSTIFICATION]

    def test_unknown_code_is_reported_and_not_honoured(self):
        table = parse_suppressions(
            "x = 1  # hydralint: disable=HYD999 -- why\n", "a.py", KNOWN
        )
        assert table.codes_by_line == {}
        assert [f.code for f in table.errors] == [CODE_UNKNOWN_RULE]
        assert "HYD999" in table.errors[0].message

    def test_hash_inside_string_is_not_a_comment(self):
        source = 's = "# hydralint: disable=HYD101 -- not a comment"\n'
        table = parse_suppressions(source, "a.py", KNOWN)
        assert table.codes_by_line == {}
        assert table.errors == []

    def test_framework_codes_are_always_known(self):
        codes = registered_codes()
        assert CODE_MISSING_JUSTIFICATION in codes
        assert CODE_UNKNOWN_RULE in codes


class TestBuildContext:
    def test_parent_of_resolves_syntactic_parent(self):
        import ast

        ctx = build_context(Path("a.py"), "x = [1]\n", "a.py", known_codes=KNOWN)
        assign = ctx.tree.body[0]
        assert isinstance(assign, ast.Assign)
        assert ctx.parent_of(assign.value) is assign
        assert ctx.parent_of(ctx.tree) is None

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            build_context(Path("a.py"), "def broken(:\n", "a.py", known_codes=KNOWN)


class TestRunner:
    def test_collect_files_walks_sorted_and_excludes(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write(tmp_path / "pkg" / "b.py", "x = 1\n")
        write(tmp_path / "pkg" / "a.py", "x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        write(tmp_path / "pkg" / "__pycache__" / "a.py", "x = 1\n")
        files = collect_files([tmp_path / "pkg"], tmp_path)
        assert [rel for _path, rel in files] == ["pkg/a.py", "pkg/b.py"]

    def test_collect_files_skips_virtualenv_and_example_output(self, tmp_path):
        for rel in ("repo/.venv/lib/x.py", "repo/examples/out/y.py", "repo/examples/out_csv/z.py"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            write(tmp_path / rel, "x = 1\n")
        write(tmp_path / "repo" / "examples" / "demo.py", "x = 1\n")
        files = collect_files([tmp_path / "repo"], tmp_path)
        assert [rel for _path, rel in files] == ["repo/examples/demo.py"]

    def test_lint_file_runs_only_the_given_rules(self, tmp_path):
        path = write(
            tmp_path / "bad.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        rules = {rule.code: rule for rule in all_rules()}
        unseeded_rng = rules["HYD101"]()
        bare_except = rules["HYD501"]()
        assert lint_file(path, "bad.py", rules=[unseeded_rng]) == []
        findings = lint_file(path, "bad.py", rules=[bare_except])
        assert [f.code for f in findings] == ["HYD501"]

    def test_find_project_root_walks_to_pyproject(self, tmp_path):
        write(tmp_path / "pyproject.toml", "[project]\nname='x'\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_unparsable_file_reports_hyd000(self, tmp_path):
        path = write(tmp_path / "bad.py", "def broken(:\n")
        findings = lint_file(path, "bad.py")
        assert [f.code for f in findings] == [CODE_PARSE_ERROR]

    def test_run_lint_clean_file(self, tmp_path):
        write(tmp_path / "ok.py", "x = 1\n")
        report = run_lint([tmp_path], root=tmp_path)
        assert report.files_scanned == 1
        assert report.findings == []
        assert report.exit_code == 0

    def test_run_lint_finds_and_sorts(self, tmp_path):
        write(
            tmp_path / "bad.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        report = run_lint([tmp_path], root=tmp_path)
        assert report.exit_code == 1
        assert [f.code for f in report.findings] == ["HYD501"]


class TestReportRendering:
    def _report(self) -> LintReport:
        return LintReport(
            findings=[
                Finding(path="a.py", line=1, column=1, code="HYD501", message="m1", rule="r"),
                Finding(path="a.py", line=2, column=1, code="HYD501", message="m2", rule="r"),
            ],
            files_scanned=3,
        )

    def test_text_report_lists_findings_and_summary(self):
        text = self._report().render_text()
        assert "a.py:1:1: HYD501 m1" in text
        assert "2 finding(s) in 3 file(s) (HYD501: 2)" in text

    def test_clean_text_report(self):
        assert LintReport(files_scanned=5).render_text() == "clean: 5 file(s), 0 findings"

    def test_json_report_shape(self):
        payload = json.loads(self._report().render_json())
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["files_scanned"] == 3
        assert payload["counts"] == {"HYD501": 2}
        assert [f["line"] for f in payload["findings"]] == [1, 2]
        assert set(payload["findings"][0]) == {
            "path",
            "line",
            "column",
            "code",
            "rule",
            "message",
        }


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        write(tmp_path / "ok.py", "x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(
            tmp_path / "bad.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert lint_main([str(tmp_path)]) == 1
        assert "HYD501" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        write(tmp_path / "ok.py", "x = 1\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_REPORT_VERSION

    def test_list_rules_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("HYD101", "HYD102", "HYD103", "HYD201", "HYD202"):
            assert code in out
        # One scope per rule, printed as the rule declares it: HYD102 watches
        # the modules that produce manifest bytes, not the export driver
        # whose clock reads feed only the rows/s gauge.
        hyd102_scope = out.split("HYD102", 1)[1].split("scope:", 1)[1].splitlines()[0]
        assert "src/repro/sinks/manifest.py" in hyd102_scope
        assert "src/repro/sinks/base.py" in hyd102_scope
        assert "sinks/export.py" not in hyd102_scope

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["/definitely/not/here.py"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--select", "HYD501"], ["--ignore", "HYD501"], ["--config", "x"], ["--no-config"]],
    )
    def test_removed_configuration_flags_are_usage_errors(self, tmp_path, flags):
        write(tmp_path / "ok.py", "x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path), *flags])
        assert excinfo.value.code == 2

    def test_same_answer_without_a_toml_parser(self, monkeypatch, capsys):
        """The repository is clean on an interpreter without tomllib (3.10)."""
        monkeypatch.setitem(sys.modules, "tomllib", None)
        code = lint_main([str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")])
        assert code == 0, capsys.readouterr().out
