"""CLI surface of the analysis: --explain, --format, baselines, and
the pytest plugin fixtures.
"""

import json
import textwrap

from repro.lint.baseline import (
    apply_baseline,
    inline_disabled_rules,
    load_baseline,
    render_baseline,
)
from repro.lint.catalog import RULES, explain
from repro.lint.cli import main as lint_main
from repro.lint.findings import Finding

DIRTY_SOURCE = """\
    def poke(cache, index):
        cache.line_block[index] = -1
    """


def write_dirty(tmp_path):
    path = tmp_path / "rogue.py"
    path.write_text(textwrap.dedent(DIRTY_SOURCE))
    return str(path)


class TestExplain:
    def test_every_rule_has_a_catalog_entry(self):
        assert set(RULES) == {
            "E000", "R001", "R002", "R003", "R004",
            "R005", "R006", "R007", "R008",
        }

    def test_explain_prints_catalog_entry(self, capsys):
        assert lint_main(["--explain", "R006"]) == 0
        out = capsys.readouterr().out
        assert "Cache-key soundness" in out
        assert "cache_inert_fields" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert lint_main(["--explain", "r008"]) == 0
        assert "Transitive hot-path purity" in capsys.readouterr().out

    def test_unknown_rule_exits_2(self, capsys):
        assert lint_main(["--explain", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_helper_returns_none_for_unknown(self):
        assert explain("R999") is None


class TestFormats:
    def test_json_format(self, tmp_path, capsys):
        path = write_dirty(tmp_path)
        assert lint_main(["--format", "json", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "R002"
        assert finding["path"] == path
        assert finding["line"] == 2

    def test_sarif_format(self, tmp_path, capsys):
        path = write_dirty(tmp_path)
        assert lint_main(["--format", "sarif", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "R008" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R002"
        assert (result["locations"][0]["physicalLocation"]["region"]
                ["startLine"] == 2)

    def test_sarif_clean_run_has_empty_results(self, tmp_path,
                                               capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert lint_main(["--format", "sarif", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []


class TestBaseline:
    def test_write_then_enforce_roundtrip(self, tmp_path, capsys):
        path = write_dirty(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert lint_main(["--write-baseline", baseline, path]) == 0
        capsys.readouterr()
        assert lint_main(["--baseline", baseline, path]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out and "1 baselined" in out

    def test_new_finding_still_fails(self, tmp_path, capsys):
        path = write_dirty(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert lint_main(["--write-baseline", baseline, path]) == 0
        capsys.readouterr()
        extra = tmp_path / "more.py"
        extra.write_text(textwrap.dedent("""\
            def jab(cache, index):
                cache.state[index] = 1
            """))
        assert lint_main(["--baseline", baseline,
                          str(tmp_path)]) == 1
        assert "R002" in capsys.readouterr().out

    def test_stale_entries_are_reported(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "findings": [{
                "rule": "R002", "path": "gone.py",
                "message": "old", "justification": "was fixed",
            }],
        }))
        assert lint_main(["--baseline", str(baseline),
                          str(clean)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        path = write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\"findings\": 3}")
        assert lint_main(["--baseline", str(baseline), path]) == 2

    def test_apply_matches_on_message_not_line(self):
        finding = Finding("R005", "src/x.py", 99, "msg")
        entries = load = [{
            "rule": "R005", "path": "src/x.py", "message": "msg",
        }]
        new, accepted, stale = apply_baseline([finding], entries)
        assert new == [] and accepted == [finding] and stale == []
        assert load is entries

    def test_render_roundtrips_through_load(self, tmp_path):
        finding = Finding("R006", "src/y.py", 4, "field not covered")
        path = tmp_path / "b.json"
        path.write_text(render_baseline([finding],
                                        justification="reviewed"))
        entries = load_baseline(str(path))
        assert entries[0]["rule"] == "R006"
        assert entries[0]["justification"] == "reviewed"


class TestInlineSuppression:
    def test_comment_parsing(self):
        assert inline_disabled_rules(
            "x = 1  # lint: disable=R005"
        ) == {"R005"}
        assert inline_disabled_rules(
            "x = 1  # lint: disable=R005, R008"
        ) == {"R005", "R008"}
        assert inline_disabled_rules("x = 1  # plain") == frozenset()


class TestPytestPlugin:
    def test_repro_lint_fixture_overrides(self, repro_lint,
                                          tmp_path):
        path = tmp_path / "hot.py"
        path.write_text(textwrap.dedent("""\
            class Machine:
                def run(self, refs):
                    for ref in refs:
                        self.cache.touch(ref)
            """))
        found = repro_lint([str(path)], hot_loops=("Machine.run",))
        assert any(f.rule == "R001" for f in found)

    def test_assert_lint_clean_passes_on_clean(self,
                                               assert_lint_clean,
                                               tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert_lint_clean([str(path)])

    def test_assert_lint_clean_fails_with_rendered_findings(
            self, assert_lint_clean, tmp_path):
        import pytest as _pytest

        path = tmp_path / "rogue.py"
        path.write_text(textwrap.dedent(DIRTY_SOURCE))
        with _pytest.raises(AssertionError, match="R002"):
            assert_lint_clean([str(path)])
