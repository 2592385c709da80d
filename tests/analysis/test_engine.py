"""Engine-level behavior: baseline round trip, exit codes, CLI, JSON."""

import json

import pytest

from repro.analysis import (
    LintContext,
    LintError,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.cli import main

from tests.analysis.conftest import FIXTURES


def _fixture_ctx():
    return LintContext(
        sim_paths=("",),
        hash_surfaces={("fixtures/hash_cases.py", "LeakySpec"):
                       ("canonical",)},
        events=frozenset({"known.event"}),
        metrics=frozenset({"known.metric"}))


class TestBaseline:
    def test_round_trip_silences_everything(self, tmp_path):
        report = run_lint(FIXTURES, ctx=_fixture_ctx())
        assert report.findings and report.exit_code == 1

        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, report.findings)
        entries = load_baseline(baseline)
        # Keys are line-insensitive, so findings sharing rule+file+message
        # (e.g. two identical REP204s in one file) share one entry.
        assert len(entries) == len({f.key() for f in report.findings})

        again = run_lint(FIXTURES, ctx=_fixture_ctx(),
                         baseline_path=baseline)
        assert again.findings == []
        assert again.exit_code == 0
        assert len(again.grandfathered) == len(report.findings)
        assert again.stale_baseline == []

    def test_stale_entries_are_reported_not_fatal(self, tmp_path):
        report = run_lint(FIXTURES, ctx=_fixture_ctx())
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, report.findings)
        data = json.loads(baseline.read_text())
        data["findings"].append({"rule": "REP999", "file": "gone.py",
                                 "message": "long since fixed",
                                 "reason": "obsolete"})
        baseline.write_text(json.dumps(data))

        again = run_lint(FIXTURES, ctx=_fixture_ctx(),
                         baseline_path=baseline)
        assert again.exit_code == 0
        assert len(again.stale_baseline) == 1
        assert "stale" in again.render_text()

    def test_malformed_baseline_raises_lint_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(LintError):
            run_lint(FIXTURES, ctx=_fixture_ctx(), baseline_path=bad)

    def test_missing_entry_fields_raise(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps(
            {"version": 1, "findings": [{"rule": "REP201"}]}))
        with pytest.raises(LintError):
            run_lint(FIXTURES, ctx=_fixture_ctx(), baseline_path=bad)


class TestReportShapes:
    def test_json_report_is_valid_and_sorted(self):
        report = run_lint(FIXTURES, ctx=_fixture_ctx())
        payload = json.loads(report.to_json())
        assert payload["version"] == 1
        assert payload["summary"]["total"] == len(report.findings)
        files = [f["file"] for f in payload["findings"]]
        severities = [f["severity"] for f in payload["findings"]]
        assert severities == sorted(severities)  # P1 before P2 before P3
        for entry in payload["findings"]:
            assert set(entry) == {"rule", "severity", "file", "line",
                                  "message", "hint"}
            assert entry["line"] >= 1
        assert all(f.startswith("fixtures/") for f in files)

    def test_rule_filter_restricts_passes(self):
        report = run_lint(FIXTURES, ctx=_fixture_ctx(), rules=("REP2",))
        assert report.findings
        assert all(f.rule.startswith("REP2") for f in report.findings)
        report = run_lint(FIXTURES, ctx=_fixture_ctx(), rules=("REP204",))
        assert report.findings
        assert all(f.rule == "REP204" for f in report.findings)
        # rules_run names the pass families that actually ran.
        assert report.rules_run == ("REP2",)
        assert run_lint(FIXTURES, ctx=_fixture_ctx()).rules_run == \
            ("REP2", "REP3", "REP4")
        report = run_lint(FIXTURES, ctx=_fixture_ctx(),
                          rules=("REP204", "REP4"))
        assert json.loads(report.to_json())["rules_run"] == ["REP2", "REP4"]


class TestCliContract:
    def test_findings_exit_one(self, capsys):
        # The fixture tree scanned with the *default* repo configuration
        # still has findings (its seeded violations), so exit is 1.
        code = main(["lint", "--root", str(FIXTURES), "--baseline", "none"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP" in out and "finding(s)" in out

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "mod.py").write_text("X = 1\n")
        code = main(["lint", "--root", str(clean), "--baseline", "none",
                     "--rules", "REP201,REP2,REP4"])
        assert code == 0

    def test_internal_error_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        code = main(["lint", "--root", str(FIXTURES),
                     "--baseline", str(bad)])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_json_out_file(self, tmp_path, capsys):
        out = tmp_path / "lint_findings.json"
        code = main(["lint", "--root", str(FIXTURES), "--baseline", "none",
                     "--format", "json", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["findings"]

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = main(["lint", "--root", str(FIXTURES),
                     "--baseline", str(baseline), "--write-baseline"])
        assert code == 0
        assert baseline.is_file()
        code = main(["lint", "--root", str(FIXTURES),
                     "--baseline", str(baseline)])
        assert code == 0

    def test_bad_rules_flag_is_argparse_error(self):
        """Non-REP ids and prefixes that select no registered pass
        family (REP9, the retired REP1xx) are usage errors, not silent
        empty runs."""
        for rules in ("BOGUS1", "REP9", "REP1", "REP204,REP9"):
            with pytest.raises(SystemExit) as exc:
                main(["lint", "--rules", rules])
            assert exc.value.code == 2, rules
