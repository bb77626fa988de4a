"""The repro.analysis invariant linter, driven by its fixture tree.

Fixtures under ``tests/analysis_fixtures/`` carry ``# expect: RPRxxx``
markers on every line the analyzer must flag; the tests assert the
findings equal the markers in both directions, per rule and per file.
This is what makes each rule's coverage real: disable a rule and its
fixtures' markers go unmatched.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path, PurePosixPath

import pytest

from repro.analysis import ALL_RULES, Baseline, analyze_paths, analyze_source
from repro.analysis.baseline import DEFAULT_BASELINE_NAME
from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.analysis.rules import rules_by_id
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"
_MARKER = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+?)\s*$")

ALL_RULE_IDS = sorted(rule.rule_id for rule in ALL_RULES)


def _expected_markers(path: Path) -> set[tuple[int, str]]:
    """``(line, rule_id)`` pairs declared by a fixture's markers."""
    expected: set[tuple[int, str]] = set()
    for lineno, text in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _MARKER.search(text)
        if match:
            for rule_id in match.group(1).split(","):
                expected.add((lineno, rule_id.strip()))
    return expected


def _fixture_files() -> list[Path]:
    files = sorted(FIXTURES.rglob("*.py"))
    assert files, "fixture tree is missing"
    return files


def _findings_by_path() -> dict[str, set[tuple[int, str]]]:
    result = analyze_paths([FIXTURES])
    assert not result.errors, result.errors
    grouped: dict[str, set[tuple[int, str]]] = defaultdict(set)
    for finding in result.findings:
        grouped[finding.path].add((finding.line, finding.rule))
    return grouped


class TestFixtures:
    def test_markers_match_findings_exactly(self):
        """Every marker is reported and nothing unmarked is flagged."""
        grouped = _findings_by_path()
        for path in _fixture_files():
            key = str(PurePosixPath(*path.parts))
            assert grouped.pop(key, set()) == _expected_markers(path), key
        assert not grouped  # no findings outside the fixture files

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_demonstrated_by_fixtures(self, rule_id):
        """Each rule alone reproduces exactly its own markers — and at
        least two bad sites — so the test fails if the rule is disabled
        or its scope drifts."""
        result = analyze_paths([FIXTURES], rules_by_id(rule_id))
        got = {
            (str(PurePosixPath(*Path(f.path).parts)), f.line, f.rule)
            for f in result.findings
        }
        expected = set()
        for path in _fixture_files():
            key = str(PurePosixPath(*path.parts))
            for line, rid in _expected_markers(path):
                if rid == rule_id:
                    expected.add((key, line, rid))
        assert got == expected
        assert len(expected) >= 2, f"{rule_id} needs >=2 bad fixture sites"

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_has_clean_fixture(self, rule_id):
        """At least one fixture in the rule's scope is entirely clean."""
        result = analyze_paths([FIXTURES], rules_by_id(rule_id))
        flagged = {f.path for f in result.findings}
        rule = next(r for r in ALL_RULES if r.rule_id == rule_id)
        clean = [
            p
            for p in _fixture_files()
            if str(PurePosixPath(*p.parts)) not in flagged
            and (not rule.segments or set(p.parts) & set(rule.segments))
        ]
        assert clean, f"{rule_id} has no clean fixture in scope"

    def test_finding_payload_shape(self):
        result = analyze_paths([FIXTURES / "core" / "det_bad_set_iter.py"])
        assert result.findings
        payload = result.findings[0].to_json()
        assert set(payload) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "hint",
            "snippet",
        }
        assert payload["rule"].startswith("RPR")
        assert payload["line"] > 0 and payload["col"] > 0
        assert payload["hint"]

    def test_syntax_error_is_reported_not_raised(self):
        result = analyze_source("def broken(:\n", "core/broken.py")
        assert result.findings == []
        assert result.errors and "syntax error" in result.errors[0]

    def test_core_segment_guards_scatter_loops(self):
        """The numeric leaf functions live in ``core``, which the
        determinism and accumulation-order rules guard — a hash-ordered
        scatter loop there would break the bitwise replay contract
        silently.  The retired ``kernels`` segment scopes no rule."""
        source = (
            "def scatter(touched: set, acc):\n"
            "    total = 0.0\n"
            "    for col in touched:\n"
            "        total += acc[col]\n"
            "    return total\n"
        )
        findings = analyze_source(source, "core/mod.py").findings
        assert {f.rule for f in findings} == {"RPR001", "RPR004"}
        assert not any("kernels" in r.segments for r in ALL_RULES)
        assert analyze_source(source, "kernels/mod.py").findings == []


class TestBaseline:
    SOURCE = "def f(s: set):\n    return list(s)\n"

    def test_fresh_run_matches_committed_baseline(self, monkeypatch):
        """`python -m repro.analysis src` is clean against the repo's
        committed baseline — new findings AND stale entries both fail."""
        monkeypatch.chdir(REPO_ROOT)
        baseline = Baseline.load(DEFAULT_BASELINE_NAME)
        match = baseline.match(analyze_paths(["src"]).findings)
        assert match.clean, (match.new, match.stale)

    def test_match_survives_line_drift(self):
        findings = analyze_source(self.SOURCE, "core/mod.py").findings
        assert findings
        baseline = Baseline.from_findings(findings)
        drifted = analyze_source("\n\n" + self.SOURCE, "core/mod.py").findings
        assert [f.line for f in drifted] != [f.line for f in findings]
        assert baseline.match(drifted).clean

    def test_stale_entry_fails_the_match(self):
        findings = analyze_source(self.SOURCE, "core/mod.py").findings
        baseline = Baseline.from_findings(findings)
        match = baseline.match([])
        assert not match.clean
        assert match.stale and match.stale[0]["rule"] == findings[0].rule

    def test_unbaselined_finding_is_new(self):
        findings = analyze_source(self.SOURCE, "core/mod.py").findings
        match = Baseline.empty().match(findings)
        assert match.new == findings and not match.suppressed

    def test_load_rejects_bad_version(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"version": 99, "findings": {}}))
        with pytest.raises(AnalysisError):
            Baseline.load(bad)

    def test_roundtrip_through_disk(self, tmp_path):
        findings = analyze_source(self.SOURCE, "core/mod.py").findings
        path = tmp_path / "base.json"
        Baseline.from_findings(findings).dump(path)
        assert Baseline.load(path).match(findings).clean


class TestCli:
    def test_clean_repo_run_exits_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src"]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_code(self, capsys):
        bad = str(FIXTURES / "core" / "det_bad_set_iter.py")
        assert main([bad, "--no-baseline"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR001" in out and "hint:" in out

    def test_json_format(self, capsys):
        bad = str(FIXTURES / "serving" / "boundary_bad_raise.py")
        assert main([bad, "--no-baseline", "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"RPR005"}
        assert payload["stale_baseline"] == [] and payload["errors"] == []

    def test_rule_selection(self, capsys):
        bad = str(FIXTURES / "core" / "accum_bad_loop.py")
        assert main([bad, "--no-baseline", "--rules", "RPR004"]) == EXIT_FINDINGS
        payload_args = [bad, "--no-baseline", "--rules", "RPR002"]
        capsys.readouterr()
        # the same file is clean under a rule that does not apply to it
        assert main(payload_args) == EXIT_CLEAN

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--rules", "RPR999", str(FIXTURES)]) == EXIT_ERROR
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["no/such/dir"]) == EXIT_ERROR
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = str(FIXTURES / "distributed" / "meter_bad_send.py")
        base = str(tmp_path / "base.json")
        assert main([bad, "--baseline", base, "--write-baseline"]) == EXIT_CLEAN
        assert main([bad, "--baseline", base]) == EXIT_CLEAN
        capsys.readouterr()

    def test_module_entrypoint(self):
        """``python -m repro.analysis`` works end to end (exit codes)."""
        env_cmd = [sys.executable, "-m", "repro.analysis"]
        bad = str(FIXTURES / "core" / "buffer_bad_write.py")
        proc = subprocess.run(
            env_cmd + [bad, "--no-baseline"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_FINDINGS
        assert "RPR003" in proc.stdout
