"""End-to-end tests for the ``repro check`` runner and baseline flow."""

import json
import pathlib

import pytest

from repro.check import runner
from repro.check.findings import Baseline, Finding
from repro.check.sources import load_tree

OWN_SOURCE = str(pathlib.Path(__file__).resolve().parents[2] / "src" / "repro")

VIOLATION = "import time\nnow = time.time()\n"

#: Rules of the per-file passes; every other finding comes from the
#: whole-program passes (rng, races, hotpath).
PER_FILE_RULES = {rule for name in ("determinism", "layering", "conformance")
                  for rule in runner.ANALYZER_RULES[name]}


@pytest.fixture(scope="session")
def inventory():
    """Every analyzer over src/repro, inline allows ignored: one scan."""
    return runner.run_check([OWN_SOURCE], include_suppressed=True)


@pytest.fixture(scope="session")
def unsuppressed(inventory):
    """The inventory findings no inline allow covers: a plain run's report."""
    modules = {module.rel: module for module in load_tree([OWN_SOURCE])}
    return [finding for finding in inventory.findings
            if finding.path not in modules
            or not modules[finding.path].is_suppressed(finding.line,
                                                       finding.rule)]


def write_violation(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(VIOLATION)
    return path


class TestRunCheck:
    def test_clean_tree_acceptance(self, inventory, unsuppressed):
        # The merge gate: src/repro itself must be clean.
        assert unsuppressed == [], inventory.render_text()
        assert inventory.scanned > 50

    def test_violation_reported(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)])
        assert not report.ok
        assert report.counts_by_rule() == {"DET001": 1}

    def test_analyzer_selection(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)], analyzers=["layering"])
        assert report.ok  # determinism analyzer not selected

    def test_unknown_analyzer_raises(self, tmp_path):
        with pytest.raises(ValueError):
            runner.run_check([str(tmp_path)], analyzers=["spellcheck"])

    def test_syntax_error_is_gen001(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = runner.run_check([str(tmp_path)])
        assert report.counts_by_rule() == {"GEN001": 1}


class TestCli:
    def test_exit_zero_on_clean_tree(self, own_source_check_cli):
        code, out = own_source_check_cli
        assert code == 0
        assert "repro check: clean" in out

    def test_exit_one_on_violation_fixture(self, tmp_path, capsys):
        write_violation(tmp_path)
        assert runner.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_exit_two_on_bad_baseline(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert runner.main([str(tmp_path), "--baseline", str(bad)]) == 2

    def test_json_format_and_out_artifact(self, tmp_path, capsys):
        write_violation(tmp_path)
        out_path = tmp_path / "report.json"
        code = runner.main([str(tmp_path), "--format", "json",
                            "--out", str(out_path)])
        assert code == 1
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_path.read_text())
        assert stdout_doc == file_doc
        assert file_doc["version"] == 1
        assert file_doc["summary"] == {"DET001": 1}
        assert file_doc["findings"][0]["rule"] == "DET001"
        assert set(file_doc) == {"version", "analyzers", "files_scanned",
                                 "summary", "baselined", "findings"}

    def test_list_rules(self, capsys):
        assert runner.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("DET001", "ARCH001", "ZONE001", "GEN001"):
            assert rule in out


class TestBaselineRoundTrip:
    def test_write_then_suppress_then_regress(self, tmp_path, capsys):
        write_violation(tmp_path)
        baseline_path = tmp_path / "baseline.json"

        # 1. Record the current findings as the baseline: exits 0.
        assert runner.main([str(tmp_path), "--write-baseline",
                            str(baseline_path)]) == 0
        capsys.readouterr()

        # 2. Re-running against the baseline is clean (finding grandfathered).
        assert runner.main([str(tmp_path), "--baseline",
                            str(baseline_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["baselined"] == 1
        assert doc["findings"] == []

        # 3. A NEW violation still fails the gate.
        (tmp_path / "worse.py").write_text(
            "import os\nnoise = os.urandom(4)\n")
        assert runner.main([str(tmp_path), "--baseline",
                            str(baseline_path)]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_baseline_is_line_insensitive(self, tmp_path):
        path = write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)])
        baseline = Baseline.from_findings(report.findings)
        # The same violation on a different line is still grandfathered.
        path.write_text("import time\n\n\nnow = time.time()\n")
        shifted = runner.run_check([str(tmp_path)], baseline=baseline)
        assert shifted.ok
        assert len(shifted.baselined) == 1

    def test_baseline_is_column_insensitive(self, tmp_path):
        path = write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)])
        baseline = Baseline.from_findings(report.findings)
        # The same violation shifted sideways (a formatter's doing) is
        # still grandfathered: the fingerprint carries no column.
        path.write_text("import time\nnow      =      time.time()\n")
        shifted = runner.run_check([str(tmp_path)], baseline=baseline)
        assert shifted.ok
        assert len(shifted.baselined) == 1

    def test_fingerprint_ignores_column(self):
        left = Finding("DET001", "a.py", 3, "wall clock", col=5)
        right = Finding("DET001", "a.py", 3, "wall clock", col=40)
        assert left.fingerprint == right.fingerprint
        assert left == right
        assert hash(left) == hash(right)


class TestOnlySelection:
    def test_only_filters_rules(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)], only=["DET002"])
        assert report.ok  # the DET001 finding is filtered out
        report = runner.run_check([str(tmp_path)], only=["DET001"])
        assert report.counts_by_rule() == {"DET001": 1}

    def test_only_narrows_analyzers(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)], only=["HOT001"])
        assert report.analyzers == ["hotpath"]

    def test_only_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            runner.run_check([str(tmp_path)], only=["HOT999"])

    def test_cli_only_comma_separated(self, tmp_path, capsys):
        write_violation(tmp_path)
        assert runner.main([str(tmp_path), "--only",
                            "DET002,ARCH001"]) == 0
        capsys.readouterr()
        assert runner.main([str(tmp_path), "--only", "DET001"]) == 1

    def test_cli_only_unknown_rule_exits_two(self, tmp_path, capsys):
        assert runner.main([str(tmp_path), "--only", "NOPE001"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestSarif:
    def test_sarif_stdout(self, tmp_path, capsys):
        write_violation(tmp_path)
        assert runner.main([str(tmp_path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == runner.SARIF_VERSION
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        assert [rule["id"] for rule in run["tool"]["driver"]["rules"]] \
            == ["DET001"]
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] >= 1
        assert "reproCheck/v1" in result["partialFingerprints"]

    def test_sarif_out_artifact(self, tmp_path, capsys):
        write_violation(tmp_path)
        sarif_path = tmp_path / "check.sarif"
        assert runner.main([str(tmp_path), "--sarif-out",
                            str(sarif_path)]) == 1
        capsys.readouterr()
        doc = json.loads(sarif_path.read_text())
        assert doc["version"] == runner.SARIF_VERSION
        assert doc["runs"][0]["results"][0]["ruleId"] == "DET001"

    def test_sarif_clean_tree_has_no_results(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("VALUE = 1\n")
        assert runner.main([str(tmp_path), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestWholeProgramPasses:
    def test_new_analyzers_registered(self):
        assert {"rng", "races", "hotpath"} <= set(runner.ANALYZERS)
        for rule in ("RNG001", "RNG005", "RACE001", "RACE004",
                     "HOT001", "HOT003"):
            assert rule in runner.ALL_RULES

    def test_clean_tree_under_new_passes(self, unsuppressed):
        # The merge gate: the whole-program passes report nothing
        # unsuppressed on src/repro itself.
        assert [finding for finding in unsuppressed
                if finding.rule not in PER_FILE_RULES] == []

    def test_include_suppressed_sees_inventory(self, inventory):
        # The HOT/RNG/RACE allows in-tree become visible to inventory
        # runs; the suppressed findings exist and are rule-tagged.
        rules = set(inventory.counts_by_rule()) - PER_FILE_RULES
        assert rules
        assert rules <= {
            "RNG001", "RNG002", "RNG003", "RNG004", "RNG005",
            "RACE001", "RACE002", "RACE003", "RACE004",
            "HOT001", "HOT002", "HOT003"}
