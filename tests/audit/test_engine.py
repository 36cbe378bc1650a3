"""Engine, baseline, waiver, and CLI-level behavior of repro.audit."""

import json

import pytest

from repro.audit import (
    AuditConfig,
    AuditEngine,
    Baseline,
    ModuleUnit,
    all_rules,
    diff_against_baseline,
    module_name_for_path,
    run_audit,
)
from repro.errors import AuditError
from tests.audit.helpers import run_rules

VIOLATION = "import random\n"


def _unit(source: str, module: str = "repro.pisa.blinding") -> ModuleUnit:
    return ModuleUnit.from_source(source, path=f"<{module}>", module=module)


class TestEngine:
    def test_all_rules_registered(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert ids == {
            "CRY001",
            "CRY002",
            "CRY003",
            "SEC001",
            "SEC002",
            "ORD001",
            "SVC001",
            "RES001",
            "TEL001",
            "NET001",
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "ASY001",
            "ASY002",
            "ASY003",
            "ASY004",
            "ASY005",
        }

    def test_every_rule_has_kind_and_explanation(self):
        for rule in all_rules():
            assert rule.kind in ("syntactic", "taint", "summary"), rule.rule_id
            card = rule.explain()
            assert rule.rule_id in card
            assert "audit-ok" in card

    def test_select_restricts_rules(self):
        engine = AuditEngine(AuditConfig(select=frozenset({"SVC001"})))
        findings = engine.run_unit(_unit(VIOLATION))
        assert findings == []

    def test_syntax_error_raises_audit_error(self):
        with pytest.raises(AuditError):
            ModuleUnit.from_source("def broken(:\n", path="bad.py", module="x")

    def test_missing_path_raises(self):
        with pytest.raises(AuditError):
            AuditEngine().run(["/no/such/path_anywhere.py"])

    def test_run_over_directory(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "pisa"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(VIOLATION)
        (pkg / "good.py").write_text("x = 1\n")
        findings = AuditEngine().run([str(tmp_path / "src")])
        assert [f.rule for f in findings] == ["CRY001"]
        assert findings[0].module == "repro.pisa.bad"

    def test_module_name_for_path(self, tmp_path):
        from pathlib import Path

        assert (
            module_name_for_path(Path("src/repro/pisa/blinding.py"))
            == "repro.pisa.blinding"
        )
        assert module_name_for_path(Path("src/repro/audit/__init__.py")) == "repro.audit"
        assert module_name_for_path(Path("scripts/tool.py")) == "scripts.tool"


class TestWaivers:
    def test_rule_specific_waiver(self):
        findings = run_rules(
            "import random  # audit-ok: CRY001\n",
            module="repro.pisa.blinding",
            select={"CRY001"},
        )
        assert findings == []

    def test_waiver_for_other_rule_does_not_apply(self):
        findings = run_rules(
            "import random  # audit-ok: SVC001\n",
            module="repro.pisa.blinding",
            select={"CRY001"},
        )
        assert [f.rule for f in findings] == ["CRY001"]

    def test_bare_waiver_suppresses_everything(self):
        findings = run_rules(
            "import random  # audit-ok\n",
            module="repro.pisa.blinding",
            select={"CRY001"},
        )
        assert findings == []

    def test_multi_rule_waiver(self):
        findings = run_rules(
            "import random  # audit-ok: CRY001, SEC001\n",
            module="repro.pisa.blinding",
            select={"CRY001"},
        )
        assert findings == []


class TestBaseline:
    def _findings(self):
        return AuditEngine(AuditConfig(select=frozenset({"CRY001"}))).run_unit(
            _unit(VIOLATION)
        )

    def test_roundtrip(self, tmp_path):
        findings = self._findings()
        baseline = Baseline.from_findings(findings, reason="legacy")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 1
        assert findings[0] in loaded

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(AuditError):
            Baseline.load(path)

    def test_v1_baseline_migrates_transparently(self, tmp_path):
        """Engine-v2 keeps fingerprints stable, so v1 waivers survive."""
        findings = self._findings()
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {
                            "fingerprint": findings[0].fingerprint,
                            "rule": findings[0].rule,
                            "reason": "pre-migration waiver",
                        }
                    ],
                }
            )
        )
        loaded = Baseline.load(path)
        assert findings[0] in loaded
        # Saving rewrites as the current version with entries intact.
        loaded.save(path)
        refreshed = json.loads(path.read_text())
        assert refreshed["version"] == 2
        assert refreshed["findings"][0]["reason"] == "pre-migration waiver"

    def test_diff_splits_new_and_grandfathered(self):
        findings = self._findings()
        baseline = Baseline.from_findings(findings)
        new, grandfathered, stale = diff_against_baseline(findings, baseline)
        assert new == []
        assert grandfathered == findings
        assert stale == []

    def test_diff_reports_stale_entries(self):
        findings = self._findings()
        baseline = Baseline.from_findings(findings)
        new, grandfathered, stale = diff_against_baseline([], baseline)
        assert new == grandfathered == []
        assert len(stale) == 1


class TestRunAudit:
    def _tree(self, tmp_path, source=VIOLATION):
        pkg = tmp_path / "src" / "repro" / "pisa"
        pkg.mkdir(parents=True)
        (pkg / "blinding.py").write_text(source)
        return tmp_path

    def test_new_finding_exits_nonzero(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = run_audit(
            [str(root / "src")], baseline_path=str(root / "baseline.json")
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "CRY001" in captured.out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path, source="x = 1\n")
        code = run_audit(
            [str(root / "src")], baseline_path=str(root / "baseline.json")
        )
        assert code == 0
        assert "0 new" in capsys.readouterr().out

    def test_baselined_finding_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline_path = str(root / "baseline.json")
        assert (
            run_audit(
                [str(root / "src")],
                baseline_path=baseline_path,
                update_baseline=True,
            )
            == 0
        )
        code = run_audit([str(root / "src")], baseline_path=baseline_path)
        assert code == 0
        assert "1 grandfathered" in capsys.readouterr().out

    def test_update_baseline_preserves_reasons(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline_path = root / "baseline.json"
        run_audit(
            [str(root / "src")],
            baseline_path=str(baseline_path),
            update_baseline=True,
        )
        data = json.loads(baseline_path.read_text())
        data["findings"][0]["reason"] = "accepted: legacy import"
        baseline_path.write_text(json.dumps(data))
        run_audit(
            [str(root / "src")],
            baseline_path=str(baseline_path),
            update_baseline=True,
        )
        refreshed = json.loads(baseline_path.read_text())
        assert refreshed["findings"][0]["reason"] == "accepted: legacy import"

    def test_json_report_written(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        report_path = root / "report.json"
        run_audit(
            [str(root / "src")],
            baseline_path=str(root / "baseline.json"),
            json_path=str(report_path),
        )
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["new"] == 1
        assert payload["new"][0]["rule"] == "CRY001"
        assert payload["new"][0]["fingerprint"]

    def test_cli_subcommand_wired(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        root = self._tree(tmp_path)
        monkeypatch.chdir(root)
        assert main(["audit", "src"]) == 1
        assert main(["audit", "src", "--update-baseline"]) == 0
        assert main(["audit", "src"]) == 0
        capsys.readouterr()


class TestRepositoryIsClean:
    def test_src_repro_matches_checked_in_baseline(self, capsys):
        """The acceptance gate: the real tree audits clean vs the baseline."""
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        code = run_audit(
            [str(repo_root / "src" / "repro")],
            baseline_path=str(repo_root / "audit-baseline.json"),
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 new" in out
