"""Smoke tests: every shipped example must run end to end.

Examples are documentation that executes; breaking one silently is how
repos rot.  Each test imports the script as a module and runs its
``main()`` with captured output, asserting on a signature line.
``city_scale`` is excluded here purely for suite runtime; CI's
``paper-benches`` job runs it and checks its oracle agreement and its
``communication totals`` line.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "decision (known only to su-0)" in out
        assert "round trip" in out

    def test_privacy_tradeoff(self, capsys):
        out = run_example("privacy_tradeoff", capsys)
        assert "privacy 100%" in out
        assert "asymptotically linear" in out

    def test_sdr_testbed(self, capsys):
        out = run_example("sdr_testbed", capsys)
        assert "scenario-4" in out
        assert "su2: GRANTED" in out
        assert "su1: DENIED" in out

    def test_exclusion_zones(self, capsys):
        out = run_example("exclusion_zones", capsys)
        assert "spatial reuse unlocked" in out

    def test_federal_incumbent(self, capsys):
        out = run_example("federal_incumbent", capsys)
        assert "random-looking" in out
        assert "DENIED" in out and "GRANTED" in out

    def test_probing_attack(self, capsys):
        out = run_example("probing_attack", capsys)
        assert "recall 100%" in out
        assert "Lemma V.1" in out

    def test_power_negotiation(self, capsys):
        out = run_example("power_negotiation", capsys)
        assert "negotiated max power" in out
        assert "granted@best=True" in out

    def test_license_lifecycle(self, capsys):
        out = run_example("license_lifecycle", capsys)
        assert "state=licensed" in out
        assert "state=denied" in out

    def test_spectrum_market(self, capsys):
        out = run_example("spectrum_market", capsys)
        assert "STP" in out
        assert "requests served" in out
