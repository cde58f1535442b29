"""Byte-stable report: the default-config JSON of the whole verify suite
must match the committed golden file exactly (no timings in it)."""

from pathlib import Path

from stringalg import calculus, verify
from stringalg.modules import string_module
from stringalg.verify import SuiteConfig, report_json, run_suite
from stringalg.words import make_string

GOLDEN = Path(__file__).parent / "data" / "verify_default.json"


def test_default_report_matches_golden_bytes():
    report = report_json(run_suite(SuiteConfig()))
    assert report == GOLDEN.read_text()


def test_a_crashed_check_names_its_exception_and_module(monkeypatch):
    # a Hom between modules over GF(2) and GF(4) is refused inside calculus
    def crash(cfg, memo):
        alpha = make_string("alpha")
        return calculus.hom_dim(string_module(alpha, 1), string_module(alpha, 2))

    monkeypatch.setitem(verify.ALL_CHECKS, "c01-algebra-structure", crash)
    (record,) = run_suite(SuiteConfig(sections=("c01-algebra-structure",)))["checks"]
    assert record["status"] == "fail"
    assert record["computed"]["error"].startswith("ContextMismatch: ")
    assert record["computed"]["error_type"] == "ContextMismatch"
    assert record["computed"]["error_module"] == "stringalg.calculus"
