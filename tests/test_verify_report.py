"""Byte-stable report: the default-config JSON of the whole verify suite
must match the committed golden file exactly (no timings in it)."""

from pathlib import Path

from stringalg.verify import SuiteConfig, report_json, run_suite

GOLDEN = Path(__file__).parent / "data" / "verify_default.json"


def test_default_report_matches_golden_bytes():
    report = report_json(run_suite(SuiteConfig()))
    assert report == GOLDEN.read_text()
