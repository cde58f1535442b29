"""Byte-stable report: the default-config JSON of the fast verify sections
must match the committed golden file exactly (no timings in it)."""

from pathlib import Path

from stringalg.verify import SuiteConfig, report_json, run_suite

GOLDEN = Path(__file__).parent / "data" / "verify_fast_sections.json"

FAST_SECTIONS = (
    "c01-algebra-structure",
    "c02-ab-families-stable-endo",
    "c04-s1-component",
    "c05-three-tube-and-induction",
    "c07-band-scan",
    "c08-extension-tower",
    "c09-characters",
    "obs-band-conventions",
)


def test_fast_sections_report_matches_golden_bytes():
    report = report_json(run_suite(SuiteConfig(sections=FAST_SECTIONS)))
    assert report == GOLDEN.read_text()
