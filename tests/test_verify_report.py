"""Byte-stable report: the default-config JSON of the fast verify sections
must match the committed golden file exactly (no timings in it)."""

from pathlib import Path

import pytest

from stringalg import calculus as C
from stringalg.errors import DimensionMismatch
from stringalg.matrix import Mat
from stringalg.modules import string_module
from stringalg.verify import SuiteConfig, _express_in_sub, report_json, run_suite
from stringalg.words import make_string

GOLDEN = Path(__file__).parent / "data" / "verify_fast_sections.json"

FAST_SECTIONS = (
    "c01-algebra-structure",
    "c02-ab-families-stable-endo",
    "c04-s1-component",
    "c05-three-tube-and-induction",
    "c06-sheet-classification-scan",
    "c07-band-scan",
    "c08-extension-tower",
    "c09-characters",
    "obs-band-conventions",
)


def test_fast_sections_report_matches_golden_bytes():
    report = report_json(run_suite(SuiteConfig(sections=FAST_SECTIONS)))
    assert report == GOLDEN.read_text()


def test_express_in_sub_rejects_rows_outside_the_submodule():
    # M(alpha) is uniserial: alpha sends z_1 to z_0, which spans the socle
    M = string_module(make_string("alpha"))
    _, inc = C.sub_module(M, C.socle_rows(M))
    socle = Mat.from_entries(M.field, [[1, 0]])
    assert _express_in_sub(socle, inc) == Mat.from_entries(M.field, [[1]])
    with pytest.raises(DimensionMismatch):
        _express_in_sub(Mat.from_entries(M.field, [[0, 1]]), inc)
