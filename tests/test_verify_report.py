"""Byte-stable report: the default-config JSON of the whole verify suite
must match the committed golden file exactly (no timings in it)."""

from pathlib import Path

from stringalg import calculus, verify
from stringalg.arquiver import classification_targets
from stringalg.matrix import Mat
from stringalg.modules import string_module
from stringalg.verify import SuiteConfig, _witness, report_json, run_suite
from stringalg.words import make_string, parse_word

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


def test_witness_refuses_what_is_not_a_witness():
    # M(eta): z1 -> z0 is a module map, but it factors through a
    # projective, and the stable End is k
    eta = parse_word("eta")
    M = string_module(eta)
    f = Mat.zeros(M.field, 2, 2)
    f.set_entry(0, 1, 1)
    assert calculus.is_module_map(f, M, M) and calculus.factors_through_projective(f, M, M)
    assert calculus.stable_end_dim(M) == 1
    assert not _witness(eta, 1, 0)
    # on M(alpha beta- eta), stable End of dimension 2, z3 -> z2 is a module
    # map through a projective: the middle test alone refuses it
    assert not _witness(parse_word("alpha beta- eta"), 3, 2)
    # M(alpha): z0 -> z1 is not a module map, z1 -> z0 is a witness
    assert not _witness(parse_word("alpha"), 0, 1)
    assert _witness(parse_word("alpha"), 1, 0)


def test_c06_builds_the_windows_of_the_s0_family_only(monkeypatch):
    seeds = []
    window = verify.component_window

    def spy(seed, radius, guard=True):
        seeds.append(seed)
        return window(seed, radius, guard=guard)

    monkeypatch.setattr(verify, "component_window", spy)
    (record,) = run_suite(SuiteConfig(sections=("c06-sheet-classification-scan",)))["checks"]
    assert record["status"] == "pass"
    assert seeds == classification_targets()["s0-family"]
