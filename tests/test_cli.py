import hashlib
import json
from pathlib import Path

import pytest

from stringalg import verify
from stringalg.cli import main
from stringalg.errors import ConfigError
from stringalg.groupside import TOWER_LIMIT
from stringalg.verify import SuiteConfig, run_suite, report_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_strings_listing(capsys):
    code, out = run_cli(capsys, "strings", "--max-len", "1")
    assert code == 0
    assert out.splitlines()[:2] == ["1_0", "1_1"]


def test_bands_text_with_no_class(capsys):
    # only the count: no blank line for the empty listing
    assert run_cli(capsys, "bands", "--max-len", "0") == (0, "# 0 classes\n")


def test_strings_json(capsys):
    code, out = run_cli(capsys, "strings", "--max-len", "2", "--format", "json")
    data = json.loads(out)
    assert data["count"] == 13


def test_bands_json(capsys):
    code, out = run_cli(capsys, "bands", "--max-len", "4", "--format", "json")
    data = json.loads(out)
    assert data["count"] == 2


def test_module_text(capsys):
    code, out = run_cli(capsys, "module", "--string", "gamma beta")
    assert code == 0 and "dim 3" in out


def test_module_band_json(capsys):
    code, out = run_cli(
        capsys, "module", "--band", "eta- beta alpha- gamma", "--lam", "w", "--format", "json"
    )
    data = json.loads(out)
    assert data["dim"] == 4 and data["field"]["degree"] == 2


def test_hom(capsys):
    code, out = run_cli(capsys, "hom", "--source", "alpha-", "--target", "alpha-", "--format", "json")
    data = json.loads(out)
    assert data["combinatorial_dim"] == data["matrix_dim"] == 2


@pytest.mark.parametrize(
    "source, target, out",
    [
        # only the dimension line: no blank line for an empty map list
        ("1_0", "1_1", "hom(1_0 -> 1_1): dim 0 (matrix engine: 0)\n"),
        ("alpha", "alpha", "hom(alpha -> alpha): dim 2 (matrix engine: 2)\n  map 0: [[0, 0], [1, 1]]\n  map 1: [[0, 1]]\n"),
    ],
)
def test_hom_text(capsys, source, target, out):
    assert run_cli(capsys, "hom", "--source", source, "--target", target) == (0, out)


def test_hom_maps_golden(capsys):
    # the map lists of three pairs with several maps, over GF(2) and
    # GF(4), pinned in order
    cases = json.loads((Path(__file__).parent / "data" / "hom_maps.json").read_text())
    for case in cases:
        code, out = run_cli(capsys, *case["argv"])
        assert code == 0
        assert json.loads(out) == case["output"]
        assert len(case["output"]["maps"]) >= 4


def test_module_band_gf4_golden(capsys):
    # a GF(4) band module with entries w and 1 in one row, so the hex rows
    # pin the plane order of to_json_dict
    golden = (Path(__file__).parent / "data" / "module_band_gf4.json").read_text()
    code, out = run_cli(
        capsys, "module", "--band", "eta- beta alpha- gamma", "--lam", "w", "--mult", "2", "--format", "json"
    )
    assert code == 0
    assert out == golden


def test_component_taxonomy_golden(capsys):
    # component windows (json and dot, radius 2 and 3) and taxonomy
    # answers, one of them Undecided, pinned byte for byte
    cases = json.loads((Path(__file__).parent / "data" / "component_taxonomy.json").read_text())
    for case in cases:
        code = main(case["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            case["exit"],
            case["stdout"],
            case["stderr"],
        ), case["argv"]


def test_stable_end_and_ext(capsys):
    code, out = run_cli(capsys, "stable-end", "--string", "alpha-")
    assert "2" in out
    code, out = run_cli(capsys, "ext1", "--source", "1_0", "--target", "1_0")
    assert "= 1" in out


def test_omega(capsys):
    code, out = run_cli(capsys, "omega", "--string", "1_1", "--format", "json")
    data = json.loads(out)
    assert data["result"] == "alpha- beta- eta"


def test_component_dot(capsys):
    code, out = run_cli(capsys, "component", "--string", "1_1", "--radius", "1", "--format", "dot")
    assert out.startswith("digraph") and out.count("->") == 4


def test_taxonomy(capsys):
    code, out = run_cli(capsys, "taxonomy", "--string", "beta alpha")
    assert "tube-boundary" in out


def test_chars_json(capsys):
    code, out = run_cli(capsys, "chars", "--n-max", "2", "--format", "json")
    data = json.loads(out)
    assert data["decomposition_matrix"] == [[1, 0], [1, 0], [1, 1], [1, 1], [0, 1]]


def test_verify_subset_and_determinism(capsys, tmp_path):
    argv = ["verify", "--sections", "c09-characters,c02-ab-families-stable-endo"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["summary"]["fail"] == 0
    assert [c["check_id"] for c in data["checks"]] == [
        "c02-ab-families-stable-endo",
        "c09-characters",
    ]


def test_verify_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sections": ["c07-band-scan"], "band_len": 6}))
    code, out = run_cli(capsys, "verify", "--config", str(cfg))
    data = json.loads(out)
    assert code == 0
    assert data["config"]["band_len"] == 6
    assert data["checks"][0]["computed"]["bands_checked"] == 2


def test_verify_config_file_keeps_seed_and_timings(capsys, tmp_path):
    # flags that are not given leave the file's keys alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sections": ["c09-characters"], "seed": 5, "include_timings": True}))
    code, out = run_cli(capsys, "verify", "--config", str(cfg))
    data = json.loads(out)
    assert code == 0
    assert data["config"]["seed"] == 5
    assert data["checks"] and all("seconds" in rec for rec in data["checks"])
    code, out = run_cli(capsys, "verify", "--config", str(cfg), "--seed", "7")
    assert json.loads(out)["config"]["seed"] == 7


def test_malformed_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"band_len": 99}))
    code, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize(
    "config",
    [
        [1, 2],
        {"string_scan_len": "abc"},
        {"string_scan_len": 8.0},
        {"band_len": True},
        {"include_timings": 1},
        {"sections": 5},
        {"sections": "c07-band-scan"},
        {"sections": [7]},
        {"string_scan_len": -3},
        {"radius": -1},
    ],
)
def test_config_of_wrong_type_or_negative_exits_2(capsys, tmp_path, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = main(["verify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("argv", [["--config", "missing.json"], ["--sections", ""]])
def test_missing_config_or_empty_sections_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("flag", ["--max-len", "--band-len", "--n-max", "--radius"])
def test_negative_bound_flag_exits_2(capsys, flag):
    code = main(["verify", "--sections", "c09-characters", flag, "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize(
    "command", ["strings", "bands", "chars", "component", "omega", "taxonomy", "verify"]
)
def test_field_only_where_it_is_read(capsys, command):
    argv = {
        "strings": ["strings", "--max-len", "1"],
        "bands": ["bands", "--max-len", "4"],
        "chars": ["chars"],
        "component": ["component", "--string", "1_1"],
        "omega": ["omega", "--string", "1_1"],
        "taxonomy": ["taxonomy", "--string", "1_1"],
        "verify": ["verify", "--sections", "c09-characters"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--field", "gf4"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("module", "--band", "eta- beta alpha- gamma", "--mult", "-2"),
        ("module", "--band", "eta- beta alpha- gamma", "--mult", "0"),
        ("stable-end", "--band", "eta- beta alpha- gamma", "--mult", "0"),
        ("strings", "--max-len", "-1"),
        ("bands", "--max-len", "-1"),
        ("component", "--string", "1_0", "--radius", "-1"),
        ("taxonomy", "--string", "1_0", "--radius", "-1"),
        ("chars", "--n-max", "-1"),
        ("chars", "--n-max", "4097"),
        ("module", "--string", "alpha alpha"),
        ("hom", "--source", "alpha alpha", "--target", "alpha"),
        ("stable-end", "--string", "alpha alpha"),
        ("module", "--band", "alpha beta- gamma-", "--mult", "17"),
        ("stable-end", "--band", "alpha beta- gamma-", "--mult", "17"),
        ("omega", "--string", "alpha", "--power", "257"),
        ("omega", "--string", "alpha", "--power", "-257"),
    ],
)
def test_out_of_domain_arguments_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["module", "stable-end"])
def test_string_and_band_together_exit_2(capsys, command):
    code = main([command, "--string", "alpha", "--band", "eta- beta alpha- gamma"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "config error: give exactly one of --string or --band\n"


@pytest.mark.parametrize("command", ["module", "stable-end"])
@pytest.mark.parametrize("flag", [["--lam", "1"], ["--lam", "w"], ["--mult", "1"], ["--mult", "3"]])
def test_band_flags_with_a_string_exit_2(capsys, command, flag):
    code = main([command, "--string", "alpha", *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "config error: --lam and --mult need --band, not --string\n"


def test_band_flags_default_to_one(capsys):
    band = ["--band", "eta- beta alpha- gamma"]
    _, plain = run_cli(capsys, "module", *band, "--format", "json")
    _, explicit = run_cli(capsys, "module", *band, "--lam", "1", "--mult", "1", "--format", "json")
    assert plain == explicit
    assert json.loads(plain)["dim"] == 4


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["strings"])  # missing required --max-len
    assert info.value.code == 2


def test_failing_check_exits_1(capsys, monkeypatch):
    def broken(cfg, memo):
        return ("always fails", {}, {"value": 1}, {"value": 2})

    monkeypatch.setitem(verify.ALL_CHECKS, "c09-characters", broken)
    code, out = run_cli(capsys, "verify", "--sections", "c09-characters")
    assert code == 1
    assert json.loads(out)["summary"]["fail"] == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "list.json"
    code, _ = run_cli(capsys, "strings", "--max-len", "1", "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["count"] == 6


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "list.txt"
    code = main(["strings", "--max-len", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write --out: ")
    assert not target.exists()


def test_report_json_stable():
    cfg = SuiteConfig(sections=("c09-characters",))
    a = report_json(run_suite(cfg))
    b = report_json(run_suite(SuiteConfig(sections=("c09-characters",))))
    assert a == b


@pytest.mark.parametrize("bound", [0, 1])
def test_every_check_passes_with_every_bound_at(bound):
    # both bounds lie below the length of some three-tube boundary string
    report = run_suite(SuiteConfig(**{key: bound for key in verify.GUARDS}))
    assert [r["status"] for r in report["checks"]] == ["pass"] * 11
    assert report["summary"] == {"pass": 11, "fail": 0, "undecided": 0}


def test_suite_config_defaults_and_keywords():
    cfg = SuiteConfig()
    fields = ("sections", *verify.GUARDS, "seed", "include_timings")
    assert [getattr(cfg, key) for key in fields] == [(), 12, 8, 10, 12, 5, 6, 0, False]
    cfg = SuiteConfig(sections=("c09-characters",), band_len=6, include_timings=True)
    assert [getattr(cfg, key) for key in fields] == [("c09-characters",), 12, 8, 10, 6, 5, 6, 0, True]
    assert SuiteConfig().band_len == 12  # a keyword sets the instance, not the default
    with pytest.raises(TypeError):
        SuiteConfig(band_length=6)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tower_n", 2.5),
        ("string_scan_len", True),
        ("string_scan_len", "12"),
        ("seed", None),
        ("include_timings", 1),
        ("sections", "c09-characters"),
        ("sections", ["c09-characters", 9]),
    ],
)
def test_both_config_paths_refuse_a_field_of_the_wrong_type(key, value):
    # keywords and JSON objects share one check, SuiteConfig.validate
    message = f"config key {key!r} must be"
    with pytest.raises(ConfigError, match=message):
        SuiteConfig(**{key: value}).validate()
    with pytest.raises(ConfigError, match=message):
        run_suite(SuiteConfig(**{key: value}))
    with pytest.raises(ConfigError, match=message):
        verify.config_from_dict({key: value})


def test_sections_may_be_a_tuple_or_a_list():
    for sections in (("c09-characters",), ["c09-characters"]):
        SuiteConfig(sections=sections).validate()
        assert list(verify.config_from_dict({"sections": list(sections)}).sections) == ["c09-characters"]


def test_tower_guard_is_the_tower_limit():
    assert verify.GUARDS["tower_n"] == TOWER_LIMIT
    verify.config_from_dict({"tower_n": TOWER_LIMIT})
    with pytest.raises(ConfigError, match=f"tower_n must lie in 0..{TOWER_LIMIT}"):
        verify.config_from_dict({"tower_n": TOWER_LIMIT + 1})


def test_verify_text_format(capsys):
    code, out = run_cli(capsys, "verify", "--sections", "c09-characters", "--format", "text")
    assert code == 0
    assert "[ok ] c09-characters" in out
    assert "pass 1  fail 0" in out


def test_component_json_has_kind(capsys):
    code, out = run_cli(capsys, "component", "--string", "beta alpha", "--radius", "1", "--format", "json")
    data = json.loads(out)
    assert data["kind"] == "tube(3)"


def test_component_stable_end_is_the_last_node_key(capsys):
    from stringalg.calculus import stable_end_dim
    from stringalg.modules import string_module
    from stringalg.words import parse_word

    argv = ["component", "--string", "eta", "--radius", "1", "--format", "json"]
    _, plain = run_cli(capsys, *argv)
    _, out = run_cli(capsys, *argv, "--stable-end")
    nodes = json.loads(out)["nodes"]
    assert [list(n)[:-1] for n in nodes] == [list(n) for n in json.loads(plain)["nodes"]]
    for n in nodes:
        assert list(n)[-1] == "stable_end_dim"
        assert n["stable_end_dim"] == stable_end_dim(string_module(parse_word(n["string"])))


@pytest.mark.parametrize("fmt", [[], ["--format", "text"], ["--format", "dot"]])
def test_component_stable_end_needs_json(capsys, fmt):
    code = main(["component", "--string", "eta", "--radius", "1", "--stable-end", *fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and "--format json" in captured.err


CLI_REFERENCES = Path(__file__).parent.parent / "perfbench" / "ref" / "cli-queries.json"


def _replay(capsys, argv) -> str:
    """A query's answer as the benchmark records it: the sha256 of stdout
    on success, else "!ErrorName" (or "!exitN") read off stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    captured = capsys.readouterr()
    if code == 0:
        return hashlib.sha256(captured.out.encode()).hexdigest()
    for line in captured.err.splitlines():
        if line.startswith("error: "):
            return "!" + line[len("error: "):].split(":", 1)[0]
        if line.startswith("config error: "):
            return "!ConfigError"
    return f"!exit{code}"


def test_cli_queries_replay_their_reference_answers(capsys):
    refs = json.loads(CLI_REFERENCES.read_text())
    items = [item for stratum in refs["strata"] for item in stratum["items"]]
    mismatches = [item["spec"] for item in items if [_replay(capsys, item["spec"])] != item["ref"]]
    assert len(items) == 155 and mismatches == []
