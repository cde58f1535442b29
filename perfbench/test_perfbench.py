"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import itertools
import json
import shutil
import subprocess

import pytest

import run
from spans import Tracer
from workloads import FAILED, OK, REFUSED, ROOT, WORKLOADS, require_sources, verdict

require_sources()


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, capsys):
    result = run.run_workload(WORKLOADS[name](), seed=3, seconds=0.3, trace=trace, probes=1)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = run.per_layer_specs() if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, _ in specs}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_item_list(name):
    wl = WORKLOADS[name]()

    def items(seed):
        return [wl.spec(k, i) for k, i in itertools.islice(wl.order(seed), 60)]

    assert items(7) == items(7)
    assert items(7) != items(8)


def test_wrong_reference_answer_is_counted_as_failed(capsys):
    wl = WORKLOADS["string-scan"]()
    wl.ref = copy.deepcopy(wl.ref)
    k, i = next(wl.order(5))  # the first item a seed-5 run attempts
    wl.ref["strata"][k]["items"][i]["ref"] = [-1, -1]
    result = run.run_workload(wl, seed=5, seconds=0.3, trace=0, probes=1)
    assert result["failed"] == 1 and not result["correct"]
    ratio = [l for l in capsys.readouterr().out.splitlines() if l.startswith("failed_ratio")]
    assert float(ratio[0].split()[1]) == pytest.approx(1 / result["attempted"], abs=1e-4)


def test_verdict_accepts_a_known_answer_where_the_reference_refused():
    ref, truth = ["!SplitFailure", True], [[3, 5], True]
    assert verdict([[3, 5], True], ref, truth) == OK
    assert verdict(["!SplitFailure", True], ref, truth) == REFUSED
    assert verdict([[8], True], ref, truth) == FAILED
    assert verdict([[3, 5], True], ref, None) == FAILED
    assert verdict(["!!TypeError: boom"], ref, truth) == FAILED


def test_tracer_counts_nested_spans_and_restores_bindings():
    import stringalg.calculus as C
    from stringalg.modules import string_module
    from stringalg.words import make_string

    original = C.hom_dim
    tracer = Tracer()
    tracer.install()
    try:
        C.stable_end_dim(string_module(make_string("alpha beta- gamma-")))
    finally:
        tracer.uninstall()
    assert C.hom_dim is original
    stats = tracer.stats
    assert stats["calculus.stable_hom_dim"]["calls"] == 1
    assert stats["calculus.hom_dim"]["calls"] >= 3
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(tracer.covered, rel=1e-6)


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_specs()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = _benchmark_json()["command"] + ["--workload", "string-scan", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
