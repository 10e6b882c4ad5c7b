"""Tests of the benchmark itself: its plans, its tracing, and that each
output check passes the program's real output and rejects a corrupted copy.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import cartan, klr  # noqa: E402

NIL_A2 = cartan("nil", "A2")
NIL_A3 = cartan("nil", "A3")
KLR_21 = klr("klr-arrow-2-1", (1, 2), ((1, 2),), (2, 1))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Reports of the program on small presets, written by the same calls
    the benchmark makes."""
    run_dir = str(tmp_path_factory.mktemp("reports"))
    presets = [NIL_A2, NIL_A3, KLR_21]
    failures, settings = worker.build_presets(presets, run_dir)
    assert not failures
    facts = worker.group_facts(presets, settings)
    poly = json.dumps([[[2, 1, 0], "1"], [[0, 1, 2], "-3"]])
    ops = {
        "check": workloads.Op("check", NIL_A2.key, ("check", "--checks", "coset,inversions")),
        "euler": workloads.Op("query", NIL_A2.key, ("euler",)),
        "localize": workloads.Op("query", NIL_A2.key, ("localize",)),
        "braid": workloads.Op("query", NIL_A2.key, ("braid", "--i", "0", "--s", "0", "--t", "1")),
        "act": workloads.Op("query", NIL_A3.key,
                            ("act", "--expr", "s(0,1)", "--component", "0", "--poly", poly)),
        "describe": workloads.Op("query", KLR_21.key, ("describe",)),
        "klr-braid": workloads.Op("query", KLR_21.key, ("braid", "--i", "1", "--s", "0", "--t", "1")),
    }
    by_key = {p.key: p for p in presets}
    out = {"facts": facts, "ops": {}}
    for index, (name, op) in enumerate(ops.items()):
        ok, record = worker.run_op(op, by_key, run_dir, index)
        assert ok, record
        with open(os.path.join(run_dir, record["report"]), encoding="utf-8") as fh:
            out[name] = json.load(fh)
        out["ops"][name] = op
    return out


def test_plans_repeat_per_seed_and_keep_their_size():
    for name in workloads.WORKLOADS:
        p1, ops1 = workloads.plan(name, 1)
        assert (p1, ops1) == workloads.plan(name, 1)
        p2, ops2 = workloads.plan(name, 2)
        assert sorted(p.key for p in p1) == sorted(p.key for p in p2)
        assert sorted((o.kind, o.preset, o.argv[:1]) for o in ops1) == sorted(
            (o.kind, o.preset, o.argv[:1]) for o in ops2
        )
        keys = {p.key for p in p1}
        assert all(o.preset in keys for o in ops1)


def test_known_table_is_consistent():
    for group in list(verify.KNOWN) + ["GL3", "GL5"]:
        order, npos, degrees = verify.known(group)
        product = 1
        for d in degrees:
            product *= d
        assert product == order
        assert sum(d - 1 for d in degrees) == npos


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == tracing.per_layer_names()


def test_group_facts_pass_and_reject(outputs):
    facts = outputs["facts"][NIL_A2.key]
    assert verify.check_group_facts(facts, NIL_A2) == []
    assert verify.check_group_facts(outputs["facts"][KLR_21.key], KLR_21) == []
    for field, value in (("order", 8), ("positive_roots", 4), ("coset_count", 2),
                         ("length_counts", [1, 2, 1, 2])):
        bad = dict(facts, **{field: value})
        assert verify.check_group_facts(bad, NIL_A2)


def test_statuses_pass_and_reject(outputs):
    report = outputs["check"]
    assert verify.check_statuses(report) == []
    bad = copy.deepcopy(report)
    bad["checks"][0]["status"] = "fail"
    assert verify.check_statuses(bad)
    assert verify.check_statuses({"checks": []})


def test_inversion_triples_pass_and_reject(outputs):
    report = outputs["check"]
    assert verify.check_inversion_triples(report, NIL_A2) == []
    bad = copy.deepcopy(report)
    row = next(c for c in bad["checks"] if c["name"].startswith("inversions:"))
    row["details"] = "35 triples"
    assert verify.check_inversion_triples(bad, NIL_A2)


def test_euler_factors_pass_and_reject(outputs):
    report = outputs["euler"]
    assert verify.check_euler(report, NIL_A2) == []
    not_roots = copy.deepcopy(report)
    # x0^2 + x1^2 is irreducible over the rationals
    not_roots["result"]["lambda"][-1]["value"] = [[[0, 2], "1"], [[2, 0], "1"]]
    assert verify.check_euler(not_roots, NIL_A2)
    too_few = copy.deepcopy(report)
    too_few["result"]["lambda"][-1]["value"] = [[[1, 0], "1"]]
    assert verify.check_euler(too_few, NIL_A2)


def test_localize_denominators_pass_and_reject(outputs):
    report = outputs["localize"]
    assert verify.check_localize(report, NIL_A2) == []
    bad = copy.deepcopy(report)
    rows = next(iter(bad["result"]["generators"].values()))
    rows[0]["denominator"] = [[[1, 0], "1"], [[0, 1], "2"]]  # x0 + 2 x1 is no root
    assert verify.check_localize(bad, NIL_A2)


def test_braid_pass_and_reject(outputs):
    report = outputs["braid"]
    assert verify.check_braid(report, NIL_A2) == []
    bad = copy.deepcopy(report)
    bad["result"]["coefficients"][0]["coefficient"]["numerator"] = [[[0, 0], "1"]]
    assert verify.check_braid(bad, NIL_A2)
    klr_report = outputs["klr-braid"]
    assert verify.check_braid(klr_report, KLR_21) == []
    bad = copy.deepcopy(klr_report)
    bad["result"]["coefficients"][0]["coefficient"]["denominator"] = [[[1, 0, 0], "1"]]
    bad["result"]["coefficients"][0]["coefficient"]["numerator"] = [[[0, 1, 0], "1"]]
    assert verify.check_braid(bad, KLR_21)


def test_act_pass_and_reject(outputs):
    report, op = outputs["act"], outputs["ops"]["act"]
    assert verify.check_act(report, NIL_A3, op.argv) == []
    bad = copy.deepcopy(report)
    bad["result"]["image"]["0"][0][1] = "7"
    assert verify.check_act(bad, NIL_A3, op.argv)


def test_describe_pass_and_reject(outputs):
    report = outputs["describe"]
    assert verify.check_describe(report, KLR_21) == []
    for field, value in (("big_group_order", 5), ("coset_count", 2)):
        bad = copy.deepcopy(report)
        bad["result"][field] = value
        assert verify.check_describe(bad, KLR_21)
    bad = copy.deepcopy(report)
    bad["result"]["roots"].pop()
    assert verify.check_describe(bad, KLR_21)


def test_tracer_wraps_and_restores(tmp_path):
    from qhecke import cli, config

    original = config.build_setting
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_setting is not original
        tracer.region("bench.setup", worker.build_presets, [NIL_A2], str(tmp_path))
        path = str(tmp_path / f"{NIL_A2.key}.config.json")
        out = str(tmp_path / "report.json")
        assert tracer.region("cli.check", cli.main,
                             ["check", "--checks", "localization", "--config", path, "--out", out]) == 0
    finally:
        tracer.uninstall()
    assert cli.build_setting is original and config.build_setting is original
    metrics = tracer.metrics()
    assert [(k, v["unit"]) for k, v in metrics.items()] == tracing.per_layer_names()
    assert metrics["config.build_setting_calls"]["value"] == 2
    assert metrics["polyops.kmul_calls"]["value"] > 0
    assert metrics["suite.localization_s"]["value"] > 0
    assert metrics["suite.inversions_s"]["value"] == 0
    assert all(v["value"] >= 0 for v in metrics.values())
    # self times partition the traced time
    outer = [s for s in tracer.spans if s[1] == 0]
    total = sum(s[4] - s[3] for s in outer)
    self_sum = sum(s[5] for s in tracer.spans) + sum(a[2] for a in tracer.hot.values())
    assert self_sum == total


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
