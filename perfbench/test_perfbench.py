"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bench_cases
import bench_trace
import bench_worker
import run
from bench_metrics import END_TO_END, EXPECTED_CHECKS, LAYERS, PER_LAYER, WORKLOADS
from qtransfer.algebra import QScalar
from qtransfer.finitegl import BudgetError, cached_group

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric_with_its_unit():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_case_counts_are_fixed_and_seed_only_reorders(workload):
    first = bench_cases.build(workload, 1, "tiny")
    again = bench_cases.build(workload, 1, "tiny")
    other = bench_cases.build(workload, 2, "tiny")
    assert len(first) == len(other) == EXPECTED_CHECKS["tiny"][workload]
    assert [c.label for c in first] == [c.label for c in again]
    if workload != "transfer-oracles":  # its labels carry the seeded inputs
        assert sorted(c.label for c in first) == sorted(c.label for c in other)
    assert [c.label for c in first] != [c.label for c in other]


def test_seed_draws_the_random_laurent_inputs():
    def seeded(seed):
        return {c.label for c in bench_cases.build("transfer-oracles", seed, "tiny")
                if c.label.startswith("random")}
    assert seeded(1) != seeded(2)
    assert any("-" in label.split("f=")[1] for label in seeded(1))


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_PROCESSES", 1)
    result = run.measure("gl-shadow", seed=3, seconds=0, trace=trace, size="tiny")
    assert result["correct"]
    assert result["failed"] == 0
    units = PER_LAYER if trace else END_TO_END
    assert result["units"] is units
    assert set(result["metrics"]) == set(units)
    run.report(result)
    out = capsys.readouterr().out
    for name, unit in END_TO_END.items():
        assert f" {name} " in out and f" {unit} " in out
    assert " fail_share " in out
    if trace:
        for name, unit in PER_LAYER.items():
            assert any(line.split()[0] == name and line.split()[-1] == unit
                       for line in out.splitlines() if line.strip())


def _wrong_image_e(p, k):
    return bench_cases.transfer_sym(p, bench_cases.elementary(p.n, k)).scale(2)


def _refused(group):
    raise BudgetError("refused by a test double")


def test_wrong_oracle_counts_in_fail_share(monkeypatch):
    cases = bench_cases.build("transfer-oracles", 1, "tiny")
    assert bench_worker.run_cases(cases)["failed"] == 0
    monkeypatch.setattr(bench_cases, "image_e", _wrong_image_e)
    result = bench_worker.run_cases(cases)
    wrong = [c for c in cases if c.label.startswith("image_e")]
    assert result["attempted"] == len(cases)
    assert result["failed"] == len(wrong) > 0


def test_budget_refusal_counts_as_failed_and_refused(monkeypatch):
    monkeypatch.setattr(bench_cases, "comb_prop_check", _refused)
    cases = bench_cases.build("gl-shadow", 1, "tiny")
    result = bench_worker.run_cases(cases)
    refused = [c for c in cases if c.label.startswith("comb_prop")]
    assert result["failed"] == len(refused)
    assert result["refusals"] == {"finitegl": len(refused)}


def test_cold_guard_rejects_a_warm_cache():
    cached_group(1, 2)
    with pytest.raises(bench_worker.WarmStart):
        bench_worker.assert_cold()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_account_for_the_run(workload):
    cases = bench_cases.build(workload, 1, "tiny")
    tracer = bench_trace.Tracer(run_id="test")
    original_add = QScalar.__dict__["__add__"]
    with bench_trace.installed(tracer):
        assert QScalar.__dict__["__add__"] is not original_add
        result = bench_worker.run_cases(cases, tracer)
    assert QScalar.__dict__["__add__"] is original_add
    assert not hasattr(bench_cases.transfer_sym, "__wrapped__")
    assert result["failed"] == 0

    spans = {s[0]: s for s in tracer.spans}
    roots = [s for s in spans.values() if s[4] is None]
    assert [r[1] for r in roots] == [bench_trace.ROOT_SPAN]
    for span_id, name, start, end, parent in spans.values():
        assert start <= end
        if parent is not None:
            _, _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    root = roots[0]
    assert sum(tracer.self_ns.values()) == root[3] - root[2]

    metrics = tracer.metrics(Counter())
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_ratio"}
    assert all(value >= 0 for value in metrics.values())
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + metrics["bench.loop.self_s"] == pytest.approx(metrics["trace.wall_s"])


def test_wrappers_count_work_of_the_named_layer():
    tracer = bench_trace.Tracer(run_id="test")
    with bench_trace.installed(tracer):
        result = bench_worker.run_cases(bench_cases.build("weyl-cosets", 1, "tiny"), tracer)
    metrics = tracer.metrics(Counter(result["refusals"]))
    assert metrics["weylcomb.perm_mul.calls"] > 0
    assert metrics["weylcomb.min_double_coset_reps.calls"] > 0
    assert 0 < metrics["weylcomb.min_double_coset_reps.repeat_share"] < 1
    assert metrics["weylcomb.double_cosets"] > 0
    assert metrics["algebra.QScalar.ops"] == 0


def test_quotient_ops_are_the_real_quotients():
    def traced(workload):
        tracer = bench_trace.Tracer(run_id="test")
        with bench_trace.installed(tracer):
            bench_worker.run_cases(bench_cases.build(workload, 1, "tiny"), tracer)
        return tracer.metrics(Counter())
    laurent, quotients = traced("transfer-oracles"), traced("q-quotients")
    assert laurent["algebra.QScalar.ops"] > 0
    assert laurent["algebra.QScalar.quotient_ops"] == 0
    assert 0 < quotients["algebra.QScalar.quotient_ops"] < quotients["algebra.QScalar.ops"]
    assert 0 < quotients["algebra.QScalar.quotient_s"] < quotients["algebra.QScalar.self_s"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(Path(run.HERE.name) / "run.py"),
                           "--workload", "gl-shadow", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
