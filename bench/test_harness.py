"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_harness.py
"""

import json

import pytest

import run
import workloads

TINY = {
    "sweep-n256": {"grid.n": 32},
    "verify-200": {"verify.instances": 3, "verify.n_max": 16},
    "persistence-n64": {"grid.n": 16, "integrator.t_end": 2.0},
    "extinction-n1024": {"grid.n": 32, "integrator.t_end": 1.0},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, override in TINY.items():
        full = workloads.WORKLOADS[name]
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            lambda seed, full=full, override=override:
                            {**full(seed), **override})
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    return tmp_path


def bench(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.001", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_harness():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in data["end_to_end"]) == next(
        m["bound"] for m in data["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_emitted_with_its_unit(tiny, capsys, workload):
    data = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in data[key]}
        record = json.loads((tiny / f"BENCH_{workload}_seed3_trace{trace}.json")
                            .read_text(encoding="utf-8"))
        assert record["fail_ratio"]["value"] == 0.0
        assert record["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    assert result["metrics"]["experiments.run_scenario.self_s"]["value"] > 0


def test_wrong_oracle_value_counts_as_failure(tiny, capsys, monkeypatch):
    honest = workloads.DenseModel.growth_rate
    monkeypatch.setattr(workloads.DenseModel, "growth_rate",
                        lambda self, d: honest(self, d) + 1e-6)
    result = bench(capsys, "sweep-n256", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    record = json.loads((tiny / "BENCH_sweep-n256_seed3_trace0.json")
                        .read_text(encoding="utf-8"))
    assert record["fail_ratio"]["value"] == 1.0
    assert not all(check["ok"] for check in record["checks"])


def test_seed_determines_inputs():
    for make in workloads.WORKLOADS.values():
        assert make(1) == make(1)
        assert make(1) != make(2)
