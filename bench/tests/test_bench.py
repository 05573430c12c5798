"""Tests of the benchmark itself (not of plate_spectra).

Run from the repository root:  python3 -m pytest bench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

WORKLOADS = ("spectrum-sweep", "weighted-solve", "density-search")
END_TO_END = {"op_s.p50", "op_s.tail", "ops_per_s", "setup_s", "verified_ratio",
              "max_rel_err", "peak_rss_mb", "objective_gain"}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.delenv(bench.THREADS_VAR, raising=False)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(name):
    result, report = bench.run(name, seed=3, seconds=0, trace=False, smoke=2)
    assert result["correct"], report["failures"]
    warmup = len(bench.make_workload(name, 3).warmup())
    assert result["failed"] == 0 and result["attempted"] == warmup + 2
    assert set(result["metrics"]) == END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key]
        # two ops may miss every op with a reference or a gain; a full round has them
        assert metric["value"] > 0 or key in ("max_rel_err", "objective_gain")


def test_every_round_has_reference_and_gain_ops():
    bench._import_package()
    from plate_spectra import reference
    wl = bench.make_workload("weighted-solve", 3)
    labels = {op.get("label") for op in wl.round(0)}
    assert set(reference.RATIO_TABLE) <= labels
    wl = bench.make_workload("spectrum-sweep", 3)
    assert {"reference", "criterion9"} <= {op["role"] for op in wl.round(0)}
    wl = bench.make_workload("density-search", 3)
    pairs = [(op["target"], op["j"], tuple(op["grid"])) for op in wl.round(0)]
    assert ("min-mu", 10, (2400, 31)) in pairs and ("max-nu1", None, (2400, 31)) in pairs
    assert len(set(pairs)) == 26 and len(pairs) == 39


def test_smoke_trace_self_check_and_layers():
    result, report = bench.run("weighted-solve", seed=3, seconds=0, trace=True, smoke=2)
    assert report["self_check"]["passed"], report["self_check"]
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    m = result["metrics"]
    spans = [json.loads(line) for line in (ROOT / report["spans_file"]).read_text().splitlines()]
    assert sum(s["name"] == "op" for s in spans) == 2
    assert sum(s["name"] == "numerics.sym_eig" for s in spans) == 4
    assert all(spans[s["parent"]]["start"] <= s["start"] for s in spans if s["parent"] is not None)
    assert m["numerics.sym_eig_calls"]["value"] == 2.0
    assert m["galerkin.assemble_calls"]["value"] == 2.0
    assert m["spectrum.build_calls"]["value"] == 0.0


def test_perturbed_result_counts_as_failure(monkeypatch):
    from plate_spectra import galerkin
    original = galerkin.solve_weighted
    calls = []

    def perturbed(*args, **kwargs):
        gs = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 4:           # the first timed op; the warm-up makes calls 1-3
            gs.mu_p[0] *= 0.3         # below lambda_1(1) / beta: breaks stability
        return gs

    monkeypatch.setattr(galerkin, "solve_weighted", perturbed)
    result, report = bench.run("weighted-solve", seed=3, seconds=0, trace=False,
                               smoke=2)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 5
    assert math.isclose(result["metrics"]["verified_ratio"]["value"], 4 / 5)
    assert "stability inequality" in report["failures"][0]


def test_nonzero_exit_code_counts_as_failure(monkeypatch):
    from plate_spectra import cli
    monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_NO_CONVERGENCE)
    result, report = bench.run("density-search", seed=3, seconds=0, trace=False,
                               smoke=1)
    assert result["failed"] == result["attempted"] == 2
    assert all("exit code 4" in f for f in report["failures"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    bench._import_package()
    first = bench.inputs_digest(bench.make_workload(name, 5))
    assert first == bench.inputs_digest(bench.make_workload(name, 5))
    assert first != bench.inputs_digest(bench.make_workload(name, 6))


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = bench.tail([float(i) for i in range(30, 0, -1)])
    assert n == 30 and math.isclose(pct, 200 / 3)
    # Harrell-Davis: on 1..n the q-quantile is n*q + 1/2, between the 20th and 21st
    assert math.isclose(value, 20.5, rel_tol=1e-6)


def test_quantile_is_the_median_of_symmetric_samples():
    assert math.isclose(bench.quantile([float(i) for i in range(100, 0, -1)], 0.5), 50.5)
    assert math.isclose(bench.quantile([3.0, 1.0, 2.0], 0.5), 2.0)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *_spec()["command"][1:], "--workload",
                           "spectrum-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
