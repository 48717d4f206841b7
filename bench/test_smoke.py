"""Self-test of the benchmark: every workload, a few trials, both trace modes.

    python3 -m pytest bench/test_smoke.py -q

Each run must pass its output checks and emit exactly the metric names and
units BENCHMARK.json declares for its mode.
"""

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_TRIALS = {"ref_music": 20, "los_bartlett": 20}


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run_emits_declared_metrics(name, trace):
    result, record = run.run_workload(run.WORKLOADS[name], seed=3, seconds=0, trace=trace,
                                      trials=SMOKE_TRIALS[name], setup_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {metric: body["unit"] for metric, body in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(body["value"], float) for body in result["metrics"].values())
    if trace:
        assert record["traced_csv_identical"]
    json.dumps(result, allow_nan=False)
