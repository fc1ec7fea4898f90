"""scripts/bench_pairs.summarise, which writes the summaries of the
BENCH_*.json records, on synthetic runs."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "time", "unit": "s", "better": "lower", "bound": 0.25}


def runs_of(parent, change, name, failed=None):
    """Alternating runs of one metric: pair i has parent[i] and change[i]."""
    failed = failed or [0] * len(parent)
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs.append({"pair": i, "side": "parent", "metrics": {name: p},
                     "failed": 0, "attempted": 10})
        runs.append({"pair": i, "side": "change", "metrics": {name: c},
                     "failed": failed[i], "attempted": 10})
    return runs


def test_ties_count_for_neither_side(bench_pairs):
    out = bench_pairs.summarise(runs_of([10, 10, 10, 10], [12, 10, 9, 12], "rate"), [HIGHER])
    rate = out["rate"]
    assert rate["wins"] == 2 and rate["pairs"] == 4
    out = bench_pairs.summarise(runs_of([5, 5, 5], [4, 5, 6], "time"), [LOWER])
    assert out["time"]["wins"] == 1


def test_medians_quartiles_and_ratio(bench_pairs):
    rate = bench_pairs.summarise(runs_of([10, 20, 30, 40, 50], [20, 40, 60, 80, 100], "rate"),
                                 [HIGHER])["rate"]
    assert rate["parent"] == {"median": 30, "q1": 20, "q3": 40}
    assert rate["change"] == {"median": 60, "q1": 40, "q3": 80}
    assert rate["ratio"] == 2.0
    assert rate["wins"] == 5 and not rate["regressed"]
    assert (rate["unit"], rate["better"], rate["bound"]) == ("1/s", "higher", 0.25)


@pytest.mark.parametrize("metric, parent, change, regressed", [
    # higher is better: a median 30% below the parent's is beyond a 25% bound
    (HIGHER, [100, 100, 100], [70, 70, 70], True),
    (HIGHER, [100, 100, 100], [80, 80, 80], False),
    (HIGHER, [100, 100, 100], [200, 200, 200], False),
    # lower is better: a median 30% above the parent's is beyond it
    (LOWER, [100, 100, 100], [130, 130, 130], True),
    (LOWER, [100, 100, 100], [120, 120, 120], False),
    (LOWER, [100, 100, 100], [50, 50, 50], False),
])
def test_regressed_follows_the_direction_of_the_metric(bench_pairs, metric, parent, change,
                                                       regressed):
    out = bench_pairs.summarise(runs_of(parent, change, metric["name"]), [metric])
    assert out[metric["name"]]["regressed"] is regressed


def test_a_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # parent quartiles 80-130 around a median of 100: wider than 25%
    wide = [60, 80, 100, 130, 140]
    out = bench_pairs.summarise(runs_of(wide, [70, 90, 100, 120, 150], "rate"), [HIGHER])
    assert out["rate"]["unresolved"] and not out["rate"]["regressed"]
    # unless every change run reads better than every parent run
    out = bench_pairs.summarise(runs_of(wide, [150, 160, 170, 180, 190], "rate"), [HIGHER])
    assert not out["rate"]["unresolved"]
    out = bench_pairs.summarise(runs_of(wide, [10, 20, 30, 40, 50], "time"), [LOWER])
    assert not out["time"]["unresolved"]
    # a tight parent is resolved whatever the change does
    out = bench_pairs.summarise(runs_of([99, 100, 101], [60, 100, 140], "rate"), [HIGHER])
    assert not out["rate"]["unresolved"]


def test_a_single_pair_has_a_zero_spread(bench_pairs):
    assert bench_pairs.spread([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5}
    out = bench_pairs.summarise(runs_of([100], [60], "rate"), [HIGHER])
    rate = out["rate"]
    assert rate["parent"] == {"median": 100, "q1": 100, "q3": 100}
    assert rate["pairs"] == 1 and rate["wins"] == 0
    assert rate["regressed"] and not rate["unresolved"]


def test_the_largest_failure_share_is_reported(bench_pairs):
    out = bench_pairs.summarise(runs_of([1, 1, 1], [1, 1, 1], "rate", failed=[0, 3, 1]),
                                [HIGHER])
    assert out["fail_ratio_max"] == 0.3


def test_every_end_to_end_metric_is_summarised(bench_pairs):
    runs = runs_of([1, 2], [2, 1], "rate")
    for run, t in zip(runs, [5, 4, 5, 6]):
        run["metrics"]["time"] = t
    out = bench_pairs.summarise(runs, [HIGHER, LOWER])
    assert set(out) == {"rate", "time", "fail_ratio_max"}
    assert out["time"]["wins"] == 1
