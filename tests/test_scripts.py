import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_from_canned_records():
    """The BENCH_<pr>.json summary of a workload, built from result lines of
    perfbench/run.py without running the benchmark: medians and inclusive
    quartiles per side, pairs won and tied in each metric's direction."""
    bench = _load_script("bench_pairs")

    def result(wall, lb, failed=0):
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "norm_lb_sum": {"value": lb, "unit": "1"}}}

    walls = [(2.0, 1.0), (3.0, 1.5), (4.0, 4.0), (5.0, 6.0), (6.0, 1.2)]
    lbs = [(7.0, 7.0), (7.0, 7.5), (7.0, 6.0), (7.0, 7.0), (7.0, 8.0)]
    records = [
        {"seed": 101 + k, "first": bench.first_in_pair(1, k),
         "parent": result(wp, lp), "change": result(wc, lc, failed=k % 2)}
        for k, ((wp, wc), (lp, lc)) in enumerate(zip(walls, lbs))
    ]
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "norm_lb_sum", "unit": "1", "better": "higher", "bound": 0.12}]
    out = bench.summarise_workload(records, spec)

    assert out["seeds"] == [101, 102, 103, 104, 105] and out["pairs"] == 5
    assert out["first_in_pair"] == ["change", "parent", "change", "parent", "change"]
    wall = out["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 4.0, "q1": 3.0, "q3": 5.0, "runs": [2.0, 3.0, 4.0, 5.0, 6.0]}
    assert wall["change"]["median"] == 1.5 and wall["change"]["q1"] == 1.2
    assert wall["change"]["q3"] == 4.0
    assert (wall["change_wins"], wall["ties"]) == (3, 1)
    assert wall["median_ratio_change_over_parent"] == 1.5 / 4.0
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    lb = out["metrics"]["norm_lb_sum"]
    assert (lb["change_wins"], lb["ties"]) == (2, 2)
    assert lb["median_ratio_change_over_parent"] == 1.0
    assert out["parent_ops"][0] == {"correct": True, "attempted": 10, "failed": 0}
    assert [ops["failed"] for ops in out["change_ops"]] == [0, 1, 0, 1, 0]
