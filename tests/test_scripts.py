import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_explore_norms(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "explore_norms.py"), *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_explore_norms_runs():
    """The one script without a CLI twin runs end to end (it calls
    ``necessity_report``, so the norm ascent and its gradient)."""
    proc = run_explore_norms("--trials", "1", "--depth", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["seed", "B", "B*", "A_est", "B/A", "B*/(cA^q)"]
    assert len(lines) == 2


@pytest.mark.parametrize("flags,names", [
    (["--p", "1.5", "--q", "2"], "r = p/q"),
    (["--p", "4", "--q", "4"], "r = p/q"),
    (["--p", "nan"], "p must"),
    (["--q", "inf"], "q must"),
    (["--depth", "0"], "depth"),
    (["--arity", "1"], "arity"),
    (["--trials", "-3"], "trials"),
    (["--trials", "0"], "trials"),
])
def test_explore_norms_rejects_flags_it_cannot_run(flags, names, capsys):
    """One error line naming the flag, exit 2, and nothing on stdout: no
    header first, no traceback."""
    assert _load_script("explore_norms").main(["--depth", "2", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and names in err and err.count("\n") == 1, err


def test_explore_norms_exits_2_on_bad_flags():
    proc = run_explore_norms("--p", "4", "--q", "4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: r = p/q must be a finite number > 1, got p=4.0, q=4.0\n"


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
