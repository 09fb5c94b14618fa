import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_explore_norms_runs():
    """The one script without a CLI twin runs end to end (it calls
    ``necessity_report``, so the norm ascent and its gradient)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "explore_norms.py"), "--trials", "1",
         "--depth", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["seed", "B", "B*", "A_est", "B/A", "B*/(cA^q)"]
    assert len(lines) == 2
