"""SIGKILL a real ``repro campaign`` mid-matrix, then finish it with ``--resume``.

The first run pins ``micro:sentinel`` in a worker hang, so the kill lands
while that cell is in flight and ``micro:count`` is already committed to the
disk cache.  The whole process group is killed, hung worker included.  The
resumed run must serve the committed cell from disk, compute the lost one,
and produce results byte-identical to an uncached campaign.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.faults import FaultPlan, FaultSpec

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

ARGV = [
    sys.executable, "-m", "repro", "campaign",
    "--workloads", "micro:count", "micro:sentinel",
    "--systems", "neon_dsa", "--json",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _campaign(*extra) -> dict:
    done = subprocess.run(
        ARGV + list(extra), env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _entries(cache: Path) -> list[Path]:
    return [p for p in cache.glob("*/*.json") if p.parent.name != "corrupt"]


def test_kill9_mid_campaign_then_resume_completes_byte_identically(tmp_path):
    cache = tmp_path / "cache"
    plan_path = tmp_path / "plan.json"
    plan = FaultPlan(faults=[
        FaultSpec(kind="worker_hang", match="micro:sentinel/*", times=1, seconds=300.0),
    ])
    plan_path.write_text(json.dumps(plan.to_dict()))

    first = subprocess.Popen(
        ARGV + ["--cache-dir", str(cache), "--inject", str(plan_path)],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not _entries(cache) and time.monotonic() < deadline:
            assert first.poll() is None, "campaign exited before the kill"
            time.sleep(0.05)
        assert len(_entries(cache)) == 1
    finally:
        # the group holds the campaign and its hung worker child
        os.killpg(first.pid, signal.SIGKILL)
        first.wait(timeout=30)

    resumed = _campaign("--cache-dir", str(cache), "--resume")
    sources = {run["spec"]["workload"]: run["source"] for run in resumed["runs"]}
    assert sources == {"micro:count": "disk-cache", "micro:sentinel": "computed"}

    clean = _campaign("--no-cache")
    assert json.dumps(resumed["results"], sort_keys=True) == json.dumps(
        clean["results"], sort_keys=True
    )
    assert not list(cache.rglob("*.tmp"))
