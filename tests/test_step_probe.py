"""The training-step probe of scripts/step_probe.py, on a small fixture."""

import json
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_probe.py"


def test_step_probe_times_a_small_step_quickly():
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(SCRIPT), "--arch", "pet_8_mini", "--batch", "2"],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["arch"], report["batch"]) == ("pet_8_mini", 2)
    assert report["step_s"] > 0 and report["warm_step_s"] > 0 and report["maxrss_mb"] > 0
    assert report["step_s"] + report["warm_step_s"] < elapsed
    assert elapsed < 10
