"""The numpy-only experiment scripts run end to end at small sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# Each script's arguments at a small size, and the first line it prints.
RUNS = {
    "route_crossover.py": (["--points", "129", "--reps", "1", "--repeat", "1"], "# python "),
    "qv_scaling_study.py": (["--hurst", "0.3", "--levels", "6,7,8", "--reps", "10"],
                            "hurst,slope,stderr,theory"),
    "stationarity_gap_scan.py": (["--points", "5"], "x,gap"),
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, first_line = RUNS[script]
    cp = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                        capture_output=True, text=True, env=package_env(), timeout=60)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.startswith(first_line)
    assert "Traceback" not in cp.stderr
