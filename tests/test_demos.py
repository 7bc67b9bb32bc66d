import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lp_certificates_demo_flags_the_corrupted_point():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "demos" / "04_lp_certificates.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    flagged = [line for line in proc.stdout.splitlines()
               if line.endswith("(flagged infeasible)")]
    assert len(flagged) == 1
    assert "min slack = -" in flagged[0]
