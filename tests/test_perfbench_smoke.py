"""The benchmark's smoke check passes against this checkout's `src`.

`perfbench/smoke.py` runs every benchmark workload briefly on the tiny cell,
so a change to a name the benchmark binds (`gbdt.train`, `GbdtModel.trees`
as a list, `dqn.sync_target`, ...) fails here and not only in a benchmark
run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_check_passes(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke check passed" in proc.stdout
