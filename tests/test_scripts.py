import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_critical_coupling_table_runs():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "critical_coupling_table.py"),
         "--grid", "200", "--dims", "3", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert [row[0] for row in rows] == ["3", "4"]
    assert all(len(row) == 5 for row in rows)


def test_grid_sensitivity_runs():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "grid_sensitivity.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "free sphere at N = 3, m = 0 tower: deviation from l(l+1)" in proc.stdout
    assert "critical dipole coupling at N = 3" in proc.stdout
