"""scripts/calibrate_fresh.py on a one-size, two-seed grid."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_fresh.py"


def test_calibration_prints_its_three_margins(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("calibrate_fresh", SCRIPT)
    cal = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cal)
    monkeypatch.setattr(cal, "SIZES", ((500, 64),))
    monkeypatch.setattr(cal, "SEEDS", (1, 2))
    cal.main()
    assert capsys.readouterr().out.splitlines() == [
        "min sparse slack over runs:      49",
        "max sparse class size over runs: 15",
        "max sparse trials / (n log^2 n): 0.0116",
    ]
