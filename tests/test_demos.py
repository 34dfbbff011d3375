import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_06_laws_and_solver_runs(capsys):
    runpy.run_path(str(DEMOS / "06_laws_and_solver.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "generalized MP: atom at 0" in out
    assert out.rstrip().endswith("for the CLI equivalent")
