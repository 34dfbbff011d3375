import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_06_laws_and_solver_runs(capsys):
    runpy.run_path(str(DEMOS / "06_laws_and_solver.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "generalized MP: atom at 0" in out
    assert out.rstrip().endswith("for the CLI equivalent")


def test_demo_05_reduction_diagnostics_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "05_reduction_diagnostics.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "median W2 strictly decreasing:" in out
    assert (tmp_path / "demo_out" / "diagnostics" / "reduction_gaps.csv").is_file()


def test_demo_03_indicator_generalized_mp_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "03_indicator_generalized_mp.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("points re-solved from above") == 3
    assert "pooled KS vs generalized MP" in out
    for beta in ("-0.1", "0.1", "0.3"):
        assert (tmp_path / "demo_out" / "indicator" / f"beta_{beta}" / "report.json").is_file()
