import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {"wall_s": 0.25, "peak_rss_mb": 0.1, "setup_s": 0.25}
KEYS = {"label", "parent", "claim", "command", "machine", "protocol", "bytes",
        "src_lines", "verdict", "first_side", "per_pair", "summary"}


def _runs(wall, rss, setup):
    # per_pair entries of one workload: each metric as [parent, change] pairs
    pairs = len(wall)
    return {"seeds": [str(201 + i) for i in range(pairs)],
            "correct": [[True, True]] * pairs, "failed": [[0, 0]] * pairs,
            "wall_s": wall, "peak_rss_mb": rss, "setup_s": setup,
            "user_s": [[1.0, 0.9]] * pairs, "sys_s": [[0.1, 0.1]] * pairs}


def test_pairs_alternate_the_first_side_and_run_each_workload_while_it_has_pairs():
    order = bench_pairs.schedule({"mp_ks": 4, "genmp_solve": 2})
    assert [(i, w) for i, w, _ in order] == [
        (0, "mp_ks"), (0, "genmp_solve"), (1, "mp_ks"), (1, "genmp_solve"),
        (2, "mp_ks"), (3, "mp_ks")]
    assert [sides[0] for i, w, sides in order if w == "mp_ks"] == \
        ["parent", "change", "parent", "change"]
    assert all(set(sides) == {"parent", "change"} for _, _, sides in order)


def test_summary_verdicts_and_claim_on_canned_pairs():
    fast = [[1.00, 0.80], [1.02, 0.83], [0.98, 0.79], [1.01, 0.85], [0.99, 0.81],
            [1.00, 0.82], [1.03, 0.80], [0.97, 0.84], [1.01, 0.79], [1.00, 1.05]]
    steady = [[100.0, 100.5]] * 10
    wide = [[1.0 + 0.4 * (i % 2), 1.2] for i in range(10)]
    per_pair = {"a": _runs(fast, steady, wide),
                "b": _runs(steady, [[100.0, 115.0]] * 10, [[2.0, 0.5 + 0.1 * i] for i in range(10)])}
    summary, verdict, claim = bench_pairs.summarise(per_pair, BOUNDS, ("a", "wall_s"))
    a = summary["a"]
    assert (a["pairs"], a["all_correct"], a["failed"]) == (10, True, {"parent": 0, "change": 0})
    assert a["wall_s"]["change_lower_in_pairs"] == 9
    assert a["wall_s"]["ratio"]["median"] == pytest.approx(0.81 / 1.00, abs=0.02)
    assert a["user_s"]["ratio"]["iqr"] == pytest.approx(0.0)
    assert verdict["a"]["wall_s"].startswith("within the bound: change median -18.5%")
    assert verdict["a"]["peak_rss_mb"].startswith("within the bound: change median +0.5%")
    assert verdict["a"]["setup_s"].startswith("unresolved: parent IQR 33.3%")
    assert verdict["b"]["peak_rss_mb"].startswith("worse than the bound: change median +15.0%")
    # a wide parent, but every change run is below every parent run
    assert verdict["b"]["setup_s"].startswith("within the bound")
    assert set(verdict["b"]) == set(BOUNDS)
    assert claim["met"] and claim["change_wins"] == 9
    assert claim["median_difference"] > claim["parent_iqr"]
    # more failed operations than the parent, or a wrong result, is no gain
    per_pair["a"]["failed"] = [[0, 0]] * 9 + [[0, 1]]
    assert not bench_pairs.summarise(per_pair, BOUNDS, ("a", "wall_s"))[2]["met"]
    per_pair["a"]["failed"] = [[0, 0]] * 10
    per_pair["a"]["correct"] = [[True, True]] * 9 + [[True, False]]
    assert not bench_pairs.summarise(per_pair, BOUNDS, ("a", "wall_s"))[2]["met"]
    # eight wins of ten fall short of nine tenths
    per_pair["a"]["correct"] = [[True, True]] * 10
    assert bench_pairs.summarise(per_pair, BOUNDS, ("a", "wall_s"))[2]["met"]
    per_pair["a"]["wall_s"][0] = [0.8, 0.9]
    assert not bench_pairs.summarise(per_pair, BOUNDS, ("a", "wall_s"))[2]["met"]


_FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
wall = 0.5 if open("src/rmtlab/core.py").read() == "fast\\n" else 1.0
print("record " + json.dumps({"nproc": 2, "blas": "fake 0", "blas_threads": 2,
                              "python": "3", "numpy": "2"}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "wall_s": {"value": wall}, "peak_rss_mb": {"value": 50.0},
    "setup_s": {"value": float(args["--seconds"]) + 1.0}}}))
"""


def test_smoke_run_of_one_pair_in_a_scratch_repository(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "rmtlab").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (repo / "src" / "rmtlab" / "core.py").write_text("slow\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 0, "end_to_end": [
        {"name": name, "bound": bound} for name, bound in BOUNDS.items()]}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-qm", "parent"], cwd=repo, check=True)
    (repo / "src" / "rmtlab" / "core.py").write_text("fast\n")
    (repo / "src" / "rmtlab" / "extra.py").write_text("one\ntwo\n")  # untracked
    out = tmp_path / "BENCH_smoke.json"
    subprocess.run([sys.executable, str(TOOL), "--parent", "HEAD", "--pairs", "w=1",
                    "--label", "smoke", "--out", str(out),
                    "--claim", "w:wall_s", "--workdir", str(tmp_path / "work")],
                   cwd=repo, check=True, capture_output=True, text=True)
    bench = json.loads(out.read_text())
    assert set(bench) == KEYS
    assert bench["per_pair"]["w"]["wall_s"] == [[1.0, 0.5]]
    assert bench["per_pair"]["w"]["setup_s"] == [[1.0, 1.0]]
    assert all(len(bench["per_pair"]["w"][m][0]) == 2 for m in ("user_s", "sys_s"))
    assert bench["first_side"] == {"w": ["parent"]}
    assert bench["src_lines"] == {"parent": 1, "change": 3,
                                  "extra_py": {"parent": 0, "change": 2}}
    assert bench["claim"]["change_wins"] == 1
    assert "--seconds 0 " in bench["command"]
    assert len(str(tmp_path / "work" / "parent")) == len(str(tmp_path / "work" / "change"))
