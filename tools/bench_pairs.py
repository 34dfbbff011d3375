"""Paired bench of the working tree against a parent revision, written as one
BENCH_*.json file.

    python3 tools/bench_pairs.py --parent REV --pairs mp_ks=20,genmp_solve=5 \
        --label TEXT --out BENCH_name.json [--seed 201] \
        [--claim mp_ks:wall_s] [--bytes TEXT] [--workdir DIR]

Run it from the repository root, with nothing else busy on the machine. It
builds two checkouts at paths of equal length, DIR/parent by `git archive
REV` and DIR/change from the working tree's files (tracked and untracked,
less those git ignores). Pair i (from 0) runs each workload that has more
than i pairs, in the order given, once on each side at seed SEED + i:

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <S> --trace 0

where S is BENCHMARK.json's run_seconds. The parent runs first in even
pairs and the change in odd ones. Each run's end-to-end metrics are
recorded with its user and system CPU seconds, taken from `os.wait4` (the
run and the processes it waited for). The CPU seconds are reported,
never judged. Each workload's summary gives each side's quartiles, the
change's median against the parent's, and the per-pair ratio change /
parent, over the pairs whose parent value is above 0 (null where the
parent's median or every parent value is 0). Each end-to-end metric of BENCHMARK.json gets a verdict
against its bound. A metric is unresolved where the parent's IQR is wider
than the bound, unless every change run beats every parent run. The claimed
metric is met when the change wins at least nine tenths of its pairs, the
medians differ by more than the parent's IQR, every run of its workload is
correct and the change fails no more operations there than the parent.

Without --workdir the checkouts and run logs go to a temporary directory
that is removed at the end; with it they are kept there.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
CPU = ("user_s", "sys_s")


def schedule(pairs):
    """[(pair index, workload, sides in run order)] for {workload: pair count}:
    pair i runs every workload with more than i pairs, in the given order,
    the parent first in even pairs."""
    return [(i, w, SIDES if i % 2 == 0 else SIDES[::-1])
            for i in range(max(pairs.values(), default=0))
            for w, count in pairs.items() if i < count]


def _stats(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"min": float(min(values)), "q1": float(q1), "median": float(median),
            "q3": float(q3), "max": float(max(values))}


def _pct(x):
    return f"{100 * x:+.1f}%"


def _verdict(parent, change, bound):
    """Verdict of one lower-is-better metric, from its per-side values."""
    p, c = _stats(parent), _stats(change)
    move = c["median"] / p["median"] - 1
    spread = (p["q3"] - p["q1"]) / p["median"]
    if spread > bound and not max(change) < min(parent):
        return (f"unresolved: parent IQR {100 * spread:.1f}% of its median exceeds "
                f"the {100 * bound:g}% bound; change median {_pct(move)}")
    where = "worse than the bound" if move > bound else "within the bound"
    return f"{where}: change median {_pct(move)}, parent IQR {100 * spread:.1f}% of its median"


def summarise(per_pair, bounds, claim=None):
    """(summary, verdict, claim) of per-pair runs.

    per_pair: {workload: {"seeds": [...], "correct": [[p, c], ...],
    "failed": [[p, c], ...], and one [[parent, change], ...] list per
    metric}}; bounds: {end-to-end metric: relative bound}, every one lower
    is better; claim: (workload, metric) or None."""
    summary, verdict = {}, {}
    for w, runs in per_pair.items():
        s = {"pairs": len(runs["seeds"]),
             "all_correct": all(all(pair) for pair in runs["correct"]),
             "failed": dict(zip(SIDES, map(sum, zip(*runs["failed"]))))}
        for m in [*bounds, *CPU]:
            parent, change = (list(col) for col in zip(*runs[m]))
            # os.wait4 can read a short run's CPU seconds as 0.0: a ratio
            # takes only the pairs whose parent value is above 0
            ratio = [c / p for p, c in runs[m] if p > 0]
            r1, r2, r3 = map(float, np.percentile(ratio, [25, 50, 75])) if ratio \
                else [None] * 3
            s[m] = {"parent": _stats(parent), "change": _stats(change),
                    "median_change_vs_parent": float(np.median(change) / np.median(parent) - 1)
                    if np.median(parent) > 0 else None,
                    "change_lower_in_pairs": sum(c < p for p, c in runs[m]),
                    "ratio": {"median": r2, "q1": r1, "q3": r3,
                              "iqr": None if r1 is None else r3 - r1}}
        summary[w] = s
        verdict[w] = {m: _verdict(*zip(*runs[m]), bound) for m, bound in bounds.items()}
    if claim is None:
        return summary, verdict, None
    w, m = claim
    s = summary[w][m]
    parent_iqr = s["parent"]["q3"] - s["parent"]["q1"]
    difference = s["parent"]["median"] - s["change"]["median"]
    wins = s["change_lower_in_pairs"]
    failed = summary[w]["failed"]
    return summary, verdict, {
        "workload": w, "metric": m, "pairs": summary[w]["pairs"], "change_wins": wins,
        "median_parent": s["parent"]["median"], "median_change": s["change"]["median"],
        "median_difference": difference, "parent_iqr": parent_iqr,
        "relative": -difference / s["parent"]["median"],
        "smallest_claimable_change": parent_iqr / s["parent"]["median"],
        "met": bool(wins >= 0.9 * summary[w]["pairs"] and difference > parent_iqr
                    and summary[w]["all_correct"] and failed["change"] <= failed["parent"])}


def checkouts(repo, parent, workdir):
    """DIR/parent from `git archive parent`, DIR/change from the working tree."""
    dirs = {side: Path(workdir) / side for side in SIDES}
    archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=repo,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dirs["parent"], filter="data")
    files = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=repo,
                           check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, files):
        if (Path(repo) / name).is_file():  # a tracked file may be deleted
            (dirs["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(Path(repo) / name, dirs["change"] / name)
    return dirs


def run_one(checkout, workload, seed, seconds, log):
    """One perfbench run: (its record, its result, with user_s and sys_s)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    with open(log, "w") as out:
        proc = subprocess.Popen(cmd, cwd=checkout, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = Path(log).read_text().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           + "\n".join(lines[-10:]))
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    return record, {**json.loads(lines[-1]), "user_s": usage.ru_utime,
                    "sys_s": usage.ru_stime}


def src_lines(dirs):
    """Lines of src/rmtlab/*.py on each side, with each module whose count moved."""
    counts = {side: {f.name: len(f.read_text().splitlines())
                     for f in sorted((d / "src" / "rmtlab").glob("*.py"))}
              for side, d in dirs.items()}
    out = {side: sum(c.values()) for side, c in counts.items()}
    for name in sorted(set(counts["parent"]) | set(counts["change"])):
        pair = {side: counts[side].get(name, 0) for side in SIDES}
        if pair["parent"] != pair["change"]:
            out[name.replace(".", "_")] = pair
    return out


def bench(repo, args, workdir):
    bench_spec = json.loads((Path(repo) / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
    seconds = bench_spec["run_seconds"]
    if args.claim and (args.claim[0] not in args.pairs or args.claim[1] not in bounds):
        raise SystemExit(f"--claim {':'.join(args.claim)} names no benched workload "
                         f"and end-to-end metric")
    dirs = checkouts(repo, args.parent, workdir)
    logs = Path(workdir) / "logs"
    logs.mkdir()
    per_pair = {w: {"seeds": [], "correct": [], "failed": [],
                    **{m: [] for m in [*bounds, *CPU]}} for w in args.pairs}
    first_side, record = {w: [] for w in args.pairs}, None
    for i, w, order in schedule(args.pairs):
        seed, got = args.seed + i, {}
        for side in order:
            record, got[side] = run_one(dirs[side], w, seed, seconds,
                                        logs / f"{w}_{seed}_{side}.txt")
            print(f"pair {i + 1} {w} seed {seed} {side}: "
                  f"wall_s {got[side]['metrics']['wall_s']['value']:.4f}", flush=True)
        runs = per_pair[w]
        runs["seeds"].append(str(seed))
        first_side[w].append(order[0])
        runs["correct"].append([got[side]["correct"] for side in SIDES])
        runs["failed"].append([got[side]["failed"] for side in SIDES])
        for m in bounds:
            runs[m].append([got[side]["metrics"][m]["value"] for side in SIDES])
        for m in CPU:
            runs[m].append([got[side][m] for side in SIDES])
    summary, verdict, claim = summarise(per_pair, bounds, args.claim)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=repo,
                            check=True, capture_output=True, text=True).stdout.strip()
    order = ", ".join(f"{w} ({n} pairs)" for w, n in args.pairs.items())
    return {
        "label": args.label, "parent": parent, "claim": claim,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "machine": f"{record.get('nproc')}-CPU {platform.machine()}, {record.get('blas')} "
                   f"at {record.get('blas_threads')} threads, Python "
                   f"{record.get('python')}, numpy {record.get('numpy')}",
        "protocol": f"tools/bench_pairs.py: parent (git archive of {parent}) and change "
                    f"(the working tree's files) run from two checkouts at paths of equal "
                    f"length, as interleaved pairs; pair i runs {order} in turn, while "
                    f"it has pairs left, at seed {args.seed} + i; the parent runs first "
                    f"in even pairs (first_side); per_pair entries are [parent, change]; "
                    f"user_s and sys_s are each run's CPU seconds from os.wait4, "
                    f"reported and not judged; verdicts compare the change's median "
                    f"with the parent's against BENCHMARK.json's bounds, and call a "
                    f"metric unresolved where the parent's IQR exceeds its bound",
        "bytes": args.bytes, "src_lines": src_lines(dirs), "verdict": verdict,
        "first_side": first_side, "per_pair": per_pair, "summary": summary}


def _pair_counts(text):
    return {name: int(count) for name, count in (item.split("=") for item in text.split(","))}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", required=True, type=_pair_counts,
                        help="comma-separated workload=pair-count entries, in run order")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--seed", type=int, default=201, help="the seed of pair 1")
    parser.add_argument("--claim", type=lambda t: tuple(t.split(":")),
                        help="workload:metric whose gain is claimed")
    parser.add_argument("--bytes", default=None, help="the record of the byte check")
    parser.add_argument("--workdir", default=None,
                        help="an empty or new directory for the checkouts and logs, kept")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    repo = Path.cwd()
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        result = bench(repo, args, args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
            result = bench(repo, args, workdir)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
