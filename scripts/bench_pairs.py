"""Alternating parent/change runs of the committed benchmark, summarised.

    python3 scripts/bench_pairs.py --parent ../isekf-parent --change . \
        --pairs 10 --out BENCH_<n>.json

--parent and --change are two checkouts of the repository (for example
made with `git worktree add ../isekf-parent HEAD~1`).  For each workload
of BENCHMARK.json and each pair, `bench/run.py --workload W --trace 0` runs
once in each checkout, with the side that runs first alternating from pair
to pair; each side runs the benchmark code, and so the run length and seed,
of its own checkout.  The output JSON holds each checkout's HEAD and the git
blob hash of every file that differs from it, the machine record, every
run's metrics and run record, and per end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the ratio of the medians (change /
parent), the pairs the change won (ties count for neither), whether the
change's median is worse than the parent's by more than the metric's bound,
whether the metric is unresolved: the parent's own quartile spread is
wider than the bound and the change's runs do not all read better than all
of the parent's, and whether the change gained: it won at least 9 in 10 of
the pairs and its median is better than the parent's by more than the
parent's quartile spread (q3 - q1).  Beside the summary, each workload reports each side's
spread of the raw set-up time (record.wall.setup_s, before the host-speed
scaling of the setup_s metric) and of record.import_s; they decide nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, help="output JSON, BENCH_<n>.json by convention")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args, spec


def commit_of(checkout: str):
    """HEAD of a git checkout and, for each tracked or untracked (not
    ignored) file that differs from it, the file's git blob hash (None if
    deleted), so the measured tree can be checked against a later commit
    with `git rev-parse COMMIT:PATH`; None if checkout is not a git tree."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout
    try:
        head = git("rev-parse", "HEAD").strip()
        paths = sorted(set(git("diff", "HEAD", "--name-only", "-z").split("\0")
                           + git("ls-files", "--others", "--exclude-standard", "-z").split("\0"))
                       - {""})
        present = [p for p in paths if os.path.isfile(os.path.join(checkout, p))]
        blobs = dict(zip(present, git("hash-object", "--", *present).split())) if present else {}
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"head": head, "changed": {p: blobs.get(p) for p in paths}}


def run_once(checkout: str, workload: str) -> dict:
    """One untraced bench run in checkout: its record and result lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "record": record}


def spread(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: list, end_to_end: list) -> dict:
    """Per metric: both sides' spread, the median ratio, the change's wins
    over its pairs, whether it regressed beyond the metric's bound, whether
    the parent's own spread is too wide to tell and whether the change
    gained: 9 in 10 pairs won and a median gain beyond the parent's spread."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: [r["metrics"][name] for r in runs if r["side"] == s]
                for s in ("parent", "change")}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(side["parent"], side["change"]))
        parent, change = spread(side["parent"]), spread(side["change"])
        worse = (parent["median"] - change["median"] if higher
                 else change["median"] - parent["median"])
        separated = (min(side["change"]) > max(side["parent"]) if higher
                     else max(side["change"]) < min(side["parent"]))
        margin = metric["bound"] * abs(parent["median"])
        pairs = len(side["change"])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            "wins": wins, "pairs": pairs,
            "regressed": worse > margin,
            "unresolved": parent["q3"] - parent["q1"] > margin and not separated,
            "gained": 10 * wins >= 9 * pairs and -worse > parent["q3"] - parent["q1"],
        }
    fails = [r["failed"] / r["attempted"] for r in runs]
    out["fail_ratio_max"] = max(fails)
    return out


def raw_setup(runs: list) -> dict:
    """Per side, the spread of the unscaled set-up time and of the import
    time within it: the numbers to check a scaled setup_s verdict against."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {"setup_s": spread([r["record"]["wall"]["setup_s"] for r in mine]),
                     "import_s": spread([r["record"]["import_s"] for r in mine])}
    return out


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {
        "pairs": args.pairs,
        "parent": commit_of(checkouts["parent"]), "change": commit_of(checkouts["change"]),
        "machine": None, "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(checkouts[side], workload)
                report["machine"] = report["machine"] or run["record"]["machine"]
                runs.append({"pair": pair, "side": side, **run})
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
        report["workloads"][workload] = {"summary": summarise(runs, spec["end_to_end"]),
                                         "raw_setup": raw_setup(runs), "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
