#!/usr/bin/env python3
"""The bxt benchmark: builds bxt from this checkout and runs one workload.

Run one workload (the last stdout line is the result object):

    python3 bxtbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Summarize one result set, or compare a parent set with a change set
(each a file or directory of saved run.py output):

    python3 bxtbench/run.py --compare parent.log
    python3 bxtbench/run.py --compare parent.log change.log

Check the pure helpers of run.py and of bxt_perfbench:

    python3 bxtbench/run.py --self-test

See bxtbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bxtbench"
BINARY = BUILD / "bxt_perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no bxt sources at {ROOT}; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "bxt_perfbench", "bxtd_for_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_revision():
    """The git commit, or a content hash of the sources when not in git."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "bxtbench", "CMakeLists.txt"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def check_result(obj, metrics):
    """Problems with a result object against the expected metric list."""
    problems = []
    if not isinstance(obj, dict) or set(obj) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    if not isinstance(obj["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted is below 1")
    got = obj["metrics"]
    if not isinstance(got, dict):
        return problems + ["metrics is not an object"]
    want = {m["name"]: m["unit"] for m in metrics}
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metric names differ: missing {missing}, "
                        f"unexpected {extra}")
    for name, entry in got.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value is not a finite number")
        if name in want and entry["unit"] != want[name]:
            problems.append(f"{name}: unit {entry['unit']} != {want[name]}")
    return problems


def run_workload(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; have {sorted(names)}")
        return 2
    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--commit", source_revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"bxt_perfbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON")
        return 1
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_result(result, metrics)
    if problems:
        for p in problems:
            log(p)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


# ------------------------------------------------------------ compare mode

def read_records(path):
    """Untraced run records from a file or a directory of files."""
    path = Path(path)
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    records = []
    for f in files:
        if not f.is_file():
            continue
        for line in f.read_text().splitlines():
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            rec = obj.get("record") if isinstance(obj, dict) else None
            if rec and not rec.get("trace"):
                records.append(rec)
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better):
    """better / worse / unresolved for paired runs (choosing-metrics §8).

    A side wins a pair when its value is better; ties count for neither.
    A verdict needs at least 9 of 10 pairs won and medians that differ by
    more than the parent's own interquartile spread.
    """
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    spread = q3 - q1
    if wins >= 0.9 * len(pairs) and sign * (med_c - med_p) > spread:
        return "better", wins, len(pairs)
    if losses >= 0.9 * len(pairs) and sign * (med_p - med_c) > spread:
        return "worse", wins, len(pairs)
    return "unresolved", wins, len(pairs)


def paired(parent_recs, change_recs, name):
    """Values of metric @name paired by seed (by order if seeds differ)."""
    p = {r["seed"]: r["metrics"][name] for r in parent_recs}
    c = {r["seed"]: r["metrics"][name] for r in change_recs}
    seeds = sorted(set(p) & set(c))
    if seeds:
        return [p[s] for s in seeds], [c[s] for s in seeds]
    n = min(len(parent_recs), len(change_recs))
    return ([r["metrics"][name] for r in parent_recs[:n]],
            [r["metrics"][name] for r in change_recs[:n]])


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(paths):
    spec = load_spec()
    sets = [read_records(p) for p in paths]
    for path, recs in zip(paths, sets):
        if not recs:
            log(f"no untraced run records in {path}")
            return 1
    workloads = sorted({r["workload"] for recs in sets for r in recs})
    header = "workload        metric            "
    if len(sets) == 1:
        print(header + "  n  median [q1, q3]                spread/median")
    else:
        print(header + "  parent median [q1, q3]   change median [q1, q3]"
              "   wins  verdict  within-bound")
    for w in workloads:
        by_set = [[r for r in recs if r["workload"] == w] for recs in sets]
        for m in spec["end_to_end"]:
            name = m["name"]
            if any(not recs or name not in recs[0]["metrics"]
                   for recs in by_set):
                continue
            values = [r["metrics"][name] for r in by_set[0]]
            q = quartiles(values)
            if len(sets) == 1:
                rel = (q[2] - q[0]) / q[1] if q[1] else 0.0
                print(f"{w:15s} {name:18s} {len(values):3d}  {fmt(q):30s} "
                      f"{rel:.4f} (bound {m['bound']})")
                continue
            pv, cv = paired(by_set[0], by_set[1], name)
            v, wins, n = verdict(pv, cv, m["better"])
            med_p, med_c = statistics.median(pv), statistics.median(cv)
            sign = 1.0 if m["better"] == "higher" else -1.0
            worse_by = sign * (med_p - med_c) / abs(med_p) if med_p else 0.0
            ok = "yes" if worse_by <= m["bound"] else "NO"
            print(f"{w:15s} {name:18s} {fmt(quartiles(pv)):24s} "
                  f"{fmt(quartiles(cv)):24s} {wins:2d}/{n:<2d} {v:10s} {ok}")
    return 0


# -------------------------------------------------------------- self-test

def self_test():
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("ok    " if ok else "FAIL  ") + what)
        failures += 0 if ok else 1

    metrics = [{"name": "latency_ms", "unit": "ms"}]
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"latency_ms": {"value": 1.5, "unit": "ms"}}}
    expect(check_result(good, metrics) == [], "valid result passes")
    bad = dict(good, extra=1)
    expect(check_result(bad, metrics) != [], "extra key is refused")
    bad = dict(good, attempted=0)
    expect(check_result(bad, metrics) != [], "attempted 0 is refused")
    bad = dict(good, metrics={"latency_ms": {"value": float("nan"),
                                             "unit": "ms"}})
    expect(check_result(bad, metrics) != [], "NaN value is refused")
    bad = dict(good, metrics={})
    expect(check_result(bad, metrics) != [], "missing metric is refused")

    expect(quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5),
           "quartiles match statistics.quantiles(n=4)")
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 1.2 for v in parent]
    expect(verdict(parent, faster, "higher")[0] == "better",
           "10/10 wins beyond the spread is better")
    expect(verdict(parent, faster, "lower")[0] == "worse",
           "the same runs on a lower-is-better metric are worse")
    mixed = [v + (3 if i < 8 else -3) for i, v in enumerate(parent)]
    expect(verdict(parent, mixed, "higher")[0] == "unresolved",
           "8/10 wins is unresolved")
    close = [v + 0.5 for v in parent]
    expect(verdict(parent, close, "higher")[0] == "unresolved",
           "a shift inside the parent's spread is unresolved")

    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    expect("setup_s" in names and all(m["bound"] <= 0.25
                                      for m in spec["end_to_end"]),
           "BENCHMARK.json bounds")

    if not build():
        expect(False, "build bxt_perfbench")
    else:
        proc = subprocess.run([str(BINARY), "--self-test"],
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        expect(proc.returncode == 0, "bxt_perfbench --self-test")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="RESULTS")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two result sets")
        return compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
