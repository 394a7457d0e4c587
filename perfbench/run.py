#!/usr/bin/env python3
"""The repository benchmark: build it, run it, compare result sets.

Run one workload:

    python3 perfbench/run.py --workload apply_fleet --seed 1 --seconds 20 --trace 0

builds perfbench/main.exe from the sources of the checkout it sits in
and runs it; the last line of standard output is the JSON result.

Run every workload for many seeds, at BENCHMARK.json's run_seconds,
keeping every result line with its seed (one file per workload in DIR,
which must not hold results yet):

    python3 perfbench/run.py sweep --out DIR [--seeds 1-10] [--trace 0]

Compare two result sets made by sweep (A = parent, B = change):

    python3 perfbench/run.py compare DIR_A DIR_B

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["apply_fleet", "apply_edit", "serve_fleet"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build main.exe from this checkout's sources (no shared dune cache:
    nothing is read or written outside the checkout)."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no program sources next to the benchmark (%s)" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "--cache=disabled",
             "--display=quiet", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout)."""
    r = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=175)
    return r.returncode, r.stdout


def seeds_of(spec):
    if "-" in spec:
        a, b = spec.split("-", 1)
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",")]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def load_set(d):
    """DIR/<workload>.jsonl -> {workload: {seed: result}}."""
    out = {}
    for w in WORKLOADS:
        p = os.path.join(d, w + ".jsonl")
        if os.path.isfile(p):
            with open(p) as f:
                rs = [json.loads(l) for l in f if l.strip()]
            out[w] = {r["seed"]: r for r in rs}
    return out


def spread_table(results):
    """Per metric: median, quartiles and IQR as a share of the median."""
    names = list(results[0]["metrics"])
    rows = []
    for n in names:
        xs = [r["metrics"][n]["value"] for r in results]
        q1, q2, q3 = quartiles(xs)
        rows.append((n, results[0]["metrics"][n]["unit"], q2, q1, q3,
                     (q3 - q1) / q2 if q2 else 0.0))
    return rows


def cmd_sweep(argv):
    p = argparse.ArgumentParser(prog="run.py sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = str(json.load(f)["run_seconds"])
    os.makedirs(a.out, exist_ok=True)
    if any(os.path.exists(os.path.join(a.out, w + ".jsonl")) for w in WORKLOADS):
        fail("%s already holds results; sweep into a new directory" % a.out)
    build()
    for w in WORKLOADS:
        results = []
        for s in seeds_of(a.seeds):
            code, out = run_one(w, s, seconds, a.trace)
            sys.stdout.write(out)
            if code != 0:
                fail("%s seed %d exited %d" % (w, s, code), 1)
            result = json.loads(out.strip().splitlines()[-1])
            result["seed"] = s
            results.append(result)
            with open(os.path.join(a.out, w + ".jsonl"), "a") as f:
                f.write(json.dumps(result) + "\n")
        print("== %s: %d runs" % (w, len(results)))
        for n, u, med, q1, q3, sp in spread_table(results):
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g %s  spread %.2f%%"
                  % (n, med, q1, q3, u, 100 * sp))


def verdict(a, b, better, bound):
    """choosing-metrics section 8, on runs paired by seed: a gain needs
    >= 9/10 pair wins and a median difference beyond the parent's
    quartile spread; a regression is a median worse than the bound
    allows; a spread wider than the bound leaves the metric unresolved
    unless every run of B beats every run of A."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(a, b))
    wins_b = sum(1 for x, y in pairs if sign * (x - y) > 0)
    wins_a = sum(1 for x, y in pairs if sign * (y - x) > 0)
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    iqr = qa3 - qa1
    beyond = abs(mb - ma) > iqr
    worse_share = sign * (mb - ma) / abs(ma) if ma else 0.0
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if wins_b >= 0.9 * len(pairs) and beyond and sign * (ma - mb) > 0:
        v = "improved"
    elif bound is None:
        if wins_a >= 0.9 * len(pairs) and beyond and sign * (mb - ma) > 0:
            v = "worse"
        elif not beyond:
            v = "unchanged"
        else:
            v = "unresolved"
    elif ma and iqr / abs(ma) > bound and not all_better:
        v = "unresolved"
    elif worse_share > bound:
        v = "worse"
    else:
        v = "unchanged"
    return wins_a, wins_b, v


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("a", help="result set of the parent")
    p.add_argument("b", help="result set of the change")
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    sa, sb = load_set(a.a), load_set(a.b)
    worst = 0
    for w in WORKLOADS:
        if w not in sa or w not in sb:
            continue
        seeds = sorted(set(sa[w]) & set(sb[w]))
        if not seeds:
            continue
        ra = [sa[w][s] for s in seeds]
        rb = [sb[w][s] for s in seeds]
        print("== %s (%d runs paired by seed)" % (w, len(seeds)))
        print("  %-32s %-30s %-30s %-9s %s" % (
            "metric", "A median [q1, q3]", "B median [q1, q3]", "wins A:B",
            "verdict"))
        for n in ra[0]["metrics"]:
            if n not in rb[0]["metrics"] or n not in meta:
                continue
            xa = [r["metrics"][n]["value"] for r in ra]
            xb = [r["metrics"][n]["value"] for r in rb]
            better, bound = meta[n]
            wa, wb, v = verdict(xa, xb, better, bound)
            qa, qb = quartiles(xa), quartiles(xb)
            print("  %-32s %-30s %-30s %-9s %s" % (
                n, "%.6g [%.6g, %.6g]" % (qa[1], qa[0], qa[2]),
                "%.6g [%.6g, %.6g]" % (qb[1], qb[0], qb[2]),
                "%d:%d" % (wa, wb), v))
            if v == "worse":
                worst = 1
    sys.exit(worst)


def main(argv):
    if argv and argv[0] == "sweep":
        return cmd_sweep(argv[1:])
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    p = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    build()
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE, "--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", repr(a.seconds), "--trace", str(a.trace)])


if __name__ == "__main__":
    main(sys.argv[1:])
