#!/usr/bin/env python3
"""Record benchmark runs into a ledger file, and compare ledgers.

    python3 perfbench/ledger.py record OUT.json [--runs 5] [--first-seed 1]
                                        [--workload NAME ...] [--no-trace]
    python3 perfbench/ledger.py spread LEDGER.json ...
    python3 perfbench/ledger.py diff OLD.json ... -- NEW.json ...

Run from the root of a checkout. `record` runs the command BENCHMARK.json
declares, --runs times untraced per workload (seeds first-seed,
first-seed+1, ...) plus once traced at first-seed, and writes every result
with the machine's processor count. `spread` prints, per workload and
end-to-end metric, the median, the quartiles and the quartile distance as
a share of the median, against the metric's bound. `diff` pools the runs
on each side and gives each workload x end-to-end metric a verdict:
better, worse, unchanged, or unresolved when the spread is wider than the
bound; it exits 1 if any verdict is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    wall_s = round(time.time() - start, 2)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "wall_s": wall_s, "result": result}


def record(a):
    bench = spec()
    names = a.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    for name in names:
        for i in range(a.runs):
            runs.append(run_once(bench, name, a.first_seed + i, 0))
            print(json.dumps(runs[-1]), flush=True)
        if not a.no_trace:
            runs.append(run_once(bench, name, a.first_seed, 1))
            print(json.dumps(runs[-1]), flush=True)
    with open(a.out, "w") as f:
        json.dump({"nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
                   "runs": runs}, f, indent=1)
        f.write("\n")
    bad = [r for r in runs if r["exit"] != 0 or not r["result"]
           or not r["result"]["correct"]]
    sys.exit(1 if bad else 0)


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs += json.load(f)["runs"]
    return [r for r in runs if r["trace"] == 0 and r["result"]]


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(a):
    bench = spec()
    runs = load(a.ledgers)
    worst = 0.0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            xs = values(runs, w["name"], m["name"])
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            flag = "" if rel < m["bound"] / 3 else ("  > bound/3" if rel < m["bound"] else "  > BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, rel / m["bound"])
            print(f"{w['name']:18} {m['name']:20} n={len(xs):2} median {med:12.6g}"
                  f"  q1 {q1:12.6g}  q3 {q3:12.6g}  iqr/median {rel:7.4f}"
                  f"  bound {m['bound']}{flag}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")


def failed_frac(runs):
    att = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / att if att else 0.0


def diff(a):
    bench = spec()
    old, new = load(a.old), load(a.new)
    print(f"failed_frac: old {failed_frac(old):.6f}  new {failed_frac(new):.6f}")
    any_worse = False
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            xo, xn = values(old, w["name"], m["name"]), values(new, w["name"], m["name"])
            if not xo or not xn:
                continue
            o1, om, o3 = quartiles(xo)
            n1, nm, n3 = quartiles(xn)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (nm - om) / abs(om) if om else 0.0  # > 0 is worse
            spread_rel = max(o3 - o1, n3 - n1) / abs(om) if om else 0.0
            all_better = (max(xn) < min(xo)) if sign == 1 else (min(xn) > max(xo))
            if spread_rel > m["bound"] and not all_better:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif change < 0 and (all_better or -change * abs(om) > (o3 - o1)):
                verdict = "better"
            else:
                verdict = "unchanged"
            any_worse |= verdict == "worse"
            print(f"{w['name']:18} {m['name']:20} old {om:12.6g} [{o1:.6g}, {o3:.6g}]"
                  f"  new {nm:12.6g} [{n1:.6g}, {n3:.6g}]  {change:+.4f}  {verdict}")
    sys.exit(1 if any_worse else 0)


def main():
    # diff splits its own arguments: argparse would swallow the "--".
    if sys.argv[1:2] == ["diff"]:
        sides = sys.argv[2:]
        if "--" not in sides:
            sys.exit("usage: ledger.py diff OLD.json ... -- NEW.json ...")
        i = sides.index("--")
        a = argparse.Namespace(old=sides[:i], new=sides[i + 1:])
        if not a.old or not a.new:
            sys.exit("usage: ledger.py diff OLD.json ... -- NEW.json ...")
        diff(a)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("out")
    r.add_argument("--runs", type=int, default=5)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workload", action="append")
    r.add_argument("--no-trace", action="store_true")
    s = sub.add_parser("spread")
    s.add_argument("ledgers", nargs="+")
    sub.add_parser("diff", help="OLD.json ... -- NEW.json ...")
    a = p.parse_args()
    if a.cmd == "record":
        record(a)
    else:
        spread(a)


if __name__ == "__main__":
    main()
