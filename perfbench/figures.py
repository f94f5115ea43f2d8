#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/figures.py [--workloads grid,points] [--seeds 1-10]
                                 [--seconds 30] [--trace 0]

Runs ``perfbench/run.py`` once per workload and seed, one run at a
time, and prints for each metric the median of the runs, the distance
between their first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, and the range, plus the failed share of
operations.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="grid,points")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in args.seeds:
            res = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=False)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr}")
                ok = False
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{res.stderr}")
                ok = False
            shares.add(str(Fraction(out["failed"], out["attempted"])))
            for name, m in out["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds, failed share(s): {', '.join(sorted(shares))}")
        for name, (v, unit) in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:42s} {med:12.6g} {unit:6s} iqr/median {spread:6.3f}  "
                  f"range {min(v):.6g} .. {max(v):.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
