#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs per workload.

Run from the repository root::

    python3 wirebench/steady.py --runs 10 [--workload serve_views ...]

Reads ``BENCHMARK.json``, runs its command ``--runs`` times per set and
per workload, alternating set A (seeds 1, 2, ...) and set B (seeds 101,
102, ...), each with ``--trace 0``.  For every end-to-end metric it prints
each set's median and quartiles, the spread (interquartile distance over
the median) against the metric's bound, and the set-to-set change of the
median against the bound.  Exits 1 when a spread (other than
``setup_s``'s) or a change in the worse direction exceeds its bound, when
the share of failed operations differs between the sets, or when a run
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: {time.monotonic() - started:.1f}s wall, "
          + ", ".join(f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 101)):
                result = run_once(spec["command"], workload, base + i, seconds)
                if not result["correct"]:
                    print(f"{workload} set {name} run {i}: incorrect output")
                    ok = False
                sets[name].append(result)
        shares = {
            name: {(r["failed"], r["attempted"]) for r in runs}
            for name, runs in sets.items()
        }
        failed = {name: {f / a for f, a in s} for name, s in shares.items()}
        print(f"\n{workload}: failed share A={sorted(failed['A'])} "
              f"B={sorted(failed['B'])}")
        if failed["A"] != failed["B"] or len(failed["A"]) != 1:
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            medians = {}
            for set_name, runs in sets.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3 = summary(values)
                spread = (q3 - q1) / median
                medians[set_name] = median
                flag = "" if spread <= bound or name == "setup_s" else " !"
                if flag:
                    ok = False
                row.append(f"{set_name}: {median:.4g} [{q1:.4g}, {q3:.4g}] "
                           f"spread {spread:.3f}{flag}")
            both = [r["metrics"][name]["value"] for runs in sets.values()
                    for r in runs]
            q1, median, q3 = summary(both)
            row.append(f"all: spread {(q3 - q1) / median:.3f}")
            change = (medians["B"] - medians["A"]) / medians["A"]
            worse = change if metric["better"] == "lower" else -change
            flag = " !" if worse > bound else ""
            if flag:
                ok = False
            print(f"  {name:16s} bound {bound:.2f}  " + "  ".join(row)
                  + f"  B vs A {change:+.3f}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
