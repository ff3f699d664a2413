#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload straight [--runs 10] [--first-seed 1]
                                [--trace 0] [--json FILE]
    python3 perfbench/spread.py --compare A.json B.json

The command and the run length come from BENCHMARK.json at the
repository root; run this from there. Per metric it prints the median,
the first and third quartiles (Python's statistics.quantiles, n=4), the
quartile spread as a share of the median and, for end-to-end metrics,
the bound; then the range of the runs' reference scale factors.
`--json FILE` also writes the values. `--compare` reads two such files
of the same workload and prints both sets with the ratio of their
medians (b/a) as a markdown table.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def spec():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def measure(args, bench):
    values, units, scales = {}, {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        scales += [float(x) for x in re.findall(r"scaled by ([0-9.]+)", out.stderr)]
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed} done", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med, q1, q3, spread = summary(vals)
        bound = f"{bounds[name]:>6}" if name in bounds else " " * 6
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound} {units[name]}")
    if scales:
        print(f"reference scale factor: median {statistics.median(scales):.4f}, "
              f"range {min(scales):.4f}..{max(scales):.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "values": values, "units": units,
                       "scales": scales}, f, indent=1)


def compare(a_path, b_path):
    with open(a_path, encoding="utf-8") as f:
        a = json.load(f)
    with open(b_path, encoding="utf-8") as f:
        b = json.load(f)
    print("| metric | unit | set a: median [q1, q3] | spread | set b: median [q1, q3] | spread | b/a |")
    print("|---|---|---|---|---|---|---|")
    for name, a_vals in a["values"].items():
        am, aq1, aq3, asp = summary(a_vals)
        bm, bq1, bq3, bsp = summary(b["values"][name])
        ratio = bm / am if am else 1.0
        print(f"| {name} | {a['units'][name]} | {am:.4g} [{aq1:.4g}, {aq3:.4g}] | {asp:.3f} "
              f"| {bm:.4g} [{bq1:.4g}, {bq3:.4g}] | {bsp:.3f} | {ratio:.3f} |")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        measure(args, spec())
    else:
        parser.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
