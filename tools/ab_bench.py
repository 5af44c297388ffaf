#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark on two checkouts.

    python3 tools/ab_bench.py BASE_DIR CHANGE_DIR [--pairs N] [--seconds S]
                              [--workloads W[,W...]] [--first-seed S]

Both checkouts must already hold a built benchmark binary; building one
is a side effect of any `perfbench/run.py` call there, e.g.

    python3 perfbench/run.py --workload sim_paper_n3 --seconds 1

Each pair runs the base's and the change's binary on the same workload
and seed, untraced, for the same number of seconds; pair i uses seed
`first-seed + i`. Simulator workloads run both sides of a pair at the
same time, each pinned to its own core, and swap cores and start order
every pair, so neighbours on the host slow both sides alike. TCP
workloads need every core, so their two runs of a pair go one after the
other, and which side runs first alternates.

For each end-to-end metric of BENCHMARK.json (read from BASE_DIR) the
report gives every pair, each side's median and quartiles, and a
verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ, in the change's
              favour, by more than the base's interquartile range;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  anything else, and every metric of a run with fewer than
              10 pairs: with few pairs, which core and which start slot
              a side had decides the clock figures (one 1 s A/A pair on
              a 4-vCPU VM read up to +65% on setup_s and +44% on
              cpu_us_per_msg), so such a run only shows each side's
              numbers.

Exit status: 0 if every run was correct and no metric reads worse, 1
otherwise, 2 if a binary is missing, two different checkouts resolve to
one binary (an absolute CARGO_TARGET_DIR), or a run produced no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_behaviour import bench_binary  # noqa: E402

RUN_TIMEOUT_S = 600
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values):
    """(Q1, median, Q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, change, better, bound):
    """better / worse / unresolved, by the rule in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    if len(base) < MIN_PAIRS:
        return "unresolved", wins
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    gain = sign * (b_med - c_med)  # > 0: the change is better
    if wins >= WIN_SHARE * len(base) and gain > b_q3 - b_q1:
        return "better", wins
    if -gain > bound * abs(b_med):
        return "worse", wins
    return "unresolved", wins


def run_side(binary, workload, seed, seconds, cpu, spans_dir):
    """Runs one benchmark process; returns its JSON result or an error string."""
    spans = Path(spans_dir) / f"spans-{os.getpid()}-{threading.get_ident()}.csv"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--spans", str(spans)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=pin,
                              check=False)
    except subprocess.TimeoutExpired:
        return f"{binary}: {workload} seed {seed} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"{binary}: {workload} seed {seed} exited {proc.returncode}"
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"{binary}: {workload} seed {seed} printed no JSON"


def run_pair(binaries, workload, seed, seconds, index, cores, spans_dir):
    """Returns [base result, change result] for one pair."""
    order = [0, 1] if index % 2 == 0 else [1, 0]
    results = [None, None]
    if workload.startswith("sim_"):
        def side(i, cpu):
            results[i] = run_side(binaries[i], workload, seed, seconds, cpu,
                                  spans_dir)
        threads = []
        for slot, i in enumerate(order):  # swaps cores and start order
            t = threading.Thread(target=side, args=(i, cores[slot]))
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
    else:
        for i in order:
            results[i] = run_side(binaries[i], workload, seed, seconds, None,
                                  spans_dir)
    return results


def fmt(v):
    return f"{v:.6g}"


def report_workload(workload, runs, metrics):
    """Prints one workload's table; returns True if nothing reads worse."""
    ok = True
    print(f"== {workload}: {len(runs)} pairs")
    if len(runs) < MIN_PAIRS:
        print(f"  fewer than {MIN_PAIRS} pairs: every verdict is unresolved")
    for seed, base, change in runs:
        for side, raw in (("base", base), ("change", change)):
            if not raw["correct"] or raw["failed"]:
                ok = False
                print(f"  seed {seed} {side}: correct={raw['correct']} "
                      f"failed={raw['failed']}/{raw['attempted']} "
                      f"{raw.get('violations', [])}")
    for m in metrics:
        name, unit, better, bound = m["name"], m["unit"], m["better"], m["bound"]
        base = [r[1]["e2e"][name] for r in runs]
        change = [r[2]["e2e"][name] for r in runs]
        print(f"  {name} [{unit}], {better} is better, bound {bound:.0%}")
        print(f"    {'seed':>6} {'base':>12} {'change':>12} {'ratio':>8}")
        for (seed, _, _), b, c in zip(runs, base, change):
            ratio = fmt(c / b) if b else "-"
            print(f"    {seed:>6} {fmt(b):>12} {fmt(c):>12} {ratio:>8}")
        for side, values in (("base", base), ("change", change)):
            q1, med, q3 = quartiles(values)
            print(f"    {side:<6} median {fmt(med)}  Q1 {fmt(q1)}  Q3 {fmt(q3)}")
        call, wins = verdict(base, change, better, bound)
        print(f"    change wins {wins}/{len(runs)}: {call}")
        if call == "worse":
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be positive")

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in workloads]
        if unknown:
            parser.error(f"unknown workloads {unknown}; known: {workloads}")
        workloads = wanted
    checkouts = [args.base.resolve(), args.change.resolve()]
    binaries = [bench_binary(c) for c in checkouts]
    for b in binaries:
        if not b.is_file():
            print(f"ab_bench: {b} missing; build it with perfbench/run.py",
                  file=sys.stderr)
            return 2
    if checkouts[0] != checkouts[1] and binaries[0] == binaries[1]:
        print("ab_bench: both checkouts resolve to one perfbench binary; "
              "CARGO_TARGET_DIR must be relative", file=sys.stderr)
        return 2
    cores = sorted(os.sched_getaffinity(0))
    cores = cores[-2:] if len(cores) >= 2 else cores * 2

    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as spans_dir:
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                pair = run_pair(binaries, workload, seed, args.seconds, i,
                                cores, spans_dir)
                errors = [r for r in pair if isinstance(r, str)]
                if errors:
                    for e in errors:
                        print(f"ab_bench: {e}", file=sys.stderr)
                    return 2
                runs.append((seed, pair[0], pair[1]))
            workload_ok = report_workload(workload, runs, spec["end_to_end"])
            ok = ok and workload_ok
    print("ab_bench: " + ("no metric worse, every run correct" if ok
                          else "a metric reads worse or a run failed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
