#!/usr/bin/env python3
"""Checks that two checkouts of this repository behave identically.

    python3 tools/same_behaviour.py BASE_DIR CHANGE_DIR

For a change that claims "behaviour unchanged". Both checkouts must be
built first, each with the tier-1 command and the benchmark's self-test:

    cmake -B build -S . && cmake --build build -j
    python3 perfbench/run.py --selftest

Then, in both checkouts, the script

  * runs `build/tools/scenario_fuzz --seeds 2000` and compares the logs
    (output directory and binary path normalised) and every repro file,
    byte for byte;
  * runs the perfbench binary (`$CARGO_TARGET_DIR/perfbench/perfbench`,
    default `.bench_build/perfbench/perfbench`) with `--seconds 1
    --trace 0` on every simulator workload, seeds 1-10, on
    os.cpu_count() parallel jobs, and compares the `deterministic`
    objects.

Exit status 0 if everything is identical; otherwise 1, after naming
each difference. 2 if a checkout is not built.
"""

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FUZZ_SEEDS = 2000
BENCH_SEEDS = range(1, 11)


def fuzz_binary(checkout):
    return checkout / "build" / "tools" / "scenario_fuzz"


def bench_binary(checkout):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return checkout / target / "perfbench" / "perfbench"


def sim_workloads(checkout):
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"] if w["name"].startswith("sim_")]


def run_fuzz(checkout, out_dir):
    """Returns (exit code, normalised log, {repro name: bytes})."""
    binary = fuzz_binary(checkout)
    proc = subprocess.run(
        [str(binary), "--seeds", str(FUZZ_SEEDS), "--out", str(out_dir)],
        cwd=checkout, capture_output=True, text=True, check=False)
    log = (proc.stdout + proc.stderr).replace(str(out_dir), "<out>")
    log = log.replace(str(binary), "<scenario_fuzz>")
    repros = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return proc.returncode, log, repros


def compare_fuzz(base, change):
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for name, checkout in (("base", base), ("change", change)):
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            results.append(run_fuzz(checkout, out_dir))
    (base_rc, base_log, base_repros), (change_rc, change_log, change_repros) = results
    if base_rc != change_rc:
        diffs.append(f"scenario_fuzz: exit status {base_rc} -> {change_rc}")
    if base_log != change_log:
        base_lines, change_lines = base_log.splitlines(), change_log.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(base_lines, change_lines))
                      if a != b), min(len(base_lines), len(change_lines)))
        diffs.append(f"scenario_fuzz: logs differ from line {first + 1} "
                     f"({len(base_lines)} -> {len(change_lines)} lines)")
    for name in sorted(set(base_repros) | set(change_repros)):
        if name not in change_repros:
            diffs.append(f"scenario_fuzz: {name} only in base")
        elif name not in base_repros:
            diffs.append(f"scenario_fuzz: {name} only in change")
        elif base_repros[name] != change_repros[name]:
            diffs.append(f"scenario_fuzz: {name} differs")
    print(f"scenario_fuzz --seeds {FUZZ_SEEDS}: exit {base_rc} -> {change_rc}, "
          f"{len(base_repros)} -> {len(change_repros)} repro files",
          file=sys.stderr)
    return diffs


def run_bench(binary, workload, seed):
    """Returns the run's `deterministic` object, or an error string."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])["deterministic"]
    except (IndexError, ValueError, KeyError, TypeError):
        return f"no result (exit {proc.returncode}): {proc.stderr.strip()[-200:]}"


def compare_bench(base, change):
    workloads = sim_workloads(base)
    cases = [(w, s) for w in workloads for s in BENCH_SEEDS]
    jobs = [(checkout, w, s) for w, s in cases for checkout in (base, change)]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(
            lambda job: run_bench(bench_binary(job[0]), job[1], job[2]), jobs))
    diffs = []
    for i, (workload, seed) in enumerate(cases):
        base_det, change_det = results[2 * i], results[2 * i + 1]
        where = f"perfbench {workload} seed {seed}"
        if isinstance(base_det, str) or isinstance(change_det, str):
            diffs.append(f"{where}: base {base_det!r}, change {change_det!r}")
            continue
        for key in sorted(set(base_det) | set(change_det)):
            if base_det.get(key) != change_det.get(key):
                diffs.append(f"{where}: {key} {base_det.get(key)} -> "
                             f"{change_det.get(key)}")
    print(f"perfbench: {len(cases)} runs per checkout over {', '.join(workloads)}",
          file=sys.stderr)
    return diffs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = (Path(arg).resolve() for arg in sys.argv[1:])
    missing = [str(b) for c in (base, change)
               for b in (fuzz_binary(c), bench_binary(c)) if not b.is_file()]
    if missing:
        print("not built: " + ", ".join(missing), file=sys.stderr)
        return 2
    if bench_binary(base) == bench_binary(change):
        print("both checkouts resolve to one perfbench binary; "
              "CARGO_TARGET_DIR must be relative", file=sys.stderr)
        return 2
    diffs = compare_fuzz(base, change) + compare_bench(base, change)
    for diff in diffs:
        print(diff)
    print("same behaviour" if not diffs else f"{len(diffs)} difference(s)",
          file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
