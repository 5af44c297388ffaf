#!/usr/bin/env python3
"""Repository benchmark: builds `perfbench` from source and runs workloads.

One workload, one JSON result on the last line of stdout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced and traced, with a readable report:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The benchmark's own checks (reproducibility, metric names, attribution):

    python3 perfbench/run.py --selftest

The program is configured and built under `$CARGO_TARGET_DIR/perfbench`
(default `.bench_build/perfbench`) in the checkout. The traced run writes
its spans to `spans-<workload>.csv` there. See perfbench/README.md for
what every metric means.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD_DIR / "perfbench"

SPEC_FILE = ROOT / "BENCHMARK.json"


def load_spec():
    """Workloads and metric tables: BENCHMARK.json is their one source."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
        return ([w["name"] for w in spec["workloads"]],
                {m["name"]: m for m in spec["end_to_end"]},
                {m["name"]: m for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as err:
        sys.exit(f"perfbench: cannot read {SPEC_FILE}: {err}")


WORKLOADS, END_TO_END, PER_LAYER = load_spec()
SIM_WORKLOADS = [w for w in WORKLOADS if w.startswith("sim_")]

# The workload-specific end-to-end figures, printed where they apply.
OWN_METRICS = {
    "latency_p99_ms": ("workload.latency_p99_ms", "ms", SIM_WORKLOADS),
    "sustained_msgs_s": ("workload.sustained_msgs_s", "1/s", ["sim_paper_n3"]),
    "outage_ms": ("workload.outage_ms", "ms", ["sim_ring_n5_restart"]),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no protocol sources at {ROOT / 'src'}; cannot build")
        return False
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "-j", "4"]
    for attempt in range(2):
        try:
            if not (BUILD_DIR / "CMakeCache.txt").is_file():
                subprocess.run(configure, check=True, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
            subprocess.run(compile_, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
            return True
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as err:
            log(f"perfbench: build failed ({err})")
            # A cache from another checkout location cannot be reused.
            cache = BUILD_DIR / "CMakeCache.txt"
            if attempt == 0 and cache.is_file():
                cache.unlink()
                continue
            return False
    return False


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs perfbench once; returns its JSON object or None."""
    spans = BUILD_DIR / f"spans-{workload}.csv"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spans", str(spans), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {workload} printed no JSON result")
        return None


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def contract_result(raw, trace):
    """The result object for the last line: end-to-end or per-layer metrics."""
    table = PER_LAYER if trace else END_TO_END
    source = raw["layer"] if trace else raw["e2e"]
    problems = list(raw["violations"])
    metrics = {}
    for name, spec in table.items():
        value = source.get(name)
        if not finite(value):
            problems.append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}
    correct = bool(raw["correct"]) and not problems and raw["attempted"] >= 1
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}, problems


def report(raw, trace):
    """Human-readable lines: every metric by name with its unit."""
    w = raw["workload"]
    log_lines = [f"== {w}: correct={raw['correct']} attempted={raw['attempted']} "
                 f"failed={raw['failed']}"]
    for name, spec in END_TO_END.items():
        log_lines.append(f"  {name:<36} {raw['e2e'][name]:>14.6g} {spec['unit']}")
    failed_ratio = raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0
    log_lines.append(f"  {'failed_ratio':<36} {failed_ratio:>14.6g} ratio")
    for name, (key, unit, where) in OWN_METRICS.items():
        if w in where and key in raw["layer"]:
            if name == "sustained_msgs_s" and not trace:
                continue  # searched in traced runs only
            log_lines.append(f"  {name:<36} {raw['layer'][key]:>14.6g} {unit}")
    if trace:
        for name, spec in PER_LAYER.items():
            if name in raw["layer"]:
                log_lines.append(f"  {name:<36} {raw['layer'][name]:>14.6g} {spec['unit']}")
    extras = sorted(k for k in raw["layer"] if k not in PER_LAYER)
    if extras:
        log_lines.append("  diagnostics:")
        for name in extras:
            log_lines.append(f"    {name:<34} {raw['layer'][name]:>14.6g}")
    for v in raw["violations"]:
        log_lines.append(f"  VIOLATION: {v}")
    print("\n".join(log_lines), flush=True)


def run_one(args):
    if not build():
        return 2
    raw = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if raw is None:
        return 1
    result, problems = contract_result(raw, args.trace)
    report(raw, args.trace)
    for p in problems:
        log(f"perfbench: {p}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args):
    if not build():
        return 2
    ok = True
    for w in WORKLOADS:
        raw = run_binary(w, args.seed, args.seconds, True)
        if raw is None:
            ok = False
            continue
        report(raw, True)
        _, problems = contract_result(raw, True)
        ok = ok and raw["correct"] and not problems
    return 0 if ok else 1


def selftest(args):
    failures = []

    def check(cond, what):
        print(f"  [{'ok' if cond else 'FAIL'}] {what}", flush=True)
        if not cond:
            failures.append(what)

    print("metric names and units")
    for name, spec in {**END_TO_END, **PER_LAYER}.items():
        check(NAME_RE.match(name) and UNIT_RE.match(spec["unit"]), f"{name} [{spec['unit']}]")
    bounds = [m["bound"] for m in END_TO_END.values()]
    check(all(b <= 0.25 for b in bounds) and END_TO_END["setup_s"]["bound"] == max(bounds),
          "bounds <= 0.25, setup_s has the largest")

    if not build():
        return 2
    print("sim-time figures repeat bit for bit for a fixed seed")
    for w in SIM_WORKLOADS:
        a = run_binary(w, 7, 1, False)
        b = run_binary(w, 7, 1, False)
        check(a is not None and b is not None and a["deterministic"] == b["deterministic"]
              and a["deterministic"], f"{w}: two processes, same seed, same figures")
        if a is not None:
            check(a["correct"], f"{w}: correct ({a['violations']})")
            bad = [n for n in list(a["e2e"]) + list(a["layer"]) if not NAME_RE.match(n)]
            check(not bad, f"{w}: every emitted name matches the pattern {bad}")

    # At 500 msg/s the simulated CPUs are nearly idle, so the extra delay
    # is not offset by less queueing (at 4000 msg/s the dissemination p50
    # moves by only ~0.65 ms: slower consensus batches more ids per
    # instance and unloads the CPUs).
    print("attribution: +1 ms propagation on sim_paper_n3 at 500 msg/s")
    light = ("--rate", "500")
    base = run_binary("sim_paper_n3", 7, 1, True, light)
    slow = run_binary("sim_paper_n3", 7, 1, True, light + ("--extra-propagation-us", "1000"))
    if base is None or slow is None:
        check(False, "traced runs completed")
    else:
        check(base["correct"] and slow["correct"],
              f"traced runs correct ({base['violations'] + slow['violations']})")
        dd = slow["layer"]["bcast.disseminate_ms_p50"] - base["layer"]["bcast.disseminate_ms_p50"]
        do = slow["layer"]["core.order_ms_p50"] - base["layer"]["core.order_ms_p50"]
        print(f"  disseminate p50 moved {dd:+.3f} ms, order p50 moved {do:+.3f} ms")
        # One flooding hop lies between the origin's R-deliver and p's.
        check(0.9 <= dd <= 1.1, "bcast.disseminate_ms_p50 moves by one hop (~1 ms)")
        # Ordering waits on consensus message delays: at least two more
        # hops, at most the four of a CT round (estimate, proposal, ack,
        # decision) plus slack.
        check(2.0 <= do <= 4.5, "core.order_ms_p50 moves by consensus's hops")
        check(abs(slow["layer"]["span.abcast.submit_ms_mean"]
                  - base["layer"]["span.abcast.submit_ms_mean"]) < 1e-9,
              "abcast.submit does not move (no network on that path)")
    print("selftest: " + ("PASS" if not failures else f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload, --all or --selftest is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
