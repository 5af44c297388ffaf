// perfbench: runs one workload and prints one JSON line on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--extra-propagation-us X] [--rate R]
//
// `--extra-propagation-us` and `--rate` change the workload's definition;
// they exist for the self-tests and for reproducing recorded defects.
// Untraced phase: the simulator workloads repeat their fixed sim-time
// window until `--seconds` of wall time is spent (at least twice); the
// sim-time figures must be identical across repetitions. The TCP
// workload runs as many of its 2 s windows, each on a fresh cluster, as
// fill `--seconds`. Wall-clock figures are medians over repetitions,
// set-up figures one median over the set-ups timed before every
// repetition. Repetitions during which other tenants of the host took
// CPU time from this VM (steal) are run past and left out of the
// medians over repetitions; see `repeat`. With `--trace 1` a traced phase of half that length follows
// and its per-layer figures and tracing overhead are added.
// `perfbench/run.py` builds this program, selects the metrics and checks
// the output.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::RunResult;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  double extra_propagation_us = 0.0;
  double rate = 0.0;  // 0 = the workload's own
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans = val;
    } else if (key == "--rate") {
      a.rate = std::stod(val);
    } else if (key == "--extra-propagation-us") {
      a.extra_propagation_us = std::stod(val);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

/// A repetition is quiet when the hypervisor took at most this share of
/// the machine's CPU time (/proc/stat steal) while it ran. Other tenants
/// on the host come and go on a scale of seconds; while they run, steal
/// reaches 10-30% and moves every wall-clock figure (TCP p50 up to 5x),
/// and even 1-3% of steal moves the TCP p50 by 10-20%.
constexpr double kQuietSteal = 0.01;

double steal_of(const RunResult& r) {
  const auto it = r.layer.find("workload.vm_steal_share");
  return it == r.layer.end() ? 0.0 : it->second;
}

/// Cluster set-ups are timed before each repetition, so that they sample
/// the host's speed phases (see README.md, "Noise") across the whole run:
/// at least this many per repetition ...
int min_setups(const Workload& w) { return w.sim() ? 101 : 31; }

/// ... and, on the simulator, where a set-up takes tens of microseconds,
/// for at least this share of the previous repetition's wall time. A TCP
/// set-up opens sockets that linger in TIME_WAIT, so TCP keeps the count.
constexpr double kSetupShare = 0.05;

/// Repeats the workload. The simulator repeats its fixed sim-time window
/// until `seconds` of wall time is spent, at least twice; TCP runs as many
/// of its windows as fill `seconds`. If `extend` and fewer than half of
/// those repetitions were quiet, it goes on, for at most half as long
/// again, until half are.
std::vector<RunResult> repeat(const Workload& w, const Args& a, bool traced,
                              double seconds, bool extend) {
  const std::size_t tcp_reps = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / ibc::to_sec(w.window))));
  std::vector<RunResult> runs;
  const double t0 = wall_s();
  std::size_t planned = 0;  // repetitions when the planned length was reached
  double planned_s = 0.0;   // ... and the wall time it took
  double last_rep_s = 0.0;  // wall time of the previous repetition
  for (;;) {
    perfbench::RunOptions o;
    o.seed = a.seed;
    o.traced = traced;
    if (traced && runs.empty()) o.spans_path = a.spans;
    const ibc::Duration setup_wall =
        w.sim() ? static_cast<ibc::Duration>(kSetupShare * last_rep_s * 1e9) : 0;
    const perfbench::SetupTiming setup =
        perfbench::measure_setup(w, a.seed, min_setups(w), setup_wall);
    const double run_t0 = wall_s();
    runs.push_back(perfbench::run_workload(w, o));
    runs.back().setup = setup;
    last_rep_s = wall_s() - run_t0;
    const double elapsed = wall_s() - t0;
    if (planned == 0) {
      const bool done = w.sim() ? runs.size() >= 2 && elapsed >= seconds
                                : runs.size() >= tcp_reps;
      if (!done && runs.size() < 64) continue;
      planned = runs.size();
      planned_s = elapsed;
    }
    const auto quiet = static_cast<std::size_t>(std::count_if(
        runs.begin(), runs.end(),
        [](const RunResult& r) { return steal_of(r) <= kQuietSteal; }));
    if (!extend || 2 * quiet >= planned || elapsed >= 1.5 * planned_s || runs.size() >= 128) {
      break;
    }
  }
  return runs;
}

/// The repetitions the wall-clock figures come from: the quiet ones, or,
/// if none was quiet, the half with the least steal.
std::vector<RunResult> quietest(std::vector<RunResult> runs) {
  std::stable_sort(runs.begin(), runs.end(), [](const RunResult& x, const RunResult& y) {
    return steal_of(x) < steal_of(y);
  });
  const auto quiet = static_cast<std::size_t>(std::count_if(
      runs.begin(), runs.end(), [](const RunResult& r) { return steal_of(r) <= kQuietSteal; }));
  runs.resize(quiet > 0 ? quiet : (runs.size() + 1) / 2);
  return runs;
}

/// Median over repetitions; a TCP repetition whose every sub-window was
/// flagged (generator behind) has no latency and is left out.
template <typename F>
double median_of(const std::vector<RunResult>& runs, F f) {
  std::vector<double> v;
  for (const RunResult& r : runs) {
    if (r.latency_pairs > 0) v.push_back(f(r));
  }
  return perfbench::median(v);
}

/// Median of one set-up figure over every set-up of `runs`.
template <typename F>
double pooled_setup(const std::vector<RunResult>& runs, F f) {
  std::vector<double> v;
  for (const RunResult& r : runs) {
    const std::vector<double>& s = f(r.setup);
    v.insert(v.end(), s.begin(), s.end());
  }
  return perfbench::median(std::move(v));
}

/// Per-layer figures, each the median over repetitions.
std::map<std::string, double> median_layer(const std::vector<RunResult>& runs) {
  std::map<std::string, std::vector<double>> all;
  for (const RunResult& r : runs) {
    for (const auto& [k, v] : r.layer) all[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : all) out[k] = perfbench::median(std::move(v));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool parsed = false;
  try {
    parsed = parse(argc, argv, a);
  } catch (const std::exception&) {  // a malformed number
  }
  if (!parsed) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--extra-propagation-us X] [--rate R]\n";
    return 2;
  }
  Workload w;
  if (!perfbench::make_workload(a.workload, w)) {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  if (a.rate > 0) w.rate = a.rate;
  w.model.propagation += static_cast<ibc::Duration>(a.extra_propagation_us * 1e3);

  std::vector<std::string> violations;
  const std::vector<RunResult> plain_all = repeat(w, a, false, a.seconds, true);
  // The traced phase feeds per-layer figures, which carry no bound: half
  // the length, never extended.
  std::vector<RunResult> traced_all;
  if (a.trace) traced_all = repeat(w, a, true, a.seconds / 2, false);
  const std::vector<RunResult> plain = quietest(plain_all);
  const std::vector<RunResult> traced = quietest(traced_all);

  // Correctness is checked on every repetition, quiet or not.
  const std::vector<RunResult>* const phases[] = {&plain_all, &traced_all};
  // Sim-time figures are a pure function of (workload, seed): every
  // repetition, traced or not, must reproduce them bit for bit.
  if (w.sim()) {
    for (const std::vector<RunResult>* set : phases) {
      for (const RunResult& r : *set) {
        if (r.deterministic != plain_all.front().deterministic) {
          violations.push_back("simulator run not reproducible for a fixed seed");
        }
      }
    }
  }
  std::uint64_t attempted = 0, failed = 0;
  bool behind = false;
  for (const std::vector<RunResult>* set : phases) {
    for (const RunResult& r : *set) {
      violations.insert(violations.end(), r.violations.begin(), r.violations.end());
      if (r.setup.undelivered > 0) {
        violations.push_back("setup probe not delivered everywhere within 10 s");
      }
      attempted += r.attempted;
      failed += r.failed;
      behind = behind || r.generator_behind;
    }
  }
  const auto lat50 = [](const RunResult& r) { return r.latency_p50_ms; };
  const auto lat99 = [](const RunResult& r) { return r.latency_p99_ms; };
  const auto cpu = [](const RunResult& r) { return r.cpu_us_per_msg; };
  const auto heap = [](const RunResult& r) { return r.heap_bytes_per_msg; };
  using perfbench::SetupTiming;
  const auto setup = [](const SetupTiming& t) -> const std::vector<double>& { return t.setup_s; };
  const auto construct = [](const SetupTiming& t) -> const std::vector<double>& {
    return t.construct_s;
  };
  const auto first = [](const SetupTiming& t) -> const std::vector<double>& {
    return t.first_delivery_s;
  };

  // Set-up figures pool every set-up of the untraced phase, quiet
  // repetitions or not: one median over set-ups taken across the run.
  std::map<std::string, double> e2e;
  e2e["setup_s"] = pooled_setup(plain_all, setup);
  e2e["latency_p50_ms"] = median_of(plain, lat50);
  e2e["cpu_us_per_msg"] = median_of(plain, cpu);
  e2e["heap_bytes_per_msg"] = median_of(plain, heap);

  // Per-layer figures: medians over the untraced repetitions, overridden
  // by the traced ones' (which add spans, samplers and timed calls).
  std::map<std::string, double> layer = median_layer(plain);
  layer["workload.latency_p99_ms"] = median_of(plain, lat99);
  layer["workload.repetitions"] = static_cast<double>(plain_all.size());
  layer["workload.repetitions_used"] = static_cast<double>(plain.size());
  {
    std::vector<double> steal;
    for (const RunResult& r : plain_all) steal.push_back(steal_of(r));
    layer["workload.vm_steal_share"] = perfbench::median(steal);
  }
  layer["runtime.construct_s"] = pooled_setup(plain_all, construct);
  layer["runtime.first_delivery_s"] = pooled_setup(plain_all, first);
  {
    std::size_t setups = 0;
    for (const RunResult& r : plain_all) setups += r.setup.setup_s.size();
    layer["runtime.setups_timed"] = static_cast<double>(setups);
  }
  layer["workload.sustained_msgs_s"] = 0.0;
  if (a.trace) {
    for (const auto& [k, v] : median_layer(traced)) {
      if (k.rfind("workload.", 0) != 0) layer[k] = v;
    }
    // Tracing overhead: traced minus untraced, per end-to-end metric.
    layer["trace.overhead_latency_p50_ms"] = median_of(traced, lat50) - e2e["latency_p50_ms"];
    layer["trace.overhead_cpu_us_per_msg"] = median_of(traced, cpu) - e2e["cpu_us_per_msg"];
    layer["trace.overhead_heap_bytes_per_msg"] =
        median_of(traced, heap) - e2e["heap_bytes_per_msg"];
    layer["trace.overhead_latency_p99_ms"] = median_of(traced, lat99) - median_of(plain, lat99);
    layer["trace.overhead_setup_s"] = pooled_setup(traced_all, setup) - e2e["setup_s"];
    layer["trace.repetitions"] = static_cast<double>(traced_all.size());
    if (w.name == "sim_paper_n3") {
      layer["workload.sustained_msgs_s"] = perfbench::sustained_rate(w, a.seed);
    }
  }
  if (behind) {
    std::cerr << "perfbench: the generator fell behind in some 1 s "
                 "sub-windows; their latencies are left out\n";
  }
  if (std::none_of(plain.begin(), plain.end(),
                   [](const RunResult& r) { return r.latency_pairs > 0; })) {
    violations.push_back("no latency samples: the generator fell behind everywhere");
  }

  std::ostringstream out;
  out << "{\"workload\":" << json_string(w.name)
      << ",\"correct\":" << (violations.empty() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out << (i ? "," : "") << json_string(violations[i]);
  }
  out << "],\"e2e\":" << json_object(e2e) << ",\"layer\":" << json_object(layer);
  std::map<std::string, double> det;
  if (w.sim()) det = plain_all.front().deterministic;
  out << ",\"deterministic\":" << json_object(det) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
