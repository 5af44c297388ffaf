// Tests for the measurement harness: the latency recorder's bookkeeping
// and the experiment driver's determinism and sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workload/experiment.hpp"
#include "workload/latency.hpp"
#include "workload/series.hpp"

namespace ibc::workload {
namespace {

TEST(LatencyRecorder, AveragesOverAllDeliveries) {
  LatencyRecorder rec(0, seconds(10), 2);
  const MessageId id{1, 1};
  rec.on_broadcast(id, milliseconds(100));
  rec.on_delivery(id, 1, milliseconds(101));
  rec.on_delivery(id, 2, milliseconds(103));
  EXPECT_EQ(rec.samples().count(), 2u);
  EXPECT_DOUBLE_EQ(rec.samples().mean(), 2.0);  // (1ms + 3ms) / 2
}

TEST(LatencyRecorder, WindowFiltersByBroadcastTime) {
  LatencyRecorder rec(seconds(1), seconds(2), 1);
  const MessageId before{1, 1}, inside{1, 2}, after{1, 3};
  rec.on_broadcast(before, milliseconds(500));
  rec.on_broadcast(inside, milliseconds(1500));
  rec.on_broadcast(after, milliseconds(2500));
  rec.on_delivery(before, 1, milliseconds(501));
  rec.on_delivery(inside, 1, milliseconds(1501));
  rec.on_delivery(after, 1, milliseconds(2501));
  EXPECT_EQ(rec.broadcasts_in_window(), 1u);
  EXPECT_EQ(rec.samples().count(), 1u);
}

TEST(LatencyRecorder, UndeliveredCountsIncompleteWindowMessages) {
  LatencyRecorder rec(0, seconds(10), 3);
  const MessageId a{1, 1}, b{1, 2};
  rec.on_broadcast(a, seconds(1));
  rec.on_broadcast(b, seconds(2));
  rec.on_delivery(a, 1, seconds(3));
  rec.on_delivery(a, 2, seconds(3));
  rec.on_delivery(a, 3, seconds(3));
  rec.on_delivery(b, 1, seconds(4));
  EXPECT_EQ(rec.undelivered(3), 1u);  // b reached only one process
  EXPECT_EQ(rec.undelivered(1), 0u);  // with one alive process, complete
}

TEST(LatencyRecorder, DetectsTotalOrderViolation) {
  LatencyRecorder rec(0, seconds(10), 2);
  const MessageId a{1, 1}, b{2, 1};
  rec.on_broadcast(a, 0);
  rec.on_broadcast(b, 0);
  rec.on_delivery(a, 1, 1);
  rec.on_delivery(b, 1, 2);
  EXPECT_TRUE(rec.total_order_ok());
  rec.on_delivery(b, 2, 1);  // p2 delivers b before a: violation
  rec.on_delivery(a, 2, 2);
  EXPECT_FALSE(rec.total_order_ok());
}

TEST(Experiment, DeterministicForFixedSeed) {
  ExperimentConfig cfg;
  cfg.cluster.stack.rcv_check_cost_per_id =
      cfg.cluster.model.rcv_check_cost_per_id;
  cfg.throughput_msgs_per_sec = 200;
  cfg.warmup = milliseconds(500);
  cfg.measure = seconds(2);
  cfg.drain = seconds(1);
  cfg.cluster.seed = 99;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);

  cfg.cluster.seed = 100;
  const ExperimentResult c = run_experiment(cfg);
  EXPECT_NE(a.mean_latency_ms, c.mean_latency_ms);
}

TEST(Experiment, HealthyRunDeliversEverything) {
  ExperimentConfig cfg;
  cfg.cluster.stack.rcv_check_cost_per_id =
      cfg.cluster.model.rcv_check_cost_per_id;
  cfg.throughput_msgs_per_sec = 100;
  cfg.warmup = milliseconds(500);
  cfg.measure = seconds(2);
  cfg.drain = seconds(2);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.samples, 0u);
  EXPECT_EQ(r.undelivered, 0u);
  EXPECT_FALSE(r.saturated);
  EXPECT_TRUE(r.total_order_ok);
  EXPECT_GT(r.mean_latency_ms, 0.5);  // sane for Setup 1
  EXPECT_LT(r.mean_latency_ms, 10.0);
  // Symmetric workload: achieved ≈ offered.
  EXPECT_NEAR(r.achieved_throughput, 100.0, 25.0);
}

TEST(Experiment, LatencyRisesWithThroughput) {
  auto run_at = [](double tput) {
    ExperimentConfig cfg;
    cfg.cluster.n = 5;
    cfg.cluster.stack.rcv_check_cost_per_id =
        cfg.cluster.model.rcv_check_cost_per_id;
    cfg.throughput_msgs_per_sec = tput;
    cfg.warmup = seconds(1);
    cfg.measure = seconds(4);
    cfg.drain = seconds(2);
    return run_experiment(cfg).mean_latency_ms;
  };
  EXPECT_LT(run_at(50), run_at(600));
}

TEST(Experiment, SameScenarioRunsOnBothHosts) {
  // The whole point of the Host abstraction: one config, one driver,
  // two transports. Keep the phases short — the TCP leg is wall-clock.
  ExperimentConfig cfg;
  cfg.cluster.stack.heartbeat.initial_timeout = milliseconds(300);
  cfg.throughput_msgs_per_sec = 60;
  cfg.payload_bytes = 16;
  cfg.warmup = milliseconds(100);
  cfg.measure = milliseconds(500);
  cfg.drain = milliseconds(400);
  cfg.cluster.seed = 11;

  for (const runtime::HostKind host :
       {runtime::HostKind::kSim, runtime::HostKind::kTcp}) {
    cfg.cluster.host = host;
    const ExperimentResult r = run_experiment(cfg);
    const char* label = host == runtime::HostKind::kSim ? "sim" : "tcp";
    EXPECT_GT(r.samples, 0u) << label;
    EXPECT_TRUE(r.total_order_ok) << label;
    EXPECT_EQ(r.undelivered, 0u) << label;
    EXPECT_GT(r.stats.messages_sent, 0u) << label;
    EXPECT_GT(r.stats.wire_bytes_sent, 0u) << label;
    EXPECT_GT(r.stats.consensus_rounds, 0u) << label;
  }
}

TEST(Experiment, CrashDuringWarmupStillDelivers) {
  ExperimentConfig cfg;
  cfg.cluster.n = 5;
  cfg.cluster.stack.rcv_check_cost_per_id =
      cfg.cluster.model.rcv_check_cost_per_id;
  cfg.throughput_msgs_per_sec = 50;
  cfg.warmup = seconds(2);
  cfg.measure = seconds(3);
  cfg.drain = seconds(3);
  cfg.cluster.with_crash(seconds(1), 5);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.undelivered, 0u);
  EXPECT_TRUE(r.total_order_ok);
}

TEST(Series, SaturatedMarkerIsNaN) {
  EXPECT_TRUE(std::isnan(saturated_marker()));
}

TEST(Series, PrintTableRuns) {
  // Smoke: formatting must handle values and NaN without crashing.
  print_table("test table", "x", {1, 2},
              {Series{"a", {1.25, saturated_marker()}},
               Series{"b", {0.5, 2.0}}});
}

TEST(BenchReport, EmptyReportIsValidJson) {
  const BenchReport report("empty");
  const std::string json = report.to_json();
  // The build-derived meta values vary per build; check the structure
  // and the auto-filled keys instead of a full golden string.
  EXPECT_EQ(json.find("{\n  \"bench\": \"empty\",\n  \"meta\": {"), 0u);
  for (const char* key : {"git_sha", "build_type", "sanitizers",
                          "compiler"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\": "),
              std::string::npos)
        << key;
  }
  EXPECT_NE(json.find("\"tables\": [],\n  \"notes\": {}\n}\n"),
            std::string::npos);
}

TEST(BenchReport, MetaEntriesOverridePerKey) {
  BenchReport report("meta");
  report.meta("host", "sim");
  report.meta("host", "tcp");
  report.meta("n", "3");
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("\"host\": \"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"host\": \"tcp\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": \"3\""), std::string::npos);
}

TEST(BenchReport, SerializesTablesNotesAndNulls) {
  BenchReport report("demo");
  report.record("t1", "x", {1, 2},
                {Series{"a", {1.5, saturated_marker()}}});
  report.note("key", "value");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"x_label\": \"x\""), std::string::npos);
  EXPECT_NE(json.find("\"values\": [1.5, null]"), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"value\""), std::string::npos);
}

TEST(BenchReport, EscapesSpecialCharacters) {
  BenchReport report("esc");
  report.note("quote\"back\\slash", "tab\tnewline\n");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"quote\\\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(json.find("\"tab\\tnewline\\n\""), std::string::npos);
}

TEST(BenchReport, ParsesJsonPathFromArgv) {
  const char* eq[] = {"bench", "--json=/tmp/a.json"};
  EXPECT_FALSE(
      BenchReport("b", 2, const_cast<char* const*>(eq)).quiet());
  const char* dash[] = {"bench", "--json=-"};
  EXPECT_TRUE(
      BenchReport("b", 2, const_cast<char* const*>(dash)).quiet());
  const char* split[] = {"bench", "--json", "-"};
  EXPECT_TRUE(
      BenchReport("b", 3, const_cast<char* const*>(split)).quiet());
  EXPECT_FALSE(BenchReport("b").quiet());
}

TEST(BenchReportDeathTest, DanglingJsonFlagExitsEarly) {
  const char* dangling[] = {"bench", "--json"};
  EXPECT_EXIT(BenchReport("b", 2, const_cast<char* const*>(dangling)),
              testing::ExitedWithCode(2), "--json requires a path");
  const char* flagged[] = {"bench", "--json", "--other"};
  EXPECT_EXIT(BenchReport("b", 3, const_cast<char* const*>(flagged)),
              testing::ExitedWithCode(2), "--json requires a path");
  const char* empty[] = {"bench", "--json="};
  EXPECT_EXIT(BenchReport("b", 2, const_cast<char* const*>(empty)),
              testing::ExitedWithCode(2), "--json= requires a path");
}

TEST(BenchReport, FinishWritesRequestedFile) {
  const std::string path =
      testing::TempDir() + "/ibc_bench_report_test.json";
  const std::string flag = "--json=" + path;
  const char* args[] = {"bench", flag.c_str()};
  BenchReport report("file_demo", 2, const_cast<char* const*>(args));
  report.record("t", "x", {1}, {Series{"s", {2.5}}});
  EXPECT_EQ(report.finish(), 0);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), report.to_json());
  std::remove(path.c_str());
}

TEST(BenchReport, FinishReportsUnwritablePath) {
  const char* args[] = {"bench", "--json=/nonexistent-dir/x.json"};
  BenchReport report("bad_path", 2, const_cast<char* const*>(args));
  EXPECT_EQ(report.finish(), 1);
}

}  // namespace
}  // namespace ibc::workload
