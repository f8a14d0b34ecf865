// RunReport: schema stability, round-trip fidelity, the guarantee that its
// phase arithmetic matches the ASCII printouts (sum over ranks divided by
// ranks * iterations), and that a report carries exactly the counts its own
// run returned — at any sweep job count.
#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/heat.hpp"
#include "runtime/fault.hpp"
#include "runtime/phase_timer.hpp"
#include "runtime/sweep.hpp"
#include "spec/stats.hpp"

namespace specomp::obs {
namespace {

RunReport make_report() {
  RunReport report;
  report.binary = "test_binary";
  report.backend = "sim";
  report.algorithm = "speculative";
  report.speculator = "kinematic";
  report.forward_window = 2;
  report.theta = 0.01;
  report.iterations = 10;
  report.ranks = 4;
  report.cluster_ops_per_sec = {4e6, 3e6, 2e6, 1e6};
  report.makespan_seconds = 123.5;
  report.phases = {{"compute", 40.0, 1.0}, {"communicate", 8.0, 0.2}};
  report.blocks_received_in_time = 11;
  report.blocks_speculated = 29;
  report.checks = 29;
  report.failures = 3;
  report.incremental_corrections = 2;
  report.replayed_iterations = 1;
  report.failure_fraction = 3.0 / 29.0;
  report.error_mean = 0.004;
  report.error_max = 0.02;
  report.max_window_used = 2;
  report.degraded_entries = 3;
  report.degraded_iterations = 7;
  report.messages = 360;
  report.bytes = 86400;
  report.mean_delay_seconds = 5.8;
  report.des_events = 5123;
  report.des_queue_peak = 17;
  report.hb_events_checked = 402;
  report.faults = runtime::FaultStats{};
  report.faults->injected_drops = 23;
  report.faults->retransmits = 23;
  report.faults->messages_lost = 1;
  report.faults->injected_duplicates = 4;
  report.faults->duplicates_suppressed = 4;
  report.faults->injected_reorders = 2;
  report.faults->slowdown_charges = 41;
  report.faults->stalls = 1;
  report.faults->crashed_ranks = 1;
  report.extra.set("note", Json("round-trip"));
  return report;
}

/// `doc` with `key` dropped from the object at `section` (the whole
/// document when `section` is empty) — how a report written before `key`
/// existed looks.
Json without(Json doc, const std::string& section, const std::string& key) {
  Json::Object* object = &doc.as_object();
  for (auto& [name, value] : doc.as_object())
    if (name == section) object = &value.as_object();
  std::erase_if(*object, [&](const auto& kv) { return kv.first == key; });
  return doc;
}

TEST(RunReport, SchemaFieldIsStable) {
  const Json doc = make_report().to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "specomp.run_report.v2");
  EXPECT_EQ(doc.at("schema").as_string(), kRunReportSchema);
  EXPECT_EQ(doc.at("schema_version").as_int(), kRunReportVersion);
  // The top-level section layout is part of the schema contract.
  EXPECT_NE(doc.find("config"), nullptr);
  EXPECT_NE(doc.find("timing"), nullptr);
  EXPECT_NE(doc.find("speculation"), nullptr);
  EXPECT_NE(doc.find("network"), nullptr);
}

TEST(RunReport, RoundTripsThroughSerializedJson) {
  const RunReport original = make_report();
  const RunReport restored =
      RunReport::from_json(Json::parse(original.to_json().dump(2)));

  EXPECT_EQ(restored.binary, original.binary);
  EXPECT_EQ(restored.backend, original.backend);
  EXPECT_EQ(restored.algorithm, original.algorithm);
  EXPECT_EQ(restored.speculator, original.speculator);
  EXPECT_EQ(restored.forward_window, original.forward_window);
  EXPECT_EQ(restored.theta, original.theta);
  EXPECT_EQ(restored.iterations, original.iterations);
  EXPECT_EQ(restored.ranks, original.ranks);
  EXPECT_EQ(restored.cluster_ops_per_sec, original.cluster_ops_per_sec);
  EXPECT_EQ(restored.makespan_seconds, original.makespan_seconds);
  ASSERT_EQ(restored.phases.size(), original.phases.size());
  for (std::size_t i = 0; i < original.phases.size(); ++i) {
    EXPECT_EQ(restored.phases[i].phase, original.phases[i].phase);
    EXPECT_EQ(restored.phases[i].total_seconds, original.phases[i].total_seconds);
    EXPECT_EQ(restored.phases[i].mean_per_iteration_seconds,
              original.phases[i].mean_per_iteration_seconds);
  }
  EXPECT_EQ(restored.blocks_received_in_time, original.blocks_received_in_time);
  EXPECT_EQ(restored.blocks_speculated, original.blocks_speculated);
  EXPECT_EQ(restored.checks, original.checks);
  EXPECT_EQ(restored.failures, original.failures);
  EXPECT_EQ(restored.incremental_corrections, original.incremental_corrections);
  EXPECT_EQ(restored.replayed_iterations, original.replayed_iterations);
  EXPECT_EQ(restored.failure_fraction, original.failure_fraction);
  EXPECT_EQ(restored.error_mean, original.error_mean);
  EXPECT_EQ(restored.error_max, original.error_max);
  EXPECT_EQ(restored.max_window_used, original.max_window_used);
  EXPECT_EQ(restored.degraded_entries, original.degraded_entries);
  EXPECT_EQ(restored.degraded_iterations, original.degraded_iterations);
  EXPECT_EQ(restored.messages, original.messages);
  EXPECT_EQ(restored.bytes, original.bytes);
  EXPECT_EQ(restored.mean_delay_seconds, original.mean_delay_seconds);
  EXPECT_EQ(restored.des_events, original.des_events);
  EXPECT_EQ(restored.des_queue_peak, original.des_queue_peak);
  EXPECT_EQ(restored.hb_events_checked, original.hb_events_checked);
  ASSERT_TRUE(restored.faults.has_value());
  EXPECT_EQ(*restored.faults, *original.faults);
  EXPECT_EQ(restored.extra.at("note").as_string(), "round-trip");

  // And the round trip is idempotent at the document level.
  EXPECT_EQ(restored.to_json().dump(), original.to_json().dump());
}

TEST(RunReport, FromJsonRejectsWrongSchema) {
  Json doc = make_report().to_json();
  doc.set("schema", Json("something.else.v9"));
  EXPECT_THROW(RunReport::from_json(doc), std::runtime_error);
}

TEST(RunReport, FromJsonStillAcceptsV1Reports) {
  // Artifacts written before schema_version existed must keep loading.
  Json doc = make_report().to_json();
  doc.set("schema", Json(kRunReportSchemaV1));
  const RunReport restored = RunReport::from_json(doc);
  EXPECT_EQ(restored.binary, make_report().binary);

  // So must v2 documents written before the "des" and "faults" blocks and
  // the degraded counters: the missing fields read as zero / absent.
  Json older = without(make_report().to_json(), "", "des");
  older = without(std::move(older), "", "faults");
  older = without(std::move(older), "speculation", "degraded_entries");
  older = without(std::move(older), "speculation", "degraded_iterations");
  ASSERT_EQ(older.find("des"), nullptr);
  ASSERT_EQ(older.at("speculation").find("degraded_entries"), nullptr);
  const RunReport old = RunReport::from_json(older);
  EXPECT_EQ(old.binary, make_report().binary);
  EXPECT_EQ(old.checks, make_report().checks);
  EXPECT_EQ(old.des_events, 0u);
  EXPECT_EQ(old.des_queue_peak, 0u);
  EXPECT_EQ(old.hb_events_checked, 0u);
  EXPECT_FALSE(old.faults.has_value());
  EXPECT_EQ(old.degraded_entries, 0u);
  EXPECT_EQ(old.degraded_iterations, 0u);
}

TEST(RunReport, FromJsonRejectsNewerVersionWithClearMessage) {
  Json doc = make_report().to_json();
  doc.set("schema_version", Json(kRunReportVersion + 1));
  try {
    RunReport::from_json(doc);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos)
        << e.what();
  }
}

TEST(RunReport, DistributionsRoundTrip) {
  RunReport report = make_report();
  std::vector<NamedDist> dists(1);
  dists[0].name = "link_delay.0->1";
  for (int i = 1; i <= 100; ++i) dists[0].sketch.observe(i * 0.1);
  report.fill_dists(dists);
  ASSERT_EQ(report.distributions.size(), 1u);
  EXPECT_EQ(report.distributions[0].count, 100u);

  const RunReport restored =
      RunReport::from_json(Json::parse(report.to_json().dump(2)));
  ASSERT_EQ(restored.distributions.size(), 1u);
  EXPECT_EQ(restored.distributions[0].name, "link_delay.0->1");
  EXPECT_EQ(restored.distributions[0].count, 100u);
  EXPECT_NEAR(restored.distributions[0].p50, 5.05, 0.5);
}

TEST(RunReport, FillPhasesMatchesAsciiArithmetic) {
  // Two ranks, three iterations: compute 6 s total on rank 0 and 3 s on
  // rank 1 -> mean per iteration = 9 / (2 * 3) = 1.5 s, exactly what the
  // examples print as "mean over ranks".
  runtime::PhaseTimer t0;
  t0.add(runtime::Phase::Compute, des::SimTime::seconds(6.0));
  t0.add(runtime::Phase::Communicate, des::SimTime::seconds(1.0));
  runtime::PhaseTimer t1;
  t1.add(runtime::Phase::Compute, des::SimTime::seconds(3.0));

  RunReport report;
  report.fill_phases({t0, t1}, /*run_iterations=*/3);
  EXPECT_EQ(report.ranks, 2u);
  EXPECT_DOUBLE_EQ(report.phase_mean_per_iteration("compute"), 1.5);
  EXPECT_DOUBLE_EQ(report.phase_mean_per_iteration("communicate"), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(report.phase_mean_per_iteration("correct"), 0.0);

  double compute_total = 0.0;
  for (const auto& row : report.phases)
    if (row.phase == "compute") compute_total = row.total_seconds;
  EXPECT_DOUBLE_EQ(compute_total, 9.0);
}

TEST(RunReport, FillSpecCopiesCountersAndErrorStats) {
  spec::SpecStats stats;
  stats.blocks_speculated = 20;
  stats.blocks_received_in_time = 5;
  stats.checks = 20;
  stats.failures = 4;
  stats.incremental_corrections = 3;
  stats.replayed_iterations = 2;
  stats.max_window_used = 2;
  stats.error.add(0.01);
  stats.error.add(0.03);

  RunReport report;
  report.fill_spec(stats);
  EXPECT_EQ(report.blocks_speculated, 20u);
  EXPECT_EQ(report.failures, 4u);
  EXPECT_DOUBLE_EQ(report.failure_fraction, 0.2);
  EXPECT_DOUBLE_EQ(report.error_mean, 0.02);
  EXPECT_DOUBLE_EQ(report.error_max, 0.03);
  EXPECT_EQ(report.max_window_used, 2);
}

/// Heat on a faulty LAN: 5% drops behind a 1 s ARQ timeout force the engine
/// into degraded mode (as in the DegradedMode tests), and a slowdown and a
/// stall fire too.
apps::HeatScenario faulty_heat() {
  apps::HeatScenario scenario;
  scenario.problem.n = 256;
  scenario.iterations = 30;
  scenario.forward_window = 1;
  scenario.sim.cluster = runtime::Cluster::linear(4, 1e6, 4.0);
  scenario.sim.channel.propagation = des::SimTime::millis(80);
  scenario.sim.send_sw_time = des::SimTime::millis(1);
  runtime::FaultPlanConfig plan;
  std::string error;
  EXPECT_TRUE(runtime::parse_fault_plan(
      "drop:0.05,rto:1.0,slow:2x1.5@0..3,stall:1@2+0.5", plan, error))
      << error;
  scenario.sim.fault =
      std::make_shared<const runtime::FaultPlan>(std::move(plan));
  scenario.graceful_degradation = true;
  scenario.overdue_after_seconds = 0.2;
  return scenario;
}

/// The report an example binary would write for one heat run.
RunReport heat_report(const apps::HeatScenario& scenario,
                      const apps::HeatRunResult& run) {
  RunReport report;
  report.binary = "heat";
  report.fill_cluster(scenario.sim.cluster);
  report.fill_sim(run.sim, scenario.iterations);
  report.fill_spec(run.spec);
  if (scenario.sim.fault != nullptr) report.faults = run.sim.fault_stats;
  return report;
}

TEST(RunReport, FaultArmedRunCarriesItsOwnCounters) {
  const apps::HeatScenario scenario = faulty_heat();
  const apps::HeatRunResult run = apps::run_heat_scenario(scenario);
  const RunReport report = heat_report(scenario, run);
  const RunReport restored =
      RunReport::from_json(Json::parse(report.to_json().dump(2)));

  EXPECT_EQ(restored.des_events, run.sim.kernel_stats.events_executed);
  EXPECT_EQ(restored.des_queue_peak, run.sim.kernel_stats.queue_peak);
  EXPECT_EQ(restored.hb_events_checked, run.sim.hb_events_checked);
  ASSERT_TRUE(restored.faults.has_value());
  EXPECT_EQ(*restored.faults, run.sim.fault_stats);
  EXPECT_EQ(restored.degraded_entries, run.spec.degraded_entries);
  EXPECT_EQ(restored.degraded_iterations, run.spec.degraded_iterations);
  EXPECT_EQ(restored.bytes, run.sim.channel_stats.bytes);

  // The run really exercised what the report claims to carry.
  EXPECT_GT(run.sim.kernel_stats.events_executed, 0u);
  EXPECT_GE(run.sim.kernel_stats.queue_peak, 4u);
  EXPECT_GT(run.sim.fault_stats.injected_drops, 0u);
  EXPECT_GT(run.sim.fault_stats.slowdown_charges, 0u);
  EXPECT_EQ(run.sim.fault_stats.stalls, 1u);
  EXPECT_GT(run.spec.degraded_entries, 0u);
  EXPECT_GT(run.spec.degraded_iterations, 0u);
}

TEST(RunReport, SweepCellReportsAreByteIdenticalAtAnyJobs) {
  // Per-run telemetry comes from each run's own results, so concurrent
  // sweep lanes cannot bleed into one another's reports.
  std::vector<apps::HeatScenario> grid;
  for (const int fw : {0, 1, 2}) {
    for (const bool faulty : {false, true}) {
      apps::HeatScenario s = faulty ? faulty_heat() : apps::HeatScenario{};
      s.problem.n = 128;
      s.iterations = 12;
      s.forward_window = fw;
      s.graceful_degradation = faulty && fw > 0;
      s.sim.cluster = runtime::Cluster::linear(4, 1e6, 4.0);
      s.sim.channel.propagation = des::SimTime::millis(80);
      s.sim.record_dists = fw == 2;
      grid.push_back(std::move(s));
    }
  }
  const auto render = [](const apps::HeatScenario& s) {
    return heat_report(s, apps::run_heat_scenario(s)).to_json().dump(2);
  };
  const std::vector<std::string> serial = runtime::sweep_map(grid, 1, render);
  const std::vector<std::string> parallel = runtime::sweep_map(grid, 4, render);
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(parallel[i], serial[i]) << "cell " << i;
}

TEST(RunReport, WriteProducesParsableFile) {
  const std::string path = ::testing::TempDir() + "run_report_test.json";
  ASSERT_TRUE(make_report().write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const RunReport restored = RunReport::from_json(Json::parse(text.str()));
  EXPECT_EQ(restored.binary, "test_binary");
}

}  // namespace
}  // namespace specomp::obs
