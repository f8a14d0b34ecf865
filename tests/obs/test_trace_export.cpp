// Trace exporters: the Chrome trace-event document must be well-formed JSON
// with one named track per rank, and the JSONL form one object per line.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "des/trace.hpp"
#include "obs/json.hpp"
#include "runtime/fault.hpp"
#include "runtime/sim_comm.hpp"

namespace specomp::obs {
namespace {

des::Trace make_trace() {
  des::Trace trace;
  trace.add_span(0, des::SpanKind::Compute, des::SimTime::seconds(0.0),
                 des::SimTime::seconds(1.0));
  trace.add_span(1, des::SpanKind::Wait, des::SimTime::seconds(0.5),
                 des::SimTime::seconds(2.0), "blocked on rank 0");
  trace.add_span(0, des::SpanKind::SpeculativeCompute,
                 des::SimTime::seconds(1.0), des::SimTime::seconds(1.5));
  trace.add_event(1, des::SimTime::seconds(2.0), "rollback");
  return trace;
}

TEST(ChromeTrace, ParsesBackWithOneNamedTrackPerRank) {
  std::ostringstream os;
  write_chrome_trace(make_trace(), os, /*lanes=*/2);

  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();

  std::vector<std::string> tracks;
  for (const auto& e : events) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name") {
      tracks.push_back(e.at("args").at("name").as_string());
    }
  }
  EXPECT_EQ(tracks, (std::vector<std::string>{"rank 0", "rank 1"}));
}

TEST(ChromeTrace, SpansBecomeCompleteEventsInMicroseconds) {
  std::ostringstream os;
  write_chrome_trace(make_trace(), os);

  const Json doc = Json::parse(os.str());
  int complete = 0;
  bool found_wait = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    ++complete;
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    if (e.at("name").as_string() == std::string(des::span_name(des::SpanKind::Wait))) {
      found_wait = true;
      EXPECT_EQ(e.at("ts").as_double(), 0.5e6);
      EXPECT_EQ(e.at("dur").as_double(), 1.5e6);
      EXPECT_EQ(e.at("tid").as_int(), 1);
      EXPECT_EQ(e.at("args").at("label").as_string(), "blocked on rank 0");
    }
  }
  EXPECT_EQ(complete, 3);
  EXPECT_TRUE(found_wait);
}

TEST(ChromeTrace, PointEventsBecomeInstants) {
  std::ostringstream os;
  write_chrome_trace(make_trace(), os);
  const Json doc = Json::parse(os.str());
  bool found = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "i") continue;
    found = true;
    EXPECT_EQ(e.at("name").as_string(), "rollback");
    EXPECT_EQ(e.at("ts").as_double(), 2.0e6);
    EXPECT_EQ(e.at("s").as_string(), "t");
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, LanesInferredFromTraceWhenUnspecified) {
  std::ostringstream os;
  write_chrome_trace(make_trace(), os, /*lanes=*/0);
  const Json doc = Json::parse(os.str());
  int tracks = 0;
  for (const auto& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name")
      ++tracks;
  EXPECT_EQ(tracks, 2);  // max lane is 1
}

TEST(ChromeTrace, EmptyTraceStillWellFormed) {
  std::ostringstream os;
  write_chrome_trace(des::Trace{}, os);
  const Json doc = Json::parse(os.str());
  for (const auto& e : doc.at("traceEvents").as_array())
    EXPECT_EQ(e.at("ph").as_string(), "M");
}

TEST(JsonlTrace, OneParsableObjectPerLine) {
  std::ostringstream os;
  write_trace_jsonl(make_trace(), os);

  std::istringstream lines(os.str());
  std::string line;
  int meta = 0;
  int spans = 0;
  int events = 0;
  while (std::getline(lines, line)) {
    const Json doc = Json::parse(line);
    const std::string& type = doc.at("type").as_string();
    if (type == "meta") {
      ++meta;
    } else if (type == "span") {
      ++spans;
      EXPECT_LE(doc.at("begin_s").as_double(), doc.at("end_s").as_double());
    } else {
      EXPECT_EQ(type, "event");
      ++events;
      EXPECT_EQ(doc.at("label").as_string(), "rollback");
    }
  }
  EXPECT_EQ(meta, 1);
  EXPECT_EQ(spans, 3);
  EXPECT_EQ(events, 1);
}

TEST(JsonlTrace, MetaLineComesFirstAndCarriesTheSchema) {
  std::ostringstream os;
  write_trace_jsonl(make_trace(), os, /*lanes=*/2);
  std::istringstream lines(os.str());
  std::string first;
  ASSERT_TRUE(std::getline(lines, first));
  const Json doc = Json::parse(first);
  EXPECT_EQ(doc.at("type").as_string(), "meta");
  EXPECT_EQ(doc.at("schema").as_string(), kTraceSchema);
  EXPECT_EQ(doc.at("schema_version").as_int(), kTraceSchemaVersion);
  EXPECT_EQ(doc.at("lanes").as_int(), 2);
}

TEST(JsonlTrace, EmptyTraceIsJustTheMetaLine) {
  // A run that recorded nothing still produces a valid, versioned file.
  std::ostringstream os;
  write_trace_jsonl(des::Trace{}, os);
  std::istringstream lines(os.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(Json::parse(line).at("type").as_string(), "meta");
  }
  EXPECT_EQ(count, 1);
}

TEST(JsonlTrace, CausalEventsCarryEdgeIdentity) {
  des::Trace trace;
  des::CausalEvent send;
  send.lane = 0;
  send.kind = des::CausalKind::Send;
  send.at = des::SimTime::seconds(1.0);
  send.peer = 1;
  send.tag = 7;
  send.seq = 42;
  trace.add_causal(send);
  des::CausalEvent recv = send;
  recv.lane = 1;
  recv.kind = des::CausalKind::Recv;
  recv.at = des::SimTime::seconds(2.0);
  recv.peer = 0;
  recv.t2 = des::SimTime::seconds(1.9);  // delivery vs consumption
  trace.add_causal(recv);

  std::ostringstream os;
  write_trace_jsonl(trace, os);
  std::istringstream lines(os.str());
  std::string line;
  int causal = 0;
  while (std::getline(lines, line)) {
    const Json doc = Json::parse(line);
    if (doc.at("type").as_string() != "causal") continue;
    ++causal;
    EXPECT_EQ(doc.at("tag").as_int(), 7);
    EXPECT_EQ(doc.at("seq").as_int(), 42);
    if (doc.at("kind").as_string() == "recv") {
      EXPECT_DOUBLE_EQ(doc.at("t2_s").as_double(), 1.9);
    }
  }
  EXPECT_EQ(causal, 2);
}

TEST(JsonlTrace, DegradedOpenAtShutdownStillExports) {
  // A run killed while degraded has an enter with no exit; the exporter
  // must not invent a closing edge.
  des::Trace trace;
  des::CausalEvent enter;
  enter.lane = 2;
  enter.kind = des::CausalKind::DegradedEnter;
  enter.at = des::SimTime::seconds(3.0);
  enter.peer = 0;
  trace.add_causal(enter);

  std::ostringstream os;
  write_trace_jsonl(trace, os);
  int enters = 0;
  int exits = 0;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json doc = Json::parse(line);
    if (doc.at("type").as_string() != "causal") continue;
    if (doc.at("kind").as_string() == "degraded-enter") ++enters;
    if (doc.at("kind").as_string() == "degraded-exit") ++exits;
  }
  EXPECT_EQ(enters, 1);
  EXPECT_EQ(exits, 0);
}

TEST(JsonlTrace, NorecoveryDupFaultsShowAsDuplicateRecvEdges) {
  // With dup:1.0,norecovery the application consumes the same (src, tag,
  // seq) twice; the trace must show both consumptions so offline tools can
  // count at-least-once deliveries rather than silently merging them.
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::homogeneous(2, 1e6);
  config.channel.bandwidth_bytes_per_sec = 1e6;
  config.record_trace = true;
  runtime::FaultPlanConfig fault;
  std::string error;
  ASSERT_TRUE(runtime::parse_fault_plan("dup:1.0,norecovery", fault, error))
      << error;
  config.fault = std::make_shared<const runtime::FaultPlan>(std::move(fault));

  const runtime::SimResult result =
      runtime::run_simulated(config, [](runtime::Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send_doubles(1, 7, std::vector<double>{42.0});
        } else {
          (void)comm.recv_doubles(0, 7);
          (void)comm.recv_doubles(0, 7);  // the duplicate
        }
      });

  std::ostringstream os;
  write_trace_jsonl(result.trace, os, 2);
  std::map<std::tuple<int, int, int>, int> recvs;  // (src, tag, seq) -> n
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json doc = Json::parse(line);
    if (doc.at("type").as_string() != "causal") continue;
    if (doc.at("kind").as_string() != "recv") continue;
    ++recvs[{static_cast<int>(doc.at("peer").as_int()),
             static_cast<int>(doc.at("tag").as_int()),
             static_cast<int>(doc.at("seq").as_int())}];
  }
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_EQ(recvs.begin()->second, 2);
}

TEST(TraceFile, ExtensionSelectsFormat) {
  const des::Trace trace = make_trace();
  const std::string chrome_path = ::testing::TempDir() + "trace_export.json";
  const std::string jsonl_path = ::testing::TempDir() + "trace_export.jsonl";
  ASSERT_TRUE(write_trace_file(trace, chrome_path));
  ASSERT_TRUE(write_trace_file(trace, jsonl_path));

  std::ifstream chrome(chrome_path);
  std::stringstream chrome_text;
  chrome_text << chrome.rdbuf();
  EXPECT_TRUE(Json::parse(chrome_text.str()).find("traceEvents") != nullptr);

  std::ifstream jsonl(jsonl_path);
  std::string first;
  ASSERT_TRUE(std::getline(jsonl, first));
  EXPECT_EQ(Json::parse(first).at("type").as_string(), "meta");
}

TEST(TraceFile, UnwritablePathReportsFailure) {
  EXPECT_FALSE(write_trace_file(make_trace(), "/nonexistent-dir/t.json"));
}

}  // namespace
}  // namespace specomp::obs
