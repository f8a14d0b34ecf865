// Unit tests for the spectrace analyzer library (tools/spectrace).
//
// The committed fixture pair (trace_p4_stall.jsonl and its expected
// cascades report) pins the analyzer's bytes: same trace in, same report
// out, across refactors.  Regenerate both together (commands in the
// fixture-test comment below) when the analysis intentionally changes.
#include "spectrace_core.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/trace_export.hpp"
#include "runtime/collectives.hpp"
#include "runtime/sim_comm.hpp"

namespace {

using spectrace::CausalRec;
using spectrace::ParsedTrace;
using spectrace::SpanRec;
using specomp::des::CausalKind;

ParsedTrace parse(const std::string& text) {
  std::istringstream is(text);
  return spectrace::parse_jsonl(is);
}

CausalRec causal(std::uint64_t lane, CausalKind kind, double at_s,
                 int peer = -1, int tag = 0, std::uint64_t seq = 0,
                 long iter = -1, double t2_s = 0.0) {
  CausalRec c;
  c.lane = lane;
  c.kind = kind;
  c.at_s = at_s;
  c.peer = peer;
  c.tag = tag;
  c.seq = seq;
  c.iter = iter;
  c.t2_s = t2_s;
  return c;
}

ParsedTrace minimal_trace() {
  ParsedTrace t;
  t.schema = specomp::obs::kTraceSchema;
  t.schema_version = specomp::obs::kTraceSchemaVersion;
  t.lanes = 4;
  return t;
}

// ---- parse_jsonl -----------------------------------------------------------

TEST(SpectraceParse, EmptyInputHasNoMeta) {
  const ParsedTrace t = parse("");
  EXPECT_EQ(t.schema_version, 0);
  EXPECT_EQ(t.lines, 0u);
  const auto check = spectrace::self_check(t);
  EXPECT_FALSE(check.ok);  // no meta line
}

TEST(SpectraceParse, MetaSpanAndCausal) {
  const ParsedTrace t = parse(
      R"({"type":"meta","schema":"specomp.trace.v2","schema_version":2,"lanes":2})"
      "\n"
      R"({"type":"span","lane":0,"kind":"compute","begin_s":0,"end_s":1.5})"
      "\n"
      R"({"type":"causal","kind":"send","lane":0,"at_s":1.5,"peer":1,"tag":7,"seq":3})"
      "\n");
  EXPECT_EQ(t.schema_version, 2);
  EXPECT_EQ(t.lanes, 2u);
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_EQ(t.spans[0].kind, "compute");
  ASSERT_EQ(t.causal.size(), 1u);
  EXPECT_EQ(t.causal[0].kind, CausalKind::Send);
  EXPECT_EQ(t.causal[0].peer, 1);
  EXPECT_EQ(t.causal[0].seq, 3u);
}

TEST(SpectraceParse, MalformedLineReportsLineNumber) {
  try {
    parse(
        R"({"type":"meta","schema":"specomp.trace.v2","schema_version":2,"lanes":1})"
        "\n{nope\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(SpectraceParse, UnknownCausalKindThrows) {
  EXPECT_THROW(
      parse(R"({"type":"causal","kind":"teleport","lane":0,"at_s":1})" "\n"),
      std::runtime_error);
}

TEST(SpectraceParse, NewerSchemaVersionRejected) {
  try {
    parse(
        R"({"type":"meta","schema":"specomp.trace.v9","schema_version":99,"lanes":1})"
        "\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos)
        << e.what();
  }
}

// ---- self_check ------------------------------------------------------------

TEST(SpectraceSelfCheck, CleanTracePasses) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(0, CausalKind::Send, 1.0, 1, 0, 1));
  t.causal.push_back(causal(1, CausalKind::Recv, 2.0, 0, 0, 1, -1, 1.8));
  const auto r = spectrace::self_check(t);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.unmatched_sends, 0u);
  EXPECT_EQ(r.duplicate_recvs, 0u);
}

TEST(SpectraceSelfCheck, RecvWithoutSendIsError) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(1, CausalKind::Recv, 2.0, 0, 0, 5));
  const auto r = spectrace::self_check(t);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("no matching send"), std::string::npos);
}

TEST(SpectraceSelfCheck, RecvBeforeSendIsError) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(0, CausalKind::Send, 5.0, 1, 0, 1));
  t.causal.push_back(causal(1, CausalKind::Recv, 2.0, 0, 0, 1));
  EXPECT_FALSE(spectrace::self_check(t).ok);
}

TEST(SpectraceSelfCheck, DuplicateRecvCountedNotFatal) {
  // A dup fault with recovery off delivers the same (src, tag, seq) twice.
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(0, CausalKind::Send, 1.0, 1, 0, 1));
  t.causal.push_back(causal(1, CausalKind::Recv, 2.0, 0, 0, 1));
  t.causal.push_back(causal(1, CausalKind::Recv, 2.5, 0, 0, 1));
  const auto r = spectrace::self_check(t);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.duplicate_recvs, 1u);
}

TEST(SpectraceSelfCheck, LostSendCountedNotFatal) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(0, CausalKind::Send, 1.0, 1, 0, 1));
  const auto r = spectrace::self_check(t);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.unmatched_sends, 1u);
}

TEST(SpectraceSelfCheck, DegradedAtShutdownCountedNotFatal) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(2, CausalKind::DegradedEnter, 1.0, 3));
  const auto r = spectrace::self_check(t);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.open_degraded, 1u);
}

TEST(SpectraceSelfCheck, UnbalancedDegradedExitIsError) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(2, CausalKind::DegradedExit, 1.0));
  EXPECT_FALSE(spectrace::self_check(t).ok);
}

TEST(SpectraceSelfCheck, NegativeSpanIsError) {
  ParsedTrace t = minimal_trace();
  t.spans.push_back(SpanRec{0, "compute", 2.0, 1.0});
  EXPECT_FALSE(spectrace::self_check(t).ok);
}

TEST(SpectraceSelfCheck, LaneBeyondMetaIsError) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(9, CausalKind::Stall, 1.0, -1, 0, 0, -1, 2.0));
  EXPECT_FALSE(spectrace::self_check(t).ok);
}

// ---- cascades --------------------------------------------------------------

TEST(SpectraceCascades, MessageMediatedChain) {
  // Lane 1 rolls back iter 3; lane 2's later rollback failed checking a
  // block from lane 1 at iter 4 — one cascade, depth 2, width 2.
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(1, CausalKind::Rollback, 10.0, 0, 0, 0, 3));
  t.causal.push_back(causal(2, CausalKind::Rollback, 12.0, 1, 0, 0, 4));
  const auto r = spectrace::cascades(t);
  EXPECT_EQ(r.total_rollbacks, 2u);
  ASSERT_EQ(r.cascades.size(), 1u);
  EXPECT_EQ(r.cascades[0].depth, 2u);
  EXPECT_EQ(r.cascades[0].width, 2u);
}

TEST(SpectraceCascades, UnrelatedRollbacksStaySeparate) {
  // Different lanes, no message link, far apart in iteration space.
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(1, CausalKind::Rollback, 10.0, 0, 0, 0, 3));
  t.causal.push_back(causal(2, CausalKind::Rollback, 200.0, 3, 0, 0, 90));
  const auto r = spectrace::cascades(t);
  EXPECT_EQ(r.cascades.size(), 2u);
  EXPECT_EQ(r.cascades[0].depth, 1u);
}

TEST(SpectraceCascades, ReplayTimeAttributedToLatestRollback) {
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(1, CausalKind::Rollback, 10.0, 0, 0, 0, 3));
  t.spans.push_back(SpanRec{1, "correct/recompute", 10.5, 13.5});
  const auto r = spectrace::cascades(t);
  ASSERT_EQ(r.cascades.size(), 1u);
  EXPECT_DOUBLE_EQ(r.cascades[0].wasted_seconds, 3.0);
  EXPECT_DOUBLE_EQ(r.total_wasted_seconds, 3.0);
}

// ---- critical path ---------------------------------------------------------

TEST(SpectraceCriticalPath, WaitAttributionAndChain) {
  ParsedTrace t = minimal_trace();
  t.lanes = 2;
  t.spans.push_back(SpanRec{0, "compute", 0.0, 8.0});
  t.spans.push_back(SpanRec{1, "compute", 0.0, 2.0});
  t.spans.push_back(SpanRec{1, "wait (idle)", 2.0, 9.0});
  // The recv that ends lane 1's wait came from lane 0.
  t.causal.push_back(causal(0, CausalKind::Send, 8.0, 1, 0, 1));
  t.causal.push_back(causal(1, CausalKind::Recv, 9.0, 0, 0, 1));
  const auto r = spectrace::critical_path(t);
  EXPECT_DOUBLE_EQ(r.makespan_s, 9.0);
  EXPECT_EQ(r.makespan_lane, 1u);
  ASSERT_EQ(r.ranks.size(), 2u);
  ASSERT_EQ(r.ranks[1].waited_on.size(), 1u);
  EXPECT_EQ(r.ranks[1].waited_on[0].first, 0);
  EXPECT_DOUBLE_EQ(r.ranks[1].waited_on[0].second, 7.0);
  // Chain: makespan lane 1 was blocked on lane 0, which never waited.
  ASSERT_EQ(r.chain.size(), 2u);
  EXPECT_EQ(r.chain[0], 1u);
  EXPECT_EQ(r.chain[1], 0u);
}

// ---- delay propagation -----------------------------------------------------

TEST(SpectracePropagation, NoStallNoAnchor) {
  const auto r = spectrace::delay_propagation(minimal_trace());
  EXPECT_FALSE(r.has_anchor);
}

TEST(SpectracePropagation, FloodsMessageEdgesInHopOrder) {
  // Stall on lane 0 at t=5; lane 0 sends to 1 (post-stall), 1 sends to 2.
  // A pre-stall message to lane 3 must NOT infect it.
  ParsedTrace t = minimal_trace();
  t.causal.push_back(causal(0, CausalKind::Send, 1.0, 3, 0, 1));
  t.causal.push_back(causal(3, CausalKind::Recv, 2.0, 0, 0, 1));
  t.causal.push_back(causal(0, CausalKind::Stall, 5.0, -1, 0, 0, -1, 4.0));
  t.causal.push_back(causal(0, CausalKind::Send, 9.0, 1, 0, 2));
  t.causal.push_back(causal(1, CausalKind::Recv, 10.0, 0, 0, 2));
  t.causal.push_back(causal(1, CausalKind::Send, 11.0, 2, 0, 1));
  t.causal.push_back(causal(2, CausalKind::Recv, 12.0, 1, 0, 1));
  const auto r = spectrace::delay_propagation(t);
  ASSERT_TRUE(r.has_anchor);
  EXPECT_EQ(r.anchor_lane, 0u);
  EXPECT_DOUBLE_EQ(r.anchor_len_s, 4.0);
  ASSERT_EQ(r.infections.size(), 3u);  // lanes 0, 1, 2 — not 3
  EXPECT_EQ(r.depth, 2u);
  EXPECT_EQ(r.infections[0].lane, 0u);
  EXPECT_EQ(r.infections[1].lane, 1u);
  EXPECT_EQ(r.infections[1].hops, 1);
  EXPECT_EQ(r.infections[2].lane, 2u);
  EXPECT_EQ(r.infections[2].hops, 2);
  // 2 lanes beyond the anchor over 12-5=7 virtual seconds.
  EXPECT_NEAR(r.front_speed_lanes_per_s, 2.0 / 7.0, 1e-12);
}

// ---- collective hops in the causal record ----------------------------------

// End-to-end: a tree allreduce run under record_trace lands its per-round
// Send/Recv hops in the causal record, and critical_path() attributes the
// wait they induce — a slow rank entering the collective late is blamed by
// the ranks that stalled in its exchange rounds.
TEST(SpectraceCollective, TreeAllreduceHopsDriveCriticalPathAttribution) {
  using namespace specomp::runtime;
  constexpr int kP = 12;
  constexpr int kTag = 4200;
  constexpr int kSlow = 5;

  SimConfig config;
  config.cluster = Cluster::homogeneous(kP, 1e6);
  config.shared_medium = false;
  config.record_trace = true;
  config.collective = CollectiveAlgo::Tree;
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == kSlow) comm.compute(5e6);  // ~5 virtual seconds late
    const double sum =
        allreduce_sum(comm, static_cast<double>(comm.rank()), kTag);
    EXPECT_DOUBLE_EQ(sum, kP * (kP - 1) / 2.0);
  });

  std::ostringstream os;
  specomp::obs::write_trace_jsonl(result.trace, os);
  const ParsedTrace t = parse(os.str());
  EXPECT_TRUE(spectrace::self_check(t).ok);
  ASSERT_EQ(t.lanes, static_cast<std::uint64_t>(kP));

  // Recursive doubling at p=12: p2=8, rem=4 ⇒ 4 park sends + 8·log2(8)
  // round sends + 4 result sends = 32 messages, each a Send/Recv hop pair
  // in the causal record under the collective's tag.
  std::size_t sends = 0;
  std::size_t recvs = 0;
  for (const CausalRec& c : t.causal) {
    if (c.tag != kTag) continue;
    if (c.kind == CausalKind::Send) ++sends;
    if (c.kind == CausalKind::Recv) ++recvs;
  }
  EXPECT_EQ(sends, 32u);
  EXPECT_EQ(recvs, 32u);

  // The slow rank's lateness propagates through the exchange rounds: summed
  // over all ranks, no peer is blamed for more blocked time than the slow
  // rank, and the makespan lane's blocked-on chain reaches it.
  const auto report = spectrace::critical_path(t);
  std::map<int, double> blame;
  for (const auto& rank : report.ranks) {
    for (const auto& [peer, seconds] : rank.waited_on) blame[peer] += seconds;
  }
  ASSERT_FALSE(blame.empty());
  const auto top = std::max_element(
      blame.begin(), blame.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(top->first, kSlow);
  EXPECT_GT(top->second, 1.0);  // seconds of induced wait, not noise
  EXPECT_NE(std::find(report.chain.begin(), report.chain.end(),
                      static_cast<std::uint64_t>(kSlow)),
            report.chain.end())
      << "blocked-on chain never reached the slow rank";
}

// ---- fixture byte-identity -------------------------------------------------

// Regenerate (from the repo root, after a full build) with these two
// commands, each on one line:
//   ./build/examples/nbody_sim --p 4 --iterations 8 --n 200
//     --fault-plan=stall:1@5+4
//     --trace-out=tests/tools/fixtures/trace_p4_stall.jsonl
//   ./build/tools/spectrace/spectrace --cascades --json
//     tests/tools/fixtures/trace_p4_stall.jsonl
//     --out=tests/tools/fixtures/trace_p4_stall.cascades.json
TEST(SpectraceFixture, CascadeReportIsByteIdentical) {
  const std::string dir = SPECOMP_SPECTRACE_FIXTURE_DIR;
  std::ifstream in(dir + "/trace_p4_stall.jsonl");
  ASSERT_TRUE(in) << "missing fixture trace";
  const spectrace::ParsedTrace trace = spectrace::parse_jsonl(in);
  EXPECT_TRUE(spectrace::self_check(trace).ok);

  // Same document the CLI builds for `--cascades --json`.
  spectrace::Json doc = spectrace::Json::object();
  doc.set("schema", "specomp.spectrace.v1");
  doc.set("schema_version", 1);
  doc.set("cascades",
          spectrace::cascade_report_json(spectrace::cascades(trace)));

  std::ifstream expected_in(dir + "/trace_p4_stall.cascades.json");
  ASSERT_TRUE(expected_in) << "missing expected report";
  std::ostringstream expected;
  expected << expected_in.rdbuf();
  EXPECT_EQ(doc.dump(2) + "\n", expected.str());
}

}  // namespace
