// specomp-analyze corpus: the rule fixtures under tests/tools/fixtures (one
// firing and one quiet file per determinism rule, each at a synthetic path
// that picks the rule's directory scope), the symbol indexer, the replay
// scope with pinned call chains, the directive grammar, the rollback pass,
// the CLI's usage errors, three whole-repository locks (clean through the
// library, clean through the CLI gate, and byte-deterministic reports) and
// the rollback-escape fixture that is BOTH flagged statically and shown to
// diverge at runtime on the same field.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analyze_core.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/engine.hpp"

#include "fixtures/analyze/escaping_app.hpp"

namespace {

using specana::AnalyzeFinding;
using specana::AnalyzeResult;
using specana::analyze_files;
using specana::analyze_tree;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string read_fixture(const std::string& name) {
  return read_file(std::string(SPECOMP_ANALYZE_FIXTURE_DIR) + "/" + name);
}

AnalyzeResult analyze_one(const std::string& path, const std::string& body) {
  return analyze_files({{path, body}});
}

std::vector<AnalyzeFinding> with_rule(const AnalyzeResult& result,
                                      const std::string& rule) {
  std::vector<AnalyzeFinding> out;
  for (const auto& f : result.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

std::string dump(const AnalyzeResult& result) {
  std::string all;
  for (const auto& f : result.findings)
    all += specana::format_finding(f) + "\n";
  return all;
}

struct CliRun {
  int status;
  std::string out;
  std::string err;
};

// Runs the specomp-analyze binary with `args`; returns its exit status and
// what it printed on stdout and stderr.
CliRun run_cli(const std::string& args) {
  const std::string base = testing::TempDir() + "analyze_cli_" +
                           std::to_string(::getpid());
  const std::string out_path = base + ".out";
  const std::string err_path = base + ".err";
  const std::string cmd = std::string(SPECOMP_ANALYZE_BIN) + " " + args +
                          " >" + out_path + " 2>" + err_path;
  const int status = std::system(cmd.c_str());
  CliRun run{WIFEXITED(status) ? WEXITSTATUS(status) : -1,
             read_file(out_path), read_file(err_path)};
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return run;
}

// ---------------------------------------------------------------------------
// Rule fixture corpus: one row per (fixture, synthetic path) with the exact
// (rule, line) findings it must produce, in report order.  The path picks
// the directory scope; no fixture has a replay root, so every finding here
// comes from the directory scope alone.  Each row registers as its own test
// in the Lint* suites, which hold the directory-scoped rules' checks.
// ---------------------------------------------------------------------------

struct CorpusRow {
  const char* suite;
  const char* name;
  const char* fixture;
  const char* path;
  std::vector<std::pair<std::string, int>> expected;
};

const std::vector<CorpusRow> kCorpus = {
    {"LintRules", "WallClockFires", "wall_clock_bad.cpp",
     "src/des/fixture.cpp", {{"wall-clock", 7}, {"wall-clock", 9}}},
    {"LintRules", "WallClockQuietOnVirtualTime", "wall_clock_good.cpp",
     "src/des/fixture.cpp", {}},
    // The same content is fine in bench/ (measurement harness code).
    {"LintRules", "WallClockScopedToDeterministicDirs", "wall_clock_bad.cpp",
     "bench/fixture.cpp", {}},
    {"LintRules", "AmbientRandFires", "ambient_rand_bad.cpp",
     "src/spec/fixture.cpp",
     {{"ambient-rand", 6}, {"ambient-rand", 7}, {"ambient-rand", 10}}},
    {"LintRules", "AmbientRandQuietOnSeededEngine", "ambient_rand_good.cpp",
     "src/spec/fixture.cpp", {}},
    {"LintRules", "HotPathCallableFires", "hot_path_callable_bad.hpp",
     "src/des/fixture.hpp", {{"hot-path-callable", 7}}},
    {"LintRules", "HotPathCallableQuietOnTemplates",
     "hot_path_callable_good.hpp", "src/des/fixture.hpp", {}},
    // The rule guards headers (inline hot-path code); spawn-time .cpp use of
    // std::function is outside its scope.
    {"LintRules", "HotPathCallableHeadersOnly", "hot_path_callable_bad.hpp",
     "src/des/fixture.cpp", {}},
    {"LintRules", "UnorderedIterFires", "unordered_iter_bad.cpp",
     "src/runtime/fixture.cpp",
     {{"unordered-iter", 8}, {"unordered-iter", 12}}},
    {"LintRules", "UnorderedIterQuietOnLookupsAndOrderedMaps",
     "unordered_iter_good.cpp", "src/runtime/fixture.cpp", {}},
    {"LintRules", "NakedNewFires", "naked_new_bad.cpp", "src/spec/fixture.cpp",
     {{"naked-new", 8}, {"naked-new", 10}}},
    {"LintRules", "NakedNewQuietOnOwnedAndPlacement", "naked_new_good.cpp",
     "src/spec/fixture.cpp", {}},
    {"LintRules", "NakedNewAllowedInSupport", "naked_new_bad.cpp",
     "src/support/fixture.cpp", {}},
    {"LintDirectives", "JustifiedAllowSilences", "allow_good.cpp",
     "src/runtime/fixture.cpp", {}},
    // Line 6: bare allow -> bad-annotation + the original wall-clock finding.
    // Line 7: unknown rule id -> bad-annotation + the wall-clock finding.
    {"LintDirectives", "BareOrUnknownAllowIsReportedAndDoesNotSilence",
     "allow_bad.cpp", "src/runtime/fixture.cpp",
     {{"bad-annotation", 6},
      {"wall-clock", 6},
      {"bad-annotation", 7},
      {"wall-clock", 7}}},
};

class CorpusTest : public testing::Test {
 public:
  explicit CorpusTest(const CorpusRow& row) : row_(row) {}
  void TestBody() override {
    const auto result = analyze_one(row_.path, read_fixture(row_.fixture));
    std::vector<std::pair<std::string, int>> got;
    for (const auto& f : result.findings) got.emplace_back(f.rule, f.line);
    EXPECT_EQ(got, row_.expected) << dump(result);
  }

 private:
  const CorpusRow& row_;
};

[[maybe_unused]] const bool kCorpusRegistered = [] {
  for (const CorpusRow& row : kCorpus)
    testing::RegisterTest(row.suite, row.name, nullptr, nullptr, __FILE__,
                          __LINE__, [&row]() -> testing::Test* {
                            return std::make_unique<CorpusTest>(row).release();
                          });
  return true;
}();

TEST(LintRules, RuleTableIsStable) {
  std::set<std::string> ids;
  for (const auto& r : specana::analyze_rules()) ids.insert(std::string(r.id));
  EXPECT_EQ(ids, (std::set<std::string>{
                     "wall-clock", "ambient-rand", "thread-id", "ptr-cast",
                     "unordered-iter", "naked-new", "hot-path-callable",
                     "rollback-unsaved-field", "rollback-static",
                     "rollback-io", "rollback-rng", "bad-annotation"}));
}

TEST(LintScanner, CommentsStringsAndPreprocessorAreInert) {
  const std::string content =
      "#include <new>\n"
      "/* steady_clock in a block comment\n"
      "   spanning lines: rand() */\n"
      "const char* s = \"delete everything at time(0)\";\n"
      "const char* r = R\"(new delete rand() steady_clock)\";\n";
  const auto result = analyze_one("src/des/fixture.cpp", content);
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

// ---------------------------------------------------------------------------
// Symbol index
// ---------------------------------------------------------------------------

TEST(AnalyzeSymbols, IndexesMethodsFieldsBasesAndCalls) {
  specana::SymbolTable table;
  table.add_file("src/x/widget.hpp",
                 "namespace outer {\n"
                 "class Widget final : public app::Base {\n"
                 " public:\n"
                 "  void step() { helper(); reader.read_span<double>(4); }\n"
                 "  int helper();\n"
                 " private:\n"
                 "  double x_ = 0.0;\n"
                 "  static long count_;\n"
                 "  mutable int scratch_;\n"
                 "};\n"
                 "int free_fn() { return 1; }\n"
                 "}  // namespace outer\n");
  const specana::ClassInfo* cls = table.find_class("Widget");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->bases, (std::vector<std::string>{"Base"}));
  ASSERT_EQ(cls->fields.size(), 3u);
  EXPECT_EQ(cls->fields[0].name, "x_");
  EXPECT_FALSE(cls->fields[0].is_static);
  EXPECT_TRUE(cls->fields[1].is_static);
  EXPECT_TRUE(cls->fields[2].is_mutable);

  const auto methods = table.methods_of("Widget");
  ASSERT_EQ(methods.size(), 1u);  // only `step` has an indexed body
  const specana::Symbol& step = table.symbols()[methods[0]];
  EXPECT_EQ(step.qualified(), "Widget::step");
  // Plain and template-argument calls are both captured.
  EXPECT_NE(std::find(step.calls.begin(), step.calls.end(), "helper"),
            step.calls.end());
  EXPECT_NE(std::find(step.calls.begin(), step.calls.end(), "read_span"),
            step.calls.end());
  EXPECT_EQ(table.by_name("free_fn").size(), 1u);
}

TEST(AnalyzeSymbols, DerivedFromIsTransitive) {
  specana::SymbolTable table;
  table.add_file("src/x/apps.hpp",
                 "class Mid : public spec::SyncIterativeApp {};\n"
                 "class Leaf final : public Mid {};\n"
                 "class Other {};\n");
  const auto derived = table.derived_from("SyncIterativeApp");
  std::vector<std::string> names;
  for (const auto* c : derived) names.push_back(c->name);
  EXPECT_EQ(names, (std::vector<std::string>{"Mid", "Leaf"}));
}

// ---------------------------------------------------------------------------
// Replay scope: root -> helper chains, per-seed firing and quiet fixtures.
// Seeds that must stay quiet sit under src/apps/, outside every directory
// scope, so only reachability decides.
// ---------------------------------------------------------------------------

TEST(AnalyzeTaint, WallClockThroughHelperFiresWithChain) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  const auto hits = with_rule(result, "wall-clock");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "stamp");
  EXPECT_EQ(hits[0].line, 4);
  EXPECT_EQ(hits[0].detail,
            "'steady_clock' reachable from replay root SpecEngine::drain");
  ASSERT_EQ(hits[0].chain.size(), 2u);
  EXPECT_EQ(hits[0].chain[0], "SpecEngine::drain (src/spec/fx.cpp:2)");
  EXPECT_EQ(hits[0].chain[1], "stamp (src/spec/fx.cpp:4)");
}

TEST(AnalyzeTaint, QuietWhenSeedIsUnreachableFromRoots) {
  // The same seeded helper, but nothing on a replay path calls it.
  const auto result = analyze_one(
      "src/apps/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() {}\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
  EXPECT_GT(result.taint_roots, 0u);
}

TEST(AnalyzeTaint, PureAnnotationStopsPropagation) {
  const auto result = analyze_one(
      "src/apps/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "// specomp: pure - wraps the simulated clock, never the host's\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeTaint, UnreachableOrPureSeedStillFiresInsideItsScope) {
  // Under src/spec/ the directory scope fires whatever reaches the seed:
  // neither an unreachable helper nor a `pure` barrier silences it, and the
  // finding carries no chain.
  const std::string unreachable =
      "struct SpecEngine {\n"
      "  void drain() {}\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n";
  const std::string pure =
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "// specomp: pure - wraps the simulated clock, never the host's\n"
      "double stamp() { return steady_clock::now().count(); }\n";
  for (const auto& [body, line] :
       {std::pair{unreachable, 4}, std::pair{pure, 5}}) {
    const auto result = analyze_one("src/spec/fx.cpp", body);
    ASSERT_EQ(result.findings.size(), 1u) << dump(result);
    const AnalyzeFinding& f = result.findings[0];
    EXPECT_EQ(f.rule, "wall-clock");
    EXPECT_EQ(f.line, line);
    EXPECT_EQ(f.symbol, "stamp");
    EXPECT_EQ(f.detail, "'steady_clock' in scope src/spec/");
    EXPECT_TRUE(f.chain.empty());
  }
}

TEST(AnalyzeTaint, AllowDirectiveSilencesOneSeedLine) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "double stamp() {\n"
      "  // specomp: allow(wall-clock): fixture, sampled outside replay\n"
      "  return steady_clock::now().count();\n"
      "}\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeTaint, UnorderedIterThroughWrapperFires) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { visit(); }\n"
      "};\n"
      "int visit() {\n"
      "  std::unordered_map<int, int> seen;\n"
      "  int sum = 0;\n"
      "  for (const auto& kv : seen) sum = sum + kv.second;\n"
      "  return sum;\n"
      "}\n");
  const auto hits = with_rule(result, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "visit");
  EXPECT_EQ(hits[0].line, 7);
  EXPECT_EQ(hits[0].detail,
            "'for(:)' reachable from replay root SpecEngine::drain");
  ASSERT_EQ(hits[0].chain.size(), 2u);
  EXPECT_EQ(hits[0].chain[0], "SpecEngine::drain (src/spec/fx.cpp:2)");
}

TEST(AnalyzeTaint, UnorderedIterQuietOnOrderedMap) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { visit(); }\n"
      "};\n"
      "int visit() {\n"
      "  std::map<int, int> seen;\n"
      "  int sum = 0;\n"
      "  for (const auto& kv : seen) sum = sum + kv.second;\n"
      "  return sum;\n"
      "}\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeTaint, AmbientRandFiresAndMemberRandIsQuiet) {
  const auto fired = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { jitter(); }\n"
      "};\n"
      "int jitter() { return rand() % 7; }\n");
  const auto hits = with_rule(fired, "ambient-rand");
  ASSERT_EQ(hits.size(), 1u) << dump(fired);
  EXPECT_EQ(hits[0].symbol, "jitter");
  EXPECT_EQ(hits[0].line, 4);

  // A member function that happens to be named rand() is not the libc PRNG.
  const auto quiet = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { jitter(); }\n"
      "};\n"
      "int jitter() { return eng.rand() % 7; }\n");
  EXPECT_TRUE(quiet.findings.empty()) << dump(quiet);
}

TEST(AnalyzeTaint, ThreadIdFiresOnlyAsACall) {
  const auto fired = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { lane(); }\n"
      "};\n"
      "unsigned lane() { return hash(std::this_thread::get_id()); }\n");
  const auto hits = with_rule(fired, "thread-id");
  ASSERT_EQ(hits.size(), 1u) << dump(fired);
  EXPECT_EQ(hits[0].symbol, "lane");

  const auto quiet = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { lane(); }\n"
      "};\n"
      "unsigned lane() { unsigned get_id = 3; return get_id; }\n");
  EXPECT_TRUE(quiet.findings.empty()) << dump(quiet);
}

TEST(AnalyzeTaint, PtrCastFires) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain(void* p) { key(p); }\n"
      "};\n"
      "unsigned long key(void* p) {\n"
      "  return reinterpret_cast<uintptr_t>(p);\n"
      "}\n");
  const auto hits = with_rule(result, "ptr-cast");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "key");
  EXPECT_EQ(hits[0].line, 5);
}

TEST(AnalyzeTaint, HotPathNewFiresAndPlacementNewIsQuiet) {
  const auto fired = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { grow(); }\n"
      "};\n"
      "int* grow() { return new int[4]; }\n");
  const auto hits = with_rule(fired, "naked-new");
  ASSERT_EQ(hits.size(), 1u) << dump(fired);
  EXPECT_EQ(hits[0].symbol, "grow");

  const auto quiet = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain(char* buf) { grow(buf); }\n"
      "};\n"
      "int* grow(char* buf) { return new (buf) int; }\n");
  EXPECT_TRUE(quiet.findings.empty()) << dump(quiet);
}

// ---------------------------------------------------------------------------
// Annotation grammar
// ---------------------------------------------------------------------------

TEST(AnalyzeAnnotations, MalformedDirectivesAreFindings) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "// specomp: allow(wall-clock)\n"
      "// specomp: allow(no-such-rule): why\n"
      "// specomp: rollback-covered(a_, b_): why\n"
      "// specomp: rollback-covered(x_)\n"
      "// specomp: frobnicate\n"
      "int ok;\n");
  const auto bad = with_rule(result, "bad-annotation");
  std::vector<int> lines;
  for (const auto& f : bad) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{1, 2, 3, 4, 5})) << dump(result);
  EXPECT_EQ(result.findings.size(), bad.size());
}

TEST(AnalyzeAnnotations, WellFormedDirectivesAreClean) {
  const auto result = analyze_one(
      "src/spec/fx.cpp",
      "// specomp: pure\n"
      "// specomp: pure - reads only arguments\n"
      "// specomp: allow(wall-clock, ambient-rand): measurement harness\n"
      "// specomp: rollback-covered(cache_): rewritten every step\n"
      "// prose about specomp::obs::Json is not a directive\n"
      "int ok;\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeAnnotations, RetiredPrefixNoLongerSilences) {
  // There is one directive prefix.  A leftover line in the retired
  // per-line checker's grammar is plain prose, so its finding still fires.
  const auto result = analyze_one(
      "src/des/fx.cpp",
      "double probe() {\n"
      "  // specomp-lint: allow(wall-clock): retired grammar\n"
      "  return steady_clock::now().count();\n"
      "}\n");
  const auto hits = with_rule(result, "wall-clock");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_EQ(result.findings.size(), 1u) << dump(result);
}

// ---------------------------------------------------------------------------
// Rollback-safety pass
// ---------------------------------------------------------------------------

TEST(AnalyzeRollback, EscapingFixtureFlagsExactlyTheLeakedCounter) {
  const auto result = analyze_one("src/spec/escaping_app.hpp",
                                  read_fixture("analyze/escaping_app.hpp"));
  const auto hits = with_rule(result, "rollback-unsaved-field");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "EscapingApp::steps_done_");
  EXPECT_NE(hits[0].detail.find("never referenced by "
                                "save_state/restore_state/pack_local"),
            std::string::npos);
  ASSERT_FALSE(hits[0].chain.empty());
  EXPECT_NE(hits[0].chain[0].find("EscapingApp::compute_step"),
            std::string::npos);
  // CoveredApp mutates the same fields but snapshots the counter: only the
  // escaping class is reported.
  EXPECT_EQ(result.findings.size(), 1u) << dump(result);
}

TEST(AnalyzeRollback, StaticMutableIoAndRngEscapesAreFlagged) {
  const auto result = analyze_one(
      "src/spec/fx.hpp",
      "class LeakyApp final : public spec::SyncIterativeApp {\n"
      " public:\n"
      "  void compute_step() override {\n"
      "    static long calls = 0;\n"
      "    calls = calls + 1;\n"
      "    counter_ = counter_ + 1.0;\n"
      "    scratch_ = counter_;\n"
      "    std::ofstream log(\"leak.txt\");\n"
      "    x_ = x_ + 0.0 * rand();\n"
      "  }\n"
      "  std::vector<double> save_state() const override { return {x_}; }\n"
      "  void restore_state(std::span<const double> s) override "
      "{ x_ = s[0]; }\n"
      " private:\n"
      "  double x_ = 0.0;\n"
      "  static double counter_;\n"
      "  mutable double scratch_;\n"
      "};\n");
  const auto statics = with_rule(result, "rollback-static");
  std::vector<std::string> symbols;
  for (const auto& f : statics) symbols.push_back(f.symbol);
  std::sort(symbols.begin(), symbols.end());
  EXPECT_EQ(symbols,
            (std::vector<std::string>{"LeakyApp::compute_step",
                                      "LeakyApp::counter_",
                                      "LeakyApp::scratch_"}))
      << dump(result);
  ASSERT_EQ(with_rule(result, "rollback-io").size(), 1u) << dump(result);
  EXPECT_EQ(with_rule(result, "rollback-io")[0].line, 8);
  ASSERT_EQ(with_rule(result, "rollback-rng").size(), 1u) << dump(result);
  EXPECT_EQ(with_rule(result, "rollback-rng")[0].line, 9);
  // x_ is snapshot-covered; rand() also fires the taint pass because every
  // SyncIterativeApp subclass is a replay root.
  EXPECT_TRUE(with_rule(result, "rollback-unsaved-field").empty())
      << dump(result);
  EXPECT_EQ(with_rule(result, "ambient-rand").size(), 1u) << dump(result);
}

TEST(AnalyzeRollback, CoveredAnnotationSuppressesTheField) {
  const std::string flagged =
      "class CachedApp final : public spec::SyncIterativeApp {\n"
      " public:\n"
      "  void compute_step() override { cache_ = 1.0; x_ = x_ + cache_; }\n"
      "  std::vector<double> save_state() const override { return {x_}; }\n"
      "  void restore_state(std::span<const double> s) override "
      "{ x_ = s[0]; }\n"
      " private:\n"
      "  double x_ = 0.0;\n"
      "  double cache_ = 0.0;\n"
      "};\n";
  const auto without = analyze_one("src/spec/fx.hpp", flagged);
  const auto hits = with_rule(without, "rollback-unsaved-field");
  ASSERT_EQ(hits.size(), 1u) << dump(without);
  EXPECT_EQ(hits[0].symbol, "CachedApp::cache_");

  std::string annotated = flagged;
  const std::string decl = "  double cache_ = 0.0;";
  annotated.replace(annotated.find(decl), decl.size(),
                    "  // specomp: rollback-covered(cache_): rewritten at "
                    "the top of every step\n" +
                        decl);
  const auto with = analyze_one("src/spec/fx.hpp", annotated);
  EXPECT_TRUE(with.findings.empty()) << dump(with);
}

// ---------------------------------------------------------------------------
// Report and CLI
// ---------------------------------------------------------------------------

TEST(AnalyzeReports, TextReportListsEveryFindingWithItsChain) {
  const auto result = analyze_one(
      "src/apps/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); jitter(); }\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n"
      "int jitter() { return rand() % 7; }\n");
  ASSERT_EQ(result.findings.size(), 2u) << dump(result);
  const std::string text = specana::to_text_report(result);
  EXPECT_EQ(text.rfind("# specomp-analyze report\n# schema_version: 2\n", 0),
            0u);
  EXPECT_NE(text.find(" findings=2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("src/apps/fx.cpp:4: [wall-clock] stamp: 'steady_clock' "
                      "reachable from replay root SpecEngine::drain\n"
                      "    via SpecEngine::drain (src/apps/fx.cpp:2)\n"
                      "    via stamp (src/apps/fx.cpp:4)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("src/apps/fx.cpp:5: [ambient-rand] jitter: 'rand' "
                      "reachable from replay root SpecEngine::drain\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("clean: no findings"), std::string::npos);

  const std::string clean =
      specana::to_text_report(analyze_one("src/apps/fx.cpp", "int x;\n"));
  EXPECT_NE(clean.find(" findings=0\nclean: no findings\n"),
            std::string::npos)
      << clean;
}

// A walk that checks nothing must not pass: a missing root or subdir is a
// usage error that names the path, in the library and at the CLI (exit 2).
TEST(AnalyzeCli, MissingDirectoryIsAUsageError) {
  const std::string root = SPECOMP_ANALYZE_SOURCE_ROOT;
  try {
    analyze_tree(root, {"src", "srcc"});
    ADD_FAILURE() << "a missing subdir must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "no such directory: " + root + "/srcc");
  }
  EXPECT_THROW(analyze_tree("/nonexistent", specana::kDefaultSubdirs),
               std::invalid_argument);

  const CliRun subdir = run_cli("--root " + root + " srcc");
  EXPECT_EQ(subdir.status, 2);
  EXPECT_NE(subdir.err.find("no such directory: " + root + "/srcc"),
            std::string::npos)
      << subdir.err;
  const CliRun missing_root = run_cli("--root /nonexistent");
  EXPECT_EQ(missing_root.status, 2);
  EXPECT_NE(missing_root.err.find("no such directory: /nonexistent"),
            std::string::npos)
      << missing_root.err;
  // The retired baseline/report options are usage errors too.
  EXPECT_EQ(run_cli("--root " + root + " --baseline x.json").status, 2);
}

// ---------------------------------------------------------------------------
// Whole-repository locks (the CI gate, exercised locally first)
// ---------------------------------------------------------------------------

TEST(AnalyzeTree, RepositoryIsClean) {
  const AnalyzeResult result =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultSubdirs);
  EXPECT_GT(result.files_scanned, 150u);  // sanity: the walk saw the tree
  EXPECT_GT(result.symbols_indexed, 500u);
  EXPECT_GT(result.taint_roots, 50u);
  EXPECT_TRUE(result.findings.empty())
      << "analyzer findings (fix them, or annotate with a justification):\n"
      << dump(result);
}

// The gate exactly as CI runs it: the binary with no subdirs walks the
// default list, prints the library's report on stdout, and exits 0.
TEST(LintTree, RepositoryIsClean) {
  const CliRun run =
      run_cli(std::string("--root ") + SPECOMP_ANALYZE_SOURCE_ROOT);
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_EQ(run.out, specana::to_text_report(analyze_tree(
                         SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultSubdirs)));
  EXPECT_NE(run.out.find(" findings=0\nclean: no findings\n"),
            std::string::npos)
      << run.out;
}

TEST(AnalyzeTree, ReportsAreByteDeterministic) {
  const AnalyzeResult a =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultSubdirs);
  const AnalyzeResult b =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultSubdirs);
  EXPECT_EQ(specana::to_text_report(a), specana::to_text_report(b));
}

// ---------------------------------------------------------------------------
// The other half of the escaping fixture: the flagged field really does
// corrupt replay.  Same dynamics, same engine configuration; the only
// difference between the two apps is whether steps_done_ rides in the
// snapshot — exactly the field the static pass flags above.
// ---------------------------------------------------------------------------

namespace engine_fixture {

using specomp::runtime::Cluster;
using specomp::runtime::Communicator;
using specomp::runtime::SimConfig;
using specomp::spec::EngineConfig;
using specomp::spec::SpecEngine;
using specomp::spec::SpecStats;

struct FixtureRun {
  std::vector<double> finals;
  std::vector<SpecStats> stats;
};

template <class App>
FixtureRun run_fixture(int forward_window) {
  constexpr int kRanks = 3;
  constexpr long kIterations = 10;
  constexpr double kDrift = 0.5;
  SimConfig config;
  config.cluster = Cluster::homogeneous(kRanks, 1e4);
  config.channel.bandwidth_bytes_per_sec = 1e5;
  config.send_sw_time = specomp::des::SimTime::zero();

  FixtureRun run;
  run.finals.resize(kRanks);
  run.stats.resize(kRanks);
  specomp::runtime::run_simulated(config, [&](Communicator& comm) {
    App app(comm.rank(), kDrift);
    EngineConfig engine_config;
    engine_config.forward_window = forward_window;
    // The trajectory is quadratic in the step count; the linear speculator's
    // residual is the constant second difference 0.25 * drift = 0.125, so
    // this threshold rejects every guess and forces rollback + replay.
    engine_config.threshold = 0.05;
    if (forward_window > 0)
      engine_config.speculator = specomp::spec::make_speculator("linear");
    SpecEngine engine(comm, app, engine_config,
                      App::initial_blocks(kRanks));
    run.stats[static_cast<std::size_t>(comm.rank())] =
        engine.run(kIterations);
    run.finals[static_cast<std::size_t>(comm.rank())] = app.value();
  });
  return run;
}

}  // namespace engine_fixture

TEST(AnalyzeEngineFixture, EscapingCounterDivergesUnderRollback) {
  using specomp::spec::testing::EscapingApp;
  const auto sequential = engine_fixture::run_fixture<EscapingApp>(0);
  const auto speculative = engine_fixture::run_fixture<EscapingApp>(1);
  // Rollback + replay actually happened...
  bool replayed = false;
  for (const auto& st : speculative.stats) {
    EXPECT_GT(st.failures, 0u);
    replayed = replayed || st.replayed_iterations > 0;
  }
  EXPECT_TRUE(replayed);
  // ...and because compute_step re-runs with the over-advanced unsaved
  // counter, the speculative run lands on a different trajectory.
  double max_diff = 0.0;
  for (std::size_t r = 0; r < sequential.finals.size(); ++r)
    max_diff = std::max(max_diff, std::fabs(speculative.finals[r] -
                                            sequential.finals[r]));
  EXPECT_GT(max_diff, 1e-6)
      << "replay was expected to diverge on the unsaved counter";
}

TEST(AnalyzeEngineFixture, SnapshottedCounterReplaysExactly) {
  using specomp::spec::testing::CoveredApp;
  const auto sequential = engine_fixture::run_fixture<CoveredApp>(0);
  const auto speculative = engine_fixture::run_fixture<CoveredApp>(1);
  bool replayed = false;
  for (const auto& st : speculative.stats)
    replayed = replayed || st.replayed_iterations > 0;
  EXPECT_TRUE(replayed);  // same rejected guesses, same rollbacks...
  for (std::size_t r = 0; r < sequential.finals.size(); ++r)
    EXPECT_NEAR(speculative.finals[r], sequential.finals[r], 1e-9)
        << "rank " << r;
}

}  // namespace
