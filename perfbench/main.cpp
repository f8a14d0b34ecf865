// perfbench_specomp: runs one workload as a closed loop of back-to-back
// simulations and prints one JSON line of raw results.
//
//   perfbench_specomp --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--spans-out=FILE]
//
// The process first sets up (input generation plus the first, untimed
// simulation, whose duration is reported as setup_s) and warms up briefly.
// --trace=0 then times untraced simulations for S seconds.  --trace=1
// spends half of S on untraced simulations (OS counters, the untraced
// median) and half on simulations run through the layer_trace.hpp
// wrappers, and reports the per-layer split.  Every simulation must
// reproduce the first one's simulated outputs bit-for-bit, and the first
// must match the serial reference; any miss is listed under "failures" and
// the exit code is 1.  perfbench/run.py builds this binary, runs it and
// turns its output into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"
#include "support/cpu_features.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using specomp::obs::Json;
using specomp::runtime::Phase;

/// Fewest simulations a measuring loop runs, however long they take.
constexpr std::size_t kMinSims = 5;
/// Untimed simulations before the untraced loop: the first simulations
/// after an idle spell run measurably faster than the steady state.
constexpr double kWarmupSeconds = 0.5;

double seconds_since(std::int64_t begin_ns) {
  return static_cast<double>(SpanLog::now_ns() - begin_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid] + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double voluntary_csw = 0.0;
  double involuntary_csw = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw),
               static_cast<double>(ru.ru_nivcsw),
               static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Checks simulations against the first one and counts outcomes.
class Gate {
 public:
  explicit Gate(const SimOutput& reference) : reference_(reference) {}

  void check(const SimOutput& out, const char* what) {
    ++attempted_;
    const std::string diff = first_difference(reference_, out);
    if (diff.empty()) return;
    ++failed_;
    failures_.push_back(std::string(what) + " simulation " +
                        std::to_string(attempted_) + " differs in " + diff);
  }
  void fail(std::string why) {
    ++failed_;
    failures_.push_back(std::move(why));
  }
  void count_reference() { ++attempted_; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  const SimOutput& reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Untraced closed loop: simulations back to back until `seconds` pass.
struct LoopResult {
  std::vector<double> wall_s;
  double elapsed_s = 0.0;
  Usage usage;  ///< totals over the loop
};

LoopResult run_untraced(const Workload& workload, double seconds, Gate& gate) {
  const std::int64_t warmup = SpanLog::now_ns();
  while (seconds_since(warmup) < kWarmupSeconds)
    gate.check(workload.simulate(nullptr), "warm-up");
  LoopResult loop;
  const Usage before = usage_now();
  const std::int64_t begin = SpanLog::now_ns();
  while (loop.wall_s.size() < kMinSims || seconds_since(begin) < seconds) {
    const std::int64_t sim_begin = SpanLog::now_ns();
    const SimOutput out = workload.simulate(nullptr);
    loop.wall_s.push_back(seconds_since(sim_begin));
    gate.check(out, "untraced");
  }
  loop.elapsed_s = seconds_since(begin);
  const Usage after = usage_now();
  loop.usage = Usage{after.user_s - before.user_s, after.sys_s - before.sys_s,
                     after.voluntary_csw - before.voluntary_csw,
                     after.involuntary_csw - before.involuntary_csw,
                     after.max_rss_mb};
  return loop;
}

/// Traced loop: every simulation runs through the wrappers; the spans of
/// the first one are kept for writing out.
struct TracedResult {
  std::vector<LayerSplit> splits;
  SpanLog first_log{0};
};

TracedResult run_traced(const Workload& workload, double seconds, Gate& gate) {
  TracedResult traced;
  std::size_t capacity = 0;
  const std::int64_t begin = SpanLog::now_ns();
  while (traced.splits.size() < kMinSims || seconds_since(begin) < seconds) {
    SpanLog log(workload.ranks());
    log.reserve(capacity);
    const SimOutput out = workload.simulate(&log);
    gate.check(out, "traced");
    traced.splits.push_back(out.split);
    capacity = log.spans().size();
    if (traced.splits.size() == 1) traced.first_log = std::move(log);
  }
  return traced;
}

Json loop_json(const LoopResult& loop) {
  Json walls = Json::array();
  for (double wall : loop.wall_s) walls.push_back(wall);
  Json j = Json::object();
  j.set("sims", loop.wall_s.size());
  j.set("elapsed_s", loop.elapsed_s);
  j.set("cpu_s", loop.usage.user_s + loop.usage.sys_s);
  j.set("max_rss_mb", loop.usage.max_rss_mb);
  j.set("sim_wall_s", std::move(walls));
  return j;
}

Json per_layer(const Workload& workload, const SimOutput& reference,
               const LoopResult& loop, const TracedResult& traced) {
  const auto layer_median = [&](auto&& value) {
    std::vector<double> values;
    for (const LayerSplit& split : traced.splits) values.push_back(value(split));
    return median(std::move(values));
  };
  const auto self_median = [&](SpanKind kind) {
    return layer_median([kind](const LayerSplit& s) { return s.self(kind); });
  };
  const auto events = static_cast<double>(reference.events);
  const auto messages = static_cast<double>(reference.messages);
  const auto sims = static_cast<double>(loop.wall_s.size());
  const specomp::spec::SpecStats& spec = reference.spec;
  Json m = Json::object();
  const double wall = layer_median([](const LayerSplit& s) { return s.wall_s; });
  m.set("trace.wall_s", wall);
  m.set("trace.overhead_frac", wall / median(loop.wall_s) - 1.0);
  m.set("app.compute_s", self_median(SpanKind::AppCompute));
  m.set("app.compute_frac", layer_median([](const LayerSplit& s) {
          return s.self(SpanKind::AppCompute) / s.wall_s;
        }));
  m.set("app.ops_per_s", layer_median([](const LayerSplit& s) {
          return s.compute_ops / s.self(SpanKind::AppCompute);
        }));
  m.set("app.check_s", self_median(SpanKind::AppCheck));
  m.set("app.correct_s", self_median(SpanKind::AppCorrect));
  m.set("app.checkpoint_s", self_median(SpanKind::AppCheckpoint));
  m.set("app.exchange_s", self_median(SpanKind::AppExchange));
  m.set("spec.predict_s", self_median(SpanKind::SpecPredict));
  m.set("spec.engine_s", self_median(SpanKind::RankBody));
  m.set("runtime.try_recv_s", self_median(SpanKind::RuntimeTryRecv));
  m.set("runtime.dist_snapshot_s", self_median(SpanKind::RuntimeSnapshot));
  m.set("des_runtime.outside_s",
        layer_median([](const LayerSplit& s) { return s.outside_s; }));
  m.set("des_runtime.outside_frac",
        layer_median([](const LayerSplit& s) { return s.outside_s / s.wall_s; }));
  m.set("des.host_us_per_event", layer_median([&](const LayerSplit& s) {
          return s.outside_s / events * 1e6;
        }));
  m.set("net.host_us_per_message", layer_median([&](const LayerSplit& s) {
          return s.outside_s / messages * 1e6;
        }));
  m.set("os.user_s", loop.usage.user_s / sims);
  m.set("os.sys_s", loop.usage.sys_s / sims);
  m.set("os.voluntary_csw", loop.usage.voluntary_csw / sims);
  m.set("os.involuntary_csw", loop.usage.involuntary_csw / sims);
  m.set("des.events", events);
  m.set("des.queue_peak", static_cast<double>(reference.queue_peak));
  m.set("net.messages", messages);
  m.set("net.wire_bytes", static_cast<double>(reference.wire_bytes));
  m.set("spec.speculated", static_cast<double>(spec.blocks_speculated));
  m.set("spec.checks", static_cast<double>(spec.checks));
  m.set("spec.failures", static_cast<double>(spec.failures));
  m.set("spec.rollbacks", static_cast<double>(spec.rollbacks));
  m.set("spec.replayed_iterations",
        static_cast<double>(spec.replayed_iterations));
  m.set("spec.incremental_corrections",
        static_cast<double>(spec.incremental_corrections));
  m.set("spec.accept_frac",
        spec.blocks_speculated == 0
            ? 1.0
            : static_cast<double>(spec.checks - spec.failures) /
                  static_cast<double>(spec.blocks_speculated));
  m.set("spec.max_cascade_depth", spec.max_cascade_depth);
  m.set("spec.max_window", spec.max_window_used);
  const std::pair<const char*, Phase> phases[] = {
      {"virtual.compute_s_per_iter", Phase::Compute},
      {"virtual.comm_wait_s_per_iter", Phase::Communicate},
      {"virtual.speculate_s_per_iter", Phase::Speculate},
      {"virtual.check_s_per_iter", Phase::Check},
      {"virtual.correct_s_per_iter", Phase::Correct},
  };
  const double rank_iters = static_cast<double>(workload.ranks()) *
                            static_cast<double>(workload.iterations());
  for (const auto& [name, phase] : phases) {
    double sum = 0.0;
    for (const auto& timer : reference.timers)
      sum += timer.get(phase).to_seconds();
    m.set(name, sum / rank_iters);
  }
  return m;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

Json fingerprint() {
  namespace cpu = specomp::support::cpu;
  const cpu::Features& features = cpu::features();
  Json f = Json::object();
  f.set("compiler", PERFBENCH_COMPILER);
  f.set("build_type", PERFBENCH_BUILD_TYPE);
  f.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  f.set("cpu_model", cpu_model());
  f.set("nproc", std::thread::hardware_concurrency());
  f.set("simd_tier", features.usable_avx512() ? "avx512"
                     : features.usable_avx2() ? "avx2"
                                              : "generic");
  f.set("cpu_features", cpu::describe(features));
  f.set("pool_workers", specomp::support::ThreadPool::shared().worker_count());
  for (const char* name : {"SPECOMP_POOL_WORKERS", "SPECOMP_CPU_LIMIT"})
    if (const char* value = std::getenv(name)) f.set(name, value);
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start = SpanLog::now_ns();
  const specomp::support::Cli cli(argc, argv);
  const std::string name = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string spans_out = cli.get("spans-out", "");
  for (const auto& unknown : cli.unused()) {
    std::fprintf(stderr, "error: unknown option --%s\n", unknown.c_str());
    return 2;
  }

  // ---- setup: input generation plus the first, untimed simulation ----
  const std::unique_ptr<Workload> workload = make_workload(name, seed);
  if (workload == nullptr || !(seconds > 0.0)) {
    std::fprintf(stderr, "error: unknown --workload '%s' or bad --seconds\n",
                 name.c_str());
    return 2;
  }
  // The metrics registry is process-global: one workload per process.
  specomp::obs::set_metrics_enabled(workload->telemetry());
  const SimOutput reference = workload->simulate(nullptr);
  const double setup_s = seconds_since(start);

  Gate gate(reference);
  gate.count_reference();
  const double deviation = workload->serial_deviation(reference);
  if (!(deviation <= workload->serial_tolerance()))
    gate.fail("first simulation is " + std::to_string(deviation) +
              " from the serial reference (tolerance " +
              std::to_string(workload->serial_tolerance()) + ")");

  const LoopResult loop =
      run_untraced(*workload, trace ? seconds / 2 : seconds, gate);
  Json result = Json::object();
  result.set("workload", name);
  result.set("seed", static_cast<double>(seed));
  result.set("setup_s", setup_s);
  result.set("rank_iters", static_cast<double>(workload->ranks()) *
                               static_cast<double>(workload->iterations()));
  result.set("virtual_s_per_iter",
             reference.makespan_s / static_cast<double>(workload->iterations()));
  result.set("loop", loop_json(loop));
  if (trace) {
    const TracedResult traced = run_traced(*workload, seconds / 2, gate);
    result.set("traced_samples", traced.splits.size());
    result.set("per_layer", per_layer(*workload, reference, loop, traced));
    if (!spans_out.empty() && !write_spans(spans_out, traced.first_log))
      gate.fail("could not write " + spans_out);
  }

  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016" PRIx64,
                state_hash(reference.state));
  Json digest = Json::object();
  digest.set("makespan_s", reference.makespan_s);
  digest.set("des_events", static_cast<double>(reference.events));
  digest.set("state_hash", std::string(hash));
  digest.set("serial_deviation", deviation);
  digest.set("serial_tolerance", workload->serial_tolerance());
  result.set("digest", std::move(digest));
  result.set("attempted", static_cast<double>(gate.attempted()));
  result.set("failed", static_cast<double>(gate.failed()));
  Json failures = Json::array();
  for (const auto& failure : gate.failures()) failures.push_back(failure);
  result.set("failures", std::move(failures));
  result.set("fingerprint", fingerprint());
  std::printf("%s\n", result.dump().c_str());
  return gate.failed() == 0 ? 0 : 1;
}
