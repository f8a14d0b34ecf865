// Performance smoke for the parallel sweep runner (PR: fast measurement
// pipeline).  Runs the Figure-8 measurement grid — the heaviest sweep in the
// suite — once serially and once with --jobs lanes, verifies that the
// simulated results are bit-identical across job counts (virtual time must
// not depend on scheduling), and writes wall-clock + events/sec numbers to
// a JSON report (default BENCH_sweep.json).
//
// The committed BENCH_sweep.json also carries the pre-optimisation baseline
// numbers, measured from the commit immediately before this PR with the
// same grid on the same machine; they are embedded below as constants so
// the before/after comparison survives in one self-describing artifact.
//
// Flags:
//   --jobs=N             parallel lane count for the parallel pass (default 8)
//   --iterations=N       N-body iterations per cell (default 10, the fig8 grid)
//   --out=FILE           report path (default BENCH_sweep.json)
//   --sim-sendrecv-per-sec=X, --kernel-events-per-sec=X
//                        measured items/sec from bench_micro's BM_SimSendRecv
//                        / BM_KernelEvents; when given they are recorded in a
//                        "microbench" section with the ratio vs baseline
//
// Exit codes: 0 ok, 1 determinism violation, 2 report not written.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "nbody/scenario.hpp"
#include "obs/json.hpp"
#include "runtime/sweep.hpp"
#include "support/cli.hpp"

namespace {

using namespace specomp;
using namespace specomp::nbody;

// Pre-PR reference, median of 3 runs of this same grid (10 iterations) and
// of the identical BM_SimSendRecv/BM_KernelEvents sources compiled against
// the pre-PR libraries.  Machine: the 1-CPU container this repo is grown
// in; see the "notes" entry in the report.
constexpr double kBaselineFig8WallSeconds = 0.727;
constexpr double kBaselineSimSendRecvPerSec = 216.8e3;
constexpr double kBaselineKernelEventsPerSec = 32.8e6;

struct Cell {
  std::size_t p;
  int fw;  // -1 = serial reference
};

struct SweepPass {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::vector<NBodyRunResult> runs;
};

SweepPass run_grid(const std::vector<Cell>& cells, long iterations, int jobs) {
  SweepPass pass;
  const auto t0 = std::chrono::steady_clock::now();
  pass.runs = runtime::sweep_map(cells, jobs, [&](const Cell& cell) {
    NBodyScenario s = paper_testbed_scenario(cell.p, iterations);
    if (cell.fw >= 0) {
      s.algorithm =
          cell.fw == 0 ? Algorithm::Fig7Baseline : Algorithm::Speculative;
      s.forward_window = cell.fw;
    }
    return run_scenario(s);
  });
  pass.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& run : pass.runs)
    pass.events += run.sim.kernel_stats.events_executed;
  return pass;
}

/// Bit-level equality of the simulated outputs two passes produced: the
/// virtual-time results must not depend on how many OS threads carried the
/// sweep.  memcmp on the doubles (not ==) so even sign-of-zero or NaN
/// payload differences would be caught.
bool identical_results(const SweepPass& a, const SweepPass& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& ra = a.runs[i];
    const auto& rb = b.runs[i];
    if (std::memcmp(&ra.sim.makespan_seconds, &rb.sim.makespan_seconds,
                    sizeof(double)) != 0)
      return false;
    if (ra.sim.kernel_stats.events_executed !=
        rb.sim.kernel_stats.events_executed)
      return false;
    const double ea = ra.spec.error.mean();
    const double eb = rb.spec.error.mean();
    if (std::memcmp(&ea, &eb, sizeof(double)) != 0) return false;
    if (ra.spec.failures != rb.spec.failures) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const int jobs = cli.get_int("jobs", 8);
  const long iterations = cli.get_int("iterations", 10);
  const std::string out = cli.get("out", "BENCH_sweep.json");
  const double sendrecv_per_sec = cli.get_double("sim-sendrecv-per-sec", 0.0);
  const double kernel_per_sec = cli.get_double("kernel-events-per-sec", 0.0);
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());

  const std::size_t p_values[] = {1, 2, 4, 6, 8, 10, 12, 14, 16};
  std::vector<Cell> cells;
  cells.push_back({1, -1});
  for (const std::size_t p : p_values)
    for (const int fw : {0, 1, 2}) cells.push_back({p, fw});

  std::printf("sweep smoke: %zu cells, %ld iterations, jobs=%d\n",
              cells.size(), iterations, jobs);
  const SweepPass serial = run_grid(cells, iterations, 1);
  std::printf("  jobs=1: %.3f s wall, %.3g events, %.3g events/s\n",
              serial.wall_seconds, static_cast<double>(serial.events),
              static_cast<double>(serial.events) / serial.wall_seconds);
  const SweepPass parallel = run_grid(cells, iterations, jobs);
  std::printf("  jobs=%d: %.3f s wall, %.3g events, %.3g events/s\n", jobs,
              parallel.wall_seconds, static_cast<double>(parallel.events),
              static_cast<double>(parallel.events) / parallel.wall_seconds);

  const bool deterministic = identical_results(serial, parallel);
  std::printf("  deterministic across job counts: %s\n",
              deterministic ? "yes" : "NO — BUG");

  obs::Json report = obs::Json::object();
  report.set("schema", "specomp.bench_sweep.v1");
  report.set("schema_version", 1);
  report.set("grid", [&] {
    obs::Json g = obs::Json::object();
    g.set("bench", "fig8_nbody_speedup");
    g.set("cells", cells.size());
    g.set("iterations", iterations);
    return g;
  }());
  report.set("machine", [&] {
    obs::Json m = obs::Json::object();
    m.set("hardware_concurrency",
          static_cast<unsigned>(std::thread::hardware_concurrency()));
    return m;
  }());
  const auto pass_json = [](const SweepPass& pass, int pass_jobs) {
    obs::Json p = obs::Json::object();
    p.set("jobs", pass_jobs);
    p.set("wall_seconds", pass.wall_seconds);
    p.set("events_executed", pass.events);
    p.set("events_per_second",
          static_cast<double>(pass.events) / pass.wall_seconds);
    return p;
  };
  report.set("serial", pass_json(serial, 1));
  report.set("parallel", pass_json(parallel, jobs));
  report.set("parallel_speedup", serial.wall_seconds / parallel.wall_seconds);
  report.set("deterministic_across_jobs", deterministic);
  report.set("baseline", [&] {
    obs::Json b = obs::Json::object();
    b.set("description",
          "pre-PR measurement: same grid + identical microbenchmark sources "
          "built against the commit before the fast-measurement-pipeline PR");
    b.set("fig8_wall_seconds", kBaselineFig8WallSeconds);
    b.set("sim_sendrecv_msgs_per_second", kBaselineSimSendRecvPerSec);
    b.set("kernel_events_per_second", kBaselineKernelEventsPerSec);
    b.set("single_thread_speedup_vs_baseline",
          kBaselineFig8WallSeconds / serial.wall_seconds);
    return b;
  }());
  if (sendrecv_per_sec > 0.0 || kernel_per_sec > 0.0) {
    obs::Json m = obs::Json::object();
    if (sendrecv_per_sec > 0.0) {
      m.set("sim_sendrecv_msgs_per_second", sendrecv_per_sec);
      m.set("sim_sendrecv_speedup_vs_baseline",
            sendrecv_per_sec / kBaselineSimSendRecvPerSec);
    }
    if (kernel_per_sec > 0.0) {
      m.set("kernel_events_per_second", kernel_per_sec);
      m.set("kernel_events_speedup_vs_baseline",
            kernel_per_sec / kBaselineKernelEventsPerSec);
    }
    report.set("microbench", std::move(m));
  }
  report.set("notes",
             "Simulated results (virtual time) are bit-identical at every "
             "--jobs value; --jobs only changes wall-clock. On a single-CPU "
             "host parallel lanes cannot beat jobs=1 for this CPU-bound "
             "sweep — the parallel_speedup field reflects the machine the "
             "report was generated on (see machine.hardware_concurrency).");

  std::ofstream stream(out);
  stream << report.dump(2) << '\n';
  if (!stream) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out.c_str());

  return deterministic ? 0 : 1;
}
