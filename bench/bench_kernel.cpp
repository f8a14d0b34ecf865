// Force-kernel throughput snapshot: scalar vs tiled vs tiled-mt, plus a
// kernel x integrator sweep.
//
//   $ ./bench/bench_kernel --reps 5 --report-out BENCH_kernel.json
//   $ ./bench/bench_kernel --quick --report-out BENCH_kernel.ci.json
//
// For each N the full N x N accumulation (skip_offset = 0, the
// all_accelerations shape) runs `reps` times per kernel; the best wall time
// per kernel yields Mpairs/s and speedup over the scalar reference.  Every
// non-scalar result is also checked against the scalar oracle; a max-abs
// deviation above 1e-10 fails the run (exit 1), which is what the CI perf
// smoke step relies on.
//
// The integrator sweep runs a one-rank NBodyApp (the real engine step path)
// for each kernel x integrator pair and reports wall time per step plus the
// force evaluations each integrator bills — the cost model behind
// compute_ops.  --quick trims sizes and reps for CI smoke use.
// Wall-clock only — virtual-time accounting in the simulated runs is
// analytic and does not move with kernel speed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "nbody/app.hpp"
#include "nbody/init.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "nbody/types.hpp"
#include "obs/artifacts.hpp"
#include "support/cli.hpp"
#include "support/cpu_features.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace specomp;
using nbody::Vec3;
using nbody::kernels::ForceKernel;

struct KernelSample {
  double best_seconds = 0.0;
  double max_abs_dev = 0.0;  // vs the scalar result for the same input
};

double max_abs_deviation(const std::vector<Vec3>& a,
                         const std::vector<Vec3>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i].x - b[i].x));
    worst = std::max(worst, std::fabs(a[i].y - b[i].y));
    worst = std::max(worst, std::fabs(a[i].z - b[i].z));
  }
  return worst;
}

KernelSample run_kernel(ForceKernel kind, std::span<const Vec3> pos,
                        std::span<const double> mass, double softening2,
                        long reps, const std::vector<Vec3>& oracle) {
  KernelSample sample;
  sample.best_seconds = 1e300;
  std::vector<Vec3> acc(pos.size());
  for (long r = 0; r < reps; ++r) {
    acc.assign(pos.size(), Vec3{});
    const auto start = std::chrono::steady_clock::now();
    nbody::kernels::accumulate(kind, pos, pos, mass, softening2, 0, acc);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    sample.best_seconds = std::min(sample.best_seconds, seconds);
  }
  if (!oracle.empty()) sample.max_abs_dev = max_abs_deviation(acc, oracle);
  return sample;
}

/// Max-abs deviation from the scalar oracle a kernel may show.
constexpr double kDeviationBudget = 1e-10;

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("bench_kernel", cli);
  const bool quick = cli.get_bool("quick");
  const long reps = quick ? 2 : cli.get_int("reps", 5);
  const double softening2 = cli.get_double("softening2", 1e-3);
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());

  std::vector<std::size_t> sizes = {256, 1000, 4096};
  if (quick) sizes = {256, 1000};
  const ForceKernel kernels[] = {ForceKernel::Scalar, ForceKernel::Tiled,
                                 ForceKernel::TiledMT};

  support::Table table({"kernel", "n", "best_ms", "mpairs_per_s", "speedup",
                        "max_abs_dev"});
  bool deviation_ok = true;

  const std::string cpu =
      support::cpu::describe(support::cpu::features());
  std::printf("force-kernel throughput (reps=%ld, pool workers=%u, cpu: %s)\n",
              reps, support::ThreadPool::shared().worker_count(), cpu.c_str());
  for (const std::size_t n : sizes) {
    const auto particles = nbody::init_plummer(n, 1);
    std::vector<Vec3> pos(n);
    std::vector<double> mass(n);
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = particles[i].pos;
      mass[i] = particles[i].mass;
    }

    // Scalar first: its output is the oracle for this input.
    std::vector<Vec3> oracle(n);
    nbody::kernels::accumulate(ForceKernel::Scalar, pos, pos, mass, softening2,
                               0, oracle);

    double scalar_seconds = 0.0;
    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    for (const ForceKernel kind : kernels) {
      const KernelSample sample =
          run_kernel(kind, pos, mass, softening2, reps, oracle);
      if (kind == ForceKernel::Scalar) scalar_seconds = sample.best_seconds;
      const double speedup = scalar_seconds / sample.best_seconds;
      const double mpairs = pairs / sample.best_seconds / 1e6;
      const std::string name(nbody::kernels::force_kernel_name(kind));
      table.row()
          .add(name)
          .add(n)
          .add(sample.best_seconds * 1e3)
          .add(mpairs, 1)
          .add(speedup, 2)
          .add(sample.max_abs_dev, 12);
      std::printf(
          "  %-11s n=%-5zu %9.3f ms  %9.1f Mpairs/s  %5.2fx  dev %.2e\n",
          name.c_str(), n, sample.best_seconds * 1e3, mpairs, speedup,
          sample.max_abs_dev);
      artifacts.add_entry("speedup_" + name + "_n" + std::to_string(n),
                          obs::Json(speedup));
      artifacts.add_entry("max_abs_dev_" + name + "_n" + std::to_string(n),
                          obs::Json(sample.max_abs_dev));
      if (sample.max_abs_dev > kDeviationBudget) {
        deviation_ok = false;
        std::fprintf(stderr,
                     "error: %s kernel deviates %.3e from scalar at n=%zu "
                     "(budget %.0e)\n",
                     name.c_str(), sample.max_abs_dev, n, kDeviationBudget);
      }
    }
  }

  // Kernel x integrator sweep over the real engine step path (one-rank
  // NBodyApp): wall time per step and the force evaluations each integrator
  // bills into compute_ops.
  const std::size_t sweep_n = quick ? 512 : 1000;
  const long sweep_steps = quick ? 3 : 8;
  const char* integrators[] = {"leapfrog", "rk4", "rk45"};
  support::Table sweep({"kernel", "integrator", "ms_per_step",
                        "force_evals_per_step"});
  std::printf("\nkernel x integrator (n=%zu, %ld steps each)\n", sweep_n,
              sweep_steps);
  const auto sweep_particles = nbody::init_plummer(sweep_n, 1);
  const nbody::Partition whole =
      nbody::Partition::from_counts({sweep_n});
  for (const ForceKernel kind : {ForceKernel::Tiled, ForceKernel::TiledMT}) {
    const std::string kname(nbody::kernels::force_kernel_name(kind));
    nbody::kernels::set_default_force_kernel(kind);
    for (const char* integ : integrators) {
      nbody::NBodyConfig config;
      config.n = sweep_n;
      config.integrator = integ;
      nbody::NBodyApp app(config, whole, sweep_particles, 0);
      double evals = 0.0;
      const auto start = std::chrono::steady_clock::now();
      for (long step = 0; step < sweep_steps; ++step) {
        app.compute_step();
        evals += static_cast<double>(app.force_evals_last_step());
      }
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      const double ms_per_step =
          seconds * 1e3 / static_cast<double>(sweep_steps);
      const double evals_per_step = evals / static_cast<double>(sweep_steps);
      sweep.row().add(kname).add(integ).add(ms_per_step).add(evals_per_step,
                                                             1);
      std::printf("  %-11s %-9s %9.3f ms/step  %5.1f force evals/step\n",
                  kname.c_str(), integ, ms_per_step, evals_per_step);
      artifacts.add_entry("ms_per_step_" + kname + "_" + integ,
                          obs::Json(ms_per_step));
      artifacts.add_entry("force_evals_per_step_" + std::string(integ),
                          obs::Json(evals_per_step));
    }
  }
  nbody::kernels::set_default_force_kernel(ForceKernel::Auto);

  artifacts.add_table("kernel_throughput", table);
  artifacts.add_table("kernel_integrator_sweep", sweep);
  artifacts.add_entry("reps", obs::Json(static_cast<std::size_t>(reps)));
  artifacts.add_entry("quick", obs::Json(quick));
  artifacts.add_entry("cpu_features", obs::Json(cpu));
  artifacts.add_entry("pool_workers",
                      obs::Json(static_cast<std::size_t>(
                          support::ThreadPool::shared().worker_count())));
  if (!artifacts.flush()) return 1;
  return deviation_ok ? 0 : 1;
}
