// The benchmark's four workloads, each assembled from public API the way
// nbody::run_scenario / apps::run_heat_scenario assemble theirs, so one
// rank body can run either bare or behind the layer_trace.hpp wrappers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layer_trace.hpp"
#include "runtime/phase_timer.hpp"
#include "spec/stats.hpp"

namespace perfbench {

/// What one simulation produced.  Everything except `split` is simulated
/// output and must repeat bit-for-bit for a fixed workload and seed.
struct SimOutput {
  double makespan_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  specomp::spec::SpecStats spec;
  std::vector<specomp::runtime::PhaseTimer> timers;
  /// Final state: particles as (mass, pos, vel) or the heat field.
  std::vector<double> state;
  /// Host-time split; filled only by a traced simulation.
  LayerSplit split;
};

/// FNV-1a over the bytes of the final state.
std::uint64_t state_hash(const std::vector<double>& state);

/// Empty when `a` and `b` agree bit-for-bit on every simulated output
/// (makespan bits, des events, network counters, SpecStats, final-state
/// hash, per-rank phase timers); otherwise names the first field that
/// differs.
std::string first_difference(const SimOutput& a, const SimOutput& b);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int ranks() const = 0;
  virtual long iterations() const = 0;
  /// Whether the workload runs with obs telemetry on, as with the
  /// examples' --metrics-out / --report-out.
  virtual bool telemetry() const { return false; }
  /// Runs one simulation.  With a span log the rank bodies talk through
  /// the tracing wrappers; the simulated outputs must not change.
  virtual SimOutput simulate(SpanLog* log) const = 0;
  /// Distance of a simulation's final state from the serial reference
  /// (nbody::run_serial / apps::serial_heat), in the app's own norm.
  virtual double serial_deviation(const SimOutput& out) const = 0;
  /// Largest serial_deviation the benchmark accepts.
  virtual double serial_tolerance() const = 0;
};

/// Builds a workload with every input derived from `seed`; nullptr for an
/// unknown name.  Seed 0 reproduces the repository's default seeds.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
