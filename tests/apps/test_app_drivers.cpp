// The scenario→engine contract every application inherits from
// spec::run_app_scenario: names are checked before the run and errors name
// the scenario type, and the model window policy records the delay/service
// distributions it reads even when the caller left recording off.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>

#include "apps/heat.hpp"
#include "apps/jacobi.hpp"
#include "nbody/scenario.hpp"

namespace specomp {
namespace {

using Tweak = std::function<void(spec::EngineOptions&)>;

runtime::SimConfig small_sim(std::size_t p) {
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::homogeneous(p, 1e5);
  config.channel.bandwidth_bytes_per_sec = 5e4;
  config.channel.extra_delay = nullptr;
  config.send_sw_time = des::SimTime::micros(100);
  return config;
}

runtime::SimResult run_nbody(const Tweak& tweak) {
  nbody::NBodyScenario s;
  s.body.n = 48;
  s.iterations = 6;
  s.sim = small_sim(3);
  tweak(s);
  return nbody::run_scenario(s).sim;
}

runtime::SimResult run_heat(const Tweak& tweak) {
  apps::HeatScenario s;
  s.problem.n = 48;
  s.iterations = 6;
  s.sim = small_sim(3);
  tweak(s);
  return apps::run_heat_scenario(s).sim;
}

runtime::SimResult run_jacobi(const Tweak& tweak) {
  apps::JacobiScenario s;
  s.n = 48;
  s.iterations = 6;
  s.sim = small_sim(3);
  tweak(s);
  return apps::run_jacobi_scenario(s).sim;
}

struct AppCase {
  std::string scenario;  // type name validation errors must carry
  std::function<runtime::SimResult(const Tweak&)> run;
};

// Without a printer gtest writes the struct's raw bytes into each test's
// "GetParam() =" listing, and those bytes start with a heap pointer, so the
// discovered test names changed from one build (and one run) to the next.
void PrintTo(const AppCase& c, std::ostream* os) { *os << c.scenario; }

class AppDriver : public ::testing::TestWithParam<AppCase> {
 protected:
  /// The message a run with `tweak` throws; "" when it does not throw.
  std::string invalid_argument_of(const Tweak& tweak) const {
    try {
      (void)GetParam().run(tweak);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  }
};

TEST_P(AppDriver, UnknownWindowPolicyNamesTheScenario) {
  EXPECT_EQ(invalid_argument_of(
                [](spec::EngineOptions& o) { o.window_policy = "hill-climb"; }),
            GetParam().scenario + ": unknown window_policy \"hill-climb\"");
}

TEST_P(AppDriver, UnknownThetaPolicyNamesTheScenario) {
  EXPECT_EQ(invalid_argument_of(
                [](spec::EngineOptions& o) { o.theta_policy = "banana"; }),
            GetParam().scenario + ": unknown theta_policy \"banana\"");
}

TEST_P(AppDriver, UnknownSpeculatorNamesTheScenario) {
  EXPECT_EQ(invalid_argument_of(
                [](spec::EngineOptions& o) { o.speculator = "weighted"; }),
            GetParam().scenario + ": unknown speculator \"weighted\"");
}

TEST_P(AppDriver, ModelPolicyRecordsDistsEvenWhenRecordingIsOff) {
  // Control: a fixed window with recording off records nothing.
  EXPECT_TRUE(GetParam().run([](spec::EngineOptions&) {}).dists.empty());
  const runtime::SimResult model = GetParam().run(
      [](spec::EngineOptions& o) { o.window_policy = "model"; });
  EXPECT_FALSE(model.dists.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppDriver,
    ::testing::Values(AppCase{"NBodyScenario", run_nbody},
                      AppCase{"HeatScenario", run_heat},
                      AppCase{"JacobiScenario", run_jacobi}),
    [](const ::testing::TestParamInfo<AppCase>& info) {
      return info.param.scenario;
    });

}  // namespace
}  // namespace specomp
