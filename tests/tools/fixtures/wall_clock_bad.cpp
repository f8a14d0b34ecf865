// Fixture: wall-clock reads inside deterministic simulation code.
// Checked under the synthetic path src/des/fixture.cpp.
#include <chrono>
#include <ctime>

double sample_latency() {
  auto now = std::chrono::steady_clock::now();  // line 7: steady_clock
  (void)now;
  return static_cast<double>(time(nullptr));  // line 9: time()
}
