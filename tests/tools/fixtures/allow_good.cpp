// Fixture: a justified allow() silences the rule — same line or line above.
#include <chrono>

double wall_probe() {
  // specomp: allow(wall-clock): fixture exercising the directive above a line
  auto a = std::chrono::steady_clock::now();
  auto b = std::chrono::steady_clock::now();  // specomp: allow(wall-clock): same-line directive
  return std::chrono::duration<double>(b - a).count();
}
