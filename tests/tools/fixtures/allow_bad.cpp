// Fixture: malformed directives are themselves findings (bad-annotation),
// and a bare allow() without justification does NOT silence the rule.
#include <chrono>

double wall_probe() {
  auto a = std::chrono::steady_clock::now();  // specomp: allow(wall-clock)
  auto b = std::chrono::steady_clock::now();  // specomp: allow(not-a-rule): justified but unknown id
  return std::chrono::duration<double>(b - a).count();
}
