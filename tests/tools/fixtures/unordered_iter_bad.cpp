// Fixture: iterating an unordered container in order-sensitive code.
// Checked under the synthetic path src/runtime/fixture.cpp.
#include <string>
#include <unordered_map>

std::string serialize(const std::unordered_map<int, double>& by_tag) {
  std::string out;
  for (const auto& [tag, value] : by_tag) {  // line 8: range-for
    out += std::to_string(tag) + "=" + std::to_string(value) + ";";
  }
  std::unordered_map<int, int> counts;
  for (auto it = counts.begin(); it != counts.end(); ++it) {  // line 12: .begin()
    out += std::to_string(it->first);
  }
  return out;
}
