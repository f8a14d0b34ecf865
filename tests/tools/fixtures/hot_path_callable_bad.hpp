// Fixture: std::function in a DES hot-path header.  Checked under the
// synthetic path src/des/fixture.hpp.
#pragma once
#include <functional>

struct Event {
  std::function<void()> callback;  // line 7: heap-allocating callable
};
