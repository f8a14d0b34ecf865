// Retired metrics switch, kept so callers written against it still build.
//
// Per-run telemetry comes only from the result structs each run returns
// (SimResult, SpecStats, ChannelStats, FaultStats), rendered by
// obs::RunReport; there is no process-global registry to switch on.
// set_metrics_enabled has no effect and metrics_enabled always returns
// false.  Nothing under src/ calls either.
#pragma once

namespace specomp::obs {

inline void set_metrics_enabled(bool /*on*/) noexcept {}
inline bool metrics_enabled() noexcept { return false; }

}  // namespace specomp::obs
