// Runtime CPU-feature detection (CPUID plus XGETBV for OS register-state
// support), for reporting only: benchmark artifacts and host lines name the
// ISA the results were measured on.  Nothing that a simulation computes
// consults it — force-kernel selection depends on block sizes alone
// (nbody/kernels/dispatch.hpp), so the simulated bits do not change with
// the CPU.
#pragma once

#include <string>

namespace specomp::support::cpu {

/// The x86 vector features a host fingerprint names.  All-false on non-x86
/// builds.
struct Features {
  bool sse2 = false;
  bool fma = false;
  bool avx = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512dq = false;
  /// OS saves/restores YMM state (XGETBV xcr0 bits 1-2).
  bool os_avx = false;
  /// OS saves/restores opmask + ZMM state (xcr0 bits 5-7).
  bool os_avx512 = false;

  /// AVX2 + FMA with YMM OS support.
  bool usable_avx2() const noexcept { return avx2 && fma && os_avx; }
  /// AVX-512 F+DQ with ZMM/opmask OS support.
  bool usable_avx512() const noexcept {
    return avx512f && avx512dq && os_avx512;
  }
};

/// Raw detection: CPUID leaves 1/7 + XGETBV.
Features detect() noexcept;

/// detect(), run once per process and cached.
const Features& features() noexcept;

/// Human-readable summary, e.g. "sse2 avx avx2 fma avx512f avx512dq".
std::string describe(const Features& f);

}  // namespace specomp::support::cpu
